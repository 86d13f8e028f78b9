"""factolab: exact factorization-theory workbench.

Classify finitely generated pointed commutative monoids given by rational
generator vectors (unique / length / half factoriality, prime and purely
long or short atoms, master relations), construct extremal examples, and
verify irreducibility witnesses in monoid semirings.

``import factolab`` loads ``linalg``, ``monoid`` and ``classify``;
``construct`` and ``semiring`` load on first use of one of their names.
"""

import importlib

from .classify import (
    AtomLabel,
    ClassificationReport,
    FactorizationRelation,
    classify,
    relation_evidence,
)
from .linalg import (
    DimensionMismatch,
    InternalContradiction,
    LatticeBasis,
    format_rational,
    homogeneous_lp_witness,
    integer_kernel,
    parse_rational,
)
from .monoid import (
    BudgetExceeded,
    DuplicateGenerator,
    Grading,
    InvalidGenerator,
    MonoidPresentation,
    NotAnAtom,
    NotNormalized,
    NotPointed,
    atomic_divisors,
    length_set,
    enumerate_factorizations,
    ensure_normalized,
    normalize_atoms,
    validate_presentation,
)

# name -> the submodule that defines it, imported on first access (PEP 562).
# classify stays eager: importing a submodule binds it as a package attribute,
# which here would shadow the function of the same name.
_LAZY = {name: "construct" for name in (
    "Fixture", "InvalidMasterSpec", "MasterSpec", "build_master_monoid",
    "fixture_gallery", "pls_example", "verify_gallery",
)} | {name: "semiring" for name in (
    "AlgebraWitness", "InvalidPair", "NumericalMonoid", "SemiringPolynomial",
    "algebra_witness", "binomial_irreducibility_check", "case1_relation",
    "is_additive_atom", "monoid_elements_up_to", "natural_atom_test",
    "poly_divide_exact", "poly_mul", "poly_pow",
)}


def __getattr__(name: str):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_LAZY[name]}", __name__), name)
    globals()[name] = value  # later lookups no longer reach this function
    return value


# the names imported above and the lazy ones; importing a submodule binds
# its name too, which is no part of the API
__all__ = sorted({name for name in globals() if not name.startswith("_")} - {"importlib", "linalg", "monoid"} | set(_LAZY))

__version__ = "0.1.0"
