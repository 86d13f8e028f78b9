"""Constructors for monoids with prescribed factorization behaviour.

Three families are provided:

* ``build_master_monoid`` realizes any admissible pair of positive integer
  tuples ``(a, b)`` as the unique master factorization relation of a finitely
  generated pointed monoid: ``a`` becomes the multiplicity vector of the long
  side and ``b`` of the short side, every generator is an atom, and the kernel
  lattice of the presentation has rank one.

* ``pls_example`` builds, for given pure-atom counts, the first admissible
  ``(a, b)`` under a deterministic ordering in closed form, so that the
  resulting monoid has exactly the requested numbers of purely long and
  purely short atoms.

* ``fixture_gallery`` assembles a fixed tour of small presentations whose
  classification outcomes are known in closed form, each paired with the
  expected report fields; ``verify_gallery`` diffs expectations against the
  classifier.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Optional, Sequence

from . import linalg
from .classify import ClassificationReport, classify
from .monoid import MonoidPresentation

__all__ = [
    "Fixture",
    "InvalidMasterSpec",
    "MasterSpec",
    "build_master_monoid",
    "fixture_gallery",
    "pls_example",
    "verify_gallery",
]


class InvalidMasterSpec(ValueError):
    """The requested multiplicity pair cannot be a master relation."""


class MasterSpec(linalg.Frozen):
    """Multiplicity data ``(a, b)`` for a master factorization relation.

    ``long_side`` lists the multiplicities of the atoms on the long side of
    the relation and ``short_side`` those on the short side.  Admissibility:

    * every entry is a positive integer,
    * the joint gcd of all entries is one (otherwise the relation is a
      multiple of a smaller one),
    * the long side is strictly longer: ``sum(a) > sum(b)``,
    * a short side consisting of a single atom must carry multiplicity at
      least two, or the relation would let that generator be factored into
      the others.  (A lone long atom is forced to multiplicity at least two
      by the sum condition already.)
    """

    def __init__(self, long_side: tuple[int, ...], short_side: tuple[int, ...]):
        a, b = long_side, short_side
        if not a or not b:
            raise InvalidMasterSpec("both sides need at least one atom")
        for entry in (*a, *b):
            if not isinstance(entry, int) or isinstance(entry, bool) or entry < 1:
                raise InvalidMasterSpec(
                    f"multiplicities must be positive integers, got {linalg.excerpt(repr(entry))}"
                )
        if gcd(*a, *b) != 1:
            raise InvalidMasterSpec(
                "joint gcd of the multiplicities must be 1, "
                f"got {linalg.excerpt(gcd(*a, *b))} for {linalg.excerpt(a)} | {linalg.excerpt(b)}"
            )
        if sum(a) <= sum(b):
            raise InvalidMasterSpec(
                f"long side must be strictly longer: sum{linalg.excerpt(a)} <= sum{linalg.excerpt(b)}"
            )
        if len(b) == 1 and b[0] == 1:
            raise InvalidMasterSpec(
                "a single short atom with multiplicity 1 would not be an atom"
            )
        self.__dict__.update(long_side=a, short_side=b)

    def _key(self) -> tuple:
        return self.long_side, self.short_side

    @property
    def long_count(self) -> int:
        return len(self.long_side)

    @property
    def short_count(self) -> int:
        return len(self.short_side)

    def kernel_vector(self) -> tuple[int, ...]:
        """The relation as a lattice vector: long side positive."""
        return (*self.long_side, *(-x for x in self.short_side))


def build_master_monoid(spec: MasterSpec) -> MonoidPresentation:
    """Realize ``spec`` as the master relation of a pointed monoid.

    With ``m`` long atoms and ``n`` short atoms the monoid lives in
    dimension ``m + n - 1``.  The long atoms and all but the last short atom
    are the standard basis vectors; the final short atom is the rational
    vector making ``sum(a_i * alpha_i) == sum(b_j * beta_j)`` hold exactly.
    The kernel lattice of the presentation is then spanned by the requested
    relation, so the classification of the result is fully prescribed.
    """
    a, b = spec.long_side, spec.short_side
    dim = spec.long_count + spec.short_count - 1
    generators = [[int(i == j) for j in range(dim)] for i in range(dim)]
    generators.append([Fraction(c, b[-1]) for c in (*a, *(-b_j for b_j in b[:-1]))])
    label = "master-" + "-".join(map(str, (*a, "over", *b)))
    return MonoidPresentation.from_generators(generators, label=label)


def pls_example(purely_long: int, purely_short: int) -> MonoidPresentation:
    """A monoid with the requested pure-atom counts and no other atoms.

    Realizes the first admissible master spec with L = ``purely_long`` long and
    S = ``purely_short`` short atoms under iterative deepening on the maximum
    multiplicity, then lexicographic order on ``a + b``.  That spec has a
    closed form.  For S >= 2 every ``b`` sums to at least S, and ``1^S`` works
    for any ``a`` with ``sum(a) > S``: the cap is the least c >= 2 with
    ``c * L > S``, and ``a`` the lexicographically first tuple in ``[1..c]^L``
    summing past S.  For S = 1, ``(1,)`` is barred and ``(2,)`` needs
    ``sum(a) > 2`` and an odd entry in ``a``: ``(3,)`` for L = 1, ``(1, 2)``
    for L = 2 and ``1^L`` beyond.  Every admissible spec has the requested
    counts: the kernel of its realization is spanned by the primitive
    w = (a, -b), whose coordinate sum sigma(w) = sum(a) - sum(b) is positive.
    By the purity rule of :mod:`factolab.classify`, which in rank one reads
    atom i as purely long iff sigma(w) w_i > 0 and purely short iff
    sigma(w) w_i < 0, each long atom is purely long and each short atom purely
    short.  More than
    ``linalg.MAX_STEPS`` output coordinates, (L + S - 1)^2, raise BudgetExceeded.
    A count that is not an ``int`` (a ``bool`` included) raises ``ValueError``.
    """
    for count in (purely_long, purely_short):
        if not isinstance(count, int) or isinstance(count, bool):
            raise ValueError(f"pure-atom count {linalg.excerpt(repr(count))} is not an integer")
    if purely_long < 1 or purely_short < 1:
        raise ValueError(
            "pure-atom counts must be at least 1: a monoid with a master "
            "relation has at least one atom of each kind"
        )
    if (purely_long + purely_short - 1) ** 2 > linalg.MAX_STEPS:
        raise linalg.BudgetExceeded(f"pls_example exceeded its budget of {linalg.MAX_STEPS} steps")
    if purely_short == 1:
        spec = MasterSpec({1: (3,), 2: (1, 2)}.get(purely_long, (1,) * purely_long), (2,))
    else:  # a is 1s, then at most one entry 1 + rem, then cap-valued entries
        cap = max(2, purely_short // purely_long + 1)
        full, rem = divmod(max(0, purely_short + 1 - purely_long), cap - 1)
        a = (1,) * (purely_long - full - (rem > 0)) + ((1 + rem,) if rem else ()) + (cap,) * full
        spec = MasterSpec(a, (1,) * purely_short)
    return build_master_monoid(spec)


# ---------------------------------------------------------------------------
# fixture gallery
# ---------------------------------------------------------------------------


class Fixture(linalg.Frozen):
    """A named presentation with its expected classification outcomes;
    ``expected`` takes no part in ``==`` and ``hash``."""

    def __init__(self, name: str, presentation: MonoidPresentation, expected: dict):
        self.__dict__.update(name=name, presentation=presentation, expected=expected)

    def _key(self) -> tuple:
        return self.name, self.presentation


def _truncation(family: str, k: int) -> MonoidPresentation:
    """(2, 0, 0), (3, 0, 0) and (0, n, 1) for n from 0 ("product") or -k ("signed") to k."""
    start = 0 if family == "product" else -k
    gens = [(2, 0, 0), (3, 0, 0), *((0, n, 1) for n in range(start, k + 1))]
    return MonoidPresentation.from_generators(gens, label=f"{family}-truncation-{k}")


# The verdicts a fixture has unless it states otherwise.  After kernel_rank,
# which every fixture states, these are the fields verify_gallery checks.
_VERDICTS = {
    "is_ufm": False,
    "is_lfm": False,
    "is_hfm": False,
    "is_plsm": False,
    "purely_long": (),
    "purely_short": (),
    "prime": (),
    "master": None,
}
_CHECKED_FIELDS = ("kernel_rank", *_VERDICTS)


def fixture_gallery(truncation: int = 4) -> list[Fixture]:
    """A tour of presentations whose classifications are known exactly.

    ``truncation`` bounds the truncated families; every truncation at least 2
    produces the same verdicts, which is what the gallery check asserts.
    BudgetExceeded is raised before anything is built when the cube of the
    largest generator count, 2 * truncation + 3, passes ``linalg.MAX_STEPS``.
    Each fixture states its kernel rank and where it departs from ``_VERDICTS``.
    A truncation that is not an ``int`` (a ``bool`` included) raises ``ValueError``.
    """
    if not isinstance(truncation, int) or isinstance(truncation, bool):
        raise ValueError(f"truncation {linalg.excerpt(repr(truncation))} is not an integer")
    if truncation < 2:
        raise ValueError("truncation must be at least 2")
    if (2 * truncation + 3) ** 3 > linalg.MAX_STEPS:
        raise linalg.BudgetExceeded(f"fixture_gallery exceeded its budget of {linalg.MAX_STEPS} steps")
    k = truncation
    one_long_one_short = {"is_plsm": True, "purely_long": (0,), "purely_short": (1,)}

    def fixture(name: str, presentation: MonoidPresentation, kernel_rank: int, **verdicts) -> Fixture:
        return Fixture(name, presentation, {"kernel_rank": kernel_rank, **_VERDICTS, **verdicts})

    return [
        fixture("lfm-pair-2-3", MonoidPresentation.from_values([2, 3], label="2-3"), 1, is_lfm=True,
                master={"left": [3, 0], "right": [0, 2]}, **one_long_one_short),
        fixture("non-lfm-triple-3-4-5", MonoidPresentation.from_values([3, 4, 5], label="3-4-5"), 2),
        fixture("scaled-triple-3-4-5-over-7",
                MonoidPresentation.from_values([Fraction(n, 7) for n in (3, 4, 5)], label="3-4-5-over-7"), 2),
        fixture(f"pure-pair-with-neither-cloud-{k}", _truncation("product", k), k, **one_long_one_short),
        fixture(f"signed-neither-cloud-{k}", _truncation("signed", k), 2 * k, **one_long_one_short),
        fixture(f"half-factorial-strip-{k}",
                MonoidPresentation.from_generators([(n, 1) for n in range(k + 1)], label=f"strip-{k}"),
                k - 1, is_hfm=True),
    ]


def _report_field(report: ClassificationReport, name: str):
    if name == "master":
        return None if report.master is None else report.master.to_json_dict()
    return getattr(report, name)


def verify_gallery(gallery: Optional[Sequence[Fixture]] = None) -> list[str]:
    """Classify every fixture and diff against its expectations.

    Returns a list of human-readable mismatch lines; an empty list means the
    gallery is clean.
    """
    mismatches: list[str] = []
    for fixture in gallery if gallery is not None else fixture_gallery():
        report = classify(fixture.presentation)
        for key, want in fixture.expected.items():
            if key not in _CHECKED_FIELDS:
                mismatches.append(f"{fixture.name}: unknown expected field {key}")
                continue
            got = _report_field(report, key)
            if got != want:
                mismatches.append(f"{fixture.name}: {key} expected {want!r}, got {got!r}")
    return mismatches
