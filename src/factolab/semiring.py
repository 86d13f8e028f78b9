"""Monoid semirings: polynomials with exponents in a rank-one monoid.

The objects here are polynomial-like expressions ``sum c_i * x^(e_i)`` whose
exponents ``e_i`` range over either the natural numbers or a one-dimensional
pointed monoid given by positive rational generators, and whose coefficients
come from one of two domains:

* ``"N"`` — nonnegative integers.  The only multiplicative unit is 1 and the
  additive atoms are exactly the monomials with coefficient 1, which makes
  multiplicative atomicity decidable by a finite complete search.
* ``"Q"`` — rationals.  Every nonzero constant is a unit; this is the right
  ambient space for the binomial constructions below.

Outside input is validated once, when a polynomial is built from it.  Sums
and products of elements of a semiring lie in it, so they are built without
a second check.  Division is performed exactly in the ambient rational
Laurent-free setting, and each quotient term is checked against the
coefficient domain and exponent monoid as it is produced, so a ``None``
answer from :func:`poly_divide_exact` really means "no factorization with
this divisor exists in the semiring".

The module also builds, for any coprime pair ``2 <= a < b``, a pair of
irreducible binomials in the monoid algebra of the numerical monoid
generated by ``a`` and ``b`` whose powers assemble into one element with two
atom-disjoint factorizations of the same length (:func:`algebra_witness`).
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from math import gcd
from typing import NamedTuple, Optional

from .classify import FactorizationRelation
from . import linalg
from .linalg import BudgetExceeded, InternalContradiction, Rational, excerpt, format_rational, integer, parse_rational
from .monoid import MonoidPresentation, NotAnAtom, NumericalMonoid

__all__ = [
    "AlgebraWitness",
    "InternalContradiction",
    "InvalidPair",
    "NumericalMonoid",
    "SemiringPolynomial",
    "algebra_witness",
    "binomial_irreducibility_check",
    "case1_relation",
    "is_additive_atom",
    "monoid_elements_up_to",
    "natural_atom_test",
    "poly_divide_exact",
    "poly_mul",
    "poly_pow",
]


class InvalidPair(ValueError):
    """The requested generator pair does not admit the construction."""


# ---------------------------------------------------------------------------
# exponent monoids
# ---------------------------------------------------------------------------


_NATURALS = (Fraction(1), NumericalMonoid([1]))


def _rank_one_scaling(exponent_monoid: Optional[MonoidPresentation]):
    """``(unit, numerical)`` of an exponent monoid; ``None`` is ``N0``."""
    return _NATURALS if exponent_monoid is None else exponent_monoid.rank_one


def monoid_elements_up_to(
    exponent_monoid: Optional[MonoidPresentation], bound: Fraction
) -> list[Fraction]:
    """All monoid elements up to ``bound``, ascending.

    ``None`` stands for the natural numbers.  More than
    ``factolab.linalg.MAX_STEPS`` candidates raise BudgetExceeded.
    """
    unit, numerical = _rank_one_scaling(exponent_monoid)
    count = bound // unit + 1
    if count > linalg.MAX_STEPS:  # checked before the candidates are listed
        raise BudgetExceeded(f"{count} candidates exceed the budget of {linalg.MAX_STEPS} steps")
    return [n * unit for n in range(count) if numerical.contains(n)]


# ---------------------------------------------------------------------------
# semiring polynomials
# ---------------------------------------------------------------------------


def _stored(c: Rational) -> Rational:
    """A coefficient as ``index_terms`` holds it: an ``int`` unless fractional."""
    return c.numerator if c.denominator == 1 else c


class SemiringPolynomial(linalg.Frozen):
    """A sparse polynomial over a coefficient domain and exponent monoid.

    ``coeff_domain`` is ``"N"`` (nonnegative integers) or ``"Q"``
    (rationals).  ``exponent_monoid`` is ``None`` for natural exponents or a
    one-dimensional presentation of a Puiseux-type monoid.  Exponents are
    stored as indices ``n`` over the monoid's unit (exponent ``n * unit``):
    ``index_terms`` holds ``(n, c)`` with ``c`` nonzero, by descending ``n``,
    and ``c`` an ``int`` unless fractional.  Equality and hashing read this
    form; :attr:`terms` is the ``Fraction`` view.  Build with :meth:`from_terms`.
    """

    def __init__(self, index_terms: tuple[tuple[int, Rational], ...], coeff_domain: str,
                 exponent_monoid: Optional[MonoidPresentation]):
        self.__dict__.update(index_terms=index_terms, coeff_domain=coeff_domain, exponent_monoid=exponent_monoid)

    def _key(self) -> tuple:
        return self.index_terms, self.coeff_domain, self.exponent_monoid

    @classmethod
    def from_terms(
        cls,
        terms,
        coeff_domain: str = "N",
        exponent_monoid: Optional[MonoidPresentation] = None,
    ) -> "SemiringPolynomial":
        """Parse, merge and validate ``(exponent, coefficient)`` pairs.

        Each exponent is divided by the monoid's unit once, here, and only
        when a nonzero term is left, so :meth:`zero` builds over any monoid.
        A coefficient or exponent outside the semiring raises ``ValueError``.
        """
        merged: dict[Fraction, Fraction] = {}
        items = terms.items() if isinstance(terms, dict) else terms
        for exponent, coefficient in items:
            e = parse_rational(exponent)
            c = parse_rational(coefficient)
            merged[e] = merged[e] + c if e in merged else c
        unit = _rank_one_scaling(exponent_monoid)[0] if any(merged.values()) else 1
        return cls._from_index_terms(
            [(e / unit, c) for e, c in merged.items()], coeff_domain, exponent_monoid
        )

    @classmethod
    def _from_index_terms(
        cls, terms, coeff_domain: str, exponent_monoid: Optional[MonoidPresentation]
    ) -> "SemiringPolynomial":
        """Validate merged ``(index, coefficient)`` pairs: the one check of the
        coefficient domain, for values from outside or that may lie outside the
        semiring.  An index is an ``int``, or from :meth:`from_terms` a
        ``Fraction`` that must be integral.  Zero coefficients are dropped."""
        if coeff_domain not in ("N", "Q"):
            raise ValueError(f"unknown coefficient domain {excerpt(repr(coeff_domain))}")
        kept = []
        numerical = None
        for n, c in terms:
            if not c:
                continue
            if coeff_domain == "N" and (c < 0 or c.denominator != 1):
                raise ValueError(f"coefficient {excerpt(c)} is not a nonnegative integer")
            if numerical is None:
                unit, numerical = _rank_one_scaling(exponent_monoid)
            if n.denominator != 1 or not numerical.contains(n.numerator):
                raise ValueError(f"exponent {excerpt(n * unit)} lies outside the monoid")
            kept.append((n.numerator, _stored(c)))
        kept.sort(reverse=True)  # indices are distinct, so only they are compared
        return cls(tuple(kept), coeff_domain, exponent_monoid)

    @cached_property
    def terms(self) -> tuple[tuple[Fraction, Fraction], ...]:
        """The ``Fraction`` pairs ``(exponent, coefficient)``, built on first read."""
        if not self.index_terms:
            return ()
        unit = _rank_one_scaling(self.exponent_monoid)[0]
        return tuple((n * unit, Fraction(c)) for n, c in self.index_terms)

    @classmethod
    def monomial(
        cls,
        exponent: Rational,
        coefficient: Rational = 1,
        coeff_domain: str = "N",
        exponent_monoid: Optional[MonoidPresentation] = None,
    ) -> "SemiringPolynomial":
        return cls.from_terms(
            [(exponent, coefficient)], coeff_domain, exponent_monoid
        )

    @classmethod
    def zero(
        cls,
        coeff_domain: str = "N",
        exponent_monoid: Optional[MonoidPresentation] = None,
    ) -> "SemiringPolynomial":
        return cls.from_terms([], coeff_domain, exponent_monoid)

    @classmethod
    def one(
        cls,
        coeff_domain: str = "N",
        exponent_monoid: Optional[MonoidPresentation] = None,
    ) -> "SemiringPolynomial":
        return cls._from_index_terms([(0, 1)], coeff_domain, exponent_monoid)

    def is_zero(self) -> bool:
        return not self.index_terms

    def is_one(self) -> bool:
        return self.index_terms == ((0, 1),)

    @property
    def max_exponent(self) -> Optional[Fraction]:
        return self.terms[0][0] if self.terms else None

    @property
    def max_coefficient(self) -> Optional[Fraction]:
        return max(c for _, c in self.terms) if self.terms else None

    def same_semiring(self, other: "SemiringPolynomial") -> bool:
        return (
            self.coeff_domain == other.coeff_domain
            and self.exponent_monoid == other.exponent_monoid
        )

    def __add__(self, other: "SemiringPolynomial") -> "SemiringPolynomial":
        if not self.same_semiring(other):
            raise ValueError("cannot add across different semirings")
        merged = dict(self.index_terms)
        for n, c in other.index_terms:
            merged[n] = merged.get(n, 0) + c
        return _closed(self, merged)

    def __mul__(self, other: "SemiringPolynomial") -> "SemiringPolynomial":
        return poly_mul(self, other)

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        rendered = ""
        for e, c in self.terms:
            sign = "-" if c < 0 else "+"
            magnitude = abs(c)
            if e == 0:
                body = format_rational(magnitude)
            else:
                prefix = "" if magnitude == 1 else f"{format_rational(magnitude)}*"
                suffix = "" if e == 1 else f"^{format_rational(e)}"
                body = f"{prefix}x{suffix}"
            if not rendered:
                rendered = body if sign == "+" else f"-{body}"
            else:
                rendered += f" {sign} {body}"
        return rendered

    def to_json_dict(self) -> dict:
        return {
            "coeff_domain": self.coeff_domain,
            "monoid": (
                "N0"
                if self.exponent_monoid is None
                else self.exponent_monoid.to_json_dict()
            ),
            "terms": [
                [format_rational(e), format_rational(c)] for e, c in self.terms
            ],
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "SemiringPolynomial":
        if not isinstance(data, dict) or "terms" not in data:
            raise ValueError("polynomial JSON must be an object with 'terms'")
        monoid_data = data.get("monoid", "N0")
        exponent_monoid = (
            None
            if monoid_data == "N0"
            else MonoidPresentation.from_json_dict(monoid_data)
        )
        terms = data["terms"]
        if not isinstance(terms, list) or not all(
            isinstance(t, list) and len(t) == 2 for t in terms
        ):
            raise ValueError("'terms' must be a list of [exponent, coefficient] pairs")
        return cls.from_terms(
            [(e, c) for e, c in terms],
            data.get("coeff_domain", "N"),
            exponent_monoid,
        )


def _closed(f: SemiringPolynomial, merged: dict[int, Rational]) -> SemiringPolynomial:
    """The polynomial of ``f``'s semiring with the ``index: coefficient`` terms
    of ``merged``, a sum or product of its elements and so inside it: zero
    terms are dropped and the rest stored and sorted, with no check."""
    return SemiringPolynomial(tuple(
        (n, _stored(c)) for n, c in sorted(merged.items(), reverse=True) if c
    ), f.coeff_domain, f.exponent_monoid)


def poly_mul(
    f: SemiringPolynomial, g: SemiringPolynomial
) -> SemiringPolynomial:
    """``f * g``.  A product of two elements of a semiring lies in it, so the
    terms are merged, cancelled and sorted but not checked a second time."""
    if not f.same_semiring(g):
        raise ValueError("cannot multiply across different semirings")
    product: dict[int, Rational] = {}
    for nf, cf in f.index_terms:
        for ng, cg in g.index_terms:
            n = nf + ng
            product[n] = product.get(n, 0) + cf * cg
    return _closed(f, product)


def poly_pow(f: SemiringPolynomial, power: int) -> SemiringPolynomial:
    """``f ** power``.  A monomial's power is built in one step, except that
    the power of a coefficient other than 1 or -1 counts ``power`` steps, as
    its size grows with the power; any other ``f`` is raised by squaring,
    where a product of m and n terms is m n steps.  Steps past
    ``linalg.MAX_STEPS`` raise BudgetExceeded before they are made.  A power
    that is not a nonnegative ``int`` raises ``ValueError``."""
    if integer(power, "power") < 0:
        raise ValueError("negative powers are not defined in a semiring")
    over_budget = f"poly_pow exceeded its budget of {linalg.MAX_STEPS} steps"
    if len(f.index_terms) == 1:
        (n, c), = f.index_terms
        if abs(c) != 1 and power > linalg.MAX_STEPS:
            raise BudgetExceeded(over_budget)
        return _closed(f, {n * power: c ** power})
    result, steps = _closed(f, {0: 1}), 0
    while power:
        odd, power, n = power & 1, power >> 1, len(f.index_terms)
        steps += (len(result.index_terms) * n if odd else 0) + (n * n if power else 0)  # this round's products
        if steps > linalg.MAX_STEPS:
            raise BudgetExceeded(over_budget)
        if odd:
            result = poly_mul(result, f)
        if power:
            f = poly_mul(f, f)
    return result


def poly_divide_exact(
    f: SemiringPolynomial, g: SemiringPolynomial
) -> Optional[SemiringPolynomial]:
    """The unique ``h`` with ``f == g * h`` in the semiring, else ``None``.

    Division runs top-down by leading terms in the ambient rational setting,
    where quotients are unique, and each quotient term is checked as it is
    produced: the first exponent outside the monoid, or over ``"N"`` the
    first coefficient that is not a nonnegative integer, ends the division.
    The loop runs on the exponent indices of the shared monoid, so the
    leading index strictly decreases through the integers and the loop
    ends, and the quotient comes out in index form.  Each quotient term is a
    step, and more than ``linalg.MAX_STEPS`` raise BudgetExceeded: over
    ``"Q"`` their count grows with the exponents, as in (x^N - 1) / (x - 1).
    Over ``"N"`` the remainder's coefficients only fall, so each term sits at
    an exponent of ``f`` and there are no more of them than ``f`` has terms.
    """
    if not f.same_semiring(g):
        raise ValueError("cannot divide across different semirings")
    if g.is_zero():
        raise ValueError("division by zero")
    natural = f.coeff_domain == "N"
    numerical = _rank_one_scaling(f.exponent_monoid)[1]
    (lead_exp, lead_coeff), lower = g.index_terms[0], g.index_terms[1:]
    remainder = dict(f.index_terms)
    quotient = []
    while remainder:
        e_top = max(remainder)
        if e_top < lead_exp:
            return None
        q_exp = e_top - lead_exp
        if not numerical.contains(q_exp):
            return None
        top = remainder.pop(e_top)
        if natural:
            q_coeff, rest = divmod(top, lead_coeff)
            if rest or q_coeff < 0:
                return None
        else:
            q_coeff = _stored(Fraction(top) / lead_coeff)
        quotient.append((q_exp, q_coeff))
        if len(quotient) > linalg.MAX_STEPS:
            raise BudgetExceeded(f"poly_divide_exact exceeded its budget of {linalg.MAX_STEPS} steps")
        for eg, cg in lower:
            e = q_exp + eg
            value = remainder.get(e, 0) - q_coeff * cg
            if value:
                remainder[e] = value
            else:
                remainder.pop(e, None)
    return SemiringPolynomial(tuple(quotient), f.coeff_domain, f.exponent_monoid)


# ---------------------------------------------------------------------------
# atom decisions
# ---------------------------------------------------------------------------


def natural_atom_test(
    f: SemiringPolynomial,
) -> tuple[bool, Optional[tuple[SemiringPolynomial, SemiringPolynomial]]]:
    """Decide multiplicative atomicity over nonnegative integer coefficients.

    Returns ``(True, None)`` when ``f`` is an atom, ``(False, (g, h))`` with
    a factorization ``f == g * h`` into non-units when it is not, and
    ``(False, None)`` for zero and one, which are not atoms by convention.

    The search is complete: with nonnegative coefficients there is no
    cancellation, so every factor of ``f`` has coefficients bounded by the
    largest coefficient of ``f`` and exponents bounded by its largest
    exponent.  Candidate divisors range over exactly that box, with
    exponents restricted to the exponent monoid, in lexicographic order from
    the smallest exponent up (the coefficient of the largest exponent varies
    fastest), and the first divisor found is returned.

    The box is walked depth first on the exponent indices of ``f``'s index
    form, assigning each coefficient in ascending order, which visits the
    candidates in exactly that order.  A prefix is cut off when no
    completion can divide ``f``:

    * its lowest exponent ``a`` would lie above the lowest exponent of
      ``f``.  Without cancellation ``low(f) = low(g) + low(h)``.
    * a coefficient of the quotient, computed bottom-up as
      ``h_j = (f_(a+j) - sum_(i>0) g_(a+i) h_(j-i)) / g_a``, is not a
      nonnegative integer, or is nonzero at an index outside the monoid.
      Such an ``h_j`` reads only coefficients of ``g`` below ``a + j + 1``,
      so it is fixed once every exponent up to ``a + j`` is assigned: below
      the next unassigned exponent of the monoid, which in a monoid such as
      ``<1/2, 1/3>`` may lie more than one step above the last one.
    * the sum of the coefficients of ``g`` assigned so far, times the sum of
      the ``h_j`` fixed so far, exceeds ``f(1)``.  Evaluating at ``x = 1`` is
      a semiring homomorphism onto the naturals, so ``f(1) = g(1) * h(1)``,
      and both partial sums only grow as the rest is assigned.  Before a coefficient
      ``c`` is tried at ``a + j`` the ``h_i`` with ``i < j`` are already
      fixed and do not depend on ``c``, so once ``c`` breaks this cap every
      larger ``c`` does too, and the position is left at once.

    ``f = g * h`` forces these ``h_j`` to be the coefficients of ``h``, so no
    cut drops a divisor and the first divisor found is the box's first.  At a
    full candidate every ``h_j`` with ``a + j <= top(f)`` is fixed, and
    ``g * h == f`` exactly when ``deg g + deg h <= top(f)``: that integer test
    decides the candidate, and :func:`poly_divide_exact` certifies only the
    divisor returned.  Each
    assigned coefficient is a step; a search longer than
    ``factolab.linalg.MAX_STEPS`` steps raises :class:`BudgetExceeded`, and
    so does a top exponent index above it, before anything is allocated.
    """
    if f.coeff_domain != "N":
        raise ValueError(
            "the complete atom search needs nonnegative integer coefficients"
        )
    if f.is_zero() or f.is_one():
        return False, None
    numerical = _rank_one_scaling(f.exponent_monoid)[1]
    target = dict(f.index_terms)
    top, low, bound = max(target), min(target), max(target.values())
    if top > linalg.MAX_STEPS:
        raise BudgetExceeded(f"top exponent index {excerpt(top)} exceeds the budget of {linalg.MAX_STEPS} steps")
    f_dense = [target.get(n, 0) for n in range(top + 1)]
    f_one = sum(f_dense)
    exponents = [n for n in range(top + 1) if numerical.contains(n)]
    stops = exponents[1:] + [top + 1]
    last = len(exponents) - 1
    chosen = [-1] * len(exponents)
    prefix: list[tuple[int, int]] = []  # the nonzero (exponent, coefficient) assigned so far
    g_sums = [0] * (last + 2)  # g_sums[p]: the sum of g's coefficients before position p
    h = [0] * (top + 1)
    h_sums = [0] * (top + 2)  # h_sums[j] = h_0 + ... + h_(j-1)
    p = steps = 0
    max_steps = linalg.MAX_STEPS
    while p >= 0:
        n = exponents[p]
        while prefix and prefix[-1][0] >= n:
            prefix.pop()
        c = chosen[p] + 1
        if c > bound or (c and prefix and (g_sums[p] + c) * h_sums[n - prefix[0][0]] > f_one):
            chosen[p] = -1
            p -= 1
            continue
        steps += 1
        if steps > max_steps:
            raise BudgetExceeded(f"search exceeded its budget of {max_steps} steps")
        chosen[p] = c
        g_sums[p + 1] = g_sums[p] + c
        if c:
            prefix.append((n, c))
        if not prefix:
            if n >= low:  # every completion starts above f's lowest exponent
                continue
        elif (not _quotient_fits(f_dense, prefix, h, h_sums, n, stops[p], numerical)
              or g_sums[p + 1] * h_sums[stops[p] - prefix[0][0]] > f_one):
            continue
        if p < last:
            p += 1
            continue
        deg_g = prefix[-1][0]
        if (prefix == [(0, 1)] or (deg_g == top and h[0] == 1)  # g or h is one
                or any(h[top - deg_g + 1 : top - prefix[0][0] + 1])):  # deg g + deg h > top
            continue
        candidate = SemiringPolynomial(tuple(reversed(prefix)), "N", f.exponent_monoid)
        quotient = poly_divide_exact(f, candidate)
        if quotient is None or quotient.is_one():
            raise InternalContradiction(f"divisor {candidate} passed the integer check but not the division")
        return False, (candidate, quotient)
    return True, None


def _quotient_fits(f_dense, prefix, h, h_sums, n: int, stop: int, numerical) -> bool:
    """Extend the bottom-up quotient ``h`` and its prefix sums ``h_sums`` over
    the exponents ``n .. stop-1`` of ``f`` fixed by ``prefix``; False as soon
    as a coefficient cannot be one of a quotient in the semiring."""
    a, lead = prefix[0]
    higher = prefix[1:]
    for j in range(n - a, stop - a):
        value = f_dense[a + j] - sum(c * h[j - e + a] for e, c in higher)
        if value < 0 or value % lead or (value and not numerical.contains(j)):
            return False
        h[j] = value // lead
        h_sums[j + 1] = h_sums[j] + h[j]
    return True


def is_additive_atom(f: SemiringPolynomial) -> bool:
    """Whether ``f`` is an atom of the additive monoid of the semiring.

    Over nonnegative integer coefficients the additive atoms are exactly the
    monomials with coefficient 1.  Over rational coefficients the additive
    monoid has no atoms at all (everything halves), so the answer is False.
    """
    if f.coeff_domain != "N":
        return False
    return len(f.index_terms) == 1 and f.index_terms[0][1] == 1


def binomial_irreducibility_check(f: SemiringPolynomial) -> bool:
    """Check a two-term polynomial for monomial divisors.

    ``False`` certifies reducibility: some generator monomial ``x^g``
    divides ``f``, because both exponents stay in the monoid after
    subtracting ``g`` (and any nontrivial monomial divisor can be replaced
    by a generator one).  ``True`` certifies that no monomial divides ``f``;
    when the exponent gap of ``f`` is the smallest positive element of the
    ambient exponent lattice — the case produced by
    :func:`algebra_witness` — monomial divisors are the only possible ones,
    so ``True`` then certifies full irreducibility.
    """
    if len(f.index_terms) != 2:
        raise ValueError("this check applies to two-term polynomials")
    if f.exponent_monoid is None:
        raise ValueError("the ambient monoid must be given explicitly")
    (n_high, _), (n_low, _) = f.index_terms
    numerical = f.exponent_monoid.rank_one[1]
    return not any(
        numerical.contains(n_high - g) and numerical.contains(n_low - g)
        for g in numerical.generators
    )


def case1_relation(
    presentation: MonoidPresentation, i: int, j: int
) -> FactorizationRelation:
    """The canonical unbalanced relation between two monomial atoms.

    For atoms ``x^(q_i)`` and ``x^(q_j)`` of a monoid semiring with
    one-dimensional exponent monoid, writing ``q = n/d`` in lowest terms,
    the powers ``(x^(q_i))^(n_j * d_i)`` and ``(x^(q_j))^(n_i * d_j)`` agree
    — both equal ``x^(n_i * n_j)`` — giving a relation whose two sides have
    different lengths whenever the exponents differ.  The side of the
    smaller exponent is the longer one.  A generator ``i`` or ``j`` that is
    not an atom of the presentation raises :class:`NotAnAtom`, and an index
    that is not an ``int`` (a ``bool`` included) raises ``ValueError``.
    """
    if presentation.ambient_dim != 1:
        raise ValueError("monomial atoms need a one-dimensional monoid")
    for t in (i, j):
        integer(t, "atom index")
    k = presentation.atom_count
    if not (0 <= i < k and 0 <= j < k):
        raise ValueError(f"atom indices must lie in 0..{k - 1}, got {excerpt(i)} and {excerpt(j)}")
    if i == j:
        raise ValueError("the relation needs two distinct atoms")
    q_i = presentation.generators[i][0]
    q_j = presentation.generators[j][0]
    if q_i <= 0 or q_j <= 0:
        raise ValueError(f"monomial atoms need positive exponents, got {excerpt(q_i)} and {excerpt(q_j)}")
    if q_i == q_j:
        raise ValueError("equal exponents give only the trivial relation")
    defects = presentation.integer_form.atom_defects
    for t in (i, j):
        if defects[t] is not None:
            raise NotAnAtom(t, defects[t])
    mult_i = q_j.numerator * q_i.denominator
    mult_j = q_i.numerator * q_j.denominator
    left = tuple(mult_i if t == i else 0 for t in range(k))
    right = tuple(mult_j if t == j else 0 for t in range(k))
    return FactorizationRelation(left, right)


# ---------------------------------------------------------------------------
# the two-generator algebra witness
# ---------------------------------------------------------------------------


class AlgebraWitness(NamedTuple):
    """One element of a monoid algebra with two equal-length factorizations.

    For coprime ``2 <= a < b`` the binomials ``a1 = x^(r*b) - x^(s*a)`` and
    ``a2 = x^(p*a) - x^(q*b)`` (with ``p*a = q*b + 1`` and ``r*b = s*a + 1``)
    are atoms of the rational monoid algebra over the monoid generated by
    ``a`` and ``b``.  The factorization lists ``z1`` and ``z2`` multiply out
    to the same ``product`` while sharing no atom, and both have length
    ``c + b - a`` where ``c = |s*a - q*b|``.
    """

    a: int
    b: int
    p: int
    q: int
    r: int
    s: int
    c: int
    a1: SemiringPolynomial
    a2: SemiringPolynomial
    z1: tuple[tuple[SemiringPolynomial, int], ...]
    z2: tuple[tuple[SemiringPolynomial, int], ...]
    product: SemiringPolynomial
    monoid: MonoidPresentation

    @property
    def numerical(self) -> NumericalMonoid:
        """The monoid's :class:`NumericalMonoid`, cached on the presentation."""
        return self.monoid.rank_one[1]

    @property
    def factorization_length(self) -> int:
        return self.c + self.b - self.a

    def factors_multiply_out(self) -> bool:
        return all(
            _multiply_out(factors, self.monoid) == self.product
            for factors in (self.z1, self.z2)
        )


def _multiply_out(factors, monoid: MonoidPresentation) -> SemiringPolynomial:
    """The product of ``poly ** multiplicity`` over the (poly, multiplicity) pairs."""
    result = SemiringPolynomial(((0, 1),), "Q", monoid)
    for poly, multiplicity in factors:
        result = poly_mul(result, poly_pow(poly, multiplicity))
    return result


def algebra_witness(a: int, b: int) -> AlgebraWitness:
    """Build the two-factorization witness for a coprime pair ``a < b``.

    Raises :class:`InvalidPair` when the pair is out of scope and
    :class:`InternalContradiction` when a property the construction is
    supposed to guarantee fails its verification — the latter indicates a
    bug, not bad input.
    """
    for g in (a, b):
        integer(g, "generator", InvalidPair)
    if not (2 <= a < b):
        raise InvalidPair(f"need 2 <= a < b, got a={a}, b={b}")
    if gcd(a, b) != 1:
        raise InvalidPair(f"generators must be coprime, gcd is {gcd(a, b)}")

    p = pow(a, -1, b)
    q = (p * a - 1) // b
    r = pow(b, -1, a)
    s = (r * b - 1) // a
    if p * a - q * b != 1 or r * b - s * a != 1:
        raise InternalContradiction("modular inverses failed to certify")
    if q < 1 or s < 1:
        raise InternalContradiction("cofactors must be positive")

    monoid = MonoidPresentation.from_values([a, b], label=f"numerical-{a}-{b}")

    def build(index_terms, exponent_monoid=monoid) -> SemiringPolynomial:
        # the unit of <a, b> is 1, so an index is the exponent itself
        return SemiringPolynomial._from_index_terms(index_terms, "Q", exponent_monoid)

    a1 = build([(r * b, 1), (s * a, -1)])
    a2 = build([(p * a, 1), (q * b, -1)])
    for name, poly in (("a1", a1), ("a2", a2)):
        if not binomial_irreducibility_check(poly):
            raise InternalContradiction(
                f"{name} admits a monomial divisor for pair ({a}, {b})"
            )

    delta = s * a - q * b
    c = abs(delta)
    if c == 0:
        raise InternalContradiction(
            "the two binomials coincide; the pair cannot be coprime"
        )

    # the shift x^c need not lie in the monoid algebra, so the identity
    # relating the two binomials is checked in the ambient algebra Q[x]
    high, low = (a1, a2) if delta > 0 else (a2, a1)
    if poly_mul(build([(c, 1)], None), build(low.index_terms, None)) != build(high.index_terms, None):
        raise InternalContradiction(f"shift identity failed for delta = {delta}")
    z1 = ((build([(a, 1)]), c), (high, b - a))
    z2 = ((build([(b, 1)]), c), (low, b - a))

    product = _multiply_out(z1, monoid)
    if product != _multiply_out(z2, monoid):
        raise InternalContradiction("the two factorizations disagree")

    return AlgebraWitness(a, b, p, q, r, s, c, a1, a2, z1, z2, product, monoid)
