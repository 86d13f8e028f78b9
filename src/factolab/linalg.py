"""Exact integer and rational linear algebra.

Every verdict computed by this package reduces to three exact primitives
implemented here:

* lowest-terms decomposition of a positive rational,
* a saturated basis of the integer kernel of an integer matrix, obtained by
  column reduction with a unimodular transform,
* feasibility of homogeneous rational inequality systems over the span of
  such a basis, decided by Fourier-Motzkin elimination and always backed by
  an explicit integer witness.

All arithmetic uses Python integers and ``fractions.Fraction``; nothing here
is approximate.
"""

from __future__ import annotations

import math
import re
import sys
from fractions import Fraction
from operator import mul
from typing import Iterable, Optional, Sequence, Union

Rational = Union[int, str, Fraction]
IntVector = tuple[int, ...]


class DimensionMismatch(ValueError):
    """A vector or functional does not have the expected length."""


class InternalContradiction(RuntimeError):
    """A certificate failed its own check: a defect in this package, not bad input."""


class BudgetExceeded(RuntimeError):
    """A search walked more steps than its budget allows."""


MAX_STEPS = 10**6  # the step budget of every search, Fourier-Motzkin elimination included


# ASCII only: Fraction alone also reads exponents ("1e10000000" builds a
# 33-million-bit integer), "_" separators and non-ASCII digits.
_RATIONAL_TEXT = re.compile(r"[+-]?(?:[0-9]+(?:/[0-9]+)?|[0-9]*\.[0-9]+|[0-9]+\.[0-9]*)")


def excerpt(value) -> str:
    """``str(value)``, or past 40 characters its first 16 and its length, so
    that an error message echoing an input stays short whatever its size."""
    text = str(value)
    return text if len(text) <= 40 else f"{text[:16]}... ({len(text)} characters)"


def parse_rational(value: Rational) -> Fraction:
    """Parse a rational given as ``Fraction``, ``int`` (not ``bool``), or a
    string: an optionally signed integer "n", "p/q" or a decimal "1.5", with
    ASCII digits and optional surrounding whitespace."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    if isinstance(value, str) and _RATIONAL_TEXT.fullmatch(text := value.strip()):
        try:
            return Fraction(text)
        except ZeroDivisionError:
            raise ValueError(f"{excerpt(repr(value))} has a zero denominator") from None
        except ValueError:  # an integer past the interpreter's digit limit
            raise ValueError(
                f"entry {text[:16]!r}... has {sum(map(str.isdigit, text))} digits, "
                f"above the limit of {sys.get_int_max_str_digits()} digits per integer"
            ) from None
    raise ValueError(f"cannot interpret {excerpt(repr(value))} as a rational number")


def format_rational(value: Rational) -> str:
    """Canonical string form of a rational: "p/q", or "n" for integers."""
    q = parse_rational(value)
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


def rational_num_den(value: Rational) -> tuple[int, int]:
    """Split a positive rational into its coprime (numerator, denominator).

    Raises ``ValueError`` for zero or negative input.
    """
    q = parse_rational(value)
    if q <= 0:
        raise ValueError(f"rational_num_den requires a positive rational, got {q}")
    return q.numerator, q.denominator


def dot(u: Sequence[Rational], v: Sequence[Rational]) -> Fraction:
    if len(u) != len(v):
        raise DimensionMismatch(f"dot product of lengths {len(u)} and {len(v)}")
    total = Fraction(0)
    for a, b in zip(u, v):
        total += parse_rational(a) * parse_rational(b)
    return total


class Frozen:
    """Base of the package's immutable value classes.  A subclass stores its
    fields through ``self.__dict__`` in ``__init__``; ``==``, ``hash`` and
    ``repr`` read the tuple of compared fields that its ``_key`` returns."""

    def __eq__(self, other):
        return self._key() == other._key() if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        return f"{type(self).__name__}{self._key()!r}"

    def __setattr__(self, name, value=None):
        raise AttributeError(f"cannot assign or delete {name!r}: {type(self).__name__} is immutable")

    __delattr__ = __setattr__


class LatticeBasis(Frozen):
    """Basis of a saturated sublattice of Z^dim.

    Saturated means the lattice equals the intersection of its rational span
    with Z^dim, so rational feasibility over the span always scales back into
    the lattice itself.
    """

    def __init__(self, dim: int, vectors: tuple[IntVector, ...]):
        for v in vectors:
            if len(v) != dim:
                raise DimensionMismatch("basis vector of wrong length")
        self.__dict__.update(dim=dim, vectors=vectors)

    def _key(self) -> tuple:
        return self.dim, self.vectors

    @property
    def rank(self) -> int:
        return len(self.vectors)


def sign_normalized(vector: Sequence[int]) -> IntVector:
    """Flip the sign so the first nonzero entry is positive."""
    for x in vector:
        if x != 0:
            return tuple(vector) if x > 0 else tuple(-y for y in vector)
    return tuple(vector)


def integer_kernel(rows: Iterable[Sequence[int]]) -> LatticeBasis:
    """Saturated basis of {z in Z^k : row . z = 0 for every row}, for the
    integer rows of an m x k matrix A.

    Column reduction with an accumulated unimodular transform U: column
    operations bring A into column echelon form A U = H, and the columns of U
    across the zero columns of H are a kernel basis.  Because U is unimodular
    those columns extend to a Z-basis of Z^k, which makes the kernel basis
    saturated for free.
    """
    rows = list(rows)
    m, k = len(rows), len(rows[0]) if rows else 0
    if any(len(row) != k for row in rows):
        raise DimensionMismatch(f"matrix rows of unequal lengths {sorted({len(row) for row in rows})}")
    cols = [list(column) for column in zip(*rows)]
    trans = [[1 if i == j else 0 for i in range(k)] for j in range(k)]

    def combine(j: int, j0: int, q: int) -> None:
        cj, c0 = cols[j], cols[j0]
        for i in range(m):
            cj[i] -= q * c0[i]
        tj, t0 = trans[j], trans[j0]
        for i in range(k):
            tj[i] -= q * t0[i]

    pivots = 0
    for r in range(m):
        while True:
            active = [j for j in range(pivots, k) if cols[j][r] != 0]
            if not active:
                break
            if len(active) == 1:
                j = active[0]
                cols[pivots], cols[j] = cols[j], cols[pivots]
                trans[pivots], trans[j] = trans[j], trans[pivots]
                pivots += 1
                break
            # Euclidean step: reduce every active column by the one with the
            # smallest nonzero entry in row r.
            j0 = min(active, key=lambda j: abs(cols[j][r]))
            for j in active:
                if j != j0:
                    combine(j, j0, cols[j][r] // cols[j0][r])

    kernel = tuple(sign_normalized(trans[j]) for j in range(pivots, k))
    return LatticeBasis(k, kernel)


# ---------------------------------------------------------------------------
# Fourier-Motzkin elimination
# ---------------------------------------------------------------------------

Constraint = tuple[Sequence[Rational], Rational]  # coeffs . t >= rhs


def _integer_multiple(values: Sequence[Rational]) -> tuple[IntVector, int]:
    """(D * values, D) for the least common denominator D of the values."""
    qs = [parse_rational(x) for x in values]
    den = math.lcm(*(q.denominator for q in qs))
    return tuple(q.numerator * (den // q.denominator) for q in qs), den


def _add_primitive(kept: list[IntVector], seen: set[IntVector], rows) -> bool:
    """Append the unseen primitive rows that are not void to ``kept``; False at 0 >= rhs > 0."""
    for row in rows:
        g = math.gcd(*row)
        if g > 1:
            row = tuple(x // g for x in row)
        if not any(row[:-1]):
            if row[-1] > 0:
                return False
        elif row not in seen:
            seen.add(row)
            kept.append(row)
    return True


def fourier_motzkin(rows: Iterable[Sequence[int]], nvars: int) -> Optional[tuple[list[int], int]]:
    """A point nums / den, den > 0, of the integer system row[:-1] . t >= row[-1],
    or None if it is infeasible: the package's one Fourier-Motzkin elimination.

    Each row is kept primitive: a positive multiple of a constraint is the
    same constraint, so that row both finds duplicates and keeps the
    elimination in integers.  One set holds every row of the call: a row
    made while column j is eliminated can equal only a live row, so it finds
    the duplicates that a set of the live rows would.  Variables are
    eliminated last first, in one pass over the live rows per column; a
    column that no live row touches gets no level, and its variable stays 0.
    Each lower x upper pair is a step, and more than :data:`MAX_STEPS` steps
    raise BudgetExceeded.
    Back-substitution runs on integer numerators over den, level by level.
    """
    max_steps, steps = MAX_STEPS, 0
    kept: list[IntVector] = []
    # a new row is zero from column j on; a row placed at a level is nonzero at its column >= j
    seen: set[IntVector] = set()
    if not _add_primitive(kept, seen, rows):
        return None
    rows, levels = kept, []
    for j in range(nvars - 1, -1, -1):  # every row is zero past column j
        if not rows:
            break
        lowers, uppers, rest = [], [], []
        for row in rows:
            if row[j] > 0:
                lowers.append(row)
            elif row[j]:
                uppers.append(row)
            else:
                rest.append(row)
        if not (lowers or uppers):
            continue
        levels.append((j, lowers, uppers))
        rows = rest
        if lowers and uppers:
            steps += len(lowers) * len(uppers)
            if steps > max_steps:
                raise BudgetExceeded(f"Fourier-Motzkin elimination exceeded its budget of {max_steps} steps")
            # (rl - hl.t)/al <= t_j <= (ru - hu.t)/au with al > 0 > au; clearing
            # denominators (and one sign flip) cancels t_j:
            pairs = (tuple(low[j] * cu - up[j] * cl for cl, cu in zip(low, up)) for low in lowers for up in uppers)
            if not _add_primitive(rows, seen, pairs):
                return None

    # t = nums / den, so the bound (r - h.t)/a of a row is (r den - h.nums) / (a den);
    # t_j is the largest lower bound, else the least upper bound.  A row of level
    # j is zero past column j, and nums_j is still 0 when its bounds are read.
    nums, den = [0] * nvars, 1
    for j, lowers, uppers in reversed(levels):
        sign, best = (1 if lowers else -1), None  # (p, q): the bound p / (q den), q > 0
        for row in lowers or uppers:
            p, q = sign * (row[-1] * den - sum(map(mul, row, nums))), sign * row[j]
            if best is None or sign * (p * best[1] - best[0] * q) > 0:
                best = p, q
        p, q = best
        if q != 1:
            nums, den = [x * q for x in nums], den * q
        nums[j] = p
    return nums, den


def span_witness(rows: Iterable[Sequence[int]], vectors: Sequence[IntVector]) -> Optional[IntVector]:
    """The least positive integer multiple of sum_j t_j vectors_j for the point
    t = nums / den that :func:`fourier_motzkin` finds for ``rows``, or None: with
    Z = sum_j nums_j vectors_j it is Z / gcd(den, Z), as Z / g and den / g are coprime."""
    solved = fourier_motzkin(rows, len(vectors))
    if solved is None:
        return None
    nums, den = solved
    z = [0] * (len(vectors[0]) if vectors else 0)
    for t, v in zip(nums, vectors):
        if t:  # most numerators are zero: a purity system's point rests on few vectors
            z = [x + t * c for x, c in zip(z, v)]
    g = math.gcd(den, *z)
    return tuple(x // g for x in z)


def solve_inequalities(constraints: Sequence[Constraint], nvars: int) -> Optional[list[Fraction]]:
    """Exact solution of the system coeffs . t >= rhs, or None if infeasible,
    by :func:`fourier_motzkin` on each constraint scaled to integers."""
    if any(len(coeffs) != nvars for coeffs, _ in constraints):
        raise DimensionMismatch("constraint arity does not match variable count")
    solved = fourier_motzkin((_integer_multiple((*c, rhs))[0] for c, rhs in constraints), nvars)
    return None if solved is None else [Fraction(x, solved[1]) for x in solved[0]]


def homogeneous_lp_witness(
    basis: LatticeBasis,
    strict: Sequence[Rational],
    nonstrict: Sequence[Sequence[Rational]] = (),
) -> Optional[IntVector]:
    """Integer lattice vector z with strict . z >= 1 and n . z <= 0 for all n.

    The search runs over the rational span of ``basis``; by homogeneity any
    rational solution scales to an integer one, and saturation of the basis
    guarantees the scaled point lies in the lattice itself.  Returns None when
    the system is infeasible.
    """
    k = basis.dim
    if len(strict) != k:
        raise DimensionMismatch("strict functional has wrong length")
    if any(len(n) != k for n in nonstrict):
        raise DimensionMismatch("nonstrict functional has wrong length")
    # Each functional is scaled once to integers: strict . z >= 1 becomes
    # (D strict) . z >= D for its least common denominator D.
    strict_z, den = _integer_multiple(strict)
    nonstrict_z = [_integer_multiple(n)[0] for n in nonstrict]

    rows = [(*(sum(map(mul, strict_z, b)) for b in basis.vectors), den)]
    rows += [(*(-sum(map(mul, n, b)) for b in basis.vectors), 0) for n in nonstrict_z]
    witness = span_witness(rows, basis.vectors)
    # A multiple >= 1 of a solution still solves the system (strict stays >= 1).
    if witness is not None and (
        sum(map(mul, strict_z, witness)) < den or any(sum(map(mul, n, witness)) > 0 for n in nonstrict_z)
    ):
        raise InternalContradiction(f"LP witness {witness} violates the system it solves")
    return witness
