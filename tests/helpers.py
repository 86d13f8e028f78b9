"""Shared independent oracles for the test suite.

Everything in this module is deliberately written from scratch (dense
Gaussian elimination, box searches, dense polynomial arithmetic) so the
library is checked against code that shares none of its algorithms.  There
are three exceptions.  ``recursive_solve_inequalities`` is the recursive
Fourier-Motzkin elimination the library once used, kept to check the loop
that replaced it.  ``reference_grading`` keeps validation on the rational
generators, to check the validation on their integer form against.
``reference_pls_spec`` is the search ``pls_example`` once ran, kept to check
the closed form that replaced it.  ``Counted`` is no oracle: it wraps a
fake that a test patches into the package, so that the test can assert that
the fake ran before the raise it expects.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import Optional, Sequence


class Counted:
    """A callable that forwards each call to ``function`` and counts it."""

    def __init__(self, function):
        self.function, self.calls = function, 0

    def __call__(self, *args):
        self.calls += 1
        return self.function(*args)


def solve_rational_combination(
    vectors: Sequence[Sequence[int]], target: Sequence[int]
) -> Optional[list[Fraction]]:
    """Solve sum_j c_j * vectors[j] = target over Q by Gaussian elimination."""
    r = len(vectors)
    k = len(target)
    if r == 0:
        return [] if all(x == 0 for x in target) else None
    aug = [
        [Fraction(vectors[j][i]) for j in range(r)] + [Fraction(target[i])]
        for i in range(k)
    ]
    row = 0
    pivot_cols = []
    for col in range(r):
        piv = next((i for i in range(row, k) if aug[i][col] != 0), None)
        if piv is None:
            continue
        aug[row], aug[piv] = aug[piv], aug[row]
        pivot = aug[row][col]
        aug[row] = [x / pivot for x in aug[row]]
        for i in range(k):
            if i != row and aug[i][col] != 0:
                factor = aug[i][col]
                aug[i] = [x - factor * y for x, y in zip(aug[i], aug[row])]
        pivot_cols.append(col)
        row += 1
        if row == k:
            break
    sol = [Fraction(0)] * r
    for idx, col in enumerate(pivot_cols):
        sol[col] = aug[idx][r]
    for i in range(k):
        if sum(sol[j] * vectors[j][i] for j in range(r)) != target[i]:
            return None
    return sol


def in_lattice(vectors: Sequence[Sequence[int]], z: Sequence[int]) -> bool:
    """Whether z is an integer combination of the given basis vectors."""
    sol = solve_rational_combination(vectors, z)
    return sol is not None and all(c.denominator == 1 for c in sol)


def determinant(m: Sequence[Sequence[int]]) -> int:
    """Determinant by cofactor expansion along the first row; 1 for 0 x 0."""
    if not m:
        return 1
    return sum(
        (-1) ** j * a * determinant([list(row[:j]) + list(row[j + 1:]) for row in m[1:]])
        for j, a in enumerate(m[0])
        if a
    )


def brute_force_kernel_vectors(rows: Sequence[Sequence[int]], box: int) -> list[tuple[int, ...]]:
    """All integer z in [-box, box]^k with (rows) @ z = 0, in lexicographic order.

    The first coordinates are enumerated and the last t are solved for, where
    t is the largest count for which some t rows have an invertible t x t
    block ``tail`` in the last t columns.  The enumerated head then fixes the
    tail by Cramer's rule, so each head has at most one completion and the
    heads' lexicographic order is the vectors' order.  Every candidate is
    checked against all rows.
    """
    k = len(rows[0])
    t, chosen = next(
        (t, sub)
        for t in range(min(len(rows), k), -1, -1)
        for sub in itertools.combinations(rows, t)
        if determinant([r[k - t:] for r in sub])
    )
    tail = [list(r[k - t:]) for r in chosen]
    det = determinant(tail)
    found = []
    for head in itertools.product(range(-box, box + 1), repeat=k - t):
        rhs = [-sum(r[i] * head[i] for i in range(k - t)) for r in chosen]
        numerators = [
            determinant([row[:j] + [b] + row[j + 1:] for row, b in zip(tail, rhs)])
            for j in range(t)
        ]
        if any(n % det for n in numerators):
            continue
        z = head + tuple(n // det for n in numerators)
        if all(-box <= v <= box for v in z) and all(
            sum(r[i] * z[i] for i in range(k)) == 0 for r in rows
        ):
            found.append(z)
    return found


def random_unimodular(dim: int, rng, steps: int = 6) -> list[list[int]]:
    """Random unimodular integer matrix built from elementary row operations."""
    mat = [[1 if i == j else 0 for j in range(dim)] for i in range(dim)]
    for _ in range(steps):
        op = rng.choice(("add", "swap", "negate"))
        i = rng.randrange(dim)
        j = rng.randrange(dim)
        if op == "add" and i != j:
            q = rng.choice((-2, -1, 1, 2))
            mat[i] = [a + q * b for a, b in zip(mat[i], mat[j])]
        elif op == "swap" and i != j:
            mat[i], mat[j] = mat[j], mat[i]
        elif op == "negate":
            mat[i] = [-a for a in mat[i]]
    return mat


def mat_mul(a: Sequence[Sequence[int]], b: Sequence[Sequence[int]]) -> list[list[int]]:
    n, m, p = len(a), len(b), len(b[0])
    if len(a[0]) != m:  # explicit, so that the check survives python -O
        raise ValueError(f"cannot multiply {n}x{len(a[0])} by {m}x{p}")
    return [[sum(a[i][t] * b[t][j] for t in range(m)) for j in range(p)] for i in range(n)]


# ---------------------------------------------------------------------------
# Dense polynomial oracles (integer exponents, list-of-coefficients form)
# ---------------------------------------------------------------------------


def dense_mul(f: Sequence, g: Sequence) -> list:
    """Convolution product of dense coefficient lists."""
    if not f or not g:
        return []
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a == 0:
            continue
        for j, b in enumerate(g):
            out[i + j] += a * b
    return out


def dense_trim(f: Sequence) -> list:
    out = list(f)
    while out and out[-1] == 0:
        out.pop()
    return out


def dense_divide(f: Sequence, g: Sequence) -> Optional[list]:
    """Exact division of dense rational coefficient lists, None if not exact."""
    f = [Fraction(c) for c in dense_trim(f)]
    g = [Fraction(c) for c in dense_trim(g)]
    if not g:
        raise ZeroDivisionError
    if not f:
        return []
    if len(f) < len(g):
        return None
    q = [Fraction(0)] * (len(f) - len(g) + 1)
    r = f[:]
    for i in range(len(q) - 1, -1, -1):
        coef = r[i + len(g) - 1] / g[-1]
        q[i] = coef
        if coef:
            for j, gc in enumerate(g):
                r[i + j] -= coef * gc
    return q if all(c == 0 for c in r) else None


def box_atom_test(f: Sequence[int], members) -> tuple[bool, Optional[tuple[list, list]]]:
    """Search the whole divisor box of ``f`` over nonnegative integers.

    ``f`` is a dense coefficient list over exponent indices, and ``members``
    holds the indices that lie in the exponent monoid.  Every candidate with
    coefficients ``0..max(f)`` on the members up to ``deg f`` is tried in
    lexicographic order from the lowest index up, the highest index varying
    fastest.  The first ``(g, h)`` with ``f == g * h``, neither one and ``h``
    inside the semiring, is returned trimmed; ``(True, None)`` if there is
    none, and ``(False, None)`` for zero and one.
    """
    f = dense_trim(f)
    if not f or f == [1]:
        return False, None
    slots = [n for n in range(len(f)) if n in members]
    for coeffs in itertools.product(range(max(f) + 1), repeat=len(slots)):
        g = [0] * len(f)
        for n, c in zip(slots, coeffs):
            g[n] = c
        g = dense_trim(g)
        if not g or g == [1]:
            continue
        h = dense_divide(f, g)
        if h is None or h == [1]:
            continue
        if all(c >= 0 and c.denominator == 1 and (c == 0 or n in members) for n, c in enumerate(h)):
            return False, (g, [int(c) for c in h])
    return True, None


# ---------------------------------------------------------------------------
# Box oracles for factorizations and relations (rational generators)
# ---------------------------------------------------------------------------


def box_evaluate(gens: Sequence[Sequence[Fraction]], z: Sequence[int]) -> tuple:
    return tuple(sum(m * g[i] for m, g in zip(z, gens)) for i in range(len(gens[0])))


def box_factorizations(gens, x, caps) -> list[tuple[int, ...]]:
    """Every z in the box prod_j [0, caps[j]] with sum_j z_j g_j = x, in
    lexicographic order (the order ``itertools.product`` yields)."""
    x = tuple(x)
    return [
        z
        for z in itertools.product(*(range(c + 1) for c in caps))
        if box_evaluate(gens, z) == x
    ]


def box_relations(gens, weight, bound) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Irredundant relations (left, right) among all z with weight(z) <= bound.

    ``weight`` gives each generator a positive weight.  Vectors of the whole
    box are grouped by the element they evaluate to; every support-disjoint
    pair is oriented long (or lexicographically larger) side first and the
    pairs are sorted by weight, element, left and right side.
    """
    w = [weight(g) for g in gens]
    caps = [int(bound // wj) for wj in w]
    groups: dict[tuple, list] = {}
    for z in itertools.product(*(range(c + 1) for c in caps)):
        if sum(m * wj for m, wj in zip(z, w)) <= bound:
            groups.setdefault(box_evaluate(gens, z), []).append(z)
    found = []
    for element, members in groups.items():
        for z1, z2 in itertools.combinations(members, 2):
            if any(a and b for a, b in zip(z1, z2)):
                continue
            left, right = sorted((z1, z2), key=lambda z: (sum(z), z), reverse=True)
            found.append((sum(m * wj for m, wj in zip(z1, w)), element, left, right))
    return [(left, right) for _, _, left, right in sorted(found)]


# ---------------------------------------------------------------------------
# Fourier-Motzkin by recursion, on Fraction rows
# ---------------------------------------------------------------------------


def recursive_solve_inequalities(constraints, nvars: int) -> Optional[list[Fraction]]:
    """A point t with coeffs . t >= rhs for every (coeffs, rhs), or None.

    The recursive Fourier-Motzkin elimination the library's loop replaced,
    kept as its oracle: each constraint is scaled to its primitive integer
    row, duplicates and void rows are dropped (a zero row with a positive
    right-hand side is infeasible), the last variable is eliminated through
    every lower x upper pair, the rest is solved recursively, and the last
    variable takes the largest lower bound, else the least upper bound, else 0.
    """
    rows: list[tuple[int, ...]] = []
    for coeffs, rhs in constraints:
        qs = [Fraction(x) for x in (*coeffs, rhs)]
        den = 1
        for q in qs:
            den = den * q.denominator // math.gcd(den, q.denominator)
        row = tuple(int(q * den) for q in qs)
        g = math.gcd(*row)
        row = tuple(x // g for x in row) if g > 1 else row
        if not any(row[:-1]):
            if row[-1] > 0:
                return None
        elif row not in rows:
            rows.append(row)
    if nvars == 0:
        return []
    lowers = [r for r in rows if r[-2] > 0]
    uppers = [r for r in rows if r[-2] < 0]
    projected = [(r[:-2], r[-1]) for r in rows if r[-2] == 0]
    for lo in lowers:
        for up in uppers:
            row = [lo[-2] * u - up[-2] * v for v, u in zip(lo, up)]
            projected.append((row[:-2], row[-1]))
    sub = recursive_solve_inequalities(projected, nvars - 1)
    if sub is None:
        return None
    lo_vals = [(r[-1] - sum(a * t for a, t in zip(r, sub))) / Fraction(r[-2]) for r in lowers]
    hi_vals = [(r[-1] - sum(a * t for a, t in zip(r, sub))) / Fraction(r[-2]) for r in uppers]
    value = max(lo_vals) if lo_vals else min(hi_vals) if hi_vals else Fraction(0)
    return sub + [value]


# ---------------------------------------------------------------------------
# the grading on rational generators
# ---------------------------------------------------------------------------


def reference_grading(gens: Sequence[Sequence[Fraction]]) -> Optional[tuple[Fraction, ...]]:
    """The positive grading of the generators, found on the rationals themselves.

    All ones when every coordinate sum is positive, else a point of
    {h : h . g >= 1 for every g} from ``recursive_solve_inequalities``; then
    divided by its least value on the generators, so
    the least generator grade is 1.  None when no such h exists.
    """
    d = len(gens[0])
    if all(sum(g) > 0 for g in gens):
        h = [Fraction(1)] * d
    else:
        h = recursive_solve_inequalities([(tuple(g), Fraction(1)) for g in gens], d)
        if h is None:
            return None
    low = min(sum(w * c for w, c in zip(h, g)) for g in gens)
    return tuple(w / low for w in h)


def reference_pls_spec(long_count: int, short_count: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The first admissible master spec ``(a, b)`` with the given side lengths:
    iterative deepening on the maximum multiplicity, then lexicographic on
    ``a + b``.  Admissible means positive entries of joint gcd 1, ``sum(a) >
    sum(b)``, and ``b != (1,)``."""
    for cap in itertools.count(2):
        for a in itertools.product(range(1, cap + 1), repeat=long_count):
            if sum(a) <= short_count:  # every b sums to at least short_count
                continue
            for b in itertools.product(range(1, cap + 1), repeat=short_count):
                if math.gcd(*a, *b) == 1 and sum(a) > sum(b) and b != (1,):
                    return a, b
