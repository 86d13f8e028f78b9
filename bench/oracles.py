"""Independent checks of factolab outputs.

Nothing here imports factolab.  Every check recomputes what it needs with
its own, deliberately plain algorithms (dense Gaussian elimination over Q, a
memoized coin-change count, dense polynomial convolution, a direct
membership test) or tests a property the method must have.  Checks read the
JSON form of a result, so an in-process call and a CLI call pass the same
checks.  A failed check raises CheckError.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Optional, Sequence


class CheckError(AssertionError):
    """A program output contradicts an independent computation."""


def ensure(condition: bool, message: str) -> None:
    if not condition:
        raise CheckError(message)


def rational(value) -> Fraction:
    return value if isinstance(value, Fraction) else Fraction(value)


def as_vectors(generators: Iterable[Iterable]) -> list[tuple[Fraction, ...]]:
    return [tuple(rational(c) for c in g) for g in generators]


def evaluate(gens: Sequence[Sequence[Fraction]], z: Sequence[int]) -> tuple[Fraction, ...]:
    ensure(len(z) == len(gens), f"vector {z} has the wrong length for {len(gens)} generators")
    out = [Fraction(0)] * len(gens[0])
    for m, g in zip(z, gens):
        if m:
            for i, c in enumerate(g):
                out[i] += m * c
    return tuple(out)


# ---------------------------------------------------------------------------
# dense linear algebra over Q
# ---------------------------------------------------------------------------


def row_echelon(rows: Sequence[Sequence]) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form and pivot columns, by plain elimination."""
    mat = [[rational(x) for x in row] for row in rows]
    pivots: list[int] = []
    r = 0
    ncols = len(mat[0]) if mat else 0
    for col in range(ncols):
        piv = next((i for i in range(r, len(mat)) if mat[i][col] != 0), None)
        if piv is None:
            continue
        mat[r], mat[piv] = mat[piv], mat[r]
        lead = mat[r][col]
        mat[r] = [x / lead for x in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][col] != 0:
                f = mat[i][col]
                mat[i] = [x - f * y for x, y in zip(mat[i], mat[r])]
        pivots.append(col)
        r += 1
    return mat, pivots


def matrix_rank(rows: Sequence[Sequence]) -> int:
    return len(row_echelon(rows)[1]) if rows else 0


def generator_rank(gens: Sequence[Sequence[Fraction]]) -> int:
    """Rank of the matrix with the generators as columns."""
    dim = len(gens[0])
    return matrix_rank([[g[i] for g in gens] for i in range(dim)])


def nullspace(gens: Sequence[Sequence[Fraction]]) -> list[tuple[int, ...]]:
    """Primitive integer basis of the rational kernel of the generator matrix."""
    k = len(gens)
    dim = len(gens[0])
    mat, pivots = row_echelon([[g[i] for g in gens] for i in range(dim)])
    basis = []
    for free in (j for j in range(k) if j not in pivots):
        v = [Fraction(0)] * k
        v[free] = Fraction(1)
        for row, p in zip(mat, pivots):
            v[p] = -row[free]
        den = math.lcm(*(x.denominator for x in v))
        ints = [int(x * den) for x in v]
        g = math.gcd(*ints)
        basis.append(tuple(x // g for x in ints))
    return basis


# ---------------------------------------------------------------------------
# classification reports
# ---------------------------------------------------------------------------


def check_relation_vector(gens, v, what: str) -> None:
    ensure(len(v) == len(gens), f"{what} {v} has the wrong length")
    ensure(all(isinstance(c, int) for c in v), f"{what} {v} is not an integer vector")
    ensure(any(v), f"{what} is the zero vector")
    ensure(not any(evaluate(gens, v)), f"{what} {v} does not evaluate to zero")


def check_report(gens, rep: dict, expect: Optional[dict] = None) -> None:
    """Check a classification report against its own kernel and the generators.

    ``expect`` holds verdict fields known independently (from the
    construction, or in closed form); each is compared exactly.
    """
    k = len(gens)
    basis = [tuple(v) for v in rep["kernel_basis"]]
    rank = rep["kernel_rank"]
    ensure(rank == len(basis), f"kernel_rank {rank} but {len(basis)} basis vectors")
    want_rank = k - generator_rank(gens)
    ensure(rank == want_rank, f"kernel rank {rank}, elimination gives {want_rank}")
    for v in basis:
        check_relation_vector(gens, v, "kernel vector")
    if basis:
        ensure(matrix_rank(basis) == rank, "kernel basis is linearly dependent")

    sigmas = [sum(v) for v in basis]
    ensure(rep["is_ufm"] == (rank == 0), "is_ufm disagrees with the kernel rank")
    ensure(rep["is_hfm"] == all(s == 0 for s in sigmas), "is_hfm disagrees with the kernel")
    ensure(
        rep["is_lfm"] == (rank == 0 or (rank == 1 and sigmas[0] != 0)),
        "is_lfm disagrees with the kernel",
    )
    ensure(rep["is_ffm"] is True and rep["is_bfm"] is True, "FFM/BFM must hold")

    labels = rep["labels"]
    ensure(len(labels) == k, "one label per atom expected")
    for kind, key in (("prime", "prime"), ("purely_long", "purely_long"), ("purely_short", "purely_short")):
        ensure(
            list(rep[key]) == [i for i, lab in enumerate(labels) if lab == kind],
            f"{key} list disagrees with the labels",
        )
    ensure(rep["is_plsm"] == (bool(rep["purely_long"]) and bool(rep["purely_short"])), "is_plsm wrong")

    witnesses = {key: tuple(v) for key, v in rep["witnesses"].items()}
    want_keys = set()
    if rank:
        want_keys.add("not_ufm")
    if not rep["is_hfm"]:
        want_keys.add("not_hfm")
    if not rep["is_lfm"]:
        want_keys.add("not_lfm")
    for i, lab in enumerate(labels):
        in_kernel = any(v[i] for v in basis)
        ensure((lab == "prime") == (not in_kernel), f"atom {i}: prime label disagrees with the kernel")
        ensure(lab in ("prime", "purely_long", "purely_short", "neither"), f"unknown label {lab}")
        if lab in ("purely_short", "neither"):
            want_keys.add(f"atom{i}_not_purely_long")
        if lab in ("purely_long", "neither"):
            want_keys.add(f"atom{i}_not_purely_short")
    ensure(set(witnesses) == want_keys, f"witness keys {sorted(witnesses)} != {sorted(want_keys)}")
    for key, w in witnesses.items():
        check_relation_vector(gens, w, f"witness {key}")
        s = sum(w)
        if key == "not_hfm":
            ensure(s != 0, "not_hfm witness is balanced")
        elif key == "not_lfm":
            ensure(s == 0, "not_lfm witness is unbalanced")
        elif key.endswith("_not_purely_long"):
            i = int(key[4:].split("_")[0])
            ensure(w[i] >= 1 and s <= 0, f"{key} witness {w} has the wrong signs")
        elif key.endswith("_not_purely_short"):
            i = int(key[4:].split("_")[0])
            ensure(w[i] >= 1 and s >= 0, f"{key} witness {w} has the wrong signs")

    master = rep["master"]
    if rank == 1 and sigmas[0] != 0:
        ensure(master is not None, "rank-one unbalanced kernel needs a master relation")
        left, right = tuple(master["left"]), tuple(master["right"])
        ensure(min(left + right) >= 0, "master sides must be nonnegative")
        ensure(all(a == 0 or b == 0 for a, b in zip(left, right)), "master sides share an atom")
        diff = tuple(a - b for a, b in zip(left, right))
        ensure(diff in (basis[0], tuple(-c for c in basis[0])), "master is not the kernel generator")
        ensure(sum(left) > sum(right), "master must list the long side first")
    else:
        ensure(master is None, "master relation reported without a rank-one unbalanced kernel")

    for key, want in (expect or {}).items():
        got = rep[key]
        if isinstance(got, list):
            got = [list(x) if isinstance(x, (list, tuple)) else x for x in got]
        ensure(got == want, f"{key}: expected {want!r}, got {got!r}")


def master_expectation(long_side: Sequence[int], short_side: Sequence[int]) -> dict:
    """Verdicts the construction prescribes for a master spec."""
    m, n = len(long_side), len(short_side)
    return {
        "is_lfm": True,
        "is_ufm": False,
        "kernel_rank": 1,
        "purely_long": list(range(m)),
        "purely_short": list(range(m, m + n)),
        "prime": [],
        "master": {"left": list(long_side) + [0] * n, "right": [0] * m + list(short_side)},
    }


def truncation_expectation(family: str, k: int) -> dict:
    """Closed-form verdicts of the truncated gallery families."""
    ensure(k >= 2, "truncations start at 2")
    if family == "strip":
        return {
            "kernel_rank": k - 1, "is_ufm": False, "is_lfm": False, "is_hfm": True,
            "is_plsm": False, "purely_long": [], "purely_short": [], "prime": [], "master": None,
        }
    rank = k if family == "product" else 2 * k
    return {
        "kernel_rank": rank, "is_ufm": False, "is_lfm": False, "is_hfm": False,
        "is_plsm": True, "purely_long": [0], "purely_short": [1], "prime": [], "master": None,
    }


def check_pls_example(gens, purely_long: int, purely_short: int) -> None:
    """A rank-one kernel whose generator has the requested sign pattern.

    With a one-dimensional kernel spanned by an unbalanced primitive vector
    v, every relation is a multiple of v, so the atoms on its long side are
    purely long and those on its short side purely short.  A generator is an
    atom unless +v or -v has a single positive entry, equal to 1.
    """
    ensure(len(gens) == purely_long + purely_short, "wrong number of generators")
    basis = nullspace(gens)
    ensure(len(basis) == 1, f"kernel rank {len(basis)}, expected 1")
    v = basis[0]
    if sum(v) < 0:
        v = tuple(-c for c in v)
    ensure(sum(v) > 0, "kernel generator is balanced")
    ensure(all(v), "a generator outside the relation would be prime")
    ensure(sum(1 for c in v if c > 0) == purely_long, f"long side of {v} has the wrong size")
    ensure(sum(1 for c in v if c < 0) == purely_short, f"short side of {v} has the wrong size")
    for w in (v, tuple(-c for c in v)):
        positive = [c for c in w if c > 0]
        ensure(positive != [1], f"relation {w} makes a generator reducible")


# ---------------------------------------------------------------------------
# factorizations
# ---------------------------------------------------------------------------


class CoinChange:
    """Factorization counts by length, by a memoized coin-change recursion.

    Works on integer vectors: each coordinate is scaled by the common
    denominator of its entries.  Requires every generator to have a positive
    coordinate sum, which then serves as the grading that bounds the
    recursion.
    """

    def __init__(self, gens):
        self.gens = as_vectors(gens)
        dim = len(self.gens[0])
        self.scales = [math.lcm(*(g[c].denominator for g in self.gens)) for c in range(dim)]
        common = math.lcm(*self.scales)
        self.units = [common // s for s in self.scales]  # grade of one scaled unit per coordinate
        self.int_gens = [self._scaled(g) for g in self.gens]
        self.weights = [self._grade(g) for g in self.int_gens]
        ensure(all(w > 0 for w in self.weights), "coin-change oracle needs positive coordinate sums")

    def _scaled(self, x) -> Optional[tuple[int, ...]]:
        scaled = [rational(c) * s for c, s in zip(x, self.scales)]
        if any(c.denominator != 1 for c in scaled):
            return None
        return tuple(int(c) for c in scaled)

    def _grade(self, v: tuple[int, ...]) -> int:
        return sum(c * u for c, u in zip(v, self.units))

    def lengths(self, x) -> dict[int, int]:
        """{length: number of factorizations of x of that length}."""
        gens, weights, k = self.int_gens, self.weights, len(self.int_gens)
        memo: dict = {}

        def rec(j: int, rem: tuple, budget: int) -> dict:
            if j == k:
                return {0: 1} if not any(rem) else {}
            key = (j, rem)
            if key in memo:
                return memo[key]
            out: dict[int, int] = {}
            g, w = gens[j], weights[j]
            m = 0
            while budget >= 0:
                for length, count in rec(j + 1, rem, budget).items():
                    out[length + m] = out.get(length + m, 0) + count
                rem = tuple(a - b for a, b in zip(rem, g))
                budget -= w
                m += 1
            memo[key] = out
            return out

        xi = self._scaled(x)
        return {} if xi is None else rec(0, xi, self._grade(xi))

    def contains(self, x) -> bool:
        return bool(self.lengths(x))


def check_factorizations(oracle: CoinChange, x, facts) -> int:
    facts = [tuple(z) for z in facts]
    x = tuple(rational(c) for c in x)
    ensure(facts == sorted(set(facts)), "factorizations must be distinct and sorted")
    for z in facts:
        ensure(min(z, default=0) >= 0, f"negative exponent in {z}")
        ensure(evaluate(oracle.gens, z) == x, f"factorization {z} does not evaluate to {x}")
    want = sum(oracle.lengths(x).values())
    ensure(len(facts) == want, f"{len(facts)} factorizations of {x}, coin-change count {want}")
    return len(facts)


def check_length_set(oracle: CoinChange, x, lengths) -> None:
    want = set(oracle.lengths(x))
    ensure(set(lengths) == want, f"length set {sorted(lengths)} of {x}, expected {sorted(want)}")


def check_atomic_divisors(oracle: CoinChange, x, divisors) -> None:
    x = tuple(rational(c) for c in x)
    want = set()
    if oracle.contains(x):
        want = {
            i for i, g in enumerate(oracle.gens)
            if oracle.contains(tuple(a - b for a, b in zip(x, g)))
        }
    ensure(set(divisors) == want, f"atomic divisors {sorted(divisors)} of {x}, expected {sorted(want)}")


def check_relations(gens, bound, relations) -> None:
    """Relations of grade <= bound, under the min-normalized coordinate-sum grading."""
    gens = as_vectors(gens)
    low = min(sum(g) for g in gens)
    ensure(low > 0, "relation check needs positive coordinate sums")
    keys = []
    for rel in relations:
        left, right = tuple(rel["left"]), tuple(rel["right"])
        ensure(min(left + right) >= 0, f"negative exponent in {rel}")
        ensure(all(a == 0 or b == 0 for a, b in zip(left, right)), f"{rel} sides share an atom")
        ensure(any(left) and any(right), f"{rel} has an empty side")
        element = evaluate(gens, left)
        ensure(element == evaluate(gens, right), f"the sides of {rel} evaluate differently")
        grade = sum(element) / low
        ensure(grade <= bound, f"{rel} has grade {grade} > {bound}")
        ensure((sum(left), left) > (sum(right), right), f"{rel} is not oriented long side first")
        keys.append((grade, element, left, right))
    order = [key[:3] for key in keys]
    ensure(order == sorted(order), "relations are not sorted by grade, element, left side")
    ensure(len(set(keys)) == len(keys), "a relation is listed twice")


# ---------------------------------------------------------------------------
# polynomials
# ---------------------------------------------------------------------------


def terms_of(poly: dict) -> dict[Fraction, Fraction]:
    """Exponent -> coefficient map of a polynomial in JSON form."""
    out: dict[Fraction, Fraction] = {}
    for e, c in poly["terms"]:
        e, c = rational(e), rational(c)
        ensure(c != 0, "a stored coefficient is zero")
        ensure(e not in out, f"exponent {e} listed twice")
        out[e] = c
    return out


def dense_mul(*polys: dict[Fraction, Fraction]) -> dict[Fraction, Fraction]:
    """Product of sparse polynomials through dense convolution on a common grid."""
    scale = math.lcm(*(e.denominator for p in polys for e in p), 1)
    result = [Fraction(1)]
    for p in polys:
        if not p:
            return {}
        dense = [Fraction(0)] * (int(max(p) * scale) + 1)
        for e, c in p.items():
            ensure(e >= 0, "negative exponent")
            dense[int(e * scale)] += c
        out = [Fraction(0)] * (len(result) + len(dense) - 1)
        for i, a in enumerate(result):
            if a:
                for j, b in enumerate(dense):
                    if b:
                        out[i + j] += a * b
        result = out
    return {Fraction(i, scale): c for i, c in enumerate(result) if c}


def dense_pow(p: dict, n: int) -> dict:
    return dense_mul(*([p] * n)) if n else {Fraction(0): Fraction(1)}


def is_eisenstein(coeffs: Sequence[int], prime: int) -> bool:
    """Eisenstein's criterion at ``prime`` for an integer coefficient list, low degree first."""
    *rest, lead = coeffs
    return (
        lead % prime != 0
        and all(c % prime == 0 for c in rest)
        and rest[0] % (prime * prime) != 0
        and math.gcd(*coeffs) == 1
    )


def in_half_third(e: Fraction) -> bool:
    """Membership in the Puiseux monoid <1/2, 1/3> = {0, 2/6, 3/6, 4/6, ...}."""
    six = e * 6
    return six.denominator == 1 and (six == 0 or six >= 2)


def check_natural_factor(f: dict, factor: dict, cofactor: dict, puiseux: bool) -> None:
    for part in (factor, cofactor):
        ensure(bool(part) and part != {Fraction(0): Fraction(1)}, "a factor is zero or the unit 1")
        for e, c in part.items():
            ensure(c > 0 and c.denominator == 1, f"coefficient {c} is not a positive integer")
            ok = in_half_third(e) if puiseux else (e >= 0 and e.denominator == 1)
            ensure(ok, f"exponent {e} lies outside the exponent monoid")
    ensure(dense_mul(factor, cofactor) == f, "factor * cofactor != f")


# ---------------------------------------------------------------------------
# numerical monoids and algebra witnesses
# ---------------------------------------------------------------------------


def member_direct(a: int, b: int, n: int) -> bool:
    return n >= 0 and any((n - i * a) % b == 0 for i in range(n // a + 1))


def check_numerical_monoid(a: int, b: int, frontier: int, queries, answers) -> None:
    conductor = a * b - a - b + 1
    ensure(frontier >= conductor, f"frontier {frontier} below Sylvester's bound {conductor}")
    for n, got in zip(queries, answers):
        ensure(got == member_direct(a, b, n), f"membership of {n} in <{a},{b}> is wrong")


def check_algebra_witness(w: dict) -> None:
    """Check a witness in the JSON form that ``factolab algebra-witness`` prints."""
    a, b, p, q, r, s, c = (w[key] for key in "abpqrsc")
    ensure(p * a - q * b == 1 and r * b - s * a == 1, "Bezout identities fail")
    ensure(c == abs(s * a - q * b), "c != |s*a - q*b|")
    ensure(terms_of(w["a1"]) == {Fraction(r * b): 1, Fraction(s * a): -1}, "a1 is not x^(rb) - x^(sa)")
    ensure(terms_of(w["a2"]) == {Fraction(p * a): 1, Fraction(q * b): -1}, "a2 is not x^(pa) - x^(qb)")
    products = []
    for side in ("z1", "z2"):
        factors = [(terms_of(item["factor"]), item["multiplicity"]) for item in w[side]]
        length = sum(mult for _, mult in factors)
        ensure(length == c + b - a, f"{side} has length {length}, expected c + b - a = {c + b - a}")
        products.append(dense_mul(*(dense_pow(f, mult) for f, mult in factors)))
    ensure(products[0] == products[1], "the two factorizations multiply out differently")
    ensure(products[0] == terms_of(w["product"]), "the reported product is wrong")
    atoms1 = {tuple(sorted(terms_of(item["factor"]).items())) for item in w["z1"]}
    atoms2 = {tuple(sorted(terms_of(item["factor"]).items())) for item in w["z2"]}
    ensure(atoms1.isdisjoint(atoms2), "the two factorizations share an atom")
