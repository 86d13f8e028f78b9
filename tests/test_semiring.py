"""Monoid semirings: membership, division, atom tests, algebra witnesses."""

from __future__ import annotations

import itertools
import random
from fractions import Fraction
from math import gcd

import pytest

from factolab.construct import InvalidMasterSpec, MasterSpec, fixture_gallery, pls_example
from factolab.linalg import InternalContradiction
from factolab.monoid import BudgetExceeded, MonoidPresentation, NotAnAtom
from factolab.semiring import (
    InvalidPair,
    NumericalMonoid,
    SemiringPolynomial,
    algebra_witness,
    binomial_irreducibility_check,
    case1_relation,
    is_additive_atom,
    monoid_elements_up_to,
    natural_atom_test,
    poly_divide_exact,
    poly_mul,
    poly_pow,
)

from helpers import Counted, box_atom_test, dense_divide, dense_mul, dense_trim


def nat_poly(*ascending_coeffs):
    """Build a natural polynomial from coefficients of x^0, x^1, ..."""
    return SemiringPolynomial.from_terms(
        [(e, c) for e, c in enumerate(ascending_coeffs) if c]
    )


def to_dense(poly):
    if poly.is_zero():
        return []
    size = int(poly.max_exponent) + 1
    dense = [Fraction(0)] * size
    for e, c in poly.terms:
        dense[int(e)] = c
    return dense


# ---------------------------------------------------------------------------
# numerical monoids
# ---------------------------------------------------------------------------


def test_numerical_monoid_2_3():
    nm = NumericalMonoid([2, 3])
    assert nm.gaps() == (1,)
    assert nm.contains(0) and nm.contains(2) and not nm.contains(1)
    assert nm.contains(10**9)
    assert not nm.contains(-2)
    assert 7 in nm


def test_numerical_monoid_3_5_and_wide_pair():
    assert NumericalMonoid([3, 5]).gaps() == (1, 2, 4, 7)
    nm = NumericalMonoid([8, 9])
    # largest gap of <a, b> is a*b - a - b
    assert max(nm.gaps()) == 8 * 9 - 8 - 9
    assert all(nm.contains(n) for n in range(56, 500))


def test_numerical_monoid_agrees_with_direct_search():
    rng = random.Random(1203)
    for _ in range(20):
        gens = sorted(rng.sample(range(2, 14), rng.randint(2, 3)))
        if gcd(*gens) != 1:
            continue
        nm = NumericalMonoid(gens)
        reachable = {0}
        for _ in range(30):
            reachable |= {r + g for r in reachable for g in gens if r + g <= 60}
        for n in range(61):
            assert nm.contains(n) == (n in reachable), (gens, n)


def test_numerical_monoid_matches_reachability_oracle():
    # the Apéry set against plain reachability up to frontier + m; a
    # generator g with gcd(g, m) > 1 splits the residues into several cycles
    rng = random.Random(6017)
    draws = [(6, 9, 20)]
    while len(draws) < 120:
        m = rng.randint(2, 60)
        gens = (m, *rng.sample(range(m + 1, 4 * m), rng.randint(2, 4)))
        if gcd(*gens) == 1:
            draws.append(gens)
    multi_cycle = 0
    for gens in draws:
        nm, m = NumericalMonoid(gens), gens[0]
        multi_cycle += any(gcd(g, m) > 1 for g in gens[1:])
        bound = nm.frontier + m
        reachable = [True] + [False] * bound
        for n in range(1, bound + 1):
            reachable[n] = any(g <= n and reachable[n - g] for g in gens)
        assert [nm.contains(n) for n in range(bound + 1)] == reachable, gens
        assert nm.frontier == 0 or not reachable[nm.frontier - 1], gens
    assert multi_cycle == 70
    assert NumericalMonoid([6, 9, 20]).gaps() == (
        1, 2, 3, 4, 5, 7, 8, 10, 11, 13, 14, 16, 17, 19, 22, 23, 25, 28, 31, 34, 37, 43
    )


def test_numerical_monoid_frontier_is_the_conductor():
    for a, b in [(2, 3), (3, 5), (5, 7), (8, 9), (47, 53), (97, 101)]:
        assert NumericalMonoid([a, b]).frontier == a * b - a - b + 1
    assert NumericalMonoid([1, 5]).frontier == 0


def test_numerical_monoid_gaps_of_a_wide_pair():
    a, b = 397, 401
    gaps = NumericalMonoid([a, b]).gaps()
    assert len(gaps) == (a - 1) * (b - 1) // 2
    assert max(gaps) == a * b - a - b


def test_numerical_monoid_gaps_budget(monkeypatch):
    # the conductor of <1000, 10**12 + 1> is about 10**15: refused before any scan
    with pytest.raises(BudgetExceeded, match="conductor 999000000000000 exceeds the budget of 1000000 steps"):
        NumericalMonoid([1000, 10**12 + 1]).gaps()
    monkeypatch.setattr("factolab.linalg.MAX_STEPS", 12)
    assert NumericalMonoid([5, 4]).gaps() == (1, 2, 3, 6, 7, 11)
    monkeypatch.setattr("factolab.linalg.MAX_STEPS", 11)
    with pytest.raises(BudgetExceeded, match="conductor 12 exceeds the budget of 11 steps"):
        NumericalMonoid([5, 4]).gaps()


def test_numerical_monoid_of_a_large_pair():
    a, b = 3001, 3007
    nm = NumericalMonoid([a, b])
    frobenius = a * b - a - b
    assert not nm.contains(frobenius)
    assert nm.contains(frobenius + 1)
    assert nm.contains(0)


def test_numerical_monoid_rejects_bad_generators():
    with pytest.raises(ValueError):
        NumericalMonoid([2, 4])
    with pytest.raises(ValueError):
        NumericalMonoid([0, 3])
    with pytest.raises(ValueError):
        NumericalMonoid([])
    # a generator that is not an int is refused, never truncated
    for bad, shown in [
        ([2.5, 3], "2.5"), ([Fraction(5, 2), 3], "Fraction(5, 2)"), ([2, 3.9], "3.9"),
        (["3", 5], "'3'"), ([True, 3], "True"), ([2, 10**60 + 0.5], "1e+60"),
    ]:
        with pytest.raises(ValueError) as excinfo:
            NumericalMonoid(bad)
        assert str(excinfo.value) == f"generator {shown} is not an integer"


def test_numerical_monoid_size_cap(monkeypatch):
    # the Apéry set has one entry per residue of the smallest generator, so a
    # generator past the step budget is refused before anything is allocated
    with pytest.raises(BudgetExceeded, match="smallest generator 1000000007 exceeds the budget"):
        NumericalMonoid([1000000007, 1000000009])
    monkeypatch.setattr("factolab.linalg.MAX_STEPS", 10)
    assert NumericalMonoid([10, 11]).frontier == 90
    with pytest.raises(BudgetExceeded, match="budget of 10 steps"):
        NumericalMonoid([11, 12])


def test_monomial_exponents_in_a_rational_monoid():
    pm = MonoidPresentation.from_values([Fraction(1, 2), Fraction(1, 3)])
    for value, expected in [
        (0, True),
        (Fraction(1, 2), True),
        (Fraction(1, 3), True),
        (Fraction(5, 6), True),
        (Fraction(1, 6), False),
        (Fraction(1, 4), False),
        (2, True),
        (-1, False),
    ]:
        if expected:
            assert SemiringPolynomial.monomial(value, 1, "N", pm).terms == ((value, 1),), value
        else:
            with pytest.raises(ValueError, match=f"^exponent {value} lies outside the monoid$"):
                SemiringPolynomial.monomial(value, 1, "N", pm)


def test_monoid_elements_up_to():
    pm = MonoidPresentation.from_values([Fraction(1, 2), Fraction(2, 3)])
    got = monoid_elements_up_to(pm, Fraction(3, 2))
    assert got == [
        Fraction(0),
        Fraction(1, 2),
        Fraction(2, 3),
        Fraction(1),
        Fraction(7, 6),
        Fraction(4, 3),
        Fraction(3, 2),
    ]
    assert monoid_elements_up_to(None, Fraction(3)) == [0, 1, 2, 3]
    assert monoid_elements_up_to(None, Fraction(-1)) == []
    # a bound in [0, unit) leaves only 0: the unit is 1 for N and 1/6 here
    assert monoid_elements_up_to(None, Fraction(1, 2)) == [0]
    assert monoid_elements_up_to(pm, Fraction(1, 10)) == [0]
    assert monoid_elements_up_to(pm, Fraction(1, 6)) == [0]


def test_monoid_elements_up_to_budget(monkeypatch):
    with pytest.raises(BudgetExceeded, match="100000001 candidates exceed the budget of 1000000 steps"):
        monoid_elements_up_to(None, 10**8)
    pm = MonoidPresentation.from_values([Fraction(1, 2), Fraction(2, 3)])
    monkeypatch.setattr("factolab.linalg.MAX_STEPS", 10)
    assert len(monoid_elements_up_to(pm, Fraction(3, 2))) == 7  # indices 0..9 over the unit 1/6
    with pytest.raises(BudgetExceeded, match="11 candidates exceed the budget of 10 steps"):
        monoid_elements_up_to(pm, Fraction(5, 3))


# ---------------------------------------------------------------------------
# polynomial arithmetic
# ---------------------------------------------------------------------------


def test_from_terms_merges_and_validates():
    f = SemiringPolynomial.from_terms([(2, 1), (2, 2), (0, 1), (1, 0)])
    assert f.terms == ((Fraction(2), Fraction(3)), (Fraction(0), Fraction(1)))
    with pytest.raises(ValueError):
        SemiringPolynomial.from_terms([(0, -1)])  # negative over N
    with pytest.raises(ValueError):
        SemiringPolynomial.from_terms([(0, Fraction(1, 2))])  # fractional over N
    with pytest.raises(ValueError):
        SemiringPolynomial.from_terms([(Fraction(1, 2), 1)])  # exponent not in N0
    with pytest.raises(ValueError):
        SemiringPolynomial.from_terms([(0, 1)], coeff_domain="Z")


@pytest.mark.parametrize("coeff_domain, exponent_monoid", [
    ("N", None), ("Q", None), ("N", MonoidPresentation.from_values([Fraction(1, 2), Fraction(1, 3)])),
])
def test_one_is_the_unit_polynomial(coeff_domain, exponent_monoid):
    one = SemiringPolynomial.one(coeff_domain, exponent_monoid)
    assert one.is_one() and one.index_terms == ((0, 1),)
    assert one == SemiringPolynomial.from_terms([(0, 1)], coeff_domain, exponent_monoid)
    with pytest.raises(ValueError):
        SemiringPolynomial.one("Z", exponent_monoid)


def test_exponent_monoid_validation():
    m23 = MonoidPresentation.from_values([2, 3])
    SemiringPolynomial.from_terms([(5, 1), (0, 2)], "N", m23)
    with pytest.raises(ValueError):
        SemiringPolynomial.from_terms([(1, 1)], "N", m23)
    for monoid, message in [
        (MonoidPresentation.from_generators([(1, 0), (0, 1)]), "exponent monoids must be one-dimensional"),
        (MonoidPresentation.from_values([0, 2]), "exponent monoid generators must be positive"),
    ]:
        with pytest.raises(ValueError) as excinfo:
            SemiringPolynomial.from_terms([(2, 1)], "N", monoid)
        assert excinfo.type is ValueError and str(excinfo.value) == message


def test_identity_two_products_one_polynomial():
    lhs = poly_mul(nat_poly(1, 1), nat_poly(6, 1, 1, 1))
    rhs = poly_mul(nat_poly(2, 1), nat_poly(3, 2, 0, 1))
    assert lhs == rhs == nat_poly(2, 1) * nat_poly(3, 2, 0, 1) == nat_poly(6, 7, 2, 2, 1)


def test_poly_mul_matches_dense_oracle():
    rng = random.Random(7272)
    for _ in range(60):
        f = [rng.randint(0, 4) for _ in range(rng.randint(1, 5))]
        g = [rng.randint(0, 4) for _ in range(rng.randint(1, 5))]
        sparse = poly_mul(nat_poly(*f), nat_poly(*g))
        assert to_dense(sparse) == dense_trim(dense_mul(f, g))


def test_poly_pow_and_additive_dunder():
    f = nat_poly(1, 1)
    assert poly_pow(f, 3) == nat_poly(1, 3, 3, 1)
    assert poly_pow(f, 0).is_one()
    assert (nat_poly(1) + nat_poly(0, 2)) == nat_poly(1, 2)
    for bad in (-1, 2.0, True, Fraction(2), "2"):
        with pytest.raises(ValueError):
            poly_pow(f, bad)


def test_poly_pow_of_a_monomial_step_budget(monkeypatch):
    # 3 x to the power 20 has a coefficient of 20 * log2(3) bits: 20 steps, counted
    # before the coefficient is built; 1 and -1 stay a single step at any power
    monkeypatch.setattr("factolab.linalg.MAX_STEPS", 20)
    assert poly_pow(nat_poly(0, 3), 20) == SemiringPolynomial.from_terms([(20, 3**20)])
    assert poly_pow(SemiringPolynomial.from_terms([(1, Fraction(-1, 2))], "Q"), 20) == (
        SemiringPolynomial.from_terms([(20, Fraction(1, 2**20))], "Q"))
    monkeypatch.setattr("factolab.linalg.MAX_STEPS", 19)
    for f in (nat_poly(0, 3), SemiringPolynomial.from_terms([(1, Fraction(-1, 2))], "Q")):
        with pytest.raises(BudgetExceeded, match="poly_pow exceeded its budget of 19 steps"):
            poly_pow(f, 20)
    assert poly_pow(nat_poly(0, 1), 10**12) == SemiringPolynomial.from_terms([(10**12, 1)])
    minus_x = SemiringPolynomial.from_terms([(1, -1)], "Q")
    assert poly_pow(minus_x, 10**12 + 1) == SemiringPolynomial.from_terms([(10**12 + 1, -1)], "Q")


def test_cross_semiring_operations_rejected():
    f = nat_poly(1, 1)
    g = SemiringPolynomial.from_terms([(1, 1)], "Q")
    with pytest.raises(ValueError):
        poly_mul(f, g)
    with pytest.raises(ValueError, match="cannot multiply across different semirings"):
        f * g
    with pytest.raises(ValueError):
        f + g
    with pytest.raises(ValueError) as excinfo:
        poly_divide_exact(f, g)
    assert excinfo.type is ValueError and str(excinfo.value) == "cannot divide across different semirings"


def test_divide_exact_recovers_factors():
    rng = random.Random(31415)
    for _ in range(60):
        f = [rng.randint(0, 3) for _ in range(rng.randint(1, 4))]
        g = [rng.randint(0, 3) for _ in range(rng.randint(1, 4))]
        fp, gp = nat_poly(*f), nat_poly(*g)
        if gp.is_zero():
            continue
        assert poly_divide_exact(poly_mul(fp, gp), gp) == fp


def test_divide_exact_matches_dense_oracle():
    rng = random.Random(2024)
    for _ in range(100):
        f = [rng.randint(0, 4) for _ in range(rng.randint(1, 5))]
        g = [rng.randint(0, 4) for _ in range(rng.randint(1, 5))]
        fp, gp = nat_poly(*f), nat_poly(*g)
        if gp.is_zero():
            continue
        sparse = poly_divide_exact(fp, gp)
        oracle = dense_divide(f, g)
        if oracle is None:
            assert sparse is None
        elif all(c >= 0 and c.denominator == 1 for c in oracle):
            assert sparse is not None and to_dense(sparse) == dense_trim(oracle)
        else:
            assert sparse is None  # exact over Q but not inside N


def test_divide_exact_refuses_non_divisors():
    assert poly_divide_exact(nat_poly(1, 0, 1), nat_poly(1, 1)) is None
    assert poly_divide_exact(nat_poly(0, 1), nat_poly(0, 0, 1)) is None
    with pytest.raises(ValueError):
        poly_divide_exact(nat_poly(1), nat_poly())


def test_divide_exact_respects_domain_and_monoid():
    # over Q the quotient exists, over N it must be rejected
    f_n = nat_poly(0, 2)  # 2x
    g_n = nat_poly(4)
    assert poly_divide_exact(f_n, g_n) is None  # x/2 has no N coefficient

    m23 = MonoidPresentation.from_values([2, 3])
    f = SemiringPolynomial.from_terms([(5, 1)], "N", m23)
    g = SemiringPolynomial.from_terms([(4, 1)], "N", m23)
    assert poly_divide_exact(f, g) is None  # exponent 1 is outside the monoid
    h = SemiringPolynomial.from_terms([(2, 1)], "N", m23)
    assert poly_divide_exact(f, h) == SemiringPolynomial.from_terms(
        [(3, 1)], "N", m23
    )


def test_divide_exact_step_budget(monkeypatch):
    # over Q, (x^20 - 1) / (x - 1) has 20 quotient terms, one a step
    f = SemiringPolynomial.from_terms([(20, 1), (0, -1)], "Q")
    g = SemiringPolynomial.from_terms([(1, 1), (0, -1)], "Q")
    monkeypatch.setattr("factolab.linalg.MAX_STEPS", 20)
    assert poly_divide_exact(f, g) == SemiringPolynomial.from_terms([(e, 1) for e in range(20)], "Q")
    monkeypatch.setattr("factolab.linalg.MAX_STEPS", 19)
    with pytest.raises(BudgetExceeded, match="poly_divide_exact exceeded its budget of 19 steps"):
        poly_divide_exact(f, g)


def test_zero_dividend():
    z = poly_divide_exact(nat_poly(), nat_poly(1, 1))
    assert z is not None and z.is_zero()


def test_json_round_trip():
    m = MonoidPresentation.from_values([Fraction(1, 2), Fraction(1, 3)])
    f = SemiringPolynomial.from_terms(
        [(Fraction(5, 6), Fraction(-2, 3)), (0, 4)], "Q", m
    )
    data = f.to_json_dict()
    assert data["coeff_domain"] == "Q"
    assert data["terms"] == [["5/6", "-2/3"], ["0", "4"]]
    assert SemiringPolynomial.from_json_dict(data) == f
    plain = nat_poly(6, 7, 2, 2, 1).to_json_dict()
    assert plain["monoid"] == "N0"
    assert SemiringPolynomial.from_json_dict(plain) == nat_poly(6, 7, 2, 2, 1)
    with pytest.raises(ValueError):
        SemiringPolynomial.from_json_dict({"coeff_domain": "N"})


def test_str_rendering():
    assert str(nat_poly()) == "0"
    assert str(nat_poly(6, 7, 0, 2)) == "2*x^3 + 7*x + 6"
    m23 = MonoidPresentation.from_values([2, 3])
    w = SemiringPolynomial.from_terms([(3, 1), (2, -1)], "Q", m23)
    assert str(w) == "x^3 - x^2"


# ---------------------------------------------------------------------------
# multiplicative atoms over natural coefficients
# ---------------------------------------------------------------------------


def test_natural_atom_test_documented_fixtures():
    is_atom, witness = natural_atom_test(nat_poly(6, 7, 2, 2, 1))
    assert not is_atom
    assert witness == (nat_poly(1, 1), nat_poly(6, 1, 1, 1))

    assert natural_atom_test(nat_poly(1, 1)) == (True, None)
    assert natural_atom_test(nat_poly(0, 0, 1))[0] is False  # x^2 = x * x
    assert natural_atom_test(nat_poly(3, 0, 0, 2))[0] is True
    assert natural_atom_test(nat_poly(5))[0] is True
    assert natural_atom_test(nat_poly(6)) == (False, (nat_poly(2), nat_poly(3)))


def test_natural_atom_test_units_and_zero():
    assert natural_atom_test(nat_poly()) == (False, None)
    assert natural_atom_test(nat_poly(1)) == (False, None)


def test_natural_atom_witnesses_multiply_back():
    rng = random.Random(5050)
    for _ in range(40):
        coeffs = [rng.randint(0, 3) for _ in range(rng.randint(1, 4))]
        f = nat_poly(*coeffs)
        if f.is_zero():
            continue
        is_atom, witness = natural_atom_test(f)
        if witness is not None:
            g, h = witness
            assert poly_mul(g, h) == f
            assert not g.is_one() and not h.is_one()


def test_natural_atom_test_matches_exhaustive_oracle():
    """Ground truth by enumerating every product in a small box."""
    def all_polys(max_deg, max_coeff):
        for coeffs in itertools.product(
            range(max_coeff + 1), repeat=max_deg + 1
        ):
            yield nat_poly(*coeffs)

    reducible = set()
    for g in all_polys(3, 3):
        if g.is_zero() or g.is_one():
            continue
        for h in all_polys(3, 3):
            if h.is_zero() or h.is_one():
                continue
            product = poly_mul(g, h)
            if product.max_exponent <= 3 and product.max_coefficient <= 3:
                reducible.add(product)

    for f in all_polys(3, 3):
        if f.is_zero() or f.is_one():
            continue
        expected_atom = f not in reducible
        assert natural_atom_test(f)[0] == expected_atom, str(f)


def test_natural_atom_test_over_exponent_monoid():
    m23 = MonoidPresentation.from_values([2, 3])
    # x^2, x^3 are atoms; x^4 = x^2 * x^2 splits; x^5 = x^2 * x^3 splits
    mono = lambda e: SemiringPolynomial.from_terms([(e, 1)], "N", m23)
    assert natural_atom_test(mono(2)) == (True, None)
    assert natural_atom_test(mono(3)) == (True, None)
    assert natural_atom_test(mono(4)) == (False, (mono(2), mono(2)))
    # the divisor box is scanned with the largest exponent varying fastest,
    # so x^3 is tried before x^2
    assert natural_atom_test(mono(5)) == (False, (mono(3), mono(2)))


HALF_THIRD = MonoidPresentation.from_values([Fraction(1, 2), Fraction(1, 3)])


def dense_indices(poly, unit):
    """Coefficients of ``poly`` as a dense list over exponent / unit."""
    dense = [0] * (int(poly.max_exponent / unit) + 1)
    for e, c in poly.terms:
        dense[int(e / unit)] = int(c)
    return dense


def assert_search_matches_box(f_dense, monoid, unit, members):
    f = SemiringPolynomial.from_terms(
        [(n * unit, c) for n, c in enumerate(f_dense) if c], "N", monoid
    )
    is_atom, witness = natural_atom_test(f)
    expected_atom, expected_witness = box_atom_test(f_dense, members)
    assert is_atom == expected_atom, str(f)
    if witness is None:
        assert expected_witness is None, str(f)
    else:
        assert tuple(dense_indices(part, unit) for part in witness) == expected_witness, str(f)
    return expected_witness


def box_rank(g, f_dense, members):
    """Position of the divisor ``g`` in the box's lexicographic order, as a share."""
    slots = [n for n in range(len(f_dense)) if n in members]
    base = max(f_dense) + 1
    rank = 0
    for n in slots:
        rank = rank * base + (g[n] if n < len(g) else 0)
    return rank / base ** len(slots)


def test_pruned_atom_search_matches_the_box():
    rng = random.Random(6160)
    spaces = [
        (None, Fraction(1), range(10**6), 4),
        (HALF_THIRD, Fraction(1, 6), {n for n in range(64) if n != 1}, 6),
    ]
    for monoid, unit, members, top in spaces:
        def draw(degree, cmax):
            return [rng.randint(0, cmax) if n in members else 0 for n in range(degree + 1)]

        seen = 0
        while seen < 60:
            if rng.random() < 0.3:
                f_dense = dense_trim(draw(rng.randint(0, top), 3))
            else:
                f_dense = dense_trim(dense_mul(draw(rng.randint(0, top // 2), 2),
                                               draw(rng.randint(0, top // 2), 2)))
            if not f_dense or len(f_dense) > top + 1 or max(f_dense) > 3:
                continue
            assert_search_matches_box(f_dense, monoid, unit, members)
            seen += 1


def test_pruned_atom_search_matches_the_box_on_three_atoms():
    # f(1) = g(1) * h(1) caps each coefficient of g once a few h_j are known;
    # atoms with a constant term start every divisor at exponent 0, so the
    # cap has h_j to read on most of these products
    rng = random.Random(23017)
    spaces = [
        (None, Fraction(1), range(10**6), 2),
        (HALF_THIRD, Fraction(1, 6), {n for n in range(64) if n != 1}, 3),
    ]
    for monoid, unit, members, degree in spaces:
        atoms = []
        for coeffs in itertools.product(range(3), repeat=degree + 1):
            a = dense_trim([c if n in members else 0 for n, c in enumerate(coeffs)])
            if a and a[0] and box_atom_test(a, members) == (True, None) and a not in atoms:
                atoms.append(a)
        seen = 0
        while seen < 12:
            f_dense = dense_trim(dense_mul(dense_mul(rng.choice(atoms), rng.choice(atoms)), rng.choice(atoms)))
            slots = sum(n in members for n in range(len(f_dense)))
            if (max(f_dense) + 1) ** slots > 4096:
                continue
            assert_search_matches_box(f_dense, monoid, unit, members)
            seen += 1


def test_pruned_atom_search_finds_divisors_deep_in_the_box():
    naturals = range(10**6)
    sixths = {n for n in range(64) if n != 1}
    cases = [
        (None, Fraction(1), naturals, [2, 1], [2, 1]),  # 4 + 4x + x^2
        (None, Fraction(1), naturals, [3, 1], [3, 2]),
        (None, Fraction(1), naturals, [2, 0, 1], [3, 1]),
        (HALF_THIRD, Fraction(1, 6), sixths, [2, 0, 0, 1], [2, 0, 1]),
        (HALF_THIRD, Fraction(1, 6), sixths, [2, 0, 1, 1], [2, 0, 1]),
    ]
    for monoid, unit, members, g, h in cases:
        f_dense = dense_mul(g, h)
        witness = assert_search_matches_box(f_dense, monoid, unit, members)
        assert witness is not None
        assert box_rank(witness[0], f_dense, members) > 0.25


def test_natural_atom_test_hard_cases():
    assert natural_atom_test(nat_poly(3, 3, 3, 3, 3, 3, 3, 1)) == (True, None)
    x_plus_1 = nat_poly(1, 1)
    assert natural_atom_test(x_plus_1) == (True, None)
    for k in range(2, 10):
        assert natural_atom_test(poly_pow(x_plus_1, k)) == (
            False, (x_plus_1, poly_pow(x_plus_1, k - 1))
        )
    g = puiseux_trinomial()
    assert natural_atom_test(poly_pow(g, 4)) == (False, (g, poly_pow(g, 3)))


def puiseux_trinomial():
    """``x^(1/2) + x^(1/3) + 1`` over ``<1/2, 1/3>``."""
    return SemiringPolynomial.from_terms(
        [(Fraction(1, 2), 1), (Fraction(1, 3), 1), (0, 1)], "N", HALF_THIRD
    )


def test_atom_search_step_budget(monkeypatch):
    # each coefficient the depth-first search assigns is one step; the search
    # decides at exactly ``steps`` and raises at one step fewer
    cases = [
        (nat_poly(6, 7, 2, 2, 1), 10, (False, (nat_poly(1, 1), nat_poly(6, 1, 1, 1)))),
        (nat_poly(3, 0, 0, 2), 16, (True, None)),
        (poly_pow(nat_poly(1, 1), 12), 10257, (False, (nat_poly(1, 1), poly_pow(nat_poly(1, 1), 11)))),
        (poly_pow(nat_poly(1, 1, 1), 6), 2698, (False, (nat_poly(1, 1, 1), poly_pow(nat_poly(1, 1, 1), 5)))),
        (poly_pow(puiseux_trinomial(), 4), 328,
         (False, (puiseux_trinomial(), poly_pow(puiseux_trinomial(), 3)))),
    ]
    for f, steps, expected in cases:
        monkeypatch.setattr("factolab.linalg.MAX_STEPS", steps)
        assert natural_atom_test(f) == expected
        monkeypatch.setattr("factolab.linalg.MAX_STEPS", steps - 1)
        with pytest.raises(BudgetExceeded, match=f"budget of {steps - 1} steps"):
            natural_atom_test(f)


def test_atom_search_certificate_check_raises(monkeypatch):
    f = SemiringPolynomial.from_terms([(2, 1), (1, 2), (0, 1)])
    fake = Counted(lambda f, g: None)
    monkeypatch.setattr("factolab.semiring.poly_divide_exact", fake)
    with pytest.raises(InternalContradiction) as exc:
        natural_atom_test(f)
    assert str(exc.value) == "divisor x + 1 passed the integer check but not the division"
    assert fake.calls == 1


def test_natural_atom_test_rejects_rational_domain():
    with pytest.raises(ValueError):
        natural_atom_test(SemiringPolynomial.from_terms([(1, 1)], "Q"))


# ---------------------------------------------------------------------------
# additive atoms
# ---------------------------------------------------------------------------


def test_additive_atoms_are_unit_monomials():
    assert is_additive_atom(nat_poly(0, 1))
    assert is_additive_atom(nat_poly(1))
    assert not is_additive_atom(nat_poly(0, 2))
    assert not is_additive_atom(nat_poly(1, 1))
    assert not is_additive_atom(nat_poly())
    assert not is_additive_atom(SemiringPolynomial.from_terms([(1, 1)], "Q"))


def test_additive_atoms_closed_under_multiplication():
    rng = random.Random(8462)
    monoids = [None, MonoidPresentation.from_values([Fraction(1, 2), Fraction(1, 3)])]
    for monoid in monoids:
        pool = monoid_elements_up_to(monoid, Fraction(6))
        for _ in range(200):
            e1, e2 = rng.choice(pool), rng.choice(pool)
            f = SemiringPolynomial.monomial(e1, 1, "N", monoid)
            g = SemiringPolynomial.monomial(e2, 1, "N", monoid)
            assert is_additive_atom(f) and is_additive_atom(g)
            assert is_additive_atom(poly_mul(f, g))


# ---------------------------------------------------------------------------
# binomials and monomial-atom relations
# ---------------------------------------------------------------------------


def test_binomial_irreducibility_check():
    m23 = MonoidPresentation.from_values([2, 3])
    reducible = SemiringPolynomial.from_terms([(6, 1), (4, -1)], "Q", m23)
    assert binomial_irreducibility_check(reducible) is False
    # and the certified divisor really works: x^6 - x^4 == x^2 * (x^4 - x^2)
    quotient = poly_divide_exact(
        reducible, SemiringPolynomial.from_terms([(2, 1)], "Q", m23)
    )
    assert quotient == SemiringPolynomial.from_terms([(4, 1), (2, -1)], "Q", m23)

    irreducible = SemiringPolynomial.from_terms([(3, 1), (2, -1)], "Q", m23)
    assert binomial_irreducibility_check(irreducible) is True
    with pytest.raises(ValueError):
        binomial_irreducibility_check(SemiringPolynomial.from_terms([(2, 1)], "Q", m23))
    with pytest.raises(ValueError):
        binomial_irreducibility_check(SemiringPolynomial.from_terms([(2, 1), (0, 1)], "Q"))


def test_case1_relation_values_and_semantics():
    pm = MonoidPresentation.from_values([Fraction(1, 2), Fraction(2, 3)])
    rel = case1_relation(pm, 0, 1)
    assert rel.left == (4, 0) and rel.right == (0, 3)
    assert rel.is_irredundant and not rel.is_balanced
    # both sides really name the same element
    assert 4 * Fraction(1, 2) == 3 * Fraction(2, 3)


def test_case1_relation_is_always_unbalanced():
    rng = random.Random(2718)
    for _ in range(50):
        q1 = Fraction(rng.randint(1, 9), rng.randint(1, 9))
        q2 = Fraction(rng.randint(1, 9), rng.randint(1, 9))
        if q1 == q2:
            continue
        pm = MonoidPresentation.from_values([q1, q2])
        if (max(q1, q2) / min(q1, q2)).denominator == 1:  # the larger is a multiple of the smaller
            with pytest.raises(NotAnAtom):
                case1_relation(pm, 0, 1)
            continue
        rel = case1_relation(pm, 0, 1)
        assert not rel.is_balanced
        assert sum(m * g[0] for m, g in zip(rel.left, pm.generators)) == sum(
            m * g[0] for m, g in zip(rel.right, pm.generators)
        )
        # the atom with the smaller exponent stands on the longer side
        longer = 0 if sum(rel.left) > sum(rel.right) else 1
        assert pm.generators[longer][0] == min(q1, q2)


def test_case1_relations_leave_no_pure_candidate_among_middle_atoms():
    values = [Fraction(1, 2), Fraction(2, 3), Fraction(3, 4), Fraction(7, 5)]
    pm = MonoidPresentation.from_values(values)
    k = len(values)
    never_short = set(range(k))
    never_long = set(range(k))
    supports = []
    for i, j in itertools.combinations(range(k), 2):
        rel = case1_relation(pm, i, j)
        supports.append({t for t in range(k) if rel.left[t] or rel.right[t]})
        sides = [(rel.left, rel.right), (rel.right, rel.left)]
        for side, other in sides:
            for t in range(k):
                if side[t] and sum(side) < sum(other):
                    never_short.discard(t)
                if side[t] and sum(side) > sum(other):
                    never_long.discard(t)
    # only the extreme exponents survive as one-sided candidates
    assert never_short == {values.index(min(values))}
    assert never_long == {values.index(max(values))}
    # supports of the three relations among any three atoms share no atom
    for a, b, c in itertools.combinations(range(len(supports)), 3):
        if len(supports[a] | supports[b] | supports[c]) == 3:
            assert supports[a] & supports[b] & supports[c] == set()


def test_case1_relation_rejects_degenerate_input():
    pm = MonoidPresentation.from_values([Fraction(1, 2), Fraction(2, 3)])
    with pytest.raises(ValueError):
        case1_relation(pm, 0, 0)
    twod = MonoidPresentation.from_generators([(1, 0), (0, 1)])
    with pytest.raises(ValueError):
        case1_relation(twod, 0, 1)
    for values, message in [
        ([-1, 2], "monomial atoms need positive exponents, got -1 and 2"),
        ([2, 2], "equal exponents give only the trivial relation"),
    ]:
        with pytest.raises(ValueError) as excinfo:
            case1_relation(MonoidPresentation.from_values(values), 0, 1)
        assert excinfo.type is ValueError and str(excinfo.value) == message


# ---------------------------------------------------------------------------
# algebra witnesses
# ---------------------------------------------------------------------------


def test_algebra_witness_2_3_in_full():
    w = algebra_witness(2, 3)
    assert (w.p, w.q, w.r, w.s, w.c) == (2, 1, 1, 1, 1)
    m = w.monoid
    x = lambda e: SemiringPolynomial.monomial(e, 1, "Q", m)
    assert w.a1 == SemiringPolynomial.from_terms([(3, 1), (2, -1)], "Q", m)
    assert w.a2 == SemiringPolynomial.from_terms([(4, 1), (3, -1)], "Q", m)
    assert w.z1 == ((x(2), 1), (w.a2, 1))
    assert w.z2 == ((x(3), 1), (w.a1, 1))
    assert w.product == SemiringPolynomial.from_terms([(6, 1), (5, -1)], "Q", m)
    assert w.factorization_length == 2
    assert w.factors_multiply_out()


def test_algebra_witness_3_5_has_positive_shift():
    w = algebra_witness(3, 5)
    assert (w.p, w.q, w.r, w.s, w.c) == (2, 1, 2, 3, 4)
    assert w.a1 == SemiringPolynomial.from_terms([(10, 1), (9, -1)], "Q", w.monoid)
    assert w.a2 == SemiringPolynomial.from_terms([(6, 1), (5, -1)], "Q", w.monoid)
    # delta = s*a - q*b = 4 > 0 pairs x^a with a1
    assert w.z1[0][0].max_exponent == 3 and w.z1[1][0] == w.a1
    assert w.product == SemiringPolynomial.from_terms(
        [(32, 1), (31, -2), (30, 1)], "Q", w.monoid
    )
    assert w.factorization_length == 6


def test_algebra_witness_8_9_is_long():
    w = algebra_witness(8, 9)
    assert (w.p, w.q, w.r, w.s, w.c) == (8, 7, 1, 1, 55)
    assert w.factorization_length == 56
    assert w.factors_multiply_out()


def test_algebra_witness_all_coprime_pairs_to_9():
    pairs = [
        (a, b)
        for a in range(2, 10)
        for b in range(a + 1, 10)
        if gcd(a, b) == 1
    ]
    assert len(pairs) == 19
    for a, b in pairs:
        w = algebra_witness(a, b)
        assert w.p * a == w.q * b + 1
        assert w.r * b == w.s * a + 1
        assert binomial_irreducibility_check(w.a1)
        assert binomial_irreducibility_check(w.a2)
        assert w.factors_multiply_out()
        z1_atoms = {w.z1[0][0], w.z1[1][0]}
        z2_atoms = {w.z2[0][0], w.z2[1][0]}
        assert z1_atoms.isdisjoint(z2_atoms)
        assert sum(m for _, m in w.z1) == sum(m for _, m in w.z2)
        assert sum(m for _, m in w.z1) == w.factorization_length


@pytest.mark.parametrize("name, fake, message", [
    ("binomial_irreducibility_check", lambda f: False, "a1 admits a monomial divisor for pair (2, 3)"),
    ("poly_mul", lambda f, g: f, "shift identity failed for delta = -1"),
    # z1 starts with x^2 and z2 with x^3
    ("_multiply_out", lambda factors, monoid: factors[0][0], "the two factorizations disagree"),
])
def test_algebra_witness_certificate_checks_raise(monkeypatch, name, fake, message):
    fake = Counted(fake)
    monkeypatch.setattr(f"factolab.semiring.{name}", fake)
    with pytest.raises(InternalContradiction) as exc:
        algebra_witness(2, 3)
    assert str(exc.value) == message
    assert fake.calls


def test_algebra_witness_rejects_bad_pairs():
    for a, b in [(1, 2), (3, 3), (4, 2), (2, 4), (6, 9)]:
        with pytest.raises(InvalidPair):
            algebra_witness(a, b)
    with pytest.raises(InvalidPair):
        algebra_witness(2.0, 3)


PUISEUX = MonoidPresentation.from_values([Fraction(1, 2), Fraction(2, 3)])


@pytest.mark.parametrize("function, args, error, message", [
    (MasterSpec, ((3,), (True, True)), InvalidMasterSpec, "multiplicities must be positive integers, got True"),
    (pls_example, (1.5, 1), ValueError, "pure-atom count 1.5 is not an integer"),
    (pls_example, (True, 1), ValueError, "pure-atom count True is not an integer"),
    (pls_example, (2, 1.0), ValueError, "pure-atom count 1.0 is not an integer"),
    (fixture_gallery, (3.0,), ValueError, "truncation 3.0 is not an integer"),
    (case1_relation, (PUISEUX, 0, 1.0), ValueError, "atom index 1.0 is not an integer"),
    (case1_relation, (PUISEUX, True, 0), ValueError, "atom index True is not an integer"),
    (algebra_witness, (True, 3), InvalidPair, "generator True is not an integer"),
    (algebra_witness, (2, 10**60 + 0.5), InvalidPair, "generator 1e+60 is not an integer"),
], ids=["spec-bool", "pls-float", "pls-bool", "pls-short-float", "gallery-float", "case1-float", "case1-bool",
        "witness-bool", "witness-float"])
def test_integer_arguments_refuse_a_non_int_or_a_bool(function, args, error, message):
    # the library API refuses these, never truncates or compares them as ints
    with pytest.raises(error) as excinfo:
        function(*args)
    assert str(excinfo.value) == message


def test_algebra_witness_membership_refutations():
    # the four non-membership facts that make the binomials irreducible
    for a, b in [(2, 3), (3, 5), (4, 9), (8, 9)]:
        w = algebra_witness(a, b)
        nm = w.numerical
        assert not nm.contains(w.q * b - a)
        assert not nm.contains(w.p * a - b)
        assert not nm.contains(w.s * a - b)
        assert not nm.contains(w.r * b - a)


def test_algebra_witness_minimality_of_cofactors():
    # p and r are the least positive inverses, so q and s are minimal too
    for a, b in [(2, 3), (3, 5), (5, 7), (8, 9)]:
        w = algebra_witness(a, b)
        assert 1 <= w.p < b and not any(
            (t * a) % b == 1 for t in range(1, w.p)
        )
        assert 1 <= w.r < a and not any(
            (t * b) % a == 1 for t in range(1, w.r)
        )


# ---------------------------------------------------------------------------
# the index form
# ---------------------------------------------------------------------------


def exact_dense(poly, unit):
    """Coefficients of ``poly`` over exponent / unit, kept exact."""
    dense = [0] * (0 if poly.is_zero() else int(poly.max_exponent / unit) + 1)
    for e, c in poly.terms:
        dense[int(e / unit)] = c
    return dense


def test_index_form_matches_dense_oracles():
    rng = random.Random(88001)
    sixths = {n for n in range(64) if n != 1}
    spaces = [(None, Fraction(1), range(10**6)), (HALF_THIRD, Fraction(1, 6), sixths)]
    for monoid, unit, members in spaces:
        for domain in ("N", "Q"):
            def draw(degree):
                if domain == "N":
                    coeffs = [rng.randint(0, 3) for _ in range(degree + 1)]
                else:
                    coeffs = [Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(degree + 1)]
                return dense_trim([c if n in members else 0 for n, c in enumerate(coeffs)])

            def poly(dense):
                return SemiringPolynomial.from_terms(
                    [(n * unit, c) for n, c in enumerate(dense) if c], domain, monoid
                )

            for _ in range(40):
                f, g = draw(rng.randint(0, 6)), draw(rng.randint(0, 6))
                fp, gp = poly(f), poly(g)
                for p, dense in ((fp, f), (gp, g)):
                    assert all(type(e) is Fraction and type(c) is Fraction for e, c in p.terms)
                    assert [e for e, _ in p.terms] == sorted((e for e, _ in p.terms), reverse=True)
                    assert exact_dense(p, unit) == dense
                    assert SemiringPolynomial.from_terms(p.terms, domain, monoid) == p
                product = poly_mul(fp, gp)
                assert exact_dense(product, unit) == dense_trim(dense_mul(f, g))
                power = [1]
                for k in range(4):
                    assert exact_dense(poly_pow(gp, k), unit) == dense_trim(power)
                    power = dense_mul(power, g)
                if not g:
                    continue
                assert poly_divide_exact(product, gp) == fp
                quotient, oracle = poly_divide_exact(fp, gp), dense_divide(f, g)
                fits = oracle is not None and all(
                    c == 0 or (n in members and (domain == "Q" or (c > 0 and c.denominator == 1)))
                    for n, c in enumerate(oracle)
                )
                if fits:
                    assert exact_dense(quotient, unit) == dense_trim(oracle)
                else:
                    assert quotient is None
            seen = 0
            while domain == "N" and seen < 8:
                f = dense_trim(dense_mul(draw(rng.randint(0, 3)), draw(rng.randint(0, 3))))
                if f and len(f) <= 7 and max(f) <= 3:
                    assert_search_matches_box(f, monoid, unit, members)
                    seen += 1


def test_products_match_the_validated_construction():
    # sums, products, powers, exact quotients and the algebra witnesses are
    # not validated a second time, so their index form, down to the
    # int-or-Fraction type of each coefficient, must be what from_terms builds
    def validated(dense, domain, monoid, unit):
        return SemiringPolynomial.from_terms(
            [(n * unit, c) for n, c in enumerate(dense) if c], domain, monoid
        )

    def assert_same_form(got, want):
        assert got == want
        assert [(type(n), type(c)) for n, c in got.index_terms] == [
            (type(n), type(c)) for n, c in want.index_terms
        ]

    half, third = Fraction(1, 2), Fraction(1, 3)
    fixed = [  # (f, g, domain, monoid, unit) as dense coefficient lists over the unit
        ([1, 1], [6, 1, 1, 1], "N", None, 1),
        ([1, 1], [-1, 1], "Q", None, 1),  # x^2 - 1: the middle term cancels
        ([-1, 0, 1], [1, 0, 1], "Q", None, 1),  # x^4 - 1
        ([third, half], [6, 2], "Q", None, 1),  # every coefficient comes out integral
        ([half, -half], [2, 2], "Q", None, 1),  # 1 - x^2
        ([1, 0, 0, 1], [0, 0, 1, 1], "N", HALF_THIRD, Fraction(1, 6)),
        ([half, 0, 1, 0, 0, 0, -1], [0, 0, 2, 2], "Q", HALF_THIRD, Fraction(1, 6)),
    ]
    rng = random.Random(40961)
    values = [-2, Fraction(-3, 2), -1, Fraction(-1, 2), Fraction(1, 2), 1, Fraction(2, 3), 2, 3]
    sixths = [n for n in range(8) if n != 1]
    for _ in range(80):
        monoid, unit, indices = rng.choice([(None, 1, range(5)), (HALF_THIRD, Fraction(1, 6), sixths)])
        domain = rng.choice("NQ")

        def draw():
            dense = [0] * (max(indices) + 1)
            for n in rng.sample(list(indices), rng.randint(1, 3)):
                dense[n] = rng.randint(1, 3) if domain == "N" else rng.choice(values)
            return dense

        fixed.append((draw(), draw(), domain, monoid, unit))
    for f, g, domain, monoid, unit in fixed:
        fp, gp = validated(f, domain, monoid, unit), validated(g, domain, monoid, unit)
        product = poly_mul(fp, gp)
        assert_same_form(product, validated(dense_mul(f, g), domain, monoid, unit))
        assert_same_form(fp + gp, SemiringPolynomial.from_terms(fp.terms + gp.terms, domain, monoid))
        assert_same_form(poly_divide_exact(product, gp), fp)
        power = [1]
        for k in range(4):
            assert_same_form(poly_pow(gp, k), validated(power, domain, monoid, unit))
            power = dense_mul(power, g)
    for monoid in (None, HALF_THIRD):
        for c in (1, 2, half, Fraction(-3, 2)):
            for domain in ("N", "Q") if c in (1, 2) else ("Q",):
                x = SemiringPolynomial.monomial(1, c, domain, monoid)
                repeated = SemiringPolynomial.one(domain, monoid)
                for k in range(7):
                    power = poly_pow(x, k)
                    assert_same_form(power, repeated)
                    assert_same_form(power, SemiringPolynomial.monomial(k, Fraction(c) ** k, domain, monoid))
                    repeated = poly_mul(repeated, x)
    for b in range(3, 20):
        for a in range(2, b):
            if gcd(a, b) == 1:
                w = algebra_witness(a, b)
                for part in (w.a1, w.a2, *(factor for factor, _ in w.z1 + w.z2), w.product):
                    assert_same_form(part, SemiringPolynomial.from_terms(part.terms, "Q", w.monoid))


def test_validation_messages():
    m23 = MonoidPresentation.from_values([2, 3])
    cases = [
        (([(0, -1)],), "coefficient -1 is not a nonnegative integer"),
        (([(0, Fraction(1, 2))],), "coefficient 1/2 is not a nonnegative integer"),
        (([(Fraction(1, 2), 1)],), "exponent 1/2 lies outside the monoid"),
        (([(-1, 1)], "Q"), "exponent -1 lies outside the monoid"),
        (([(2, 1), (Fraction(1, 6), 1)], "N", HALF_THIRD), "exponent 1/6 lies outside the monoid"),
        (([(Fraction(1, 4), 1)], "Q", HALF_THIRD), "exponent 1/4 lies outside the monoid"),
        (([(1, 1), (0, -2)], "N", m23), "exponent 1 lies outside the monoid"),
    ]
    for args, message in cases:
        with pytest.raises(ValueError) as excinfo:
            SemiringPolynomial.from_terms(*args)
        assert str(excinfo.value) == message


def test_zero_over_a_two_dimensional_monoid():
    plane = MonoidPresentation.from_generators([(1, 0), (0, 1)])
    zero = SemiringPolynomial.zero("Q", plane)
    assert zero.is_zero() and zero.terms == () and str(zero) == "0"
    assert zero == SemiringPolynomial.from_terms([(1, 0)], "Q", plane)
