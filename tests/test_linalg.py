"""Exact linear algebra: kernels, saturation, and homogeneous feasibility."""

from __future__ import annotations

import itertools
import random
import re
import subprocess
import sys
from fractions import Fraction

import pytest

import factolab.linalg as linalg
from factolab.linalg import (
    DimensionMismatch,
    InternalContradiction,
    LatticeBasis,
    dot,
    format_rational,
    homogeneous_lp_witness,
    integer_kernel,
    integer_ratio,
    parse_rational,
    solve_inequalities,
)
from factolab.monoid import BudgetExceeded
from helpers import (
    Counted,
    brute_force_kernel_vectors,
    in_lattice,
    mat_mul,
    random_unimodular,
    recursive_solve_inequalities,
)


# ---------------------------------------------------------------------------
# rationals
# ---------------------------------------------------------------------------


def test_integer_ratio_reads_lowest_terms():
    for value in (Fraction(4, 6), "4/6", " 8/12 "):
        assert integer_ratio(value) == (2, 3)
    assert integer_ratio(7) == (7, 1) and integer_ratio("-0.5") == (-1, 2) and integer_ratio(0) == (0, 1)
    for value in (True, 1.5):
        with pytest.raises(ValueError, match="as a rational number"):
            integer_ratio(value)


def test_rational_round_trip():
    for text in ["2/3", "-7/5", "4", "0", "-3"]:
        assert format_rational(parse_rational(text)) == text


def test_parse_rational_rejects_zero_denominator():
    with pytest.raises(ValueError, match="zero denominator"):
        parse_rational("1/0")


def test_parse_rational_takes_only_ascii_forms():
    assert parse_rational(" -1.5 ") == Fraction(-3, 2)
    # Fraction alone reads each of these as an integer
    for text in ("1e3", "1_000", "٣"):
        with pytest.raises(ValueError, match=f"cannot interpret {text!r}"):
            parse_rational(text)
    # past the interpreter's digit limit, Fraction's error would advise a sys call
    limit = sys.get_int_max_str_digits()
    message = f"entry '{'1' * 16}'... has {limit + 700} digits, above the limit of {limit} digits per integer"
    with pytest.raises(ValueError, match=re.escape(message)):
        parse_rational("1" * (limit + 700))
    # a long rejected value is echoed as its first 16 characters and its length
    with pytest.raises(ValueError, match=re.escape(f"'1/{'0' * 13}... (105 characters) has a zero denominator")):
        parse_rational("1/" + "0" * 101)
    nested = []
    for _ in range(899):
        nested = [nested]
    with pytest.raises(ValueError, match=re.escape("cannot interpret [[[[[[[[[[[[[[[[... (1800 characters)")):
        parse_rational(nested)


# ---------------------------------------------------------------------------
# integer kernels
# ---------------------------------------------------------------------------


def unit_vector(k, i):
    return tuple(1 if j == i else 0 for j in range(k))


def test_kernel_of_2_3_is_exactly_3_minus_2():
    basis = integer_kernel([[2, 3]])
    assert basis.rank == 1
    assert basis.vectors == ((3, -2),)


def test_kernel_of_3_4_5_has_rank_two():
    basis = integer_kernel([[3, 4, 5]])
    assert basis.rank == 2
    for v in basis.vectors:
        assert 3 * v[0] + 4 * v[1] + 5 * v[2] == 0
    # brute force in a box: every kernel vector is an integer combination
    for z in brute_force_kernel_vectors([[3, 4, 5]], 8):
        assert in_lattice(basis.vectors, z)


def test_kernel_of_identity_is_trivial():
    basis = integer_kernel([[1, 0], [0, 1]])
    assert basis.rank == 0
    assert basis.vectors == ()


def test_kernel_of_zero_matrix_is_everything():
    basis = integer_kernel([[0, 0, 0]])
    assert basis.rank == 3
    for i in range(3):
        assert in_lattice(basis.vectors, unit_vector(3, i))


def test_kernel_rejects_ragged_rows():
    with pytest.raises(DimensionMismatch):
        integer_kernel([[1, 2], [3]])


def test_kernel_saturation_on_random_matrices():
    rng = random.Random(20403)
    for _ in range(100):
        rows = [[rng.randint(-5, 5) for _ in range(4)] for _ in range(2)]
        basis = integer_kernel(rows)
        for v in basis.vectors:
            assert [sum(a * x for a, x in zip(row, v)) for row in rows] == [0, 0]
        for z in brute_force_kernel_vectors(rows, 8):
            assert in_lattice(basis.vectors, z)


def test_kernel_unimodular_invariance():
    rng = random.Random(977)
    for _ in range(40):
        rows = [[rng.randint(-4, 4) for _ in range(4)] for _ in range(3)]
        u = random_unimodular(3, rng)
        basis_a = integer_kernel(rows)
        basis_b = integer_kernel(mat_mul(u, rows))
        assert basis_a.rank == basis_b.rank
        for v in basis_a.vectors:
            assert in_lattice(basis_b.vectors, v)
        for v in basis_b.vectors:
            assert in_lattice(basis_a.vectors, v)


def test_mat_mul_oracle_refuses_mismatched_shapes():
    assert mat_mul([[1, 2, 3], [4, 5, 6]], [[1], [0], [2]]) == [[7], [16]]
    with pytest.raises(ValueError):
        mat_mul([[1, 2, 3], [4, 5, 6]], [[1, 0], [0, 1]])  # 2x3 times 2x2


# ---------------------------------------------------------------------------
# homogeneous feasibility
# ---------------------------------------------------------------------------


def test_lp_documented_rank_one_cases():
    basis = LatticeBasis(2, ((3, -2),))
    # first coordinate >= 1 while the coordinate sum stays <= 0: impossible
    assert homogeneous_lp_witness(basis, (1, 0), [(1, 1)]) is None
    # second coordinate >= 1 with no side conditions: take t negative
    assert homogeneous_lp_witness(basis, (0, 1), []) is not None


def test_lp_empty_basis_is_infeasible():
    basis = LatticeBasis(2, ())
    assert homogeneous_lp_witness(basis, (1, 0), []) is None


def test_lp_witness_is_integral_and_satisfies_constraints():
    basis = LatticeBasis(2, ((3, -2),))
    z = homogeneous_lp_witness(basis, (0, 1), [(1, 1)])
    assert z is not None
    assert all(isinstance(c, int) for c in z)
    assert dot((0, 1), z) >= 1
    assert dot((1, 1), z) <= 0
    assert in_lattice(basis.vectors, z)


@pytest.mark.parametrize("t", [Fraction(0), Fraction(1)])
def test_lp_witness_check_raises_on_a_bad_point(monkeypatch, t):
    # t = 0 gives z = 0, which misses strict >= 1; t = 1 gives z = (3, -2),
    # whose coordinate sum 1 breaks the nonstrict sum <= 0.
    fake = Counted(lambda rows, nvars: ([t.numerator], t.denominator))
    monkeypatch.setattr(linalg, "fourier_motzkin", fake)
    with pytest.raises(InternalContradiction):
        homogeneous_lp_witness(LatticeBasis(2, ((3, -2),)), (1, 0), [(1, 1)])
    assert fake.calls == 1


def test_certificate_check_survives_optimize_flag():
    code = (
        "import factolab.linalg as L\n"
        "L.fourier_motzkin = lambda rows, nvars: ([0], 1)\n"
        "try:\n"
        "    L.homogeneous_lp_witness(L.LatticeBasis(2, ((3, -2),)), (1, 0), [(1, 1)])\n"
        "except L.InternalContradiction:\n"
        "    print('raised')\n"
    )
    result = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True, text=True)
    assert result.stdout.strip() == "raised", result.stderr


def rank_one_oracle(vector, strict, nonstrict):
    """Feasibility of a one-parameter system by direct interval reasoning."""
    lo, hi = None, None  # bounds on t, candidate z = t * vector
    constraints = [(dot(strict, vector), Fraction(1))]
    constraints += [(-dot(n, vector), Fraction(0)) for n in nonstrict]
    for coef, bound in constraints:  # coef * t >= bound
        if coef > 0:
            val = bound / coef
            lo = val if lo is None else max(lo, val)
        elif coef < 0:
            val = bound / coef
            hi = val if hi is None else min(hi, val)
        elif bound > 0:
            return False
    if lo is not None and hi is not None and lo > hi:
        return False
    return True


def test_lp_agrees_with_rank_one_oracle():
    rng = random.Random(4242)
    for _ in range(200):
        k = rng.randint(2, 4)
        vector = tuple(rng.randint(-5, 5) for _ in range(k))
        if all(c == 0 for c in vector):
            continue
        basis = LatticeBasis(k, (vector,))
        strict = tuple(rng.randint(-3, 3) for _ in range(k))
        nonstrict = [tuple(rng.randint(-3, 3) for _ in range(k)) for _ in range(rng.randint(0, 2))]
        expected = rank_one_oracle(vector, strict, nonstrict)
        assert (homogeneous_lp_witness(basis, strict, nonstrict) is not None) is expected


def test_lp_verdicts_match_box_search_on_random_lattices():
    rng = random.Random(515)
    for _ in range(60):
        rows = [[rng.randint(-4, 4) for _ in range(4)] for _ in range(2)]
        basis = integer_kernel(rows)
        strict = tuple(rng.randint(-3, 3) for _ in range(4))
        nonstrict = [tuple(rng.randint(-3, 3) for _ in range(4))]
        witness = homogeneous_lp_witness(basis, strict, nonstrict)
        if witness is not None:
            assert dot(strict, witness) >= 1
            assert dot(nonstrict[0], witness) <= 0
            assert in_lattice(basis.vectors, witness)
        else:
            # no lattice point in a small box satisfies the system either
            for coeffs in itertools.product(range(-5, 6), repeat=basis.rank):
                z = [0, 0, 0, 0]
                for c, v in zip(coeffs, basis.vectors):
                    for i in range(4):
                        z[i] += c * v[i]
                assert not (dot(strict, z) >= 1 and dot(nonstrict[0], z) <= 0)


def test_lp_unimodular_invariance_of_feasibility():
    # replacing the basis by another basis of the same lattice keeps verdicts
    rng = random.Random(8080)
    for _ in range(40):
        rows = [[rng.randint(-4, 4) for _ in range(4)] for _ in range(2)]
        basis = integer_kernel(rows)
        if basis.rank < 2:
            continue
        u = random_unimodular(basis.rank, rng)
        mixed = tuple(
            tuple(sum(u[i][j] * basis.vectors[j][t] for j in range(basis.rank)) for t in range(4))
            for i in range(basis.rank)
        )
        other = LatticeBasis(4, mixed)
        strict = tuple(rng.randint(-3, 3) for _ in range(4))
        nonstrict = [tuple(rng.randint(-3, 3) for _ in range(4))]
        assert (homogeneous_lp_witness(basis, strict, nonstrict) is None) == (
            homogeneous_lp_witness(other, strict, nonstrict) is None
        )


def test_lp_dimension_mismatch():
    basis = LatticeBasis(2, ((3, -2),))
    with pytest.raises(DimensionMismatch):
        homogeneous_lp_witness(basis, (1, 0, 0), [])
    for call, message in [
        (lambda: dot((1, 2), (1, 2, 3)), "dot product of lengths 2 and 3"),
        (lambda: solve_inequalities([((1, 0), 1)], 3), "constraint arity does not match variable count"),
        (lambda: homogeneous_lp_witness(basis, (1, 0), [(1, 0), (1,)]), "nonstrict functional has wrong length"),
        (lambda: LatticeBasis(2, ((3, -2), (1,))), "basis vector of wrong length"),
    ]:
        with pytest.raises(DimensionMismatch) as excinfo:
            call()
        assert excinfo.type is DimensionMismatch and str(excinfo.value) == message


def test_solve_inequalities_back_substitution():
    # x >= 1, y >= 1, x + y <= 3 has a solution; x + y <= 1 does not
    sol = solve_inequalities(
        [((Fraction(1), Fraction(0)), Fraction(1)),
         ((Fraction(0), Fraction(1)), Fraction(1)),
         ((Fraction(-1), Fraction(-1)), Fraction(-3))],
        2,
    )
    assert sol is not None
    x, y = sol
    assert x >= 1 and y >= 1 and x + y <= 3
    assert (
        solve_inequalities(
            [((Fraction(1), Fraction(0)), Fraction(1)),
             ((Fraction(0), Fraction(1)), Fraction(1)),
             ((Fraction(-1), Fraction(-1)), Fraction(-1))],
            2,
        )
        is None
    )


def test_solve_inequalities_matches_the_recursive_oracle():
    # <= 4 variables and <= 7 rational rows, with void rows and positive
    # multiples of earlier rows mixed in; 762 of the 2,000 are infeasible
    rng = random.Random(6161)

    def rational():
        return Fraction(rng.randint(-4, 4), rng.randint(1, 3))

    infeasible = 0
    for _ in range(2000):
        nvars = rng.randint(0, 4)
        system = []
        for _ in range(rng.randint(0, 7)):
            roll = rng.random()
            if system and roll < 0.15:
                coeffs, rhs = rng.choice(system)
                scale = Fraction(rng.randint(1, 4), rng.randint(1, 3))
                system.append((tuple(c * scale for c in coeffs), rhs * scale))
            elif roll < 0.2:
                system.append(((0,) * nvars, rational()))
            else:
                system.append((tuple(rational() for _ in range(nvars)), rational()))
        point = solve_inequalities(system, nvars)
        assert point == recursive_solve_inequalities(system, nvars), system
        if point is None:
            infeasible += 1
        else:
            assert all(type(t) is Fraction for t in point)
            assert all(dot(coeffs, point) >= rhs for coeffs, rhs in system)
    assert infeasible == 762


def test_solve_inequalities_matches_the_oracle_on_sparse_systems():
    # <= 10 variables and <= 8 rows with about 3/4 of the entries zero, whole
    # zero columns, rows that vanish at the first column eliminated, void rows
    # and positive multiples of earlier rows: elimination skips the columns no
    # live row touches, and those variables must come back 0
    rng = random.Random(2424)

    def entry():
        return Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.randint(1, 2))

    infeasible = skipped = 0
    for _ in range(1500):
        nvars = rng.randint(1, 10)
        live = [j for j in range(nvars) if rng.random() < 0.75]
        system = []
        for _ in range(rng.randint(1, 8)):
            roll = rng.random()
            if system and roll < 0.1:
                coeffs, rhs = rng.choice(system)
                scale = rng.randint(1, 3)
                system.append((tuple(c * scale for c in coeffs), rhs * scale))
            elif roll < 0.15:
                system.append(((0,) * nvars, rng.choice((0, -abs(entry()), entry()))))
            else:
                coeffs = [entry() if j in live and rng.random() < 0.35 else 0 for j in range(nvars)]
                if live and roll < 0.3:
                    coeffs[live[-1]] = 0
                system.append((tuple(coeffs), rng.choice((0, 0, entry()))))
        touched = [j for j in range(nvars) if any(coeffs[j] for coeffs, _ in system)]
        skipped += bool(touched) and len(touched) <= touched[-1]
        point = solve_inequalities(system, nvars)
        assert point == recursive_solve_inequalities(system, nvars), system
        if point is None:
            infeasible += 1
        else:
            assert all(dot(coeffs, point) >= rhs for coeffs, rhs in system)
            assert all(point[j] == 0 for j in range(nvars) if j not in touched)
    assert (infeasible, skipped) == (364, 936)


def test_fourier_motzkin_step_budget(monkeypatch):
    # three lower and four upper bounds on y make 12 pairs; the rows left in
    # x (-4 <= x <= 4 among them) give 8 distinct lower and 4 upper bounds,
    # 32 more pairs
    system = [((a, 1), b) for a, b in ((1, 0), (2, -3), (-1, 1))]
    system += [((c, -1), d) for c, d in ((1, -5), (-2, -9), (0, -6), (3, -20))]
    system += [((1, 0), -4), ((-1, 0), -4)]
    monkeypatch.setattr("factolab.linalg.MAX_STEPS", 44)
    assert solve_inequalities(system, 2) == [Fraction(-5, 2), Fraction(5, 2)]
    monkeypatch.setattr("factolab.linalg.MAX_STEPS", 43)
    with pytest.raises(BudgetExceeded, match="Fourier-Motzkin elimination exceeded its budget of 43 steps"):
        solve_inequalities(system, 2)
    # x + y >= 1 and x - y >= 0 give 2x >= 1, a row the system already has,
    # so x has one lower bound and 1 + 1 pairs suffice
    system = [((1, 1), 1), ((1, -1), 0), ((2, 0), 1), ((-1, 0), -5)]
    monkeypatch.setattr("factolab.linalg.MAX_STEPS", 2)
    assert solve_inequalities(system, 2) == [Fraction(1, 2), Fraction(1, 2)]
    assert BudgetExceeded is linalg.BudgetExceeded
