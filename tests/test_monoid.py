"""Presentations, pointedness, normalization, and exact factorization sets."""

from __future__ import annotations

import math
import random
import re
import time
from fractions import Fraction

import pytest

from factolab import monoid
from factolab.classify import classify, relation_evidence
from factolab.linalg import InternalContradiction
from factolab.monoid import (
    BudgetExceeded,
    DimensionMismatch,
    DuplicateGenerator,
    Grading,
    InvalidGenerator,
    MonoidPresentation,
    NotAnAtom,
    NotNormalized,
    NotPointed,
    as_element,
    atomic_divisors,
    ensure_normalized,
    enumerate_factorizations,
    length_set,
    normalize_atoms,
    validate_presentation,
)
from helpers import (
    Counted,
    box_evaluate,
    box_factorizations,
    box_relations,
    reference_grading,
    solve_rational_combination,
)


def numerical(*values, label=None):
    return MonoidPresentation.from_values(list(values), label=label)


PRODUCT_FIXTURE = MonoidPresentation.from_generators(
    [(2, 0, 0), (3, 0, 0), (0, 0, 1), (0, 1, 1), (0, 2, 1), (0, 3, 1), (0, 4, 1)]
)


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------


def test_validate_positive_grading():
    p = MonoidPresentation.from_generators([(2, 0), (3, 0), (0, 1), (1, 1)])
    h = validate_presentation(p)
    grades = [h.grade(g) for g in p.generators]
    assert min(grades) == 1
    assert all(q >= 1 for q in grades)


def test_validate_rejects_zero_generator():
    p = MonoidPresentation.from_generators([(2, 0), (0, 0)])
    with pytest.raises(InvalidGenerator):
        validate_presentation(p)
    with pytest.raises(InvalidGenerator) as excinfo:
        MonoidPresentation.from_generators([])
    assert excinfo.type is InvalidGenerator and str(excinfo.value) == "a presentation needs at least one generator"


def test_validate_detects_non_pointed():
    p = MonoidPresentation.from_generators([(1, 0), (-1, 0)])
    with pytest.raises(NotPointed) as exc:
        validate_presentation(p)
    w = exc.value.witness
    assert w == (1, 1)
    assert all(c >= 0 for c in w) and any(c > 0 for c in w)
    assert p.evaluate(w) == (Fraction(0), Fraction(0))


def test_validate_mixed_sign_coordinates_is_fine():
    # negative coordinates do not break pointedness
    p = MonoidPresentation.from_generators([(2, 0, 0), (3, 0, 0), (0, -3, 1), (0, 2, 1)])
    h = validate_presentation(p)
    assert all(h.grade(g) >= 1 for g in p.generators)


def test_grading_is_deterministic():
    p = MonoidPresentation.from_generators([(0, -3, 1), (2, 0, 0), (0, 2, 1)])
    assert validate_presentation(p) == validate_presentation(p)


VALIDATION_POOL = tuple(
    Fraction(q) for q in ("-2", "-3/2", "-1", "-1/3", "0", "1/4", "1/2", "2/3", "1", "5/3", "3")
)


def test_validation_matches_rational_reference():
    """The grading found on the integer columns is the one found on the
    rational generators, and a presentation without one has a nonzero
    nonnegative relation as its witness."""
    rng = random.Random(20261019)
    outcomes = {"coordinate sum": 0, "Fourier-Motzkin": 0, "not pointed": 0}
    for _ in range(300):
        d, k = rng.randint(1, 4), rng.randint(1, 5)
        gens = []
        while len(gens) < k:
            g = tuple(rng.choice(VALIDATION_POOL) for _ in range(d))
            if any(g):
                gens.append(g)
        p = MonoidPresentation.from_generators(gens)
        want = reference_grading(gens)
        if want is None:
            with pytest.raises(NotPointed) as exc:
                validate_presentation(p)
            w = exc.value.witness
            assert any(w) and min(w) >= 0, (gens, w)
            assert not any(p.evaluate(w)), (gens, w)
            outcomes["not pointed"] += 1
        else:
            assert validate_presentation(p).weights == want, gens
            outcomes["coordinate sum" if all(sum(g) > 0 for g in gens) else "Fourier-Motzkin"] += 1
    assert min(outcomes.values()) >= 30, outcomes


INTEGER_FORM_CASES = {  # generators, and an element to factor
    "coordinate sum": ([["1/2", "0"], ["2/3", "0"], ["0", "1"], ["1/3", "1"]], ["5/2", "2"]),
    "Fourier-Motzkin": ([["1", "-2"], ["0", "1/3"], ["2", "-3"]], ["3", "-5"]),
    "not pointed": ([["1", "0"], ["-1/2", "0"], ["0", "1"]], ["1", "1"]),
}


def _integer_form_outcomes(gens, element):
    """normalize_atoms, classify and enumerate_factorizations, each on a fresh
    presentation: its result, or NotPointed if it raised that."""
    calls = (
        normalize_atoms,
        lambda p: classify(normalize_atoms(p)),
        lambda p: enumerate_factorizations(p, element),
    )
    outcomes = []
    for call in calls:
        p = MonoidPresentation.from_generators(gens)
        try:
            outcomes.append(call(p))
        except NotPointed:
            outcomes.append(NotPointed)
    return outcomes


@pytest.mark.parametrize("gens, element", INTEGER_FORM_CASES.values(), ids=INTEGER_FORM_CASES.keys())
def test_integer_form_builds_no_fraction(monkeypatch, gens, element):
    """The integer form, its reduction, the atom check and classify build no
    Fraction in the monoid module; only the grading, on first use, does."""
    want = _integer_form_outcomes(gens, element)
    assert (want[0] is NotPointed) == (gens is INTEGER_FORM_CASES["not pointed"][0])
    assert want[0] is NotPointed or len(want[2]) >= 2

    def no_fraction(*args):
        raise AssertionError(f"Fraction{args} built in factolab.monoid")

    monkeypatch.setattr("factolab.monoid.Fraction", no_fraction)
    assert _integer_form_outcomes(gens, element) == want


def test_fourier_motzkin_grading_is_built_on_first_use():
    # no coordinate sum is positive on all three: (1, -2) sums to -1
    p = MonoidPresentation.from_generators(INTEGER_FORM_CASES["Fourier-Motzkin"][0])
    form = p.integer_form
    assert (form.scales, form.weights, form.unit, form.grades) == ((1, 3), (7, 1), 1, (1, 1, 5))
    assert "grading" not in vars(form)
    assert validate_presentation(p) == Grading((Fraction(7), Fraction(3)))
    assert validate_presentation(p) is form.grading


@pytest.mark.parametrize("nums", [[0, 0], [1, 0], [-1, 5]])
def test_grading_point_check_raises(monkeypatch, nums):
    # the scaled columns are (1, -6), (0, 1) and (2, -9): each point grades one
    # of them by 0 or less, which used to divide by zero or grade a generator negatively
    fake = Counted(lambda rows, nvars: (nums, 1))
    monkeypatch.setattr("factolab.monoid.fourier_motzkin", fake)
    p = MonoidPresentation.from_generators(INTEGER_FORM_CASES["Fourier-Motzkin"][0])
    with pytest.raises(InternalContradiction) as exc:
        classify(p)
    assert str(exc.value) == "the grading point does not grade every generator positively"
    assert fake.calls == 1


def test_not_pointed_check_raises_without_a_witness(monkeypatch):
    fake = Counted(lambda *args: None)
    monkeypatch.setattr("factolab.monoid.homogeneous_lp_witness", fake)
    p = MonoidPresentation.from_generators([(1, 0), (-1, 0)])
    with pytest.raises(InternalContradiction) as exc:
        validate_presentation(p)
    assert str(exc.value) == "no grading found and no nonnegative kernel witness either"
    assert fake.calls == 2  # one LP per generator


# ---------------------------------------------------------------------------
# normalization
# ---------------------------------------------------------------------------


def test_normalize_drops_reducible_generator():
    p = numerical(2, 3, 4)
    q = normalize_atoms(p)
    assert q.generators == (as_element([2]), as_element([3]))


def test_normalize_reject_names_the_witness():
    p = numerical(2, 3, 4)
    with pytest.raises(NotAnAtom) as exc:
        ensure_normalized(p)
    assert exc.value.index == 2
    assert exc.value.witness == (2, 0, 0)
    assert p.evaluate(exc.value.witness) == as_element([4])


def test_normalize_handles_duplicates():
    p = numerical(2, 3, 2)
    assert normalize_atoms(p).generators == (
        as_element([2]),
        as_element([3]),
    )
    with pytest.raises(DuplicateGenerator) as exc:
        ensure_normalized(p)
    assert (exc.value.index, exc.value.original) == (2, 0)


def test_normalize_keeps_atoms_untouched():
    p = numerical(4, 6)  # both atomic even though gcd is 2
    assert normalize_atoms(p) is p


def test_normalize_puiseux_generators():
    p = MonoidPresentation.from_values([Fraction(1, 2), Fraction(1, 3), Fraction(5, 6)])
    q = normalize_atoms(p)
    # 5/6 = 1/2 + 1/3 drops out
    assert q.generators == (as_element([Fraction(1, 2)]), as_element([Fraction(1, 3)]))


def test_ensure_normalized():
    ensure_normalized(numerical(2, 3))
    with pytest.raises(NotNormalized) as exc:
        ensure_normalized(numerical(2, 3, 4))
    assert type(exc.value) is NotAnAtom
    with pytest.raises(NotNormalized) as exc:
        ensure_normalized(numerical(2, 2, 3))
    assert type(exc.value) is DuplicateGenerator


def rejects(p):
    """Whether ensure_normalized raises on p."""
    try:
        ensure_normalized(p)
    except NotNormalized:
        return True
    return False


# ---------------------------------------------------------------------------
# factorization enumeration
# ---------------------------------------------------------------------------


def test_factorizations_of_six_over_2_3():
    zs = enumerate_factorizations(numerical(2, 3), [6])
    assert zs == ((0, 2), (3, 0))


def test_factorizations_empty_outside_monoid():
    assert enumerate_factorizations(numerical(2, 3), [1]) == ()
    assert enumerate_factorizations(numerical(2, 3), [Fraction(5, 2)]) == ()


def test_factorization_of_zero_is_trivial():
    assert enumerate_factorizations(numerical(2, 3), [0]) == ((0, 0),)


def test_factorizations_in_product_fixture():
    zs = enumerate_factorizations(PRODUCT_FIXTURE, (0, 2, 2))
    assert zs == ((0, 0, 0, 2, 0, 0, 0), (0, 0, 1, 0, 1, 0, 0))
    assert all(sum(z) == 2 for z in zs)


def test_length_set_and_divisors():
    p = numerical(2, 3)
    assert length_set(p, [12]) == {4, 5, 6}
    assert length_set(p, [1]) == set()
    assert atomic_divisors(p, [7]) == {0, 1}
    assert atomic_divisors(p, [4]) == {0}
    assert atomic_divisors(p, [1]) == set()


def test_factorizations_sound():
    p = MonoidPresentation.from_generators([(2, 1), (1, 3), (0, 1)])
    x = (4, 9)
    zs = enumerate_factorizations(p, x)
    assert zs
    for z in zs:
        assert p.evaluate(z) == as_element(x)
    assert len(set(zs)) == len(zs)
    for call, message in [
        (lambda: p.evaluate((1, 2)), "exponent vector length does not match generator count"),
        (lambda: enumerate_factorizations(p, (4,)), "element does not live in the ambient space"),
    ]:
        with pytest.raises(DimensionMismatch) as excinfo:
            call()
        assert excinfo.type is DimensionMismatch and str(excinfo.value) == message


def test_evaluate_takes_integer_exponents_only():
    # a float used to put a float into the element, and a bool passed as 0 or 1;
    # a negative int stays valid, as kernel vectors are evaluated
    p = MonoidPresentation.from_values([2, 3])
    for exponents, shown in [([Fraction(1, 2), 1], "Fraction(1, 2)"), ([0.5, 1], "0.5"), ([True, 2], "True"),
                             ([1, 2.0], "2.0"), ([0, False], "False")]:
        with pytest.raises(ValueError) as excinfo:
            p.evaluate(exponents)
        assert str(excinfo.value) == f"exponent {shown} is not an integer"
    assert p.evaluate([3, -2]) == (Fraction(0),)
    assert all(type(c) is Fraction for c in p.evaluate([-1, 4]))


def naive_box_factorizations(p, x, box):
    """Oracle: search the full multiplicity box, pruning once a coordinate
    overshoots (the generators used here are nonnegative)."""
    gens = [tuple(int(c) for c in g) for g in p.generators]
    target = tuple(int(c) for c in as_element(x))
    k = len(gens)
    out = []
    z = [0] * k

    def rec(idx, remaining):
        if idx == k:
            if all(c == 0 for c in remaining):
                out.append(tuple(z))
            return
        g = gens[idx]
        for m in range(box + 1):
            rem = tuple(r - m * c for r, c in zip(remaining, g))
            if any(c < 0 for c in rem):
                break
            z[idx] = m
            rec(idx + 1, rem)
        z[idx] = 0

    rec(0, target)
    return sorted(out)


def test_factorizations_complete_against_box_oracle():
    rng = random.Random(60601)
    checked = 0
    while checked < 25:
        d = rng.randint(1, 2)
        k = rng.randint(2, 4)
        gens = []
        for _ in range(k):
            g = tuple(rng.randint(0, 5) for _ in range(d))
            if any(g):
                gens.append(g)
        if len(gens) < 2:
            continue
        p = MonoidPresentation.from_generators(gens)
        h = validate_presentation(p)
        # pick an element by evaluating a random exponent vector
        z0 = tuple(rng.randint(0, 3) for _ in range(p.atom_count))
        x = p.evaluate(z0)
        if h.grade(x) > 20:
            continue
        got = enumerate_factorizations(p, x)
        assert list(got) == naive_box_factorizations(p, x, 20)
        checked += 1


def test_factorizations_monotone_under_divisibility():
    rng = random.Random(7321)
    p = MonoidPresentation.from_generators([(2, 0), (3, 0), (1, 1), (0, 2)])
    for _ in range(20):
        z0 = tuple(rng.randint(0, 2) for _ in range(4))
        x = p.evaluate(z0)
        atom = rng.randrange(4)
        y = tuple(a + b for a, b in zip(x, p.generators[atom]))
        assert len(enumerate_factorizations(p, x)) <= len(enumerate_factorizations(p, y))


# ---------------------------------------------------------------------------
# the graded walk against the box oracles
# ---------------------------------------------------------------------------

WALK_POOL = tuple(Fraction(q) for q in ("-1", "0", "1/2", "1", "2/3", "3/2", "2"))
BOX_LIMIT = 3000


def random_walk_generators(rng):
    """2-4 generators with coordinate sum in [1, 3], Puiseux entries and
    negative coordinates, sometimes with one generator repeated or the sum of
    two added."""
    d = rng.choice((1, 1, 2, 3))
    k = rng.randint(2, 4)
    gens = []
    while len(gens) < k:
        g = tuple(rng.choice(WALK_POOL) for _ in range(d))
        if 1 <= sum(g) <= 3:
            gens.append(g)
    if rng.random() < 0.3:
        gens.insert(rng.randrange(k + 1), rng.choice(gens))
    if rng.random() < 0.3:
        g, h = rng.sample(gens, 2)
        gens.insert(rng.randrange(len(gens) + 1), tuple(a + b for a, b in zip(g, h)))
    return gens


def test_walk_matches_box_oracles():
    """Factorizations and atom witnesses against raw box searches bounded by
    the coordinate sum, which is positive on every generator here, and
    relation evidence against the box under the validated grading."""
    rng = random.Random(20261018)
    checked = 0
    for _ in range(40):
        gens = random_walk_generators(rng)
        p = MonoidPresentation.from_generators(gens)

        def caps(x):
            return [math.floor(sum(x) / sum(g)) for g in gens]

        z0 = [rng.randint(0, 2) for _ in gens]
        x = box_evaluate(gens, z0)
        below = tuple(a - b for a, b in zip(x, rng.choice(gens)))
        off_grid = (x[0] + Fraction(1, 7),) + x[1:]
        negative = tuple(-c for c in gens[0])
        for y in (x, below, off_grid, negative):
            if math.prod(c + 1 for c in caps(y)) > BOX_LIMIT:
                continue
            want = box_factorizations(gens, y, caps(y))
            assert list(enumerate_factorizations(p, y)) == want, (gens, y)
            checked += 1
        assert enumerate_factorizations(p, off_grid) == ()

        # the atom check keeps the lexicographically first long decomposition
        witness = [
            next((z for z in box_factorizations(gens, g, caps(g)) if sum(z) >= 2), None)
            for g in gens
        ]
        repeated = {i for i, g in enumerate(gens) if g in gens[:i]}
        keep = [g for i, g in enumerate(gens) if i not in repeated and witness[i] is None]
        q = normalize_atoms(p)
        assert q.generators == tuple(as_element(g) for g in keep)
        assert rejects(p) == (q is not p)
        reducible = [i for i, w in enumerate(witness) if w is not None]
        if reducible and not repeated:
            i = reducible[0]
            with pytest.raises(NotAnAtom) as exc:
                ensure_normalized(p)
            assert (exc.value.index, exc.value.witness) == (i, witness[i])
            message = f"generator {i} is not an atom (witness {witness[i]}); normalize first"
            with pytest.raises(NotNormalized, match=re.escape(message)):
                ensure_normalized(p)

        bound = rng.choice((Fraction(7), Fraction(13, 2)))
        rels = relation_evidence(q, bound)
        assert [(r.left, r.right) for r in rels] == box_relations(keep, validate_presentation(q).grade, bound)
    assert checked >= 100


def random_elimination_generators(rng):
    """5-7 distinct generators in Q^2..Q^4 with dependent columns before the
    last: the one before the last is a multiple of the last, and the one at
    position j < k - 3 is the sum of two after it.  The others have
    coordinate sum in [1, 3].  Sometimes the last coordinate copies the
    first, which leaves the span a proper subspace."""
    d = rng.randint(2, 4)
    k = rng.randint(5, 7)
    copy = d >= 3 and rng.random() < 0.5
    gens = []
    while len(gens) < k - 2:
        g = [rng.choice(WALK_POOL) for _ in range(d)]
        if copy:
            g[-1] = g[0]
        if 1 <= sum(g) <= 3 and tuple(g) not in gens:
            gens.append(tuple(g))
    ratio = rng.choice((Fraction(1, 2), Fraction(2, 3), Fraction(3, 2), Fraction(2)))
    gens.insert(k - 3, tuple(ratio * c for c in gens[-1]))
    j = rng.randrange(k - 3)
    a, b = rng.sample(range(j, k - 1), 2)
    gens.insert(j, tuple(x + y for x, y in zip(gens[a], gens[b])))
    if len(set(gens)) < k:
        return random_elimination_generators(rng)
    return gens, j, copy


def test_elimination_matches_box_oracles():
    """The search by elimination against the box, where a column before the
    last depends on later ones, so the pivot columns are not a suffix; the
    box lists its vectors in lexicographic order, and so must the search."""
    rng = random.Random(7071)
    checked = outside = scattered = reducible = several = 0
    for _ in range(30):
        gens, j, copy = random_elimination_generators(rng)
        p = MonoidPresentation.from_generators(gens)
        d, k = len(gens[0]), len(gens)
        # column j is free when it lies in the span of the columns after it
        free = [j for j in range(k) if solve_rational_combination(gens[j + 1:], gens[j]) is not None]
        assert k - len(free) >= 2
        scattered += free != list(range(len(free)))

        def caps(x):
            return [math.floor(sum(x) / sum(g)) for g in gens]

        z0 = [int(i == j or rng.random() < 0.3) for i in range(k)]
        x = box_evaluate(gens, z0)  # column j gives x a second factorization
        below = tuple(a - b for a, b in zip(x, rng.choice(gens)))
        off_grid = (x[0] + Fraction(1, 7),) + x[1:]
        negative = tuple(-c for c in gens[0])
        targets = [x, below, off_grid, negative]
        if copy:
            targets.append(gens[0][:-1] + (gens[0][-1] + 1,))  # outside the span
        for y in targets:
            if math.prod(c + 1 for c in caps(y)) > 1000:
                continue
            want = box_factorizations(gens, y, caps(y))
            assert list(enumerate_factorizations(p, y)) == want, (gens, y)
            assert length_set(p, y) == {sum(z) for z in want}
            checked += 1
            outside += y is targets[-1] and copy
            several += len(want) >= 2
        assert enumerate_factorizations(p, off_grid) == ()

        if sum(math.prod(c + 1 for c in caps(g)) for g in gens) > 1000:
            continue
        witness = [
            next((z for z in box_factorizations(gens, g, caps(g)) if sum(z) >= 2), None)
            for g in gens
        ]
        i = next((i for i, w in enumerate(witness) if w is not None), None)
        if i is None:
            ensure_normalized(p)
        else:
            with pytest.raises(NotAnAtom) as exc:
                ensure_normalized(p)
            assert (exc.value.index, exc.value.witness) == (i, witness[i])
            reducible += 1
    assert checked >= 80 and outside >= 3 and reducible >= 10 and several >= 10
    assert scattered == 30


def random_pruning_presentation(rng):
    """(generators, positive grading) of a kind whose reduced free columns
    have negative entries in some pivot row: mixed-sign generators (the last
    k drawn, once one has a negative coordinate), a signed truncation or a
    strip, sometimes with the sum of two generators added."""
    kind = rng.choice(("mixed", "signed", "strip"))
    if kind == "mixed":
        d, k = rng.randint(2, 3), rng.randint(4, 5)
        gens = []
        while len(gens) < k or min(min(g) for g in gens) >= 0:
            g = tuple(rng.choice(WALK_POOL) for _ in range(d))
            if 1 <= sum(g) <= 3 and g not in gens:
                gens = gens[1:] + [g] if len(gens) == k else gens + [g]
        weights = (Fraction(1),) * d
    elif kind == "signed":
        k = rng.randint(1, 2)
        gens = [(2, 0, 0), (3, 0, 0)] + [(0, n, 1) for n in range(-k, k + 1)]
        weights = (Fraction(1), Fraction(0), Fraction(1))
    else:
        shift = rng.choice((0, 1, Fraction(1, 2)))
        gens = [(n + shift, 1) for n in range(rng.randint(3, 5))]
        weights = (Fraction(0), Fraction(1))
    gens = [as_element(g) for g in gens]
    total = tuple(map(sum, zip(*rng.sample(gens, 2))))
    if rng.random() < 0.4 and total not in gens:
        gens.insert(rng.randrange(len(gens) + 1), total)
    return gens, Grading(weights)


def test_pruned_walk_matches_box_oracles(monkeypatch):
    """The walk with its dead-subtree cut against the box, on presentations
    where the cut fires; the box is bounded by the drawn grading, the walk by
    the validated one.  The search must keep every factorization, the
    lexicographic order and the first atom witness.  The walk checks the floors of every prefix it
    reaches and stops at the first row that proves the prefix dead; it then
    checks the floors of the prefix's position, and stops at the first row
    that proves the position dead.  So the dead prefixes, and the positions
    cut whole, are the floors whose rows it does not check to the end.  They
    are counted over the full walks of ``enumerate_factorizations`` alone:
    ``atomic_divisors`` stops early and the atom check at its first witness,
    so their counts measure those functions, not the cut."""
    reached = passed = 0
    floors_of = monoid._floors

    def passing(rows):
        nonlocal passed
        yield from rows
        passed += 1

    class CountingFloors(tuple):
        def __getitem__(self, p):
            nonlocal reached
            reached += 1
            return passing(super().__getitem__(p))

    def counting_floors(*args):
        floors = floors_of(*args)
        return floors and CountingFloors(floors)

    monkeypatch.setattr("factolab.monoid._floors", counting_floors)
    rng = random.Random(90210)
    checked = several = reducible = cut = dead = 0
    for _ in range(60):
        gens, h = random_pruning_presentation(rng)
        p = MonoidPresentation.from_generators(gens)

        def caps(x):
            return [math.floor(h.grade(x) / h.grade(g)) for g in gens]

        before = dead
        targets = [box_evaluate(gens, [rng.randint(0, top) for _ in gens]) for top in (1, 1, 2)]
        targets.append(tuple(a - b for a, b in zip(targets[0], rng.choice(gens))))
        for y in targets:
            if math.prod(c + 1 for c in caps(y)) > 1500:
                continue
            want = box_factorizations(gens, y, caps(y))
            start = reached - passed
            assert list(enumerate_factorizations(p, y)) == want, (gens, y)
            dead += reached - passed - start
            assert length_set(p, y) == {sum(z) for z in want}
            assert atomic_divisors(p, y) == {i for z in want for i, m in enumerate(z) if m}
            checked += 1
            several += len(want) >= 2
        cut += dead > before

        if sum(math.prod(c + 1 for c in caps(g)) for g in gens) > 1500:
            continue
        witness = [
            next((z for z in box_factorizations(gens, g, caps(g)) if sum(z) >= 2), None)
            for g in gens
        ]
        i = next((i for i, w in enumerate(witness) if w is not None), None)
        if i is None:
            ensure_normalized(p)
        else:
            with pytest.raises(NotAnAtom) as exc:
                ensure_normalized(p)
            assert (exc.value.index, exc.value.witness) == (i, witness[i])
            reducible += 1
    assert checked >= 100 and several >= 25 and reducible >= 10
    assert cut >= 25 and dead == 304  # the cut fired, on most presentations


def test_atom_check_of_a_seven_generator_presentation_in_q4():
    p = MonoidPresentation.from_generators([
        ("-2/3", "4/3", "-1", "1"), ("3", "2", "0", "3"), ("4/3", "4", "-1/3", "-1"),
        ("2", "-1", "1", "0"), ("0", "-2", "1", "-1"), ("4", "-1", "2", "-1"),
        ("2", "3", "2/3", "-2"),
    ])
    with pytest.raises(NotAnAtom) as exc:
        ensure_normalized(p)
    assert (exc.value.index, exc.value.witness) == (3, (3, 0, 0, 0, 2, 1, 0))
    assert p.evaluate(exc.value.witness) == p.generators[3]


def bound_verdicts(form):
    rows = (form.grades, *zip(*form.columns))
    return [monoid._atom_by_bounds(rows, (g, *x)) for x, g in zip(form.columns, form.grades)]


@pytest.mark.parametrize("gens, verdicts", [
    # grade: 3 < 2 * 2; 4 = 2 + 2 passes every rule
    ([(2,), (3,)], [True, True]),
    ([(2,), (3,), (4,)], [True, True, False]),
    # a row of entries >= 0 and a negative target entry
    ([(0, 1), (-1, 3)], [True, True]),
    ([(1, 0), (0, 1), (1, 1), (10**12, -1)], [True, True, False, True]),
    # the mirror: a row of entries <= 0 and a positive target entry
    ([(1, 0), (2, -1), (3, 1)], [True, True, True]),
    # a drop: row 1 drops (0, 2) from (4, 1), then (3, 0) alone has grade 3 > 5 - 3
    ([(0, 2), (3, 0), (4, 1)], [True, True, True]),
    # gcd: only (3, 2) and (3, -2) are below (7, 1), and 3 does not divide 7
    ([(3, 2), (3, -2), (7, 1)], [True, True, True]),
])
def test_atom_bounds_rules(gens, verdicts):
    p = MonoidPresentation.from_generators(gens)
    form = p.integer_form
    assert bound_verdicts(form) == verdicts
    h = validate_presentation(p)
    for x, atom in zip(gens, verdicts):
        caps = [math.floor(h.grade(x) / h.grade(g)) for g in gens]
        if atom and math.prod(c + 1 for c in caps) <= BOX_LIMIT:
            assert all(sum(z) < 2 for z in box_factorizations(gens, x, caps))
    # every generator the bounds leave open here is a non-atom, and the
    # elimination is built only for its walk
    assert [w is None for w in form.atom_defects] == verdicts
    assert ("reduction" in vars(form)) == (not all(verdicts))


def test_atom_bounds_agree_with_the_unbounded_walk(monkeypatch):
    """Wherever the bounds claim an atom, the walk without a budget finds no
    decomposition of length >= 2."""
    monkeypatch.setattr("factolab.linalg.MAX_STEPS", math.inf)
    rng = random.Random(20261106)
    presentations = claimed = 0
    while presentations < 1000:
        d, k = rng.randint(1, 3), rng.randint(2, 7)
        gens = [[Fraction(rng.randint(-4, 6), rng.choice((1, 2, 3))) for _ in range(d)] for _ in range(k)]
        try:
            form = MonoidPresentation.from_generators(gens).integer_form
        except (InvalidGenerator, NotPointed):
            continue
        presentations += 1
        for x, g, atom in zip(form.columns, form.grades, bound_verdicts(form)):
            if atom:
                claimed += 1
                assert all(sum(z) < 2 for z in form.solutions(x)), gens
    assert claimed >= 3000


def test_enumeration_step_budget(monkeypatch):
    # <2, 3>: one prefix of the walk and 167 candidates for the free exponent.
    # <6, 9, 20>: two free exponents, so the walk steps through prefixes whose
    # floors are empty at every position, as in every rank-one search
    for values, count, steps in [((2, 3), 167, 168), ((6, 9, 20), 465, 632)]:
        p = numerical(*values)
        assert len(enumerate_factorizations(p, [1000])) == count
        with monkeypatch.context() as patch:
            patch.setattr("factolab.linalg.MAX_STEPS", steps)
            assert len(enumerate_factorizations(p, [1000])) == count
            patch.setattr("factolab.linalg.MAX_STEPS", steps - 1)
            with pytest.raises(BudgetExceeded, match=f"budget of {steps - 1} steps"):
                enumerate_factorizations(p, [1000])


def test_pruned_step_budget_on_a_strip(monkeypatch):
    # strip-5 at grade 16: 59 prefixes and 23 solutions.  Cutting dead
    # positions whole and bounding each leaf by every pivot row leaves 82
    # steps; the leaf bounds alone left 127, the cut of dead subtrees 185,
    # and the uncut walk took 563
    p = MonoidPresentation.from_generators([(n, 1) for n in range(6)])
    assert len(enumerate_factorizations(p, (10, 6))) == 23
    monkeypatch.setattr("factolab.linalg.MAX_STEPS", 82)
    assert len(enumerate_factorizations(p, (10, 6))) == 23
    monkeypatch.setattr("factolab.linalg.MAX_STEPS", 81)
    with pytest.raises(BudgetExceeded, match="budget of 81 steps"):
        enumerate_factorizations(p, (10, 6))


def crt_rows(form):
    """The pivot rows whose congruence on the last free exponent m changes
    along the progression of the row with the widest step: lead does not
    divide w * step."""
    w, leads = form.reduction.columns[-1], form.reduction.leads
    step = max(lead // math.gcd(c, lead) for c, lead in zip(w, leads))
    return [r for r, (c, lead) in enumerate(zip(w, leads)) if c * step % lead]


def random_crt_presentation(rng, kind):
    """Pointed generators whose last free column has a CRT row.  "identity"
    draws them as the identity digest does (1-3 coordinates, 2-7 generators,
    entries in {-4..6}/{1,2,3}).  "coprime" puts two pivot columns a e_1 and
    b e_2 of coprime a, b last, after 2-4 columns of entries in {0..3}, so
    that the rows' congruences on m have coprime moduli."""
    while True:
        if kind == "identity":
            d, k = rng.randint(1, 3), rng.randint(2, 7)
            gens = [tuple(Fraction(rng.randint(-4, 6), rng.choice((1, 2, 3))) for _ in range(d)) for _ in range(k)]
        else:
            a, b = rng.choice(((2, 3), (3, 4), (2, 5), (3, 5), (4, 5)))
            gens = [(rng.randint(0, 3), rng.randint(1, 3)) for _ in range(rng.randint(2, 4))] + [(a, 0), (0, b)]
        try:
            p = MonoidPresentation.from_generators(gens)
            form = p.integer_form
        except (InvalidGenerator, NotPointed):
            continue
        if form.reduction.free and crt_rows(form):
            return gens, p


def test_leaf_congruences_by_crt_match_box_oracles():
    """Where one pivot row's congruence does not fix m along another's
    progression, the leaf combines them by the Chinese remainder theorem and
    yields every m of the combined progression without checking it.  All
    three queries against the box, on elements built from random exponents
    and from the positive parts of kernel vectors."""
    rng = random.Random(32)
    checked = several = 0
    for kind in ("identity", "coprime") * 12:
        gens, p = random_crt_presentation(rng, kind)
        h = validate_presentation(p)

        def caps(x):
            return [math.floor(h.grade(x) / h.grade(g)) for g in gens]

        targets = [p.evaluate([rng.randint(0, 3) for _ in gens]) for _ in range(3)]
        targets += [p.evaluate([max(c, 0) for c in b]) for b in p.integer_form.kernel.vectors]
        targets.append(tuple(a - b for a, b in zip(targets[0], rng.choice(gens))))
        for y in targets:
            if math.prod(c + 1 for c in caps(y)) > BOX_LIMIT:
                continue
            want = box_factorizations(gens, y, caps(y))
            assert list(enumerate_factorizations(p, y)) == want, (gens, y)
            assert length_set(p, y) == {sum(z) for z in want}, (gens, y)
            assert atomic_divisors(p, y) == {i for z in want for i, m in enumerate(z) if m}, (gens, y)
            checked += 1
            several += len(want) >= 2
    assert checked >= 40 and several >= 20


def test_enumeration_steps_are_prefixes_plus_solutions(monkeypatch):
    # a presentation with a CRT row: its walk reaches 18 prefixes, and its
    # leaves hold the 2 solutions, each a step of enumerate_factorizations
    gens = [(1, 1), (-1, 6), (Fraction(5, 2), Fraction(2, 3)), (2, 2), (Fraction(2, 3), Fraction(-4, 3))]
    p = MonoidPresentation.from_generators(gens)
    assert crt_rows(p.integer_form)
    h = validate_presentation(p)
    x = (1, 15)
    want = box_factorizations(gens, x, [math.floor(h.grade(x) / h.grade(g)) for g in gens])
    assert len(want) == 2
    steps = 18 + len(want)
    monkeypatch.setattr("factolab.linalg.MAX_STEPS", steps)
    assert list(enumerate_factorizations(p, x)) == want
    monkeypatch.setattr("factolab.linalg.MAX_STEPS", steps - 1)
    with pytest.raises(BudgetExceeded, match=f"budget of {steps - 1} steps"):
        enumerate_factorizations(p, x)


def test_product_truncation_leaf_reads_every_pivot_row(monkeypatch):
    # (3000, 0, 0) in product-truncation-4: its last free column (0, 3, 1)
    # reduces to (-1, 2, 0), and pivot row 1 alone forces m = 0.  Bounded by
    # one row, the walk stepped through every m up to the grade cap, 3,629,752
    # steps; now it takes 4,501 prefixes and the 501 solutions
    p = PRODUCT_FIXTURE
    assert len(enumerate_factorizations(p, (3000, 0, 0))) == 501
    monkeypatch.setattr("factolab.linalg.MAX_STEPS", 5002)
    assert len(enumerate_factorizations(p, (3000, 0, 0))) == 501
    monkeypatch.setattr("factolab.linalg.MAX_STEPS", 5001)
    with pytest.raises(BudgetExceeded, match="budget of 5001 steps"):
        enumerate_factorizations(p, (3000, 0, 0))


def test_dead_positions_cut_a_seeded_walk(monkeypatch):
    # a seeded presentation in Q^3 (from random.Random(20261018), after
    # normalize_atoms) at its generator sum: 1,085,131 steps before dead
    # positions were cut whole and leaves bounded by every pivot row
    p = MonoidPresentation.from_generators([
        ("1/3", "5/3", "-4/3"), ("2", "3", "2"), ("0", "1/2", "3"), ("4", "-2", "5/3"),
        ("5", "1/3", "-1"), ("-1/3", "-2", "1"), ("5", "2/3", "6"),
    ])
    x = p.evaluate([1] * 7)
    facts = enumerate_factorizations(p, x)
    assert len(facts) == 5 and all(p.evaluate(z) == x for z in facts)
    monkeypatch.setattr("factolab.linalg.MAX_STEPS", 136_041)
    assert enumerate_factorizations(p, x) == facts
    monkeypatch.setattr("factolab.linalg.MAX_STEPS", 136_040)
    with pytest.raises(BudgetExceeded):
        enumerate_factorizations(p, x)


def rolling_length_sets(values, n):
    """The length set of n in the numerical monoid of ``values``, as int
    bits: L(0) = 1 and L(m) = OR_g L(m - g) << 1, over a window of the last
    max(values) sets."""
    width = max(values)
    window = [0] * width
    window[0] = 1
    for m in range(1, n + 1):
        bits = 0
        for g in values:
            if g <= m:
                bits |= window[(m - g) % width]
        window[m % width] = bits << 1
    return {i for i in range(window[n % width].bit_length()) if window[n % width] >> i & 1}


def test_rank_one_length_set_reads_leaves_whole(monkeypatch):
    # <6, 9, 20> at 10^5 has about 4.6 million factorizations; the length set
    # ORs one progression per leaf, each leaf a step
    p = numerical(6, 9, 20)
    for n in (1000, 3001):
        assert length_set(p, [n]) == rolling_length_sets((6, 9, 20), n)
    start = time.perf_counter()
    lengths = length_set(p, [10**5])
    assert time.perf_counter() - start < 1
    assert (len(lengths), min(lengths), max(lengths)) == (11_660, 5000, 16_662)
    assert lengths == rolling_length_sets((6, 9, 20), 10**5)


def test_sparse_wide_length_set_reads_each_solution(monkeypatch):
    # 10^12 in <1, 10^12> has the lengths 1 and 10^12 only: more lengths lie
    # between them than the budget has steps, so no bitset of that width is
    # built, and the two solutions are read one by one, each a step after
    # the walk's one prefix
    p = numerical(1, 10**12)
    monkeypatch.setattr("factolab.linalg.MAX_STEPS", 3)
    assert length_set(p, [10**12]) == {1, 10**12}
    monkeypatch.setattr("factolab.linalg.MAX_STEPS", 2)
    with pytest.raises(BudgetExceeded):
        length_set(p, [10**12])


def test_strip_walk_stays_within_budget():
    # strip-5 at (300, 100): every prefix but the dead ones leads to solutions
    p = MonoidPresentation.from_generators([(n, 1) for n in range(6)])
    assert len(enumerate_factorizations(p, (300, 100))) == 436_548


def test_atomic_divisors_stops_once_every_generator_appears(monkeypatch):
    # every generator of <6, 9, 20> occurs within the first leaves of 10^6 and
    # 10^9, so the walk stops after 4 steps where a whole walk of 10^6 runs
    # over budget; a kept answer must not be the only thing that stops it
    for n in (10**6, 10**9):
        assert atomic_divisors(numerical(6, 9, 20), [n]) == {0, 1, 2}
    monkeypatch.setattr("factolab.linalg.MAX_STEPS", 10**4)
    p = numerical(6, 9, 20)
    with pytest.raises(BudgetExceeded, match="budget of 10000 steps"):
        enumerate_factorizations(p, [10**6])
    assert atomic_divisors(p, [10**6]) == {0, 1, 2}
    monkeypatch.setattr("factolab.linalg.MAX_STEPS", 4)
    assert atomic_divisors(numerical(6, 9, 20), [10**6]) == {0, 1, 2}
    monkeypatch.setattr("factolab.linalg.MAX_STEPS", 3)
    with pytest.raises(BudgetExceeded, match="budget of 3 steps"):
        atomic_divisors(numerical(6, 9, 20), [10**6])


# ---------------------------------------------------------------------------
# kept answers
# ---------------------------------------------------------------------------


def counted_leaves(monkeypatch):
    """Count the walks of every integer form from here on."""
    leaves = Counted(monoid.IntegerForm._leaves)
    monkeypatch.setattr(monoid.IntegerForm, "_leaves", lambda form, *args: leaves(form, *args))
    return leaves


def test_a_repeated_query_is_answered_without_a_walk(monkeypatch):
    p = numerical(2, 3)
    leaves = counted_leaves(monkeypatch)
    facts = enumerate_factorizations(p, [12])
    assert (length_set(p, [12]), atomic_divisors(p, [12]), leaves.calls) == ({4, 5, 6}, {0, 1}, 3)
    assert enumerate_factorizations(p, (Fraction(12),)) is facts == ((0, 4), (3, 2), (6, 0))
    assert (length_set(p, ["12"]), atomic_divisors(p, [12]), leaves.calls) == ({4, 5, 6}, {0, 1}, 3)
    # an equal presentation is another object with its own integer form
    assert (enumerate_factorizations(numerical(2, 3), [12]), leaves.calls) == (facts, 4)
    # off the grid and in the wrong dimension, nothing is walked or kept
    assert (enumerate_factorizations(p, [Fraction(1, 2)]), length_set(p, [Fraction(1, 2)])) == ((), set())
    with pytest.raises(DimensionMismatch):
        atomic_divisors(p, [1, 2])
    assert (len(p.integer_form.answers), leaves.calls) == (3, 4)


def test_a_returned_set_is_the_callers_own():
    p = numerical(2, 3)
    lengths, divisors = length_set(p, [12]), atomic_divisors(p, [7])
    lengths.add(99)
    divisors.clear()
    assert (length_set(p, [12]), atomic_divisors(p, [7])) == ({4, 5, 6}, {0, 1})
    again = length_set(p, [12])
    again.discard(4)
    assert length_set(p, [12]) == {4, 5, 6}


def test_a_kept_answer_leaves_a_lower_budget_as_a_fresh_walk(monkeypatch):
    # 1000 in <6, 9, 20> takes 632 steps to enumerate, 319 for its length set
    # and 4 for its divisors (test_enumeration_step_budget)
    queries = [(enumerate_factorizations, 632), (length_set, 319), (atomic_divisors, 4)]
    p = numerical(6, 9, 20)
    for query, steps in queries:
        monkeypatch.setattr("factolab.linalg.MAX_STEPS", steps)
        kept = query(p, [1000])
        monkeypatch.setattr("factolab.linalg.MAX_STEPS", steps - 1)
        with pytest.raises(BudgetExceeded) as after_kept:
            query(p, [1000])
        with pytest.raises(BudgetExceeded) as fresh:
            query(numerical(6, 9, 20), [1000])
        assert str(after_kept.value) == str(fresh.value) == f"search exceeded its budget of {steps - 1} steps"
        monkeypatch.setattr("factolab.linalg.MAX_STEPS", steps)
        assert query(p, [1000]) == kept
    # the failed calls kept nothing
    assert [budget for _, _, budget in p.integer_form.answers] == [632, 319, 4]


def test_kept_answers_stay_within_the_weight_cap(monkeypatch):
    # in <2, 3>: 12 has 3 factorizations (weight 4), 6 has 2 (weight 3), 7 has
    # 1 (weight 2), the length set of 12 has 3 lengths (weight 4), and 60 has
    # 11 factorizations (weight 12)
    monkeypatch.setattr(monoid, "ANSWER_WEIGHT_CAP", 10)
    p = numerical(2, 3)
    form = p.integer_form
    leaves = counted_leaves(monkeypatch)

    def kept():
        assert form.answer_weight == sum(len(answer) + 1 for answer in form.answers.values()) <= 10
        return [(query.__name__, target) for query, (target,), _ in form.answers]

    enumerate_factorizations(p, [12])
    enumerate_factorizations(p, [6])
    enumerate_factorizations(p, [12])  # now the most recently used
    enumerate_factorizations(p, [7])
    assert kept() == [("_factorizations", 6), ("_factorizations", 12), ("_factorizations", 7)]
    assert (length_set(p, [12]), leaves.calls) == ({4, 5, 6}, 4)
    assert kept() == [("_factorizations", 12), ("_factorizations", 7), ("_lengths", 12)]
    assert (len(enumerate_factorizations(p, [60])), leaves.calls) == (11, 5)
    assert (len(enumerate_factorizations(p, [60])), leaves.calls) == (11, 6)  # returned but not kept
    assert kept() == [("_factorizations", 12), ("_factorizations", 7), ("_lengths", 12)]
    assert (enumerate_factorizations(p, [6]), leaves.calls) == (((0, 2), (3, 0)), 7)  # dropped before
    assert kept() == [("_factorizations", 7), ("_lengths", 12), ("_factorizations", 6)]
    # 24 has 5 factorizations (weight 6), which drops the two oldest answers
    assert (len(enumerate_factorizations(p, [24])), leaves.calls) == (5, 8)
    assert kept() == [("_factorizations", 6), ("_factorizations", 24)]


# ---------------------------------------------------------------------------
# JSON round trip
# ---------------------------------------------------------------------------


def test_presentation_json_round_trip():
    p = MonoidPresentation.from_generators(
        [(Fraction(1, 2), 0), (Fraction(3, 4), 1)], label="demo"
    )
    data = p.to_json_dict()
    assert data == {
        "dim": 2,
        "generators": [["1/2", "0"], ["3/4", "1"]],
        "label": "demo",
    }
    assert MonoidPresentation.from_json_dict(data) == p


def test_presentation_json_rejects_garbage():
    with pytest.raises(ValueError):
        MonoidPresentation.from_json_dict({"generators": [["1"]]})
    with pytest.raises(InvalidGenerator):
        MonoidPresentation.from_json_dict({"dim": 2, "generators": [["1"]]})
