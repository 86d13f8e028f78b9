"""Classification verdicts, atom labels, master relations, relation oracle."""

from __future__ import annotations

import importlib
import itertools
import random
from fractions import Fraction
from operator import mul

import pytest

from factolab.classify import (
    AtomLabel,
    FactorizationRelation,
    _balanced_kernel_vector,
    _purity_refutations,
    classify,
    relation_evidence,
)
from factolab.construct import MasterSpec, build_master_monoid, fixture_gallery
from factolab.linalg import (
    InternalContradiction,
    LatticeBasis,
    homogeneous_lp_witness,
    integer_kernel,
)
from factolab.monoid import (
    BudgetExceeded,
    MonoidPresentation,
    NotNormalized,
    NotPointed,
    enumerate_factorizations,
    normalize_atoms,
    validate_presentation,
)
from helpers import Counted, box_relations


def numerical(*values, label=None):
    return MonoidPresentation.from_values(list(values), label=label)


PRODUCT_FIXTURE = MonoidPresentation.from_generators(
    [(2, 0, 0), (3, 0, 0), (0, 0, 1), (0, 1, 1), (0, 2, 1), (0, 3, 1), (0, 4, 1)]
)


def assert_report_invariants(report):
    if report.is_ufm:
        assert report.is_lfm and report.is_hfm
    assert report.is_plsm == (bool(report.purely_long) and bool(report.purely_short))
    assert (report.master is not None) == (report.is_lfm and not report.is_ufm)
    assert report.is_ffm and report.is_bfm
    if report.master is not None:
        assert report.master.is_irredundant and not report.master.is_balanced
        assert sum(report.master.left) > sum(report.master.right)
    assert len(report.labels) == len(report.prime) + len(report.purely_long) + len(
        report.purely_short
    ) + sum(1 for lab in report.labels if lab is AtomLabel.NEITHER)


# ---------------------------------------------------------------------------
# hand-checked classifications
# ---------------------------------------------------------------------------


def test_classify_2_3_is_proper_lfm():
    report = classify(numerical(2, 3))
    assert report.kernel_rank == 1
    assert report.kernel_basis == ((3, -2),)
    assert not report.is_ufm
    assert report.is_lfm
    assert not report.is_hfm
    assert report.is_plsm
    assert report.labels == (AtomLabel.PURELY_LONG, AtomLabel.PURELY_SHORT)
    assert report.purely_long == (0,)
    assert report.purely_short == (1,)
    assert report.prime == ()
    assert report.master == FactorizationRelation((3, 0), (0, 2))
    assert_report_invariants(report)


def test_classify_3_4_5_is_not_lfm():
    p = numerical(3, 4, 5)
    report = classify(p)
    assert report.kernel_rank == 2
    assert not report.is_lfm and not report.is_hfm and not report.is_ufm
    assert report.labels == (AtomLabel.NEITHER,) * 3
    assert report.prime == ()
    assert not report.is_plsm
    assert report.master is None
    w = report.witnesses["not_lfm"]
    assert sum(w) == 0 and any(w)
    # the witness is a genuine balanced relation: both sign parts hit the same element
    rel = FactorizationRelation.from_kernel_vector(w)
    assert p.evaluate(rel.left) == p.evaluate(rel.right)
    assert_report_invariants(report)


def test_classify_single_generator_is_ufm():
    report = classify(numerical(2))
    assert report.kernel_rank == 0
    assert report.is_ufm and report.is_lfm and report.is_hfm
    assert report.labels == (AtomLabel.PRIME,)
    assert report.prime == (0,)
    assert not report.is_plsm
    assert report.master is None
    assert report.witnesses == {}
    assert_report_invariants(report)


def test_classify_free_monoid_all_prime():
    report = classify(MonoidPresentation.from_generators([(1, 0), (0, 1)]))
    assert report.is_ufm
    assert report.labels == (AtomLabel.PRIME, AtomLabel.PRIME)


def test_classify_product_fixture():
    report = classify(PRODUCT_FIXTURE)
    assert not report.is_lfm and not report.is_hfm
    assert report.is_plsm
    assert report.purely_long == (0,)
    assert report.purely_short == (1,)
    assert report.prime == ()
    assert report.labels[2:] == (AtomLabel.NEITHER,) * 5
    assert_report_invariants(report)


def test_classify_rejects_unnormalized():
    with pytest.raises(NotNormalized):
        classify(numerical(2, 3, 4))


def test_classify_is_deterministic():
    assert classify(numerical(5, 7)) == classify(numerical(5, 7))


def test_scaling_invariance():
    base = classify(numerical(3, 4, 5))
    scaled = classify(
        MonoidPresentation.from_values(
            [Fraction(3, 7), Fraction(4, 7), Fraction(5, 7)]
        )
    )
    assert scaled.kernel_rank == base.kernel_rank
    assert scaled.labels == base.labels
    assert (scaled.is_ufm, scaled.is_lfm, scaled.is_hfm, scaled.is_plsm) == (
        base.is_ufm,
        base.is_lfm,
        base.is_hfm,
        base.is_plsm,
    )


def test_half_factorial_not_length_factorial():
    # rank one with balanced generator: half factorial but not length factorial
    p = MonoidPresentation.from_generators([(0, 1), (1, 1), (2, 1)])
    report = classify(p)
    assert report.kernel_rank == 1
    assert report.is_hfm
    assert not report.is_lfm
    assert report.master is None
    assert report.witnesses["not_lfm"] == (1, -2, 1)
    assert_report_invariants(report)


def test_prime_semantics_in_2_3():
    # 2 divides 3 + 3 without dividing either summand, so nothing is prime
    p = numerical(2, 3)
    assert enumerate_factorizations(p, [4])  # 6 - 2 lies in the monoid
    assert not enumerate_factorizations(p, [1])  # 3 - 2 does not
    assert classify(p).prime == ()


def test_pure_atoms_in_puiseux_monoid():
    p = MonoidPresentation.from_values([Fraction(1, 2), Fraction(1, 3)])
    report = classify(p)
    assert report.master == FactorizationRelation((0, 3), (2, 0))
    assert report.purely_long == (1,)
    assert report.purely_short == (0,)


# ---------------------------------------------------------------------------
# master relations
# ---------------------------------------------------------------------------


def test_master_relation_of_2_3():
    assert classify(numerical(2, 3)).master == FactorizationRelation((3, 0), (0, 2))


def test_master_generates_all_unbalanced_relations():
    master = classify(numerical(2, 3)).master
    for rel in relation_evidence(numerical(2, 3), 20):
        n = max(rel.left[0], rel.right[0]) // max(master.left[0], 1)
        assert rel.left == tuple(n * c for c in master.left)
        assert rel.right == tuple(n * c for c in master.right)


def test_no_master_outside_proper_lfm():
    assert classify(numerical(2)).master is None
    assert classify(numerical(3, 4, 5)).master is None


# ---------------------------------------------------------------------------
# relation evidence oracle
# ---------------------------------------------------------------------------


def test_relation_evidence_2_3_to_grade_20():
    rels = relation_evidence(numerical(2, 3), 20)
    assert rels == [
        FactorizationRelation((3 * t, 0), (0, 2 * t)) for t in range(1, 7)
    ]


def test_relation_evidence_finds_balanced_relation_in_3_4_5():
    rels = relation_evidence(numerical(3, 4, 5), 10)
    assert FactorizationRelation((1, 0, 1), (0, 2, 0)) in rels
    p = numerical(3, 4, 5)
    for rel in rels:
        assert rel.is_irredundant
        assert p.evaluate(rel.left) == p.evaluate(rel.right)


def test_relation_evidence_respects_bound_and_order():
    p = numerical(3, 4, 5)
    h = validate_presentation(p)
    rels = relation_evidence(p, 10)
    grades = [h.grade(p.evaluate(rel.left)) for rel in rels]
    assert all(g <= 10 for g in grades)
    assert grades == sorted(grades)


def test_relation_evidence_step_budget(monkeypatch):
    # t is 2: 14 prefixes m * 3 of grade <= 20, and in the class of the even m
    # the zero prefix against each of the 6 others, the only disjoint supports
    p = numerical(2, 3)
    monkeypatch.setattr("factolab.linalg.MAX_STEPS", 20)
    assert len(relation_evidence(p, 20)) == 6
    monkeypatch.setattr("factolab.linalg.MAX_STEPS", 19)
    with pytest.raises(BudgetExceeded, match="budget of 19 steps"):
        relation_evidence(p, 20)


def test_relation_evidence_classes_are_exact_in_three_dimensions(monkeypatch):
    # t = (0, 0, 1) has key 1, so classes modulo key(t) would hold every
    # prefix (329 steps); the classes x - x_2 t are the pairs (x_0, x_1)
    p = MonoidPresentation.from_generators([(2, 0, 0), (3, 0, 0), (0, 0, 1), (0, 1, 1), (0, 2, 1)])
    monkeypatch.setattr("factolab.linalg.MAX_STEPS", 48)
    assert len(relation_evidence(p, 8)) == 3
    monkeypatch.setattr("factolab.linalg.MAX_STEPS", 47)
    with pytest.raises(BudgetExceeded, match="budget of 47 steps"):
        relation_evidence(p, 8)


def test_relation_evidence_on_6_9_20_is_decided_within_budget(monkeypatch):
    # grouping every factorization of grade <= 250 and scanning all pairs took
    # minutes; the prefixes on 9 and 20, in classes modulo 6, take < 10**4 steps
    p = numerical(6, 9, 20)
    assert len(relation_evidence(p, 400)) == 8080
    monkeypatch.setattr("factolab.linalg.MAX_STEPS", 10**5)
    rels = relation_evidence(p, 250)
    assert len(rels) == 3175
    for rel in rels:
        assert rel.is_irredundant and p.evaluate(rel.left) == p.evaluate(rel.right)
        assert p.evaluate(rel.left)[0] <= 6 * 250


def test_relation_evidence_keys_are_injective():
    # (0, 3) and (2, 0) evaluate to (3, -3) and (2, 2), whose keys a radix of
    # half the width, 4 * 1 + 1, would both make 12
    p = MonoidPresentation.from_generators([(1, 1), (1, -1)])
    assert relation_evidence(p, 4) == []


def test_relation_evidence_matches_the_box_under_the_validated_grading():
    rng = random.Random(4141)
    presentations = relations = 0
    while presentations < 50:
        d = rng.randint(2, 3)
        gens = {tuple(rng.randint(-3, 3) for _ in range(d)) for _ in range(rng.randint(d + 1, 5))}
        try:
            q = normalize_atoms(MonoidPresentation.from_generators(sorted(g for g in gens if any(g))))
        except NotPointed:
            continue
        weight = validate_presentation(q).grade
        for bound in (-1, 0, Fraction(7, 2), 6):
            want = box_relations(q.generators, weight, bound)
            assert [(r.left, r.right) for r in relation_evidence(q, bound)] == want, (q, bound)
            relations += len(want)
        presentations += 1
    assert relations >= 40, relations


@pytest.mark.parametrize("generators, bound", [
    ([(3,), (5,), (7,)], 20),
    ([(4,), (6,), (9,)], 20),
    ([(5,), (7,), (11,)], 20),
    ([(6,), (9,), (20,)], 20),
    ([(0, 1), (1, 1), (2, 1)], 20),
    ([(0, 1), (1, 1), (2, 1), (3, 1)], 16),
    ([(0, 1), (1, 1), (2, 1), (3, 1), (4, 1)], 12),
    ([(2, 0, 0), (3, 0, 0), (0, 0, 1), (0, 1, 1), (0, 2, 1)], 12),
])
def test_relation_evidence_matches_the_box_at_larger_bounds(generators, bound):
    # classes of the least-grade generator then hold many prefixes each
    q = MonoidPresentation.from_generators(generators)
    want = box_relations(q.generators, validate_presentation(q).grade, bound)
    assert [(r.left, r.right) for r in relation_evidence(q, bound)] == want
    assert len(want) >= 5


def test_relation_evidence_commutes_with_permuting_generators():
    # two generators tie for the least coordinate sum, so a permutation can
    # change which of them closes the relations
    rng = random.Random(2929)
    relations = 0
    for _ in range(60):
        d, low = rng.randint(2, 3), rng.randint(1, 2)
        tied = rng.sample([v for v in itertools.product(range(low + 1), repeat=d) if sum(v) == low], 2)
        others = [tuple(rng.randint(0, 4) for _ in range(d)) for _ in range(rng.randint(2, 5))]
        gens = set(tied) | {v for v in others if sum(v) > low}
        p = normalize_atoms(MonoidPresentation.from_generators(sorted(gens)))
        k = p.atom_count
        perm = rng.sample(range(k), k)
        q = MonoidPresentation.from_generators([p.generators[i] for i in perm])
        inverse = sorted(range(k), key=perm.__getitem__)
        bound = rng.choice((7, Fraction(17, 2), 10))

        def unordered(rels, order):
            return {frozenset(tuple(side[j] for j in order) for side in rel) for rel in rels}

        rels = relation_evidence(p, bound)
        assert unordered(relation_evidence(q, bound), inverse) == unordered(rels, range(k)), (p, perm)
        relations += len(rels)
    assert relations >= 300, relations


def test_relation_evidence_answers_any_bound_up_to_its_largest_search():
    """Bounds asked out of order on one presentation, the four presentations
    of the ``factorize-queries`` workload first, answer as a fresh search on
    an equal presentation does; the integer form keeps the largest search."""
    rng = random.Random(3131)
    presentations = [
        numerical(6, 9, 20),
        MonoidPresentation.from_generators([(2, 0, 0), (3, 0, 0)] + [(0, n, 1) for n in range(5)]),
        build_master_monoid(MasterSpec((2, 1, 1), (1, 1, 1))),
        MonoidPresentation.from_generators([(n, 1) for n in range(6)]),
    ]
    while len(presentations) < 24:
        d = rng.randint(2, 3)
        gens = {tuple(rng.randint(-3, 3) for _ in range(d)) for _ in range(rng.randint(d + 1, 5))}
        try:
            presentations.append(normalize_atoms(MonoidPresentation.from_generators(sorted(g for g in gens if any(g)))))
        except NotPointed:
            continue
    relations = 0
    for p in presentations:
        for bound in (8, 6, 10, 6, Fraction(3, 2), 10):
            fresh = MonoidPresentation(p.ambient_dim, p.generators, p.label)
            rels = relation_evidence(p, bound)
            assert rels == relation_evidence(fresh, bound), (p.generators, bound)
            relations += len(rels)
        form = p.integer_form
        assert form.relation_search[0] == 10 * form.unit
    assert relations >= 200, relations


def test_relation_evidence_reuse_keeps_the_step_budget(monkeypatch):
    # <2, 3> at bound 10: the 7 prefixes m * 3 <= 20 and, in the class of the
    # even m, the zero prefix against the 3 others, 10 steps; at bound 20 the
    # kept search took 20, so under a budget of 10 it is searched afresh
    p = numerical(2, 3)
    assert len(relation_evidence(p, 20)) == 6
    want = [FactorizationRelation((3 * t, 0), (0, 2 * t)) for t in range(1, 4)]
    monkeypatch.setattr("factolab.linalg.MAX_STEPS", 10)
    assert relation_evidence(numerical(2, 3), 10) == want
    assert relation_evidence(p, 10) == want
    monkeypatch.setattr("factolab.linalg.MAX_STEPS", 9)
    for q in (numerical(2, 3), p):
        with pytest.raises(BudgetExceeded, match="budget of 9 steps"):
            relation_evidence(q, 10)
    monkeypatch.setattr("factolab.linalg.MAX_STEPS", 20)
    assert relation_evidence(p, 10) == want


def test_relation_evidence_returns_a_fresh_list_each_call():
    p = numerical(3, 4, 5)
    want = relation_evidence(numerical(3, 4, 5), 10)
    searched = relation_evidence(p, 10)
    searched.clear()
    reused = relation_evidence(p, 10)
    assert reused == want
    reused.reverse()
    reused.append(None)
    assert relation_evidence(p, 10) == want
    assert relation_evidence(p, 8) == relation_evidence(numerical(3, 4, 5), 8)


def infeasible_purity_systems(basis):
    """Check each atom's two purity answers against the LP, and the Farkas
    closed form wherever the LP is infeasible; list, for each atom that is
    not prime, how many of its two systems are infeasible."""
    k = basis.dim
    sigmas = [sum(v) for v in basis.vectors]
    counts = []
    for i, refutations in enumerate(_purity_refutations(basis)):
        column = [v[i] for v in basis.vectors]
        if not any(column):
            assert refutations is None, (basis, i)
            continue
        unit = tuple(int(j == i) for j in range(k))
        counts.append(0)
        for sign, refutation in zip((1, -1), refutations):
            expected = homogeneous_lp_witness(basis, unit, [(sign,) * k])
            assert refutation == expected, (basis, i, sign)
            if expected is None:
                counts[-1] += 1
                pairs = itertools.combinations(zip(column, sigmas), 2)
                assert all(a * t == c * s for (a, s), (c, t) in pairs), (basis, i, sign)
                assert sign * sum(c * s for c, s in zip(column, sigmas)) > 0, (basis, i, sign)
    return counts


def test_rank_one_reading_matches_the_lp():
    # b spans the kernel of a basis of its own orthogonal complement; every
    # third b is made balanced, and many have negative entries.  Exactly one
    # label holds for each atom of b when sigma(b) != 0, and none when it is 0
    rng = random.Random(3131)
    balanced = mixed = 0
    for _ in range(300):
        k = rng.randint(2, 6)
        v = [rng.randint(-6, 6) for _ in range(k)]
        if rng.random() < 1 / 3:
            v[-1] = -sum(v[:-1])
        if not any(v):
            continue
        complement = integer_kernel([v]).vectors
        basis = integer_kernel(complement)
        assert basis.rank == 1
        b = basis.vectors[0]
        balanced += sum(b) == 0
        mixed += min(b) < 0
        if sum(b) == 0:  # the lattice is Z b, so its primitive vectors are b and -b
            assert _balanced_kernel_vector(basis) in (b, tuple(-c for c in b)), b
        assert infeasible_purity_systems(basis) == [int(sum(b) != 0)] * sum(c != 0 for c in b), b
    assert balanced >= 80 and mixed >= 200


def test_purity_refutation_matches_the_lp():
    # kernels of rank 2..12; the last matrix row is sigma - c e_j, so that
    # sigma(z) = c z_j on the kernel and atom j is pure on one side.  Where the
    # LP is infeasible, the atom's column is a positive (long) or negative
    # (short) multiple of the sigmas: Farkas' closed form
    rng = random.Random(16)
    ranks, cases, infeasible = set(), 0, 0
    for _ in range(120):
        rank, d = rng.randint(2, 12), rng.randint(1, 3)
        k = rank + d
        rows = [[rng.randint(-4, 4) for _ in range(k)] for _ in range(d - 1)]
        rows.append([1] * k)
        rows[-1][rng.randrange(k)] -= rng.choice((-3, -2, -1, 1, 2, 3))
        basis = integer_kernel(rows)
        ranks.add(basis.rank)
        # the kernel is saturated, so a vector of it is a lattice vector
        v = _balanced_kernel_vector(basis)
        assert any(v) and sum(v) == 0 and not any(sum(map(mul, row, v)) for row in rows), basis
        counts = infeasible_purity_systems(basis)
        cases += 2 * len(counts)
        infeasible += sum(counts)
    assert ranks == set(range(2, 13)) and (cases, infeasible) == (2220, 123)


def test_few_purity_systems_reach_the_lp(monkeypatch):
    # each non-prime atom poses two systems, and the elimination order or
    # Farkas' closed form decides all but these.  The truncations are those
    # the classify-batch benchmark classifies: the signed family at 3..6, the
    # product and strip families at 4..8
    module = importlib.import_module("factolab.classify")
    lp = Counted(module.span_witness)
    monkeypatch.setattr(module, "span_witness", lp)

    def lp_calls_and_systems(presentations):
        lp.calls, systems = 0, 0
        for p in presentations:
            systems += 2 * (p.atom_count - len(classify(p).prime))
        return lp.calls, systems

    assert lp_calls_and_systems(fx.presentation for fx in fixture_gallery(3)) == (2, 54)
    families = {"signed-neither-cloud": range(3, 7), "pure-pair-with-neither-cloud": range(4, 9),
                "half-factorial-strip": range(4, 9)}
    truncations = (
        fx.presentation
        for family, ks in families.items() for k in ks
        for fx in fixture_gallery(k) if fx.name == f"{family}-{k}"
    )
    assert lp_calls_and_systems(truncations) == (20, 256)


def labels_consistent_with_evidence(p, bound):
    report = classify(p)
    for rel in relation_evidence(p, bound):
        for side, other in ((rel.left, rel.right), (rel.right, rel.left)):
            for i, m in enumerate(side):
                if m == 0:
                    continue
                assert report.labels[i] is not AtomLabel.PRIME
                if report.labels[i] is AtomLabel.PURELY_LONG:
                    assert sum(side) > sum(other)
                if report.labels[i] is AtomLabel.PURELY_SHORT:
                    assert sum(side) < sum(other)
    return report


def test_labels_never_contradict_bounded_evidence():
    labels_consistent_with_evidence(numerical(2, 3), 30)
    labels_consistent_with_evidence(numerical(3, 4, 5), 15)
    labels_consistent_with_evidence(PRODUCT_FIXTURE, 12)


def test_neither_labels_are_confirmed_by_evidence():
    p = numerical(3, 4, 5)
    report = classify(p)
    rels = relation_evidence(p, 15)
    for i, label in enumerate(report.labels):
        assert label is AtomLabel.NEITHER
        weakly_short = any(
            (rel.left[i] and sum(rel.left) <= sum(rel.right))
            or (rel.right[i] and sum(rel.right) <= sum(rel.left))
            for rel in rels
        )
        weakly_long = any(
            (rel.left[i] and sum(rel.left) >= sum(rel.right))
            or (rel.right[i] and sum(rel.right) >= sum(rel.left))
            for rel in rels
        )
        assert weakly_short and weakly_long


# ---------------------------------------------------------------------------
# purity is a statement about the sign of sigma: swapping sigma swaps labels
# ---------------------------------------------------------------------------


def label_from_lp(basis, index, sigma):
    """Re-derive one atom's label straight from the two feasibility systems."""
    k = basis.dim
    unit = tuple(1 if j == index else 0 for j in range(k))
    neg = tuple(-s for s in sigma)
    if all(b[index] == 0 for b in basis.vectors):
        return AtomLabel.PRIME
    blocks_long = homogeneous_lp_witness(basis, unit, [sigma]) is None
    blocks_short = homogeneous_lp_witness(basis, unit, [neg]) is None
    assert not (blocks_long and blocks_short)
    if blocks_long:
        return AtomLabel.PURELY_LONG
    if blocks_short:
        return AtomLabel.PURELY_SHORT
    return AtomLabel.NEITHER


SWAPPED = {
    AtomLabel.PRIME: AtomLabel.PRIME,
    AtomLabel.PURELY_LONG: AtomLabel.PURELY_SHORT,
    AtomLabel.PURELY_SHORT: AtomLabel.PURELY_LONG,
    AtomLabel.NEITHER: AtomLabel.NEITHER,
}


def test_purity_swap_symmetry():
    for p in (numerical(2, 3), numerical(3, 4, 5), PRODUCT_FIXTURE):
        report = classify(p)
        basis = LatticeBasis(p.atom_count, report.kernel_basis)
        sigma = (1,) * p.atom_count
        neg = tuple(-s for s in sigma)
        for i, label in enumerate(report.labels):
            assert label_from_lp(basis, i, sigma) is label
            # negating the length form exchanges long and short roles
            assert label_from_lp(basis, i, neg) is SWAPPED[label]


def test_witnesses_are_checkable_relations():
    for p in (numerical(2, 3), numerical(3, 4, 5), PRODUCT_FIXTURE):
        report = classify(p)
        for name, w in report.witnesses.items():
            rel = FactorizationRelation.from_kernel_vector(w)
            assert p.evaluate(rel.left) == p.evaluate(rel.right)
            if name == "not_lfm":
                assert rel.is_balanced and any(w)
            if name == "not_hfm":
                assert not rel.is_balanced
            if name == "not_ufm":
                assert any(w)


# ---------------------------------------------------------------------------
# random cross-validation
# ---------------------------------------------------------------------------


def test_random_presentations_labels_vs_evidence():
    rng = random.Random(90125)
    done = 0
    while done < 30:
        d = rng.randint(1, 2)
        k = rng.randint(2, 4)
        gens = {
            tuple(rng.randint(0, 5) for _ in range(d))
            for _ in range(k)
        }
        gens = [g for g in gens if any(g)]
        if len(gens) < 2:
            continue
        p = normalize_atoms(MonoidPresentation.from_generators(sorted(gens)))
        report = labels_consistent_with_evidence(p, 18)
        assert_report_invariants(report)
        done += 1


def test_classify_certificate_checks_raise(monkeypatch):
    # the package attribute factolab.classify is the function, not the module
    module = importlib.import_module("factolab.classify")
    fake = Counted(lambda basis: (1, 0, 0))
    monkeypatch.setattr(module, "_balanced_kernel_vector", fake)
    with pytest.raises(InternalContradiction, match="no balanced relation"):
        classify(numerical(3, 4, 5))
    assert fake.calls == 1


# signed-neither-cloud-3 has the kernel basis b_1 = e_2 - 2 e_3 + e_4,
# b_2 = 3 e_0 - 2 e_1 and four more vectors that leave atom 2 out, so atom 2
# has the column (1, 0, 0, 0, 0, 0) against the sigmas (0, 1, 0, 0, 0, 0).
# Both of its purity systems, and no other, reach the LP.
SIGNED_NEITHER_CLOUD = next(fx for fx in fixture_gallery(3) if fx.name == "signed-neither-cloud-3").presentation


@pytest.mark.parametrize("nums", [[0] * 6, [1, 1, 0, 0, 0, 0]])
def test_purity_certificate_check_raises_on_a_bad_point(monkeypatch, nums):
    # the point 0 misses z_2 >= 1, and b_1 + b_2 breaks sigma(z) <= 0 for atom 2 long
    fake = Counted(lambda rows, nvars: (nums, 1))
    monkeypatch.setattr("factolab.linalg.fourier_motzkin", fake)
    with pytest.raises(InternalContradiction, match="violates the system it solves"):
        classify(SIGNED_NEITHER_CLOUD)
    assert fake.calls == 1


def test_purity_farkas_check_raises_without_a_certificate(monkeypatch):
    # atom 2 is neither purely long nor purely short, so its column is no
    # multiple of the sigmas and an empty answer must be refused
    fake = Counted(lambda rows, nvars: None)
    monkeypatch.setattr("factolab.linalg.fourier_motzkin", fake)
    with pytest.raises(InternalContradiction, match="no Farkas certificate"):
        classify(SIGNED_NEITHER_CLOUD)
    assert fake.calls == 1


# ---------------------------------------------------------------------------
# pinned LP points
# ---------------------------------------------------------------------------

# Witnesses of fixture_gallery(3), each the point a Fourier-Motzkin solve returns.
PINNED_GALLERY_WITNESSES = {
    "lfm-pair-2-3": {
        "atom0_not_purely_short": (3, -2),
        "atom1_not_purely_long": (-3, 2),
        "not_ufm": (3, -2),
        "not_hfm": (3, -2),
    },
    "non-lfm-triple-3-4-5": {
        "atom0_not_purely_long": (1, -2, 1),
        "atom0_not_purely_short": (1, -2, 1),
        "atom1_not_purely_long": (-1, 2, -1),
        "atom1_not_purely_short": (-1, 2, -1),
        "atom2_not_purely_long": (1, -2, 1),
        "atom2_not_purely_short": (1, -2, 1),
        "not_ufm": (4, -3, 0),
        "not_hfm": (4, -3, 0),
        "not_lfm": (1, -2, 1),
    },
    "scaled-triple-3-4-5-over-7": {
        "atom0_not_purely_long": (1, -2, 1),
        "atom0_not_purely_short": (1, -2, 1),
        "atom1_not_purely_long": (-1, 2, -1),
        "atom1_not_purely_short": (-1, 2, -1),
        "atom2_not_purely_long": (1, -2, 1),
        "atom2_not_purely_short": (1, -2, 1),
        "not_ufm": (4, -3, 0),
        "not_hfm": (4, -3, 0),
        "not_lfm": (1, -2, 1),
    },
    "pure-pair-with-neither-cloud-3": {
        "atom0_not_purely_short": (3, -2, 0, 0, 0, 0),
        "atom1_not_purely_long": (-3, 2, 0, 0, 0, 0),
        "atom2_not_purely_long": (0, 0, 2, -3, 0, 1),
        "atom2_not_purely_short": (0, 0, 2, -3, 0, 1),
        "atom3_not_purely_long": (0, 0, -2, 3, 0, -1),
        "atom3_not_purely_short": (0, 0, -2, 3, 0, -1),
        "atom4_not_purely_long": (0, 0, 1, -2, 1, 0),
        "atom4_not_purely_short": (0, 0, 1, -2, 1, 0),
        "atom5_not_purely_long": (0, 0, 2, -3, 0, 1),
        "atom5_not_purely_short": (0, 0, 2, -3, 0, 1),
        "not_ufm": (3, -2, 0, 0, 0, 0),
        "not_hfm": (3, -2, 0, 0, 0, 0),
        "not_lfm": (0, 0, 1, -2, 1, 0),
    },
    "signed-neither-cloud-3": {
        "atom0_not_purely_short": (3, -2, 0, 0, 0, 0, 0, 0, 0),
        "atom1_not_purely_long": (-3, 2, 0, 0, 0, 0, 0, 0, 0),
        "atom2_not_purely_long": (0, 0, 1, -2, 1, 0, 0, 0, 0),
        "atom2_not_purely_short": (0, 0, 1, -2, 1, 0, 0, 0, 0),
        "atom3_not_purely_long": (0, 0, 0, 4, -5, 0, 0, 0, 1),
        "atom3_not_purely_short": (0, 0, 0, 4, -5, 0, 0, 0, 1),
        "atom4_not_purely_long": (0, 0, 0, -4, 5, 0, 0, 0, -1),
        "atom4_not_purely_short": (0, 0, 0, -4, 5, 0, 0, 0, -1),
        "atom5_not_purely_long": (0, 0, 0, 1, -2, 1, 0, 0, 0),
        "atom5_not_purely_short": (0, 0, 0, 1, -2, 1, 0, 0, 0),
        "atom6_not_purely_long": (0, 0, 0, 2, -3, 0, 1, 0, 0),
        "atom6_not_purely_short": (0, 0, 0, 2, -3, 0, 1, 0, 0),
        "atom7_not_purely_long": (0, 0, 0, 3, -4, 0, 0, 1, 0),
        "atom7_not_purely_short": (0, 0, 0, 3, -4, 0, 0, 1, 0),
        "atom8_not_purely_long": (0, 0, 0, 4, -5, 0, 0, 0, 1),
        "atom8_not_purely_short": (0, 0, 0, 4, -5, 0, 0, 0, 1),
        "not_ufm": (0, 0, 1, -2, 1, 0, 0, 0, 0),
        "not_hfm": (3, -2, 0, 0, 0, 0, 0, 0, 0),
        "not_lfm": (0, 0, 1, -2, 1, 0, 0, 0, 0),
    },
    "half-factorial-strip-3": {
        "atom0_not_purely_long": (2, -3, 0, 1),
        "atom0_not_purely_short": (2, -3, 0, 1),
        "atom1_not_purely_long": (-2, 3, 0, -1),
        "atom1_not_purely_short": (-2, 3, 0, -1),
        "atom2_not_purely_long": (1, -2, 1, 0),
        "atom2_not_purely_short": (1, -2, 1, 0),
        "atom3_not_purely_long": (2, -3, 0, 1),
        "atom3_not_purely_short": (2, -3, 0, 1),
        "not_ufm": (1, -2, 1, 0),
        "not_lfm": (1, -2, 1, 0),
    },
}


def test_lp_points_are_pinned():
    assert {
        fx.name: classify(fx.presentation).witnesses for fx in fixture_gallery(3)
    } == PINNED_GALLERY_WITNESSES
    # generators with a nonpositive coordinate sum send validation into the LP
    for gens, weights in [
        ([(1, -1), (0, 1)], (2, 1)),
        ([(2, -1), (-1, 2)], (1, 1)),
        ([(Fraction(1, 2), -1, 0), (0, 1, -1), (-1, 0, 3)], (14, 6, 5)),
    ]:
        grading = validate_presentation(MonoidPresentation.from_generators(gens))
        assert grading.weights == weights
    basis = integer_kernel([[2, 3, -1, 4, 1]])
    strict = ("1/2", Fraction(-2, 3), 0, "5/4", 1)
    nonstrict = [(Fraction(1, 3), 1, "-1/2", 0, 0), (0, Fraction(3, 2), 1, -1, "2/5")]
    assert homogeneous_lp_witness(basis, strict, nonstrict) == (-39, 0, -26, -2, 60)
