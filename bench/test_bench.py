"""Tests of the benchmark itself: smoke runs and checkers that must say no.

    python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import copy
import importlib
import json
import shutil
import subprocess
import sys
from fractions import Fraction

import pytest

import oracles as orc
import run
import tracing
import workloads

sys.path.insert(0, str(run.SRC))

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


# ---------------------------------------------------------------------------
# smoke runs
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_one_round_of_each_workload_is_correct(name):
    workload = workloads.make(name, run.ROOT)
    inputs, _ = run.setup(workload, seed=7, repeats=1)
    try:
        tally = run.Tally(workload.subprocesses)
        ops = workload.round(inputs, 7, 0, 0)
        for op in ops:
            tally.run(op)
    finally:
        if getattr(workload, "work_dir", None) is not None:
            shutil.rmtree(workload.work_dir, ignore_errors=True)
    assert tally.incorrect == 0, tally.notes
    malformed = sum(op.malformed for op in ops)
    assert tally.failed <= malformed, tally.notes
    assert all(line.startswith("failed ") and "-malformed" in line for line in tally.notes), tally.notes


def test_plain_run_prints_every_end_to_end_metric():
    proc = subprocess.run(
        [sys.executable, str(run.BENCH / "run.py"), "--workload", "factorize-queries",
         "--seed", "3", "--seconds", "0", "--trace", "0"],
        capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= run.MIN_OPS
    want = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_traced_run_reports_every_per_layer_metric(monkeypatch):
    workload = workloads.make("semiring-atoms", run.ROOT)
    monkeypatch.setattr(workload, "trace_rounds", 1)
    result = run.traced_run(workload, seed=5)
    assert result["correct"] and result["failed"] == 0
    want = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert metrics["semiring.natural_atom_test.calls"] == 16  # the traced pass only
    assert (metrics["semiring.natural_atom_test.candidates"]
            == metrics["semiring.poly_divide_exact.calls"] - workloads.PRODUCTS // 2)
    assert metrics["semiring.NumericalMonoid.table_entries"] > 0
    assert metrics["monoid.enumerate_factorizations.calls"] == 0


def test_benchmark_json_names_the_workloads_and_metrics():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in BENCHMARK["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in BENCHMARK["per_layer"]] == tracing.per_layer_metrics()


@pytest.fixture
def fl():
    """factolab as currently in sys.modules (a set-up run re-imports it)."""
    return importlib.import_module("factolab")


def test_tracer_nests_spans_and_folds_recursion(fl):
    tracer = tracing.Tracer()
    tracer.install()
    try:
        tracer.enabled = True
        fl.classify(fl.MonoidPresentation.from_values([3, 4, 5]))
        tracer.enabled = False
        assert fl.classify.__wrapped__ is not None
    finally:
        tracer.uninstall()
    assert not hasattr(fl.classify, "__wrapped__")
    spans = {span_id: (parent, name) for span_id, parent, name, _, _ in tracer.spans}
    names = [name for _, name in spans.values()]
    assert names.count("classify.classify") == 1
    assert all(spans[p][1] != name for p, name in spans.values() if p), "recursion must stay in its caller's span"
    assert tracer.calls["linalg.solve_inequalities"] == tracer.calls["linalg.homogeneous_lp_witness"]
    assert all(v >= 0 for v in tracer.self_ns.values())


def test_setup_refuses_a_checkout_without_sources(tmp_path):
    (tmp_path / "bench").mkdir()
    for name in ("run.py", "oracles.py", "tracing.py", "workloads.py"):
        (tmp_path / "bench" / name).write_text((run.BENCH / name).read_text())
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "semiring-atoms", "--seconds", "1"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""


# ---------------------------------------------------------------------------
# every checker rejects a wrong output
# ---------------------------------------------------------------------------


def reject(check, *args):
    with pytest.raises(orc.CheckError):
        check(*args)


def gens_of(presentation):
    return workloads.json_gens(presentation)


def test_report_checks_reject_tampering(fl):
    p = fl.MonoidPresentation.from_values([2, 3])
    gens, rep = gens_of(p), fl.classify(p).to_json_dict()
    expect = orc.master_expectation((3,), (2,))
    orc.check_report(gens, rep, expect)
    bad = copy.deepcopy(rep)
    bad["witnesses"]["not_ufm"] = [3, -1]  # not a relation
    reject(orc.check_report, gens, bad)
    bad = copy.deepcopy(rep)
    bad["kernel_rank"], bad["kernel_basis"] = 0, []
    reject(orc.check_report, gens, bad)
    bad = copy.deepcopy(rep)
    bad["master"] = {"left": [0, 2], "right": [3, 0]}  # short side first
    reject(orc.check_report, gens, bad)
    bad = copy.deepcopy(rep)
    bad["labels"] = ["neither", "purely_short"]
    reject(orc.check_report, gens, bad)
    reject(orc.check_report, gens, rep, orc.master_expectation((2,), (3,)))

    q = fl.MonoidPresentation.from_values([3, 4, 5])
    rep = fl.classify(q).to_json_dict()
    orc.check_report(gens_of(q), rep)
    bad = copy.deepcopy(rep)
    bad["witnesses"]["atom0_not_purely_long"] = [-v for v in bad["witnesses"]["atom0_not_purely_long"]]
    reject(orc.check_report, gens_of(q), bad)


def test_pls_check_rejects_a_wrong_pattern(fl):
    orc.check_pls_example(gens_of(fl.pls_example(2, 1)), 2, 1)
    reject(orc.check_pls_example, gens_of(fl.pls_example(2, 1)), 1, 2)
    reject(orc.check_pls_example, gens_of(fl.MonoidPresentation.from_values([3, 4, 5])), 2, 1)


def test_factorization_checks_reject_an_off_by_one_generator(fl):
    p = fl.MonoidPresentation.from_values([6, 9, 20])
    oracle = orc.CoinChange(gens_of(p))
    x = (Fraction(60),)
    facts = fl.enumerate_factorizations(p, x)
    assert orc.check_factorizations(oracle, x, facts) == 5
    off = [list(z) for z in facts]
    off[0][0] += 1
    reject(orc.check_factorizations, oracle, x, off)
    reject(orc.check_factorizations, oracle, x, facts[1:])
    reject(orc.check_length_set, oracle, x, fl.length_set(p, x) | {4})
    reject(orc.check_atomic_divisors, oracle, (Fraction(29),), {0, 1, 2})
    orc.check_atomic_divisors(oracle, (Fraction(29),), fl.atomic_divisors(p, (29,)))


def test_relation_check_rejects_unequal_or_overlapping_sides(fl):
    p = fl.MonoidPresentation.from_values([6, 9, 20])
    rels = [r.to_json_dict() for r in fl.relation_evidence(p, 10)]
    orc.check_relations(gens_of(p), 10, rels)
    reject(orc.check_relations, gens_of(p), 10, [{"left": [3, 0, 0], "right": [0, 1, 0]}])
    reject(orc.check_relations, gens_of(p), 10, [{"left": [3, 2, 0], "right": [0, 2, 0]}])
    reject(orc.check_relations, gens_of(p), 2, rels)


def test_polynomial_checks_reject_a_swapped_factor(fl):
    poly = lambda cs: fl.SemiringPolynomial.from_terms([(e, c) for e, c in enumerate(cs) if c], "N")
    g, h = poly([1, 1]), poly([2, 0, 1])
    f = workloads.product_input(fl, g, h)
    is_atom, (u, v) = fl.natural_atom_test(f)
    assert not is_atom
    ft = orc.terms_of(f.to_json_dict())
    ut, vt = orc.terms_of(u.to_json_dict()), orc.terms_of(v.to_json_dict())
    orc.check_natural_factor(ft, ut, vt, puiseux=False)
    reject(orc.check_natural_factor, ft, ut, ut, False)
    reject(orc.check_natural_factor, ft, {Fraction(0): Fraction(1)}, ft, False)
    assert orc.is_eisenstein([2, 0, 2, 1], 2) and not orc.is_eisenstein([4, 0, 2, 1], 2)
    assert orc.in_half_third(Fraction(1, 3)) and not orc.in_half_third(Fraction(1, 6))


def test_numerical_and_witness_checks_reject_wrong_answers(fl):
    m = fl.NumericalMonoid([5, 7])
    queries = [23, 24, 0, 1]
    orc.check_numerical_monoid(5, 7, m.frontier, queries, [m.contains(n) for n in queries])
    reject(orc.check_numerical_monoid, 5, 7, m.frontier, queries, [True, True, True, False])
    reject(orc.check_numerical_monoid, 5, 7, 23, [], [])
    w = workloads.witness_json(fl.algebra_witness(5, 7))
    orc.check_algebra_witness(w)
    bad = copy.deepcopy(w)
    bad["z1"][1]["multiplicity"] += 1
    reject(orc.check_algebra_witness, bad)
    bad = copy.deepcopy(w)
    bad["z1"], bad["z2"] = bad["z1"][:1] + bad["z2"][1:], bad["z2"][:1] + bad["z1"][1:]
    reject(orc.check_algebra_witness, bad)


def test_cli_checks_reject_tracebacks_and_the_negative_index_relation():
    ok = workloads.CliResult(1, "", "error: bad input\n")
    workloads.clean_rejection(ok)
    reject(workloads.clean_rejection, workloads.CliResult(1, "", "Traceback (most recent call last):\nerror: x\n"))
    reject(workloads.clean_rejection, workloads.CliResult(0, "{}", ""))
    gens = orc.as_vectors([[2], [3]])
    workloads.check_case1(gens, 0, 1, {"left": [3, 0], "right": [0, 2], "element": "6"})
    reject(workloads.check_case1, gens, 0, 1, {"left": [3, 0], "right": [0, 0], "element": "6"})
    reject(workloads.json_output(lambda out: None), workloads.CliResult(0, "not json", ""))
    reject(workloads.check_gallery_output, {"truncation": 3, "mismatches": ["x"], "fixtures": []})
