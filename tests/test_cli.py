"""End-to-end command-line tests: exit codes, JSON shapes, determinism."""

from __future__ import annotations

import hashlib
import json
import math
import os
import random
import shutil
import signal
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import factolab.cli as cli

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def run_cli(*argv, stdin_text=None, env_extra=None, timeout=None):
    env = dict(os.environ)
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, "-m", "factolab", *argv],
        input=stdin_text,
        capture_output=True,
        text=True,
        env=env,
        timeout=timeout,
    )


def run_inproc(*argv, capsys=None):
    code = cli.main(list(argv))
    out = capsys.readouterr().out if capsys else ""
    return code, out


@pytest.fixture
def p23(tmp_path):
    path = tmp_path / "p23.json"
    path.write_text(json.dumps({"dim": 1, "generators": [["2"], ["3"]]}))
    return str(path)


@pytest.fixture
def puiseux(tmp_path):
    path = tmp_path / "puiseux.json"
    path.write_text(
        json.dumps({"dim": 1, "generators": [["1/2"], ["2/3"]]})
    )
    return str(path)


# ---------------------------------------------------------------------------
# analyze / factorize / evidence
# ---------------------------------------------------------------------------


def test_analyze_2_3(p23, capsys):
    code, out = run_inproc("analyze", p23, capsys=capsys)
    assert code == 0
    report = json.loads(out)
    assert report["kernel_basis"] == [[3, -2]]
    assert report["is_lfm"] and not report["is_ufm"] and not report["is_hfm"]
    assert report["labels"] == ["purely_long", "purely_short"]
    assert report["master"] == {"left": [3, 0], "right": [0, 2]}
    assert report["witnesses"]["not_ufm"] == [3, -2]


def test_analyze_output_is_byte_identical(p23):
    first = run_cli("analyze", p23)
    second = run_cli("analyze", p23)
    assert first.returncode == second.returncode == 0
    assert first.stdout == second.stdout
    assert first.stdout.strip().startswith("{")


@pytest.mark.parametrize("argv", [
    ["analyze", "{p23}"],
    ["factorize", "{p23}", "--element", "12"],
    ["construct-master", "--long", "3", "--short", "2"],
    ["pls-example", "2", "1"],
    ["gallery", "--k", "3"],
    ["semiring-atom", "{poly}"],
    ["algebra-witness", "2", "3"],
    ["case1", "{puiseux}", "0", "1"],
    ["evidence", "{p23}", "--bound", "20"],
], ids=lambda argv: argv[0])
def test_every_subcommand_prints_one_canonical_document(p23, puiseux, tmp_path, capsys, argv):
    poly = tmp_path / "poly.json"  # (x + 1)^2, reducible, so the witness is filled in
    poly.write_text(json.dumps({"coeff_domain": "N", "monoid": "N0", "terms": [["2", "1"], ["1", "2"], ["0", "1"]]}))
    paths = {"p23": p23, "puiseux": puiseux, "poly": str(poly)}
    code, out = run_inproc(*(arg.format(**paths) for arg in argv), capsys=capsys)
    assert code == 0
    assert out == json.dumps(json.loads(out), indent=2, sort_keys=True) + "\n"


def test_analyze_reads_stdin():
    payload = json.dumps({"dim": 1, "generators": [["2"], ["3"]]})
    result = run_cli("analyze", "-", stdin_text=payload)
    assert result.returncode == 0
    assert json.loads(result.stdout)["kernel_rank"] == 1


def test_analyze_requires_normalized_unless_flagged(tmp_path, capsys):
    path = tmp_path / "p234.json"
    path.write_text(json.dumps({"dim": 1, "generators": [["2"], ["3"], ["4"]]}))
    result = run_cli("analyze", str(path))
    assert result.returncode == 1
    assert "error" in result.stderr

    code, out = run_inproc("analyze", str(path), "--normalize", capsys=capsys)
    assert code == 0
    assert json.loads(out)["kernel_basis"] == [[3, -2]]


def test_factorize(p23, capsys):
    code, out = run_inproc(
        "factorize", p23, "--element", "12", capsys=capsys
    )
    assert code == 0
    data = json.loads(out)
    assert data["element"] == ["12"]
    assert data["factorizations"] == [[0, 4], [3, 2], [6, 0]]
    assert data["lengths"] == [4, 5, 6]


def test_factorize_element_outside_monoid(p23, capsys):
    code, out = run_inproc(
        "factorize", p23, "--element", "1", capsys=capsys
    )
    assert code == 0
    assert json.loads(out)["factorizations"] == []


def test_factorize_dimension_mismatch(p23):
    result = run_cli("factorize", p23, "--element", "1,2")
    assert result.returncode == 1


def test_factorize_over_budget_exits_3(p23):
    # about 16.7 million factorizations, or a last-exponent range too long for
    # len(): the default step budget stops the search
    for element in ("100000000", str(10**30)):
        result = run_cli("factorize", p23, "--element", element, timeout=10)
        assert result.returncode == 3, result.stderr
        assert result.stdout == ""
        assert result.stderr.splitlines() == ["error: search exceeded its budget of 1000000 steps"]


def test_analyze_over_the_fourier_motzkin_budget_exits_3(tmp_path, monkeypatch, capsys):
    # the grading LP of these generators takes two lower x upper pairs
    path = tmp_path / "signed.json"
    path.write_text(json.dumps({"dim": 3, "generators": [["1/2", -1, 0], [0, 1, -1], [-1, 0, 3]]}))
    monkeypatch.setattr("factolab.linalg.MAX_STEPS", 2)
    assert run_inproc("analyze", str(path), capsys=capsys)[0] == 0
    monkeypatch.setattr("factolab.linalg.MAX_STEPS", 1)
    assert run_inproc("analyze", str(path)) == (3, "")
    assert capsys.readouterr() == ("", "error: Fourier-Motzkin elimination exceeded its budget of 1 steps\n")


def test_evidence_over_budget_exits_3(p23):
    # the prefixes on the generator 3 alone number millions, or more than
    # len() can count: they are counted before any is built
    for bound in ("10000000", str(10**30)):
        result = run_cli("evidence", p23, "--bound", bound, timeout=10)
        assert result.returncode == 3, result.stderr
        assert result.stdout == ""
        assert result.stderr.splitlines() == ["error: search exceeded its budget of 1000000 steps"]


@pytest.mark.parametrize("generators, code, error", [
    # the bounds prove the last generator an atom: no other has a negative
    # second coordinate, so the walk never starts on it
    ([["1", "0"], ["0", "1"], ["1", "1"], ["1000000000000", "-1"]], 1,
     "error: generator 2 is not an atom (witness (1, 1, 0, 0)); normalize first"),
    # generator 0 is no atom, and the walk for its witness is over budget
    ([[10**30, 0], [0, 1], [1, 1], [2, -1]], 3,
     "error: search exceeded its budget of 1000000 steps"),
    # exponent notation is refused before it builds a 33-million-bit integer
    ([["2"], ["1e10000000"]], 1,
     "error: cannot interpret '1e10000000' as a rational number"),
    # past the interpreter's digit limit: the entry is named, without advice about sys
    ([["2"], ["1" * 5000]], 1,
     f"error: entry '{'1' * 16}'... has 5000 digits, above the limit of "
     f"{sys.get_int_max_str_digits()} digits per integer"),
], ids=["atom-by-bounds", "over-budget", "exponent-notation", "digit-limit"])
def test_analyze_with_a_huge_generator_ends_fast(tmp_path, generators, code, error):
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({"dim": len(generators[0]), "generators": generators}))
    result = run_cli("analyze", str(path), timeout=10)
    assert result.returncode == code, result.stderr
    assert result.stdout == ""
    assert result.stderr.splitlines() == [error]


MAX_ERROR_LINE = 200  # characters in any stderr line: fixed text and at most three excerpts


DIGIT_LIMIT_ERROR = (f"error: entry '{'7' * 16}'... has 100000 digits, above the limit of "
                     f"{sys.get_int_max_str_digits()} digits per integer")


@pytest.mark.parametrize("command, entry, error", [
    ("analyze", "7" * 10**5 + "x",
     f"error: cannot interpret '{'7' * 15}... (100003 characters) as a rational number"),
    ("semiring-atom", "7" * 10**5 + "x",
     f"error: cannot interpret '{'7' * 15}... (100003 characters) as a rational number"),
    ("analyze", "7" * 10**5, DIGIT_LIMIT_ERROR),
    ("semiring-atom", "7" * 10**5, DIGIT_LIMIT_ERROR),
    # a number of 4,001 characters parses, and is echoed in part: as a kernel
    # entry of the witness, or as the coefficient
    ("analyze", "-" + "9" * 4000,
     f"error: presentation is not pointed: nonzero nonnegative kernel vector "
     f"({'9' * 15}... (4005 characters)"),
    ("semiring-atom", "-" + "9" * 4000,
     f"error: coefficient -{'9' * 15}... (4001 characters) is not a nonnegative integer"),
], ids=["not-a-rational-analyze", "not-a-rational-semiring-atom", "digit-limit-analyze",
        "digit-limit-semiring-atom", "long-number-analyze", "long-number-semiring-atom"])
def test_a_huge_entry_gets_a_short_error_line(tmp_path, capsys, command, entry, error):
    data = ({"terms": [["1", "1"], ["0", entry]]} if command == "semiring-atom"
            else {"dim": 1, "generators": [["2"], [entry]]})
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(data))
    assert run_inproc(command, str(path)) == (1, "")
    assert capsys.readouterr() == ("", error + "\n")
    assert len(error) <= MAX_ERROR_LINE


HUGE_ARGUMENT = "2" + "0" * 3000


@pytest.mark.parametrize("argv", [
    ["construct-master", "--long", HUGE_ARGUMENT, HUGE_ARGUMENT, "--short", HUGE_ARGUMENT],
    ["construct-master", "--long", "1", "--short", "1", HUGE_ARGUMENT],
    ["construct-master", "--long", "-" + HUGE_ARGUMENT, "--short", "1"],
    ["case1", "P23", HUGE_ARGUMENT, "0"],
], ids=["joint-gcd", "not-longer", "not-positive", "atom-index"])
def test_a_huge_argument_gets_a_short_error_line(p23, capsys, argv):
    argv = [p23 if a == "P23" else a for a in argv]
    assert run_inproc(*argv) == (1, "")
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ") and err.count("\n") == 1
    assert len(err) <= MAX_ERROR_LINE and "... (300" in err  # 3,001 characters and more, cut


def test_evidence(p23, capsys):
    code, out = run_inproc(
        "evidence", p23, "--bound", "20", capsys=capsys
    )
    assert code == 0
    data = json.loads(out)
    assert data["bound"] == 20
    assert len(data["relations"]) == 6
    assert data["relations"][0] == {"left": [3, 0], "right": [0, 2]}


def test_a_closed_pipe_ends_quietly_with_141(tmp_path):
    # at bound 200 the document of <6, 9, 20> outgrows any pipe buffer, so
    # the reader closes the pipe while the command still writes, as `| head -2`
    path = tmp_path / "p.json"
    path.write_text(json.dumps({"dim": 1, "generators": [["6"], ["9"], ["20"]]}))
    with subprocess.Popen(
        [sys.executable, "-m", "factolab", "evidence", str(path), "--bound", "200"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    ) as process:
        assert process.stdout.read(16) == b'{\n  "bound": 200'
        process.stdout.close()
        assert process.wait(timeout=30) == 141
        assert process.stderr.read() == b""


def test_ctrl_c_ends_with_one_line_and_130(p23, monkeypatch, capsys):
    def interrupted(presentation):
        raise KeyboardInterrupt

    monkeypatch.setattr(cli, "classify", interrupted)
    assert run_inproc("analyze", p23) == (130, "")
    assert capsys.readouterr() == ("", "error: interrupted\n")


# ---------------------------------------------------------------------------
# error reporting
# ---------------------------------------------------------------------------


def test_malformed_json_reports_position(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"dim": 1, "generators": [["2"],]}')
    result = run_cli("analyze", str(path))
    assert result.returncode == 1
    assert "line 1 column" in result.stderr


def test_missing_file(tmp_path):
    result = run_cli("analyze", str(tmp_path / "nope.json"))
    assert result.returncode == 1
    assert "error" in result.stderr


@pytest.mark.parametrize("command", ["analyze", "semiring-atom"])
def test_deeply_nested_json_exits_1_naming_the_file(tmp_path, command):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000 + "]" * 100_000)
    result = run_cli(command, str(path))
    assert result.returncode == 1, result.stderr
    assert result.stderr.splitlines() == [f"error: {path}: JSON nested too deeply to read"]


def test_not_pointed_presentation(tmp_path):
    path = tmp_path / "sym.json"
    path.write_text(json.dumps({"dim": 1, "generators": [["1"], ["-1"]]}))
    result = run_cli("analyze", str(path))
    assert result.returncode == 1
    assert "pointed" in result.stderr


def assert_clean_error(result):
    assert result.returncode == 1, result.stderr
    assert any(line.startswith("error:") for line in result.stderr.splitlines())
    assert "Traceback" not in result.stderr


@pytest.mark.parametrize(
    "payload",
    [
        {"dim": 1, "generators": [["1/0"], ["3"]]},
        {"dim": 1, "generators": 5},
        {"dim": 1, "generators": [2, 3]},
        {"dim": 2.7, "generators": [["1", "0"], ["0", "1"]]},
        {"dim": True, "generators": [["2"], ["3"]]},
        {"dim": 1, "generators": [[True], ["3"]]},
        {"dim": 1, "generators": [[True], ["5/2"]]},
    ],
    ids=["zero-denominator", "generators-not-a-list", "generator-not-a-list",
         "float-dim", "bool-dim", "bool-entry", "bool-entry-of-an-atom"],
)
def test_malformed_presentation_exits_1(tmp_path, payload):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(payload))
    assert_clean_error(run_cli("analyze", str(path)))


def test_unknown_subcommand_fails():
    result = run_cli("no-such-command")
    assert result.returncode == 2  # argparse usage error


FUZZ_VALUES = (0, -1, 10**12, 10**400, "1/0", "x", None, True, 2.5, [], {}, "٣")
FUZZ_PRESENTATIONS = (
    {"dim": 2, "generators": [["0", "1"], ["1", "1"], ["2", "1"], ["3", "1"]]},
    {"dim": 1, "generators": [["2"], ["3"], ["5/2"], ["7/3"]]},
)
FUZZ_POLYNOMIAL = {"terms": [[0, 1], [1, 2], [2, 1]]}


def fuzz_mutate(rng, data):
    """One random edit inside a JSON value: an item of a list or an entry of
    an object is replaced, dropped or added."""
    nodes = [data]
    for node in nodes:
        nodes.extend(v for v in (node.values() if isinstance(node, dict) else node)
                     if isinstance(v, (dict, list)))
    node = rng.choice(nodes)
    keys = list(node) if isinstance(node, dict) else list(range(len(node)))
    action = rng.randrange(3)
    if keys and action == 0:
        node[rng.choice(keys)] = rng.choice(FUZZ_VALUES)
    elif keys and action == 1:
        del node[rng.choice(keys)]
    elif isinstance(node, dict):
        node[rng.choice(("dim", "generators", "label", "terms", "monoid", "x"))] = rng.choice(FUZZ_VALUES)
    else:
        node.insert(rng.randint(0, len(node)), rng.choice(FUZZ_VALUES))


def fuzz_argv(rng, path):
    """argv of one subcommand on a mutated input written to ``path``; the
    argv always parses, so argparse never exits 2."""
    command = rng.choice(("analyze", "factorize", "evidence", "case1", "semiring-atom"))
    base = FUZZ_POLYNOMIAL if command == "semiring-atom" else rng.choice(FUZZ_PRESENTATIONS)
    data = json.loads(json.dumps(base))
    for _ in range(rng.choice((0, 0, 1, 1, 2, 3))):
        fuzz_mutate(rng, data)
    path.write_text(json.dumps(data))
    argv = [command, str(path)]
    if command == "factorize":
        dim = data.get("dim") if isinstance(data, dict) else None
        scale = rng.choice((1, 10**30, 10**30, -1))  # a nonzero element times 10^30 runs out of budget
        coords = [rng.randint(0, 8) * scale for _ in range(dim if type(dim) is int and 0 < dim < 5 else 2)]
        argv.append("--element=" + ",".join(map(str, coords)))
    elif command == "evidence":
        argv.append(f"--bound={rng.choice((3, 6, 10**6, 10**6, -2))}")
    elif command == "case1":
        argv += [str(rng.randint(-1, 4)), str(rng.randint(-1, 4))]
    if command in ("analyze", "factorize", "evidence") and rng.random() < 0.5:
        argv.append("--normalize")
    return argv


def test_seeded_fuzz_ends_in_an_exit_code_not_a_traceback(tmp_path, monkeypatch, capsys):
    """Mutated presentations and polynomials through five subcommands, in
    process: every call returns 0 with one JSON document, or 1 or 3 with an
    ``error:`` line, and no stderr line is longer than MAX_ERROR_LINE; any
    other exception fails the test with its traceback.
    The budget is lowered so that a round that runs out of it takes
    milliseconds, not a second."""
    monkeypatch.setattr("factolab.linalg.MAX_STEPS", 10**4)
    rng = random.Random(7)
    codes = Counter()
    for _ in range(400):
        argv = fuzz_argv(rng, tmp_path / "input.json")
        code = cli.main(argv)
        out, err = capsys.readouterr()
        codes[code] += 1
        assert all(len(line) <= MAX_ERROR_LINE for line in err.splitlines()), (argv, err[:200])
        if code == 0:
            json.loads(out)
        else:
            assert code in (1, 3), argv
            assert out == "" and err.startswith("error: "), argv
    assert codes[0] >= 80 and codes[1] >= 200 and codes[3] >= 20, codes


class FuzzTimeout(BaseException):
    """Raised by the fuzz alarm.  Not an Exception: a TimeoutError is an
    OSError, which ``cli.main`` would turn into exit 1."""


def _raise_fuzz_timeout(signum, frame):
    raise FuzzTimeout


FUZZ_INTEGERS = (-1, 0, 1, 2, 3, 25, 200, 10**4, 10**12)


def fuzz_argument_argv(rng):
    """argv of one subcommand that takes only integer arguments."""
    draw = lambda: str(rng.choice(FUZZ_INTEGERS))
    command = rng.choice(("pls-example", "algebra-witness", "construct-master"))
    if command == "construct-master":
        return [command, "--long", *(draw() for _ in range(rng.randint(1, 3))),
                "--short", *(draw() for _ in range(rng.randint(1, 3)))]
    return [command, draw(), draw()]


def _fuzz_under_alarm(argvs, capsys):
    """Run each argv through ``cli.main`` under a 4-s alarm: every call
    returns 0 with one JSON document, or 1 or 3 with an ``error:`` line, and
    no stderr line is longer than MAX_ERROR_LINE.
    Returns the count of each exit code."""
    previous = signal.signal(signal.SIGALRM, _raise_fuzz_timeout)
    codes = Counter()
    try:
        for argv in argvs:
            signal.alarm(4)
            try:
                code = cli.main(argv)
            except FuzzTimeout:
                pytest.fail(f"{argv} ran past its alarm")
            finally:
                signal.alarm(0)
            out, err = capsys.readouterr()
            codes[code] += 1
            assert all(len(line) <= MAX_ERROR_LINE for line in err.splitlines()), (argv, err[:200])
            if code == 0:
                json.loads(out)
            else:
                assert code in (1, 3), argv
                assert out == "" and err.startswith("error: "), argv
    finally:
        signal.signal(signal.SIGALRM, previous)
    return codes


def test_seeded_fuzz_of_the_argument_only_subcommands(monkeypatch, capsys):
    """pls-example, algebra-witness and construct-master on integers from
    FUZZ_INTEGERS, in process under the lowered budget, each before its
    alarm.  gallery has a loop of its own below, so that these draws stay
    as they were."""
    monkeypatch.setattr("factolab.linalg.MAX_STEPS", 10**4)
    rng = random.Random(1712)
    codes = _fuzz_under_alarm((fuzz_argument_argv(rng) for _ in range(400)), capsys)
    assert codes[0] >= 40 and codes[1] >= 200 and codes[3] >= 50, codes


def test_seeded_fuzz_of_the_gallery(monkeypatch, capsys):
    """gallery with ``--k`` from FUZZ_INTEGERS under the lowered budget: the
    budget refuses a large truncation before any fixture is built."""
    monkeypatch.setattr("factolab.linalg.MAX_STEPS", 10**4)
    rng = random.Random(1713)
    argvs = (["gallery", "--k", str(rng.choice(FUZZ_INTEGERS))] for _ in range(40))
    codes = _fuzz_under_alarm(argvs, capsys)
    assert codes[0] >= 5 and codes[1] >= 5 and codes[3] >= 10, codes


# ---------------------------------------------------------------------------
# constructors
# ---------------------------------------------------------------------------


def test_construct_master(capsys):
    code, out = run_inproc(
        "construct-master", "--long", "3", "--short", "2", capsys=capsys
    )
    assert code == 0
    data = json.loads(out)
    assert data["presentation"]["generators"] == [["1"], ["3/2"]]
    assert data["report"]["master"] == {"left": [3, 0], "right": [0, 2]}


def test_construct_master_rejects_inadmissible():
    result = run_cli("construct-master", "--long", "2", "--short", "3")
    assert result.returncode == 1
    assert "longer" in result.stderr


def test_pls_example(capsys):
    code, out = run_inproc("pls-example", "2", "1", capsys=capsys)
    assert code == 0
    data = json.loads(out)
    assert data["report"]["purely_long"] == [0, 1]
    assert data["report"]["purely_short"] == [2]


def test_pls_example_rejects_zero():
    result = run_cli("pls-example", "0", "1")
    assert result.returncode == 1


@pytest.mark.parametrize("counts, code", [
    (("1", "200"), 0), (("60", "60"), 0), (("10000", "1"), 3), (("30", "60"), 0),
    (("1000000000000", "1"), 3), (("7", "50"), 0),
])
def test_pls_example_with_large_counts_ends_fast(counts, code):
    # the spec is built in closed form, so only the (L + S - 1)^2 output
    # coordinates count: 10000 1 has 10^8 of them and exits 3
    result = run_cli("pls-example", *counts, timeout=10)
    assert result.returncode == code, result.stderr
    if code == 3:
        assert result.stderr.splitlines() == ["error: pls_example exceeded its budget of 1000000 steps"]
    else:
        report = json.loads(result.stdout)["report"]
        assert [len(report["purely_long"]), len(report["purely_short"])] == [int(c) for c in counts]


# ---------------------------------------------------------------------------
# gallery
# ---------------------------------------------------------------------------


def test_gallery_default(capsys):
    code, out = run_inproc("gallery", capsys=capsys)
    assert code == 0
    data = json.loads(out)
    assert data["truncation"] == 4
    assert data["mismatches"] == []
    assert [f["name"] for f in data["fixtures"]][0] == "lfm-pair-2-3"
    assert len(data["fixtures"]) == 6


def test_gallery_env_and_flag_precedence():
    env_run = run_cli("gallery", env_extra={"FACTOLAB_TRUNCATION_K": "3"})
    assert json.loads(env_run.stdout)["truncation"] == 3
    flag_run = run_cli(
        "gallery", "--k", "5", env_extra={"FACTOLAB_TRUNCATION_K": "3"}
    )
    assert json.loads(flag_run.stdout)["truncation"] == 5


def test_gallery_bad_env_value():
    result = run_cli("gallery", env_extra={"FACTOLAB_TRUNCATION_K": "many"})
    assert result.returncode == 1
    assert "FACTOLAB_TRUNCATION_K" in result.stderr


def test_gallery_rejects_tiny_k():
    result = run_cli("gallery", "--k", "1")
    assert result.returncode == 1


@pytest.mark.parametrize("argv, env", [
    (["--k", "1000000000000"], None), ([], {"FACTOLAB_TRUNCATION_K": "1000000000000"}),
])
def test_gallery_with_a_huge_truncation_exits_3(argv, env):
    result = run_cli("gallery", *argv, env_extra=env, timeout=10)
    assert result.returncode == 3, result.stderr
    assert result.stderr.splitlines() == ["error: fixture_gallery exceeded its budget of 1000000 steps"]


def test_gallery_mismatch_exits_2(monkeypatch, capsys):
    monkeypatch.setattr("factolab.construct.verify_gallery", lambda gallery: ["boom"])
    code, out = run_inproc("gallery", capsys=capsys)
    assert code == 2
    assert json.loads(out)["mismatches"] == ["boom"]


# ---------------------------------------------------------------------------
# semiring commands
# ---------------------------------------------------------------------------


def test_semiring_atom_reducible(tmp_path, capsys):
    path = tmp_path / "poly.json"
    path.write_text(
        json.dumps(
            {
                "coeff_domain": "N",
                "monoid": "N0",
                "terms": [["4", "1"], ["3", "2"], ["2", "2"], ["1", "7"], ["0", "6"]],
            }
        )
    )
    code, out = run_inproc("semiring-atom", str(path), capsys=capsys)
    assert code == 0
    data = json.loads(out)
    assert data["is_atom"] is False
    assert data["witness"]["factor"]["terms"] == [["1", "1"], ["0", "1"]]
    assert data["witness"]["cofactor"]["terms"] == [
        ["3", "1"],
        ["2", "1"],
        ["1", "1"],
        ["0", "6"],
    ]


def test_semiring_atom_atom_case(capsys):
    payload = json.dumps(
        {"coeff_domain": "N", "monoid": "N0", "terms": [["1", "1"], ["0", "1"]]}
    )
    result = run_cli("semiring-atom", "-", stdin_text=payload)
    assert result.returncode == 0
    data = json.loads(result.stdout)
    assert data == {"is_atom": True, "witness": None}


@pytest.mark.parametrize(
    "payload",
    [
        {"monoid": "N0", "terms": 5},
        {"monoid": "N0", "terms": [5]},
        {"monoid": "N0", "terms": ["12"]},
        {"monoid": "N0", "terms": {"12": 5}},
        {"monoid": {"dim": 1, "generators": [["1/2"], ["1/3"]], "label": [1]},
         "terms": [["1", "1"], ["0", "1"]]},
    ],
    ids=["terms-not-a-list", "term-not-a-list", "term-a-string", "terms-an-object",
         "label-not-a-string"],
)
def test_semiring_atom_malformed_json_exits_1(payload):
    assert_clean_error(run_cli("semiring-atom", "-", stdin_text=json.dumps(payload)))


def test_semiring_atom_rejects_rational_domain():
    payload = json.dumps(
        {"coeff_domain": "Q", "monoid": "N0", "terms": [["1", "1"]]}
    )
    result = run_cli("semiring-atom", "-", stdin_text=payload)
    assert result.returncode == 1


def binomial_power_payload(k):
    """``(x + 1)^k`` over N0 as the JSON that ``semiring-atom`` reads."""
    terms = [[str(n), str(math.comb(k, n))] for n in range(k, -1, -1)]
    return json.dumps({"coeff_domain": "N", "monoid": "N0", "terms": terms})


def test_semiring_atom_decides_a_tenth_power():
    result = run_cli("semiring-atom", "-", stdin_text=binomial_power_payload(10))
    assert result.returncode == 0, result.stderr
    data = json.loads(result.stdout)
    assert data["is_atom"] is False
    assert data["witness"]["factor"]["terms"] == [["1", "1"], ["0", "1"]]
    assert data["witness"]["cofactor"]["terms"] == [
        [str(n), str(math.comb(9, n))] for n in range(9, -1, -1)
    ]


def test_semiring_atom_over_budget_exits_3():
    # (x + 1)^20: the pruned atom search needs more than the default step budget
    result = run_cli("semiring-atom", "-", stdin_text=binomial_power_payload(20))
    assert result.returncode == 3, result.stderr
    assert result.stdout == ""
    assert result.stderr.splitlines() == ["error: search exceeded its budget of 1000000 steps"]


def test_semiring_atom_with_a_huge_exponent_exits_3():
    # refused before any list of top + 1 entries is allocated
    payload = json.dumps({"coeff_domain": "N", "monoid": "N0", "terms": [["100000000", "1"], ["0", "1"]]})
    result = run_cli("semiring-atom", "-", stdin_text=payload, timeout=10)
    assert result.returncode == 3, result.stderr
    assert result.stdout == ""
    assert result.stderr.splitlines() == [
        "error: top exponent index 100000000 exceeds the budget of 1000000 steps"
    ]


def test_algebra_witness_2_3(capsys):
    code, out = run_inproc("algebra-witness", "2", "3", capsys=capsys)
    assert code == 0
    data = json.loads(out)
    assert (data["p"], data["q"], data["r"], data["s"], data["c"]) == (2, 1, 1, 1, 1)
    assert data["product"]["terms"] == [["6", "1"], ["5", "-1"]]
    assert data["factorization_length"] == 2
    assert data["z1"][0]["factor"]["terms"] == [["2", "1"]]
    assert data["z1"][0]["multiplicity"] == 1
    assert data["monoid"]["generators"] == [["2"], ["3"]]


def test_algebra_witness_rejects_bad_pair():
    result = run_cli("algebra-witness", "2", "4")
    assert result.returncode == 1
    assert "coprime" in result.stderr


def test_algebra_witness_of_a_huge_pair_exits_3():
    result = run_cli("algebra-witness", "1000000007", "1000000009")
    assert result.returncode == 3, result.stderr
    assert result.stdout == ""
    assert result.stderr.splitlines() == [
        "error: smallest generator 1000000007 exceeds the budget of 1000000 steps"
    ]


# sha256 of the stdout of algebra-witness a b, for pairs under the budget
ALGEBRA_WITNESS_DIGESTS = {
    (2, 3): "3f13829fc040bdff84e1e8c40d0dcc0a92d245b6c9fb9fc023bdf9d94e19b365",
    (5, 7): "2000002f8567f7d6ca08ea618311d1708a5bee4cbc2dc085c9acc7d8d2f5304e",
    (9, 13): "be737738bb4b4d6ba2a4d640a1edbea00c5be71f85335bbf44207dcca9c1ca9d",
    (2, 1001): "559c286f64a0f996226b863c77b9a449a387fc2324b7bc2b2276f38234784d0d",
    (3, 1000): "47967fc0685caf3b6890e7766cefb7100107ee62d29a21f3e06b4ffdcd25a8cd",
    (2, 1401): "af11a4e88b9afa5ef6f953bd541ec143b945cddba5c468092edb3ab6030ba9d4",
    (1000, 2001): "6caaa0a3a1d4a222ca280adc911e02cc66948e016960f998aba7911cd0d1cb37",
    (2, 1615): "14e392384ee5583695995f8e33c0821c504eb1f4c10e3975fa3203db60ceb34f",
}


@pytest.mark.parametrize("a, b", [*ALGEBRA_WITNESS_DIGESTS, (2, 1617), (2, 2001), (2, 4001), (2, 8001), (7, 5000)])
def test_algebra_witness_output_or_budget(a, b, capsys):
    # the products of poly_pow grow with b - a alone; from b - a = 1,615 on they
    # pass the budget, and every pair below keeps its output byte for byte
    code = cli.main(["algebra-witness", str(a), str(b)])
    out, err = capsys.readouterr()
    if (a, b) not in ALGEBRA_WITNESS_DIGESTS:
        assert (code, out, err) == (3, "", "error: poly_pow exceeded its budget of 1000000 steps\n")
    else:
        assert (code, hashlib.sha256(out.encode()).hexdigest()) == (0, ALGEBRA_WITNESS_DIGESTS[a, b])


def test_case1(puiseux, capsys):
    code, out = run_inproc("case1", puiseux, "0", "1", capsys=capsys)
    assert code == 0
    data = json.loads(out)
    assert data == {"left": [4, 0], "right": [0, 3], "element": "2"}


def test_case1_rejects_same_atom(puiseux):
    result = run_cli("case1", puiseux, "0", "0")
    assert result.returncode == 1


@pytest.mark.parametrize("j", ["5", "-1"])
def test_case1_rejects_bad_atom_index(p23, j):
    assert_clean_error(run_cli("case1", p23, "0", j))


@pytest.mark.parametrize("generators", [[["2"], ["-3"]], [["1"], ["-1"]]])
def test_case1_rejects_nonpositive_exponents(tmp_path, generators):
    path = tmp_path / "p.json"
    path.write_text(json.dumps({"dim": 1, "generators": generators}))
    assert_clean_error(run_cli("case1", str(path), "0", "1"))


@pytest.mark.parametrize("i, j", [("0", "1"), ("1", "0")])
def test_case1_rejects_a_non_atom(tmp_path, capsys, i, j):
    # 4 = 2 + 2, so <2, 4> has no relation between two atoms x^2 and x^4
    path = tmp_path / "p.json"
    path.write_text(json.dumps({"dim": 1, "generators": [["2"], ["4"]]}))
    assert cli.main(["case1", str(path), i, j]) == 1
    assert capsys.readouterr() == ("", "error: generator 1 is not an atom (witness (2, 0)); normalize first\n")


# ---------------------------------------------------------------------------
# pipelines
# ---------------------------------------------------------------------------


def test_construct_then_analyze_round_trip():
    built = run_cli("construct-master", "--long", "1", "2", "--short", "2")
    assert built.returncode == 0
    data = json.loads(built.stdout)
    reread = run_cli(
        "analyze", "-", stdin_text=json.dumps(data["presentation"])
    )
    assert reread.returncode == 0
    assert json.loads(reread.stdout) == data["report"]


def _assert_help(result):
    assert result.returncode == 0, result.stderr
    assert result.stdout.startswith("usage: factolab"), result.stderr
    assert "analyze" in result.stdout, result.stderr
    assert "gallery" in result.stdout, result.stderr


def test_console_script_is_installed():
    """The ``factolab`` script declared in ``[project.scripts]`` works.

    The declared ``module:callable`` is run through the same wrapper that pip
    writes for a console script, so no install is needed; an installed
    ``factolab`` found on ``PATH`` is run as well.
    """
    tomllib = pytest.importorskip("tomllib")
    with PYPROJECT.open("rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"]["factolab"]
    module, _, func = target.partition(":")
    wrapper = (
        f"import sys; from {module} import {func}; "
        f"sys.argv[0] = 'factolab'; sys.exit({func}())"
    )
    _assert_help(
        subprocess.run(
            [sys.executable, "-c", wrapper, "--help"],
            capture_output=True,
            text=True,
        )
    )
    installed = shutil.which("factolab")
    if installed:
        _assert_help(
            subprocess.run(
                [installed, "--help"], capture_output=True, text=True
            )
        )
