"""The four benchmark workloads.

A workload builds its inputs once from the seed (``build``, the timed set-up)
and then yields rounds of operations (``round``).  Every round of a workload
has the same make-up, so the share of failed operations is the same in every
run; the seed decides the concrete inputs.  Within a round, ``salt`` only
changes input details that leave the work unchanged (the scale factor of a
presentation), so a traced pass can repeat an untraced pass's work on fresh
objects.

The program is reached only through the module handle ``fl`` given to
``build``, by attribute lookup at call time, so that the tracer's wrappers
are the functions that run.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import math
import os
import random
import subprocess
import sys
import traceback
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable

import oracles as orc
from oracles import CheckError, ensure


@dataclass
class Op:
    """One operation: ``call`` runs the program, ``check`` judges the output.

    ``malformed`` marks an input the program must reject cleanly; when its
    check fails the operation counts as failed rather than incorrect.
    """

    kind: str
    call: Callable[[], Any]
    check: Callable[[Any], None]
    malformed: bool = False


def round_rngs(name: str, seed: int, index: int, salt: int) -> tuple[random.Random, random.Random]:
    """(structure rng, freshness rng) for one round."""
    return random.Random(f"{name}:{seed}:{index}"), random.Random(f"{name}:{seed}:{index}:{salt}")


def random_scale(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(2, 40), rng.randint(2, 40))


def scaled(fl, gens, factor: Fraction):
    """A new presentation with every generator multiplied by ``factor``.

    Scaling keeps the relation lattice, the normalized grading and so every
    verdict and the search work, while the presentation itself is new.
    """
    return fl.MonoidPresentation.from_generators([[factor * c for c in g] for g in gens])


def json_gens(presentation) -> list[tuple[Fraction, ...]]:
    return orc.as_vectors(presentation.to_json_dict()["generators"])


# ---------------------------------------------------------------------------
# classify-batch
# ---------------------------------------------------------------------------

TRUNCATIONS = [("signed", k) for k in (3, 4, 5, 6)] + [
    (family, k) for family in ("product", "strip") for k in (4, 5, 6, 7, 8)
]
PLS_COUNTS = [(1, 1), (1, 2), (2, 1), (2, 2), (1, 3), (3, 1), (2, 3), (3, 2)]
RANDOM_POOL = (0, 0, 1, 1, 1, 2, 2, 3)


def truncation_gens(family: str, k: int) -> list[tuple[int, ...]]:
    if family == "strip":
        return [(n, 1) for n in range(k + 1)]
    low = -k if family == "signed" else 0
    return [(2, 0, 0), (3, 0, 0)] + [(0, n, 1) for n in range(low, k + 1)]


def search_size(gens) -> Fraction:
    """Cost proxy of the atom check: sum of G^(k-1) over the generator grades G,
    divided by the product of the grades (grades = coordinate sums, min-normalized)."""
    grades = [sum(g) for g in gens]
    low = min(grades)
    grades = [g / low for g in grades]
    k = len(grades)
    return sum(g ** (k - 1) for g in grades) / math.prod(grades)


class ClassifyBatch:
    """Each presentation is new, so a compile-once cache cannot pay off here."""

    name = "classify-batch"
    trace_rounds = 2
    subprocesses = False
    STRATUM = 30

    def build(self, fl, seed: int) -> dict:
        sides = [s for m in (1, 2, 3) for s in itertools.product(range(1, 5), repeat=m)]
        sweep = []
        for a in sides:
            for b in sides:
                try:
                    spec = fl.MasterSpec(a, b)
                except fl.InvalidMasterSpec:
                    continue
                gens = fl.build_master_monoid(spec).generators
                sweep.append((search_size(gens), a, b, gens))
        sweep.sort(key=lambda item: item[:3])
        strata = [sweep[i : i + self.STRATUM] for i in range(0, len(sweep), self.STRATUM)]
        return {"fl": fl, "strata": strata}

    def round(self, inputs: dict, seed: int, index: int, salt: int) -> list[Op]:
        fl = inputs["fl"]
        pick, fresh = round_rngs(self.name, seed, index, salt)
        ops = []
        for stratum in inputs["strata"]:
            _, a, b, gens = pick.choice(stratum)
            p = scaled(fl, gens, random_scale(fresh))
            ops.append(self._classify_op("sweep", fl, p, orc.master_expectation(a, b)))
        for family, k in TRUNCATIONS:
            p = scaled(fl, truncation_gens(family, k), random_scale(fresh))
            ops.append(self._classify_op(f"{family}-truncation", fl, p, orc.truncation_expectation(family, k)))
        for _ in range(20):
            ops.append(self._random_op(fl, random_presentation(fl, pick)))
        for counts in PLS_COUNTS:
            ops.append(Op("pls_example", lambda c=counts: fl.pls_example(*c),
                          lambda p, c=counts: orc.check_pls_example(json_gens(p), *c)))
        for k in (2, 3):
            gallery = scaled_gallery(fl, k, fresh)
            ops.append(Op("verify_gallery", lambda g=gallery: fl.verify_gallery(g),
                          lambda mismatches: ensure(mismatches == [], f"gallery mismatches: {mismatches}")))
        pick.shuffle(ops)
        return ops

    @staticmethod
    def _classify_op(kind, fl, p, expect) -> Op:
        gens = json_gens(p)
        return Op(kind, lambda: fl.classify(p), lambda rep: orc.check_report(gens, rep.to_json_dict(), expect))

    @staticmethod
    def _random_op(fl, p) -> Op:
        def call():
            q = fl.normalize_atoms(p)
            return q, fl.classify(q)

        def check(result):
            q, rep = result
            original, kept = json_gens(p), json_gens(q)
            ensure(len(set(kept)) == len(kept), "normalized presentation has duplicates")
            it = iter(original)
            ensure(all(g in it for g in kept), "normalized generators are not a subsequence of the input")
            orc.check_report(kept, rep.to_json_dict())

        return Op("random", call, check)


def random_presentation(fl, rng: random.Random):
    """A presentation drawn like those of acceptance criterion 5."""
    while True:
        d = rng.randint(1, 3)
        gens = []
        for _ in range(rng.randint(1, 5)):
            v = tuple(rng.choice(RANDOM_POOL) for _ in range(d))
            if any(v):
                gens.append(v)
        if gens:
            return fl.MonoidPresentation.from_generators(list(dict.fromkeys(gens)))


def scaled_gallery(fl, k: int, rng: random.Random) -> list:
    """Gallery fixtures, scaled afresh, with closed-form expectations."""
    fixtures = []
    for family in ("product", "signed", "strip"):
        expected = orc.truncation_expectation(family, k)
        expected = {key: tuple(v) if isinstance(v, list) else v for key, v in expected.items()}
        p = scaled(fl, truncation_gens(family, k), random_scale(rng))
        fixtures.append(fl.Fixture(f"{family}-{k}", p, expected))
    pair = {key: tuple(v) if isinstance(v, list) else v for key, v in orc.master_expectation((3,), (2,)).items()}
    fixtures.append(fl.Fixture("pair", scaled(fl, [(2,), (3,)], random_scale(rng)), pair))
    return fixtures


# ---------------------------------------------------------------------------
# factorize-queries
# ---------------------------------------------------------------------------

MASTER_SPEC = ((2, 1, 1), (1, 1, 1))
# name -> (element grades cycled through the query slots, or None for elements
# stratified over 0..NUMERICAL_RANGE-1; relation_evidence bounds)
FACTORIZE_PLAN = {
    "numerical-6-9-20": (None, (6, 10)),
    "product-truncation-4": ((5, 6, 7, 8, 9, 10), (6, 8)),
    "master-6-atoms": ((5, 6, 6, 7), (6,)),
    "strip-5": ((6, 8, 10, 12, 14, 16), (6, 8, 10)),
}
QUERIES_PER_PRESENTATION = 12
NUMERICAL_RANGE = 300


class FactorizeQueries:
    """Few fixed presentations, many queries: revalidation repeats on every call."""

    name = "factorize-queries"
    trace_rounds = 4
    subprocesses = False

    def build(self, fl, seed: int) -> dict:
        presentations = {
            "numerical-6-9-20": fl.MonoidPresentation.from_values([6, 9, 20]),
            "product-truncation-4": fl.MonoidPresentation.from_generators(truncation_gens("product", 4)),
            "master-6-atoms": fl.build_master_monoid(fl.MasterSpec(*MASTER_SPEC)),
            "strip-5": fl.MonoidPresentation.from_generators(truncation_gens("strip", 5)),
        }
        return {"fl": fl, "presentations": presentations}

    def round(self, inputs: dict, seed: int, index: int, salt: int) -> list[Op]:
        fl = inputs["fl"]
        pick, _ = round_rngs(self.name, seed, index, salt)
        ops = []
        for name, p in inputs["presentations"].items():
            gens = json_gens(p)
            oracle = orc.CoinChange(gens)
            grades, bounds = FACTORIZE_PLAN[name]
            for slot in range(QUERIES_PER_PRESENTATION):
                if grades is None:
                    width = NUMERICAL_RANGE // QUERIES_PER_PRESENTATION
                    x = (Fraction(pick.randrange(slot * width, (slot + 1) * width)),)
                else:
                    x = element_of_grade(gens, grades[slot % len(grades)], pick)
                ops.append(query_op(fl, p, oracle, x, slot % 3))
            for bound in bounds:
                ops.append(Op("relation_evidence", lambda p=p, b=bound: fl.relation_evidence(p, b),
                              lambda rels, g=gens, b=bound: orc.check_relations(g, b, [r.to_json_dict() for r in rels])))
        pick.shuffle(ops)
        return ops


def element_of_grade(gens, grade: int, rng: random.Random) -> tuple[Fraction, ...]:
    """The value of a random factorization of exactly the given (integer) grade."""
    weights = [sum(g) for g in gens]
    low = min(weights)
    weights = [w / low for w in weights]
    z = [0] * len(gens)
    left = Fraction(grade)
    while left:
        i = rng.choice([i for i, w in enumerate(weights) if w <= left])
        z[i] += 1
        left -= weights[i]
    return orc.evaluate(gens, z)


def query_op(fl, p, oracle, x, kind: int) -> Op:
    if kind == 0:
        return Op("enumerate_factorizations", lambda: fl.enumerate_factorizations(p, x),
                  lambda facts: orc.check_factorizations(oracle, x, facts))
    if kind == 1:
        return Op("length_set", lambda: fl.length_set(p, x), lambda ls: orc.check_length_set(oracle, x, ls))
    return Op("atomic_divisors", lambda: fl.atomic_divisors(p, x), lambda ds: orc.check_atomic_divisors(oracle, x, ds))


# ---------------------------------------------------------------------------
# semiring-atoms
# ---------------------------------------------------------------------------

NUMERICAL_PAIRS = ((47, 53), (97, 101), (197, 199), (397, 401))
# Products and exact divisions make up over half of a round, so the median
# latency falls among them.
PRODUCTS = 32
MEMBERSHIP_QUERIES = 32
# Non-atoms as pairs of factors, coefficients listed from the constant term up.
# Fixed, because where the search meets its first divisor, and so its cost,
# changes sharply from one product to the next.
NONATOMS_N0 = (
    ((1, 1), (1, 1, 1)), ((2, 1), (1, 0, 2)), ((1, 0, 1), (2, 0, 1)),
    ((1, 1, 1), (1, 1, 1)), ((1, 0, 2), (1, 0, 2)), ((2, 0, 1), (1, 0, 2)),
)
# Factors of non-atoms in N[x; <1/2, 1/3>], coefficients of x^(i/6).
NONATOMS_PUISEUX = (
    ((1, 0, 0, 1), (1, 0, 0, 1)), ((1, 0, 1), (1, 0, 1, 1)),
    ((1, 0, 1), (1, 0, 1, 0, 1)), ((1, 0, 1, 1), (1, 0, 1, 1)),
)


class SemiringAtoms:
    """Only the semiring layer works here."""

    name = "semiring-atoms"
    trace_rounds = 4
    subprocesses = False

    def build(self, fl, seed: int) -> dict:
        half_third = fl.MonoidPresentation.from_values([Fraction(1, 2), Fraction(1, 3)])
        return {"fl": fl, "half_third": half_third}

    def round(self, inputs: dict, seed: int, index: int, salt: int) -> list[Op]:
        fl, m = inputs["fl"], inputs["half_third"]
        pick, _ = round_rngs(self.name, seed, index, salt)
        ops = []

        def poly(coeffs, monoid=None, den=1):
            return fl.SemiringPolynomial.from_terms(
                [(Fraction(e, den), c) for e, c in enumerate(coeffs) if c], "N", monoid)

        for degree in (4, 4, 5, 5):
            coeffs = [2] + [pick.choice((0, 2)) for _ in range(degree - 1)] + [1]
            ops.append(atom_op(fl, poly(coeffs), coeffs, puiseux=False))
        for _ in range(2):
            coeffs = [2, 0] + [pick.choice((0, 2)) for _ in range(4)] + [1]
            ops.append(atom_op(fl, poly(coeffs, m, 6), coeffs, puiseux=True))
        for g, h in NONATOMS_N0:
            ops.append(nonatom_op(fl, product_input(fl, poly(g), poly(h)), puiseux=False))
        for g, h in NONATOMS_PUISEUX:
            ops.append(nonatom_op(fl, product_input(fl, poly(g, m, 6), poly(h, m, 6)), puiseux=True))
        for a, b in NUMERICAL_PAIRS:
            queries = [pick.randrange(0, 2 * a * b) for _ in range(MEMBERSHIP_QUERIES)]
            ops.append(numerical_op(fl, a, b, queries))
        for i in range(PRODUCTS):
            monoid, den = (m, 6) if i % 4 == 3 else (None, 1)
            g = random_coeffs(pick, 7 + i % 7, monoid is not None)
            h = random_coeffs(pick, 7 + (i + 3) % 7, monoid is not None)
            ops.append(product_op(fl, poly(g, monoid, den), poly(h, monoid, den), divide=i >= PRODUCTS // 2))
        for low, high in ((7, 9), (10, 12), (13, 15), (16, 19)):
            b = pick.randint(low, high)
            a = pick.choice([a for a in range(2, b) if math.gcd(a, b) == 1])
            ops.append(Op("algebra_witness", lambda a=a, b=b: fl.algebra_witness(a, b),
                          lambda w: orc.check_algebra_witness(witness_json(w))))
        pick.shuffle(ops)
        return ops


def random_coeffs(rng: random.Random, degree: int, puiseux: bool) -> list[int]:
    """Random coefficients 0..9 with nonzero ends; x^(1/6) is skipped in <1/2, 1/3>."""
    coeffs = [rng.randint(1, 9)] + [rng.randint(0, 9) for _ in range(degree - 1)] + [rng.randint(1, 9)]
    if puiseux:
        coeffs[1] = 0
    return coeffs


def witness_json(w) -> dict:
    """The algebra witness in the JSON form that the CLI prints."""
    factors = lambda z: [{"factor": f.to_json_dict(), "multiplicity": mult} for f, mult in z]
    data = {key: getattr(w, key) for key in "abpqrsc"}
    data.update(a1=w.a1.to_json_dict(), a2=w.a2.to_json_dict(), z1=factors(w.z1), z2=factors(w.z2),
                product=w.product.to_json_dict())
    return data


def atom_op(fl, f, coeffs, puiseux: bool) -> Op:
    ensure(orc.is_eisenstein(coeffs, 2), f"benchmark input {coeffs} is not Eisenstein at 2")

    def check(result):
        ensure(result == (True, None), f"{f} is Eisenstein, hence an atom, but the test says {result[0]}")

    return Op("natural_atom_test-atom" + ("-puiseux" if puiseux else ""), lambda: fl.natural_atom_test(f), check)


def nonatom_op(fl, f, puiseux: bool) -> Op:
    def check(result):
        is_atom, witness = result
        ensure(not is_atom and witness is not None, f"{f} is a product but was declared an atom")
        g, h = (orc.terms_of(part.to_json_dict()) for part in witness)
        orc.check_natural_factor(orc.terms_of(f.to_json_dict()), g, h, puiseux)

    return Op("natural_atom_test-nonatom" + ("-puiseux" if puiseux else ""), lambda: fl.natural_atom_test(f), check)


def numerical_op(fl, a: int, b: int, queries: list[int]) -> Op:
    def call():
        monoid = fl.NumericalMonoid([a, b])
        return monoid.frontier, [monoid.contains(n) for n in queries]

    return Op("NumericalMonoid", call, lambda r: orc.check_numerical_monoid(a, b, r[0], queries, r[1]))


def product_input(fl, g, h):
    """g * h, multiplied by the benchmark's own convolution."""
    ft = orc.dense_mul(orc.terms_of(g.to_json_dict()), orc.terms_of(h.to_json_dict()))
    return fl.SemiringPolynomial.from_terms(list(ft.items()), "N", g.exponent_monoid)


def product_op(fl, g, h, divide: bool) -> Op:
    gt, ht = orc.terms_of(g.to_json_dict()), orc.terms_of(h.to_json_dict())
    ft = orc.dense_mul(gt, ht)
    if not divide:
        return Op("poly_mul", lambda: fl.poly_mul(g, h),
                  lambda f: ensure(orc.terms_of(f.to_json_dict()) == ft, "poly_mul disagrees with convolution"))
    f = product_input(fl, g, h)

    def check(q):
        ensure(q is not None, "exact division reported as impossible")
        qt = orc.terms_of(q.to_json_dict())
        ensure(orc.dense_mul(gt, qt) == ft, "g * quotient != f")

    return Op("poly_divide_exact", lambda: fl.poly_divide_exact(f, g), check)


# ---------------------------------------------------------------------------
# cli-commands
# ---------------------------------------------------------------------------

MASTER_SPECS_CLI = (((3,), (1, 1)), ((1, 2), (2,)), ((2, 1), (1, 1)), ((3,), (2,)), ((1, 1, 1), (2,)))


@dataclass
class CliResult:
    returncode: Any
    stdout: str
    stderr: str


class CliCommands:
    """Interpreter start, import, argument parsing and JSON, paid on every call."""

    name = "cli-commands"
    trace_rounds = 3
    subprocesses = True

    def __init__(self, root: Path):
        self.root = root
        self.work_dir: Path | None = None

    def build(self, fl, seed: int) -> dict:
        import factolab.cli  # noqa: F401  (a CLI user pays for this import too)

        work = self.work_dir = self.root / "bench" / "out" / f"cli-inputs-{os.getpid()}"
        work.mkdir(parents=True, exist_ok=True)
        rng = random.Random(f"{self.name}:{seed}")

        def write(name: str, data) -> str:
            path = work / name
            path.write_text(json.dumps(data))
            return str(path)

        pairs = []
        for i in range(6):
            a = rng.randint(2, 9)
            b = rng.choice([b for b in range(a + 1, 14) if math.gcd(a, b) == 1])
            pairs.append((a, b, write(f"pair-{i}.json", {"dim": 1, "generators": [[str(a)], [str(b)]]})))
        polys = []
        for i in range(4):
            coeffs = [2] + [rng.choice((0, 2)) for _ in range(2)] + [1]
            terms = [[str(e), str(c)] for e, c in enumerate(coeffs) if c]
            polys.append((coeffs, write(f"poly-{i}.json", {"coeff_domain": "N", "monoid": "N0", "terms": terms})))
        fixed = write("pair-2-3.json", {"dim": 1, "generators": [["2"], ["3"]]})
        zero = write("bad-zero.json", {"dim": 1, "generators": [["1/0"], ["3"]]})
        scalar = write("bad-type.json", {"dim": 1, "generators": 5})
        return {"fl": fl, "cli": sys.modules["factolab.cli"], "work": work, "pairs": pairs, "polys": polys,
                "fixed": fixed, "bad_zero": zero, "bad_type": scalar, "src": str(self.root / "src")}

    def round(self, inputs: dict, seed: int, index: int, salt: int, inprocess: bool = False) -> list[Op]:
        """One call of each subcommand, then the three malformed inputs.

        Calls run as ``python -m factolab`` subprocesses, or in this process
        when ``inprocess`` is set (the traced run does both).
        """
        pick, _ = round_rngs(self.name, seed, index, 0)
        a, b, pair = pick.choice(inputs["pairs"])
        pair_gens = orc.as_vectors([[a], [b]])
        coeffs, poly = pick.choice(inputs["polys"])
        n = pick.randint(20, 60)
        spec = pick.choice(MASTER_SPECS_CLI)
        counts = (pick.randint(1, 2), pick.randint(1, 2))
        wb = pick.randint(3, 9)
        wa = pick.choice([x for x in range(2, wb) if math.gcd(x, wb) == 1])
        coin = orc.CoinChange(pair_gens)
        commands = [
            (["analyze", pair], lambda out: orc.check_report(pair_gens, out, orc.master_expectation((b,), (a,)))),
            (["factorize", pair, "--element", str(n)],
             lambda out: (orc.check_factorizations(coin, (n,), out["factorizations"]),
                          orc.check_length_set(coin, (n,), out["lengths"]))),
            (["evidence", pair, "--bound", "6"], lambda out: orc.check_relations(pair_gens, 6, out["relations"])),
            (["construct-master", "--long", *map(str, spec[0]), "--short", *map(str, spec[1])],
             lambda out: orc.check_report(orc.as_vectors(out["presentation"]["generators"]), out["report"],
                                          orc.master_expectation(*spec))),
            (["pls-example", *map(str, counts)],
             lambda out: orc.check_pls_example(orc.as_vectors(out["presentation"]["generators"]), *counts)),
            (["gallery", "--k", "3"], check_gallery_output),
            # twice, so that the slowest subcommand is over a tenth of the completed
            # calls and the 90th percentile falls inside its cluster, not at its edge
            (["gallery", "--k", "3"], check_gallery_output),
            (["semiring-atom", poly], lambda out: ensure(out == {"is_atom": True, "witness": None},
                                                         f"Eisenstein polynomial {coeffs} not reported as an atom")),
            (["algebra-witness", str(wa), str(wb)], orc.check_algebra_witness),
            (["case1", pair, "0", "1"], lambda out: check_case1(pair_gens, 0, 1, out)),
        ]
        runner = self.inprocess_call if inprocess else self.subprocess_call
        ops = [Op(argv[0], lambda argv=argv: runner(inputs, argv), json_output(check)) for argv, check in commands]
        for argv in (["analyze", inputs["bad_zero"]], ["analyze", inputs["bad_type"]],
                     ["case1", inputs["fixed"], "0", "5"]):
            ops.append(Op(argv[0] + "-malformed", lambda argv=argv: runner(inputs, argv), clean_rejection, True))
        return ops

    @staticmethod
    def subprocess_call(inputs: dict, argv: list[str]) -> CliResult:
        env = {key: value for key, value in os.environ.items() if key != "PYTHONPATH"}
        env["PYTHONPATH"] = inputs["src"]
        proc = subprocess.run([sys.executable, "-m", "factolab", *argv], capture_output=True, text=True,
                              env=env, cwd=str(inputs["work"]), timeout=60)
        return CliResult(proc.returncode, proc.stdout, proc.stderr)

    @staticmethod
    def inprocess_call(inputs: dict, argv: list[str]) -> CliResult:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = inputs["cli"].main(list(argv))
            except Exception:  # the program's fault, reported as the interpreter would
                traceback.print_exc()
                code = 1
        return CliResult(code, out.getvalue(), err.getvalue())


def json_output(check: Callable[[dict], Any]) -> Callable[[CliResult], None]:
    def run(result: CliResult) -> None:
        ensure(result.returncode == 0, f"exit code {result.returncode}: {result.stderr.strip()[-300:]}")
        try:
            payload = json.loads(result.stdout)
        except json.JSONDecodeError as exc:
            raise CheckError(f"output is not JSON: {exc}")
        check(payload)

    return run


def clean_rejection(result: CliResult) -> None:
    """Malformed input: exit 1, an ``error:`` line on stderr, no traceback."""
    ensure(result.returncode == 1, f"exit code {result.returncode}, expected 1")
    ensure("Traceback" not in result.stderr, "malformed input ends in a traceback")
    ensure(any(line.startswith("error:") for line in result.stderr.splitlines()), "no 'error:' line on stderr")


def check_gallery_output(out: dict) -> None:
    ensure(out["truncation"] == 3 and out["mismatches"] == [], f"gallery mismatches: {out['mismatches']}")
    ensure(len(out["fixtures"]) >= 1, "empty gallery")
    for fixture in out["fixtures"]:
        gens = orc.as_vectors(fixture["presentation"]["generators"])
        rank = len(gens) - orc.generator_rank(gens)
        ensure(fixture["expected"]["kernel_rank"] == rank,
               f"{fixture['name']}: expected rank {fixture['expected']['kernel_rank']}, elimination gives {rank}")


def check_case1(gens, i: int, j: int, out: dict) -> None:
    left, right = out["left"], out["right"]
    ensure(any(left) and any(right), "a side of the relation is empty")
    ensure(all(x == 0 or y == 0 for x, y in zip(left, right)), "the sides share an atom")
    element = orc.evaluate(gens, left)
    ensure(element == orc.evaluate(gens, right), "the two sides evaluate differently")
    ensure((orc.rational(out["element"]),) == element, "reported element is wrong")
    ensure(sum(left) != sum(right), "a case-1 relation must be unbalanced")
    ensure(left[i] > 0 and right[j] > 0, "the relation does not use the requested atoms")


WORKLOADS = ("classify-batch", "factorize-queries", "semiring-atoms", "cli-commands")


def make(name: str, root: Path):
    if name == "cli-commands":
        return CliCommands(root)
    return {"classify-batch": ClassifyBatch, "factorize-queries": FactorizeQueries,
            "semiring-atoms": SemiringAtoms}[name]()
