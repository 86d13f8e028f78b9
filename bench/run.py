"""factolab benchmark: one command, four workloads, checked outputs.

    python3 bench/run.py --workload classify-batch --seed 1 --seconds 20 --trace 0
    python3 bench/run.py                     # every workload, each in its own process

The load is a closed loop with one client: one operation at a time, no worker
threads, CLI subprocesses one after another.  A plain run (``--trace 0``)
sets up several times and reports the median set-up time, then runs whole
rounds of operations until ``--seconds`` have passed and at least MIN_OPS
operations were attempted, and prints the end-to-end metrics.  A traced run
(``--trace 1``) runs a fixed number of rounds, each operation once untraced
and once with a span around every traced layer function, and prints the
per-layer metrics with the tracing overhead; its spans go to
``bench/out/trace-<workload>-<seed>.json``.

Every output is checked by ``oracles``.  The last line of standard output is
one JSON object: ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

import oracles  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 5
REF_NOMINAL_S = 0.010
REF_SUBPROCESS_NOMINAL_S = 0.050
REF_EVERY_S = 0.2
MIN_OPS = 100
RUN_CAP_S = 120  # stop after the current round past this, so a run ends well within 180 s
END_TO_END = (
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
)


def reference_loop() -> float:
    """Seconds taken by a fixed pure-Python loop (about 10 ms on the reference host)."""
    start = time.perf_counter()
    total, table = Fraction(0), {}
    for k in range(1, 3500):
        total += Fraction(1, k % 97 + 1)
        table[k % 101] = table.get(k % 101, 0) + k
    return time.perf_counter() - start


def reference_subprocess() -> float:
    """Seconds to start the interpreter and exit (about 50 ms on the reference host)."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "pass"], check=True)
    return time.perf_counter() - start


class HostSpeed:
    """The host's speed, from a reference run between operations.

    The speed of this kind of host drifts by a quarter and more over tens of
    seconds.  Each stretch of operations is scaled by the reference's nominal
    time over the geometric mean of the reference times taken just before
    and just after it, which expresses its times at the speed of a host on
    which the reference takes its nominal time.  The reference is the loop,
    or for subprocess operations an interpreter start, whose time follows
    theirs more closely than the loop's does.
    """

    def __init__(self, subprocesses: bool = False):
        self.probe, self.nominal = (
            (reference_subprocess, REF_SUBPROCESS_NOMINAL_S) if subprocesses else (reference_loop, REF_NOMINAL_S)
        )
        self.last = self.probe()
        self.at = time.perf_counter()

    def due(self) -> bool:
        return time.perf_counter() - self.at >= REF_EVERY_S

    def factor(self) -> float:
        """Scale factor for the times measured since the previous call."""
        now = self.probe()
        factor = self.nominal / math.sqrt(self.last * now)
        self.last, self.at = now, time.perf_counter()
        return factor


class Tally:
    """Outcomes of the operations of one run, with times scaled to the nominal host."""

    def __init__(self, subprocesses: bool = False):
        self.attempted = 0
        self.failed = 0
        self.incorrect = 0
        self.latencies: list[float] = []  # scaled seconds of completed operations
        self.seconds: dict[str, float] = {}  # scaled seconds of all operations, by group
        self.raw_seconds = 0.0
        self.round_rates: list[float] = []
        self.notes: dict[str, int] = {}
        self.speed = HostSpeed(subprocesses)
        self._pending: list[tuple[str, float, bool]] = []
        self._round = [0, 0.0]  # completed operations and scaled seconds in the current round

    def run(self, op: workloads.Op, tracer: tracing.Tracer | None = None, group: str = "ops") -> float:
        """Run and check one operation; returns its unscaled seconds."""
        self.attempted += 1
        if tracer is not None:
            tracer.enabled = True
        start = time.perf_counter()
        try:
            result = op.call()
        except Exception as exc:  # the operation failed; the run goes on
            elapsed = time.perf_counter() - start
            self._fail(op, f"{type(exc).__name__}: {exc}")
            return self._record(group, elapsed, False)
        finally:
            if tracer is not None:
                tracer.enabled = False
        elapsed = time.perf_counter() - start
        try:
            op.check(result)
        except oracles.CheckError as exc:
            if op.malformed:
                self._fail(op, str(exc))
                return self._record(group, elapsed, False)
            self.incorrect += 1
            self._note(f"INCORRECT {op.kind}: {exc}")
        except Exception as exc:  # an output the checks cannot even read is wrong too
            self.incorrect += 1
            self._note(f"INCORRECT {op.kind}: unreadable output ({type(exc).__name__}: {exc})")
        return self._record(group, elapsed, True)

    def _record(self, group: str, elapsed: float, completed: bool) -> float:
        self.raw_seconds += elapsed
        self._pending.append((group, elapsed, completed))
        if self.speed.due():
            self.flush()
        return elapsed

    def flush(self) -> None:
        """Scale the operations run since the last reference measurement."""
        if not self._pending:
            return
        factor = self.speed.factor()
        for group, elapsed, completed in self._pending:
            scaled = elapsed * factor
            self.seconds[group] = self.seconds.get(group, 0.0) + scaled
            self._round[1] += scaled
            if completed:
                self.latencies.append(scaled)
                self._round[0] += 1
        self._pending.clear()

    def end_round(self) -> None:
        """Close a round: record its completed operations per scaled second."""
        self.flush()
        done, spent = self._round
        self.round_rates.append(done / spent)
        self._round = [0, 0.0]

    def _fail(self, op, message: str) -> None:
        self.failed += 1
        self._note(f"failed {op.kind}: {message.splitlines()[-1] if message else ''}"[:300])

    def _note(self, line: str) -> None:
        self.notes[line] = self.notes.get(line, 0) + 1

    def report_notes(self) -> None:
        for line, count in self.notes.items():
            print(f"{line} (x{count})", file=sys.stderr)


def import_factolab():
    """A fresh import of factolab from this checkout's src/."""
    for name in [n for n in sys.modules if n == "factolab" or n.startswith("factolab.")]:
        del sys.modules[name]
    fl = importlib.import_module("factolab")
    if not Path(fl.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"error: factolab was imported from {fl.__file__}, not from {SRC}")
    return fl


def setup(workload, seed: int, repeats: int):
    """Import factolab and build the inputs ``repeats`` times; (inputs, scaled seconds each)."""
    speed = HostSpeed()
    times = []
    inputs = None
    for _ in range(repeats):
        inputs = None  # free the previous inputs before building again
        start = time.perf_counter()
        fl = import_factolab()
        inputs = workload.build(fl, seed)
        times.append((time.perf_counter() - start) * speed.factor())
    return inputs, times


def percentile(values: list[float], q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def plain_run(workload, inputs, seed: int, seconds: float, setup_times: list[float]) -> dict:
    tally = Tally(workload.subprocesses)
    start = time.perf_counter()
    index = 0
    while True:
        for op in workload.round(inputs, seed, index, 0):
            tally.run(op)
        tally.end_round()
        index += 1
        elapsed = time.perf_counter() - start
        if (elapsed >= seconds and tally.attempted >= MIN_OPS) or elapsed >= RUN_CAP_S:
            break
    who = resource.RUSAGE_CHILDREN if workload.name == "cli-commands" else resource.RUSAGE_SELF
    lat = tally.latencies
    metrics = {
        "ops_per_s": statistics.median(tally.round_rates),
        "op_p50_ms": statistics.median(lat) * 1000,
        "op_p90_ms": percentile(lat, 90) * 1000,
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024,
        "setup_s": statistics.median(setup_times),
    }
    print(f"{workload.name}: {index} rounds, {tally.attempted} operations, {tally.raw_seconds:.2f} s in "
          f"operations, scaled to the nominal host by {tally.seconds['ops'] / tally.raw_seconds:.3f}",
          file=sys.stderr)
    return finish(tally, {name: {"value": metrics[name], "unit": unit} for name, unit in END_TO_END})


def traced_run(workload, seed: int) -> dict:
    """A traced set-up, then fixed rounds in which each operation runs untraced and then traced.

    Alternating the two, operation by operation, keeps the host's drift and
    any warm-up out of the overhead figure.  The traced copy of a round is
    built with another salt, so it works on fresh objects.
    """
    tracer = tracing.Tracer()
    fl = import_factolab()
    tracer.install()
    tracer.enabled = True
    try:
        inputs = workload.build(fl, seed)
    finally:
        tracer.enabled = False
        tracer.uninstall()
    tally = Tally()  # the overhead compares in-process times, so the loop is the reference
    cli = workload.name == "cli-commands"
    mode = {"inprocess": True} if cli else {}
    startup: dict[str, list[float]] = {}
    for index in range(workload.trace_rounds):
        plain = workload.round(inputs, seed, index, 0, **mode)
        traced = workload.round(inputs, seed, index, 1, **mode)
        subs = workload.round(inputs, seed, index, 0) if cli else [None] * len(plain)
        for sub, op, twin in zip(subs, plain, traced):
            in_s = tally.run(op, group="untraced")
            if sub is not None:
                # the same command as a subprocess: the difference is start-up
                startup.setdefault(sub.kind, []).append((tally.run(sub, group="subprocess") - in_s) * 1000)
            tracer.install()
            try:
                tally.run(twin, tracer, group="traced")
            finally:
                tracer.uninstall()
    tally.flush()
    plain_s, traced_s = tally.seconds["untraced"], tally.seconds["traced"]
    startup_ms = statistics.median([v for vs in startup.values() for v in vs]) if startup else 0.0
    metrics = tracer.metrics(startup_ms, (traced_s / plain_s - 1) * 100)
    write_trace(workload.name, seed, tracer, startup, plain_s, traced_s)
    units = {name: unit for name, unit, _ in tracing.per_layer_metrics()}
    return finish(tally, {name: {"value": metrics[name], "unit": units[name]} for name in units})


def write_trace(name: str, seed: int, tracer: tracing.Tracer, startup, plain_s: float, traced_s: float) -> None:
    out = BENCH / "out"
    out.mkdir(exist_ok=True)
    payload = {
        "workload": name,
        "seed": seed,
        "untraced_op_s": plain_s,
        "traced_op_s": traced_s,
        "startup_ms_by_subcommand": {k: statistics.median(v) for k, v in startup.items()},
        "calls": tracer.calls,
        "self_ms": {k: v / 1e6 for k, v in tracer.self_ns.items()},
        "counts": tracer.counts,
        "dropped_spans": tracer.dropped_spans,
        "span_fields": ["id", "parent", "name", "start_ns", "end_ns"],
        "spans": tracer.spans,
    }
    (out / f"trace-{name}-{seed}.json").write_text(json.dumps(payload))


def finish(tally: Tally, metrics: dict) -> dict:
    tally.report_notes()
    return {"correct": tally.incorrect == 0, "attempted": tally.attempted, "failed": tally.failed,
            "metrics": metrics}


def pin_to_one_cpu() -> None:
    """Keep this process and its children on one CPU, where the reference loop runs too.

    The host's speed differs from CPU to CPU, so an operation measured on
    another CPU than the reference loop would be scaled by the wrong factor.
    """
    try:
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    except (AttributeError, OSError):  # not available here: scale without pinning
        pass


def run_one(args) -> int:
    if not (SRC / "factolab" / "__init__.py").is_file():
        print(f"error: no factolab sources at {SRC}", file=sys.stderr)
        return 2
    pin_to_one_cpu()
    sys.path.insert(0, str(SRC))
    workload = workloads.make(args.workload, ROOT)
    try:
        if args.trace:
            result = traced_run(workload, args.seed)
        else:
            inputs, setup_times = setup(workload, args.seed, SETUP_REPEATS)
            result = plain_run(workload, inputs, args.seed, args.seconds, setup_times)
    finally:
        work = getattr(workload, "work_dir", None)
        if work is not None:
            shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def run_all(args) -> int:
    """Each workload in its own process; a table on stderr, one JSON line on stdout."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, str(BENCH / "run.py"), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if not lines:
            print(f"error: workload {name} printed no result (exit {proc.returncode})", file=sys.stderr)
            return 2
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        print(f"{name}: attempted {result['attempted']}, failed {result['failed']}, "
              f"correct {result['correct']}", file=sys.stderr)
        for metric, entry in result["metrics"].items():
            print(f"  {metric:45s} {entry['value']:14.4f} {entry['unit']}", file=sys.stderr)
            combined["metrics"][f"{name}/{metric}"] = entry
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=("all", *workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
