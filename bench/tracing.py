"""Spans around factolab's layer functions, installed from outside the program.

``Tracer.install`` replaces each traced function with a wrapper at every
factolab module that binds its name, so calls made inside the program are
caught too.  A wrapper records a span (name, parent, start, end) while the
tracer is enabled and passes straight through otherwise.  A recursive call
stays inside its caller's span.  Self time is a span's length minus the time
its child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

# layer -> public functions that get a span; the metric names follow from it
TRACED = {
    "linalg": ("integer_kernel", "solve_inequalities", "homogeneous_lp_witness"),
    "monoid": ("validate_presentation", "enumerate_factorizations", "length_set",
               "atomic_divisors", "ensure_normalized", "normalize_atoms"),
    "classify": ("classify", "relation_evidence"),
    "construct": ("build_master_monoid", "pls_example", "verify_gallery"),
    "semiring": ("NumericalMonoid", "monoid_elements_up_to", "natural_atom_test",
                 "poly_divide_exact", "poly_mul", "poly_pow", "algebra_witness"),
    "cli": ("main",),
}

COUNTERS = (
    ("monoid.factorizations_enumerated", "count", "lower"),
    ("classify.relations_found", "count", "lower"),
    ("semiring.NumericalMonoid.table_entries", "count", "lower"),
    ("semiring.natural_atom_test.candidates", "count", "lower"),
    ("semiring.natural_atom_test.hit_ratio", "ratio", "higher"),
    ("cli.startup_ms", "ms", "lower"),
    ("trace.overhead_pct", "%", "lower"),
)

SPAN_CAP = 200_000


def per_layer_metrics() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every metric a traced run reports, in order."""
    out = []
    for layer, names in TRACED.items():
        for fn in names:
            out.append((f"{layer}.{fn}.calls", "count", "lower"))
            out.append((f"{layer}.{fn}.self_ms", "ms", "lower"))
    return out + list(COUNTERS)


class Tracer:
    def __init__(self):
        self.enabled = False
        self.calls: dict[str, int] = {}
        self.self_ns: dict[str, int] = {}
        self.counts = {"factorizations": 0, "relations": 0, "table_entries": 0, "candidates": 0, "hits": 0}
        self.spans: list[tuple[int, int, str, int, int]] = []
        self.dropped_spans = 0
        self._stack: list[list] = []  # [span id, name, child ns]
        self._active: dict[str, int] = {}
        self._next_id = 1
        self._restore: list[tuple[object, str, object]] = []

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        for layer in TRACED:
            importlib.import_module(f"factolab.{layer}")
        modules = [m for name, m in sys.modules.items() if name == "factolab" or name.startswith("factolab.")]
        for layer, names in TRACED.items():
            home = importlib.import_module(f"factolab.{layer}")
            for fn_name in names:
                name = f"{layer}.{fn_name}"
                self.calls.setdefault(name, 0)
                self.self_ns.setdefault(name, 0)
                original = getattr(home, fn_name)
                if isinstance(original, type):
                    # a class: its constructor gets the span, the class stays itself
                    init = original.__dict__["__init__"]
                    self._patch(original, "__init__", self._wrap(name, init, self._after(name)))
                    continue
                wrapper = self._wrap(name, original, self._after(name))
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            self._patch(module, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()

    def _patch(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    # -- spans --------------------------------------------------------------

    def _wrap(self, name: str, fn, after):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.enabled or self._active.get(name):
                return fn(*args, **kwargs)
            span_id = self._next_id
            self._next_id += 1
            parent = self._stack[-1][0] if self._stack else 0
            frame = [span_id, name, 0]
            self._stack.append(frame)
            self._active[name] = 1
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                self._stack.pop()
                self._active[name] = 0
                duration = end - start
                self.calls[name] += 1
                self.self_ns[name] += duration - frame[2]
                if self._stack:
                    self._stack[-1][2] += duration
                if len(self.spans) < SPAN_CAP:
                    self.spans.append((span_id, parent, name, start, end))
                else:
                    self.dropped_spans += 1
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def _after(self, name: str):
        counts = self.counts
        if name == "monoid.enumerate_factorizations":
            def after(args, result):
                counts["factorizations"] += len(result)
        elif name == "classify.relation_evidence":
            def after(args, result):
                counts["relations"] += len(result)
        elif name == "semiring.NumericalMonoid":
            def after(args, result):
                monoid = args[0]
                counts["table_entries"] += monoid.frontier + monoid.generators[0]
        elif name == "semiring.poly_divide_exact":
            def after(args, result):
                if self._active.get("semiring.natural_atom_test"):
                    counts["candidates"] += 1
        elif name == "semiring.natural_atom_test":
            def after(args, result):
                if result[1] is not None:
                    counts["hits"] += 1
        else:
            return None
        return after

    # -- results ------------------------------------------------------------

    def metrics(self, startup_ms: float, overhead_pct: float) -> dict[str, float]:
        out: dict[str, float] = {}
        for name in self.calls:
            out[f"{name}.calls"] = self.calls[name]
            out[f"{name}.self_ms"] = self.self_ns[name] / 1e6
        c = self.counts
        out["monoid.factorizations_enumerated"] = c["factorizations"]
        out["classify.relations_found"] = c["relations"]
        out["semiring.NumericalMonoid.table_entries"] = c["table_entries"]
        out["semiring.natural_atom_test.candidates"] = c["candidates"]
        out["semiring.natural_atom_test.hit_ratio"] = c["hits"] / c["candidates"] if c["candidates"] else 0.0
        out["cli.startup_ms"] = startup_ms
        out["trace.overhead_pct"] = overhead_pct
        return out
