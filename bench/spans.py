"""In-memory span recorder and the layer instrumentation of the benchmark.

A span is ``[name, start, end, parent]``; ``parent`` is the index of the
enclosing span, or -1.  Spans stay in memory until the run ends.  Self time
is a span's duration minus the durations of its direct children, so the
self times of all spans under one root add up to the root's duration.

``Instrumentation.install`` wraps the package's public functions at every
module attribute they are reachable through (``shortest_route`` is imported
by name into ``solver`` and ``analysis``, ``capacity_of_infinity`` into
``analysis``, and so on); an attribute left unwrapped would lose its calls.
No source file of the package is edited.
"""

from __future__ import annotations

import functools
import importlib
import os
import time
from collections import defaultdict

LAYERS = (
    "graphspace", "dampening", "transform", "energy", "solver",
    "analysis", "domains", "cli", "util",
)

CLI_SUBCOMMANDS = ("example", "validate-phi", "transform", "solve", "verify", "report")

ROOT_SPAN = "bench.pass"

# (module, attribute, span name): functions wrapped wherever the package
# holds a reference to them.  The three scipy entry points are wrapped only
# as the solver module sees them.
FUNCTION_SPANS = (
    ("solver", "minimize", "solver.dual_solve"),
    ("solver", "spsolve", "solver.linear_solve"),
    ("solver", "brentq", "solver.line_search"),
    ("solver", "modulus", "solver.modulus"),
    ("solver", "capacity", "solver.capacity"),
    ("solver", "capacity_of_infinity", "solver.capacity_of_infinity"),
    ("solver", "solve_p_harmonic", "solver.solve_p_harmonic"),
    ("graphspace", "shortest_route", "graphspace.shortest_route"),
    ("graphspace", "load_domain", "graphspace.load_domain"),
    ("graphspace", "dump_domain", "graphspace.dump_domain"),
    ("util", "canonical_json", "util.canonical_json"),
    ("domains", "generate", "domains.generate"),
    ("transform", "transform", "transform.transform"),
    ("transform", "attach_infinity", "transform.attach_infinity"),
    ("transform", "local_distances", "transform.local_distances"),
    ("dampening", "validate", "dampening.validate"),
    ("energy", "edge_mass", "energy.edge_mass"),
    ("analysis", "classify_parabolicity", "analysis.classify_parabolicity"),
    ("analysis", "doubling_constant", "analysis.doubling_constant"),
) + tuple(
    ("cli", "cmd_" + sub.replace("-", "_"), "cli." + sub) for sub in CLI_SUBCOMMANDS
)

# GraphSpace methods that run csgraph.dijkstra (cache hits included).
METHOD_SPANS = (
    ("distances_from", "graphspace.dijkstra"),
    ("multi_source_distances", "graphspace.dijkstra"),
)

SPAN_NAMES = (ROOT_SPAN,) + tuple(dict.fromkeys(
    [name for _, _, name in FUNCTION_SPANS] + [name for _, name in METHOD_SPANS]
))

# Counts recorded at the span boundaries: name -> unit.  All repeat exactly
# from run to run for the same workload and seed.
COUNTS = {
    "solver.dual_solve.evals": "count",
    "solver.modulus.paths": "count",
    "solver.line_search.evals": "count",
    "solver.capacity.newton_iters": "count",
    "graphspace.load_domain.bytes": "B",
    "graphspace.dump_domain.bytes": "B",
    "util.canonical_json.bytes": "B",
}
EXITS = {f"cli.{sub}.exit": "code" for sub in CLI_SUBCOMMANDS}


def per_layer_units() -> dict:
    """Every per-layer metric name with its unit, in print order."""
    units = {}
    for name in SPAN_NAMES:
        units[f"{name}.s"] = "s"
        units[f"{name}.self_s"] = "s"
        units[f"{name}.calls"] = "count"
    units.update(COUNTS)
    units.update(EXITS)
    units["solver.cap_mod_gap.max"] = "ratio"
    units["trace.overhead_s"] = "s"
    return units


class Recorder:
    """Spans of one traced pass plus the counts taken at their boundaries."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: dict = defaultdict(float)

    def open(self, name: str) -> int:
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, time.perf_counter(), None, parent])
        self.stack.append(len(self.spans) - 1)
        return self.stack[-1]

    def close(self, idx: int) -> None:
        if self.stack.pop() != idx:
            raise RuntimeError(f"span {self.spans[idx][0]!r} closed out of order")
        self.spans[idx][2] = time.perf_counter()

    def add(self, name: str, value: float) -> None:
        self.counts[name] += value

    def setmax(self, name: str, value: float) -> None:
        self.counts[name] = max(self.counts.get(name, value), value)

    def summary(self) -> dict:
        """Inclusive time, self time and calls per span name, plus counts."""
        out = {}
        for name in SPAN_NAMES:
            out[f"{name}.s"] = 0.0
            out[f"{name}.self_s"] = 0.0
            out[f"{name}.calls"] = 0
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        for k, (name, start, end, _) in enumerate(self.spans):
            out[f"{name}.s"] += end - start
            out[f"{name}.self_s"] += end - start - child[k]
            out[f"{name}.calls"] += 1
        for name in list(COUNTS) + list(EXITS):
            out[name] = int(self.counts.get(name, 0))
        out["solver.cap_mod_gap.max"] = float(self.counts.get("solver.cap_mod_gap.max", 0.0))
        return out


def _count_calls(rec: Recorder, name: str, fn):
    def counted(*args, **kwargs):
        rec.add(name, 1)
        return fn(*args, **kwargs)

    return counted


# Count hooks, run on the wrapped call's arguments and result.
AFTER = {
    "solver.dual_solve": lambda rec, a, out: rec.add("solver.dual_solve.evals", out.nfev),
    "solver.modulus": lambda rec, a, out: rec.add("solver.modulus.paths", out.paths_used),
    "solver.capacity": lambda rec, a, out: rec.add("solver.capacity.newton_iters", out.solve.iterations),
    "graphspace.load_domain": lambda rec, a, out: rec.add("graphspace.load_domain.bytes", os.path.getsize(a[0])),
    "graphspace.dump_domain": lambda rec, a, out: rec.add("graphspace.dump_domain.bytes", os.path.getsize(a[1])),
    "util.canonical_json": lambda rec, a, out: rec.add("util.canonical_json.bytes", len(out.encode())),
}


def _wrap(rec: Recorder, fn, span: str):
    after = AFTER.get(span)
    count_f = span == "solver.line_search"

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if count_f:  # brentq(f, a, b, ...): count the slope evaluations
            args = (_count_calls(rec, "solver.line_search.evals", args[0]),) + args[1:]
        idx = rec.open(span)
        try:
            out = fn(*args, **kwargs)
        finally:
            rec.close(idx)
        if after is not None:
            after(rec, args, out)
        return out

    return traced


class Instrumentation:
    """Installs span wrappers into the package and removes them again."""

    def __init__(self, rec: Recorder):
        self.rec = rec
        self.saved: list[tuple] = []

    def install(self) -> None:
        if self.saved:
            raise RuntimeError("instrumentation already installed")
        # import_module, not attribute access: uniformizer.transform is the
        # function that the package __init__ re-exports, not the module.
        pkg = importlib.import_module("uniformizer")
        modules = [pkg] + [importlib.import_module(f"uniformizer.{m}") for m in LAYERS]
        for mod_name, attr, span in FUNCTION_SPANS:
            home = importlib.import_module(f"uniformizer.{mod_name}")
            original = getattr(home, attr)
            wrapper = _wrap(self.rec, original, span)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self.saved.append((mod, key, original))
                        setattr(mod, key, wrapper)
        cls = importlib.import_module("uniformizer.graphspace").GraphSpace
        for attr, span in METHOD_SPANS:
            original = cls.__dict__[attr]
            self.saved.append((cls, attr, original))
            setattr(cls, attr, _wrap(self.rec, original, span))

    def remove(self) -> None:
        for owner, key, original in reversed(self.saved):
            setattr(owner, key, original)
        self.saved.clear()
