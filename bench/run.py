"""Run one benchmark workload and print its metrics as one JSON line.

    python3 bench/run.py --workload condenser --seed 0 --seconds 22 --trace 0

Run from anywhere; the package is imported from ``src/`` next to this
directory, and scratch files go to ``.bench_work/`` there.

With ``--trace 0`` passes run untraced and the end-to-end metrics are
printed.  With ``--trace 1`` untraced and traced passes alternate and the
per-layer metrics are printed, including the tracing overhead.  Each pass
gets freshly set-up inputs, so no cache survives from one pass to the next.
One untimed warm-up pass comes first.  The number of timed passes is fixed
by ``--seconds`` and the workload's nominal pass time, so every run of a
workload attempts the same operations; timings are medians over passes.

The last line of standard output is
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.
``failed`` counts operations that raised, exited non-zero, returned a
failure flag or missed their check; ``correct`` is false only when an
operation produced an output that missed its check.  A full record of the
run (spans, per-operation outcomes, output digests, machine) is written to
``.bench_work/<workload>-seed<N>-trace<T>.json``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

from spans import ROOT_SPAN, Instrumentation, Recorder, per_layer_units

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")

BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# The package import is timed this many times, each in a fresh interpreter;
# setup_s adds the median to the median input set-up.
IMPORT_REPS = 3
IMPORT_PROBE = (
    "import time; t = time.perf_counter(); "
    "import numpy, scipy.sparse, scipy.optimize, uniformizer; "
    "print(time.perf_counter() - t)"
)

# Timed passes per run, at least; with tracing, pairs of untraced and traced passes.
MIN_PASSES = 3

END_TO_END_UNITS = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "success_rate": "ratio",
    "ops_per_s": "1/s",
}


def cap_blas_threads() -> None:
    """Run BLAS single-threaded; call before numpy loads.

    On a host of few shared CPUs, BLAS threads wait on each other whenever
    another tenant holds a CPU, which measures the scheduler.
    """
    for var in BLAS_ENV:
        os.environ[var] = "1"


def passes_for(workload, seconds: float, trace: bool) -> int:
    """Timed passes that take about ``seconds`` at the workload's nominal pass time."""
    per_pass = workload.nominal_pass_s * (2 if trace else 1)
    return max(MIN_PASSES, round(seconds / per_pass))


def time_imports() -> float:
    """Median time to import numpy, scipy and the package in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=SRC)
    times = []
    for _ in range(IMPORT_REPS):
        out = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE], env=env, cwd=ROOT,
            capture_output=True, text=True, check=True, timeout=60,
        )
        times.append(float(out.stdout))
    return statistics.median(times)


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


def run_pass(workload, mods, seed: int, index: int, workdir: str, inst=None) -> dict:
    """Set up fresh inputs, then time one pass of the workload's operations.

    With ``inst``, the pass (not its set-up) runs traced under one root span,
    whose duration is the pass's wall time.
    """
    t0 = time.perf_counter()
    inputs = workload.setup(mods, seed, index, workdir)
    setup = time.perf_counter() - t0
    rec = inst.rec if inst is not None else None
    ops = workload.ops(mods, inputs, rec)
    outcomes = []
    gc.collect()  # start every pass from a collected heap
    if inst is not None:
        inst.install()
        root = rec.open(ROOT_SPAN)
    t0 = time.perf_counter()
    try:
        for label, op in ops:
            t_op = time.perf_counter()
            try:
                res = op()
                outcome = {"op": label, "ok": res.ok, "wrong": res.wrong, "note": res.note}
            except Exception:
                outcome = {"op": label, "ok": False, "wrong": False, "note": traceback.format_exc()}
            outcome["s"] = time.perf_counter() - t_op
            outcomes.append(outcome)
        wall = time.perf_counter() - t0
    finally:
        if inst is not None:
            rec.close(root)
            inst.remove()
    if inst is not None:
        _, start, end, _ = rec.spans[root]
        wall = end - start
    return {"setup": setup, "wall": wall, "outcomes": outcomes, "digests": workload.digests(workdir)}


def measure(workload, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """Run one warm-up and a fixed number of timed passes; return (result line, full run record)."""
    import numpy
    import scipy

    from workloads import Modules

    mods = Modules()
    import_s = time_imports()
    workdir = os.path.join(WORK, f"{workload.name}-seed{seed}-{os.getpid()}")

    plain, traced, summaries, spans = [], [], [], []
    try:
        warmup = run_pass(workload, mods, seed, 0, workdir)
        for index in range(passes_for(workload, seconds, trace)):
            plain.append(run_pass(workload, mods, seed, index, workdir))
            if trace:  # same inputs as the untraced pass, so the difference is the overhead
                rec = Recorder()
                traced.append(run_pass(workload, mods, seed, index, workdir, Instrumentation(rec)))
                summaries.append(rec.summary())
                spans.append(rec.spans)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    outcomes = [o for p in [warmup] + plain + traced for o in p["outcomes"]]
    attempted = len(outcomes)
    failed = sum(not o["ok"] for o in outcomes)
    correct = not any(o["wrong"] for o in outcomes)
    setup_s = import_s + statistics.median(p["setup"] for p in plain + traced)

    if trace:
        units = per_layer_units()
        values = {k: statistics.median(s[k] for s in summaries) for k in units if k in summaries[0]}
        values["trace.overhead_s"] = statistics.median(p["wall"] for p in traced) - statistics.median(
            p["wall"] for p in plain
        )
    else:
        units = END_TO_END_UNITS
        # One pass, robust to a slow moment: each operation's median time, summed.
        n_ops = len(plain[0]["outcomes"])
        wall = sum(statistics.median(p["outcomes"][k]["s"] for p in plain) for k in range(n_ops))
        values = {
            "wall_s": wall,
            "setup_s": setup_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "success_rate": 1.0 - failed / attempted,
            "ops_per_s": n_ops / wall,
        }
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
    }
    record = {
        "workload": workload.name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "machine": {
            "nproc": os.cpu_count(),
            "cpu_model": cpu_model(),
            "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
            "machine": platform.machine(),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
        },
        "import_s": import_s,
        "setup_s": [p["setup"] for p in plain + traced],
        "passes": [
            {"kind": kind, "wall_s": p["wall"], "outcomes": p["outcomes"], "digests": p["digests"]}
            for kind, group in (("warmup", [warmup]), ("plain", plain), ("traced", traced))
            for p in group
        ],
        "summaries": summaries,
        "spans": spans,
        "result": result,
    }
    return result, record


def workloads_by_name() -> dict:
    from workloads import CliFlow, Classify, Condenser

    return {w.name: w for w in (Condenser(), Classify(), CliFlow())}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=("condenser", "classify", "cli_flow"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True,
                    help="measuring time; sets the number of timed passes")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "uniformizer")):
        print(f"error: no package source at {SRC}/uniformizer", file=sys.stderr)
        return 2
    cap_blas_threads()
    sys.path.insert(0, SRC)
    workload = workloads_by_name()[args.workload]
    result, record = measure(workload, args.seed, args.seconds, bool(args.trace))
    os.makedirs(WORK, exist_ok=True)
    path = os.path.join(WORK, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump(record, fh)
    for k, p in enumerate(record["passes"]):
        for o in p["outcomes"]:
            if not o["ok"]:
                print(f"pass {k}: {o['op']} failed: {o['note'].strip()}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
