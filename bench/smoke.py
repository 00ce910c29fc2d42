"""Smoke test of the benchmark on tiny inputs (about a minute):

    python3 bench/smoke.py

For each workload, one untraced and one traced run on tiny inputs check
that every metric named in BENCHMARK.json is printed with its unit, that
the span self times of each traced pass add up to its wall time, and that
the only operation allowed to fail is the known-defect ``report`` step of
cli_flow.
Exits 1 on the first failed check.
"""

from __future__ import annotations

import json
import math
import os
import sys

import run

TINY_CONDENSER = (("half_strip", {"h": 0.5, "H": 8.0}, ["v1_2"], ["v3_2"], 1.0, 2.0),)
TINY_CLASSIFY = (("half_strip", {"h": 0.5, "H": 16.0}, 2.0, "Parabolic"),)
TINY_EXAMPLE = ("half_strip", "0.5", "8", None)


def check(cond: bool, what: str) -> None:
    if not cond:
        print(f"smoke: FAIL {what}", file=sys.stderr)
        sys.exit(1)


def main() -> int:
    run.cap_blas_threads()
    sys.path.insert(0, run.SRC)
    from workloads import Classify, CliFlow, Condenser

    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    tiny = [Condenser(TINY_CONDENSER), Classify(TINY_CLASSIFY), CliFlow(TINY_EXAMPLE)]
    check(sorted(w.name for w in tiny) == sorted(w["name"] for w in spec["workloads"]), "workload names")
    for wl in tiny:
        for trace, key in ((False, "end_to_end"), (True, "per_layer")):
            result, record = run.measure(wl, seed=1, seconds=0, trace=trace)
            printed = json.loads(json.dumps(result))
            check(set(printed) == {"correct", "attempted", "failed", "metrics"}, "result keys")
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {name: m["unit"] for name, m in printed["metrics"].items()}
            check(got == want, f"{wl.name} {key} names and units: {sorted(set(got) ^ set(want))}")
            check(
                all(isinstance(m["value"], (int, float)) and math.isfinite(m["value"])
                    for m in printed["metrics"].values()),
                f"{wl.name} {key} values are finite numbers",
            )
            check(printed["correct"], f"{wl.name} outputs correct")
            failed_ops = {o["op"].split()[0] for p in record["passes"] for o in p["outcomes"] if not o["ok"]}
            allowed = {"report"} if wl.name == "cli_flow" else set()
            check(failed_ops <= allowed, f"{wl.name} unexpected failures {failed_ops - allowed}")
            if trace:
                metrics = {name: m["value"] for name, m in printed["metrics"].items()}
                check(metrics[f"{run.ROOT_SPAN}.calls"] == 1, f"{wl.name} one root span per traced pass")
                for summary in record["summaries"]:
                    self_sum = sum(v for name, v in summary.items() if name.endswith(".self_s"))
                    wall = summary[f"{run.ROOT_SPAN}.s"]
                    check(abs(self_sum - wall) <= 1e-9 * wall, f"{wl.name} self times {self_sum} != wall {wall}")
        print(f"smoke: {wl.name} ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
