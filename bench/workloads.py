"""The three benchmark workloads: condenser, classify and cli_flow.

Each workload builds the inputs of one pass from the seed and the pass
number (``setup``, timed as set-up) and returns the operations of the pass
(``ops``).  An operation is driven
through the package's public API, or through ``uniformizer.cli.run`` for
``cli_flow``, and checks its own output against the acceptance tolerances.
It returns an ``Outcome``; an operation that raises is counted as failed by
the caller.

Module attributes are looked up at call time (``mods.solver.capacity``), so
the span wrappers installed for a traced pass see every call.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import importlib
import io
import json
import math
import os
import re
import shutil
from dataclasses import dataclass

import numpy as np

# Flags that make an operation count as failed (prefix match).
BAD_FLAGS = ("unconverged", "stalled", "path-budget", "linear-residual", "max-principle-violation")

# Criterion-3 tolerance on |capacity - modulus| / capacity, by p.
GAP_TOL = {2.0: 1e-4, 1.5: 1e-3, 3.0: 1e-3}


class Modules:
    """The package modules, fetched by name (``uniformizer.transform`` as an
    attribute is the re-exported function, not the module)."""

    def __init__(self):
        for name in ("analysis", "cli", "dampening", "domains", "solver", "transform"):
            setattr(self, name, importlib.import_module(f"uniformizer.{name}"))


@dataclass
class Outcome:
    ok: bool
    wrong: bool = False  # an output was produced and missed its check
    note: str = ""


def _bad_flags(flags) -> list:
    return [f for f in flags if str(f).startswith(BAD_FLAGS)]


def _window(space, seeds: list, radius: float) -> list:
    """All vertex ids within the metric radius of the seed set (as the
    acceptance suite builds condenser windows)."""
    d = space.multi_source_distances([space.index[s] for s in seeds])
    return [space.ids[int(i)] for i in np.nonzero(d <= radius)[0]]


class Condenser:
    """Capacity, then modulus(tol=1e-6, max_paths=400), on criterion-3 condensers.

    The inputs are the acceptance plates in every pass; the seed is ignored.
    Translated plates make the modulus stall on some placements (see
    ``stalls.py``), and a workload must not fail operations at random.
    """

    name = "condenser"
    nominal_pass_s = 2.7
    CASES = (
        ("slit_cone", {"h": 0.5, "H": 16.0}, ["v0_2"], ["v0_6"], 2.5, 1.5),
        ("slit_cone", {"h": 0.5, "H": 16.0}, ["v0_2"], ["v0_6"], 2.5, 3.0),
    )

    def __init__(self, cases=CASES):
        self.cases = cases

    def setup(self, mods: Modules, seed: int, index: int, workdir: str) -> list:
        spaces = {}
        inputs = []
        for gen, kwargs, E, F, radius, p in self.cases:
            key = (gen, tuple(sorted(kwargs.items())))
            if key not in spaces:
                spaces[key] = mods.domains.generate(gen, **kwargs).space
            space = spaces[key]
            U = _window(space, E + F, radius)
            inputs.append((space, mods.solver.Condenser(E=E, F=F, U=U), p))
        return inputs

    def ops(self, mods: Modules, inputs: list, rec) -> list:
        out = []
        for space, cond, p in inputs:
            state = {}

            def cap(space=space, cond=cond, p=p, state=state) -> Outcome:
                res = mods.solver.capacity(space, cond, p)
                state["cap"] = res.value
                bad = _bad_flags(res.solve.flags)
                if bad:
                    return Outcome(False, note=f"capacity flags {bad}")
                if not (math.isfinite(res.value) and res.value > 0):
                    return Outcome(False, wrong=True, note=f"capacity {res.value!r}")
                return Outcome(True)

            def mod(space=space, cond=cond, p=p, state=state) -> Outcome:
                res = mods.solver.modulus(space, cond, p, tol=1e-6, max_paths=400)
                bad = _bad_flags(res.flags)
                if bad:
                    return Outcome(False, note=f"modulus flags {bad}")
                if "cap" not in state:
                    return Outcome(False, note="no capacity to compare against")
                gap = abs(state["cap"] - res.value) / state["cap"]
                if rec is not None:
                    rec.setmax("solver.cap_mod_gap.max", gap)
                if not gap <= GAP_TOL[p]:
                    return Outcome(False, wrong=True, note=f"gap {gap:.3e} > {GAP_TOL[p]:g} at p={p:g}")
                return Outcome(True)

            label = f"{cond.E[0]}-{cond.F[0]} p={p:g}"
            out += [(f"capacity {label}", cap), (f"modulus {label}", mod)]
        return out

    def digests(self, workdir: str) -> dict:
        return {}


class Classify:
    """classify_parabolicity(attach_infinity(transform(...))) with power(2).

    The inputs are fixed model domains; the seed is ignored.
    """

    name = "classify"
    nominal_pass_s = 6.8
    CASES = (
        ("plane_minus_cantor_square", {"h": 1 / 3, "R": 32.0, "level": 1}, 3.0, "Parabolic"),
        ("slit_cone", {"h": 1.0, "H": 128.0}, 1.5, "Hyperbolic"),
    )

    def __init__(self, cases=CASES):
        self.cases = cases

    def setup(self, mods: Modules, seed: int, index: int, workdir: str) -> list:
        return [
            (mods.domains.generate(gen, **kwargs).space, p, want)
            for gen, kwargs, p, want in self.cases
        ]

    def ops(self, mods: Modules, inputs: list, rec) -> list:
        out = []
        for space, p, want in inputs:

            def classify(space=space, p=p, want=want) -> Outcome:
                t = mods.transform.attach_infinity(
                    mods.transform.transform(space, mods.dampening.power(2.0), p)
                )
                rep = mods.analysis.classify_parabolicity(t, p)
                if rep.verdict != want:
                    return Outcome(False, wrong=True, note=f"verdict {rep.verdict} != {want}")
                bad = _bad_flags(rep.flags)
                if bad:
                    return Outcome(False, note=f"flags {bad}")
                return Outcome(True)

            out.append((f"classify n={space.n_vertices} p={p:g}", classify))
        return out

    def digests(self, workdir: str) -> dict:
        return {}


_TIMESTAMP = re.compile(rb'^\s*"timestamp": "[^"]*",?\n', re.MULTILINE)


def _digest(path: str) -> str | None:
    """sha256 of a file with the report timestamp line removed."""
    if not os.path.exists(path):
        return None
    with open(path, "rb") as fh:
        return hashlib.sha256(_TIMESTAMP.sub(b"", fh.read())).hexdigest()


def _load_json(path: str):
    with open(path) as fh:
        return json.load(fh)


def _csv_rows_pass(path: str) -> bool:
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    return bool(rows) and all(r["pass"] == "True" for r in rows)


class CliFlow:
    """The README pipeline, run in-process through ``uniformizer.cli.run``.

    Known defect, kept on purpose: ``verify --out X.csv`` writes no
    ``X.csv.json`` sidecar, so the final ``report`` step exits 2.  It counts
    as one failed operation per pass until the program is fixed.
    """

    name = "cli_flow"
    nominal_pass_s = 5.0
    EXAMPLE = ("plane_minus_cantor_square", "0.25", "16", "1")

    def __init__(self, example=EXAMPLE):
        self.example = example

    def setup(self, mods: Modules, seed: int, index: int, workdir: str) -> dict:
        shutil.rmtree(workdir, ignore_errors=True)
        os.makedirs(workdir)
        return {"seed": seed, "dir": workdir}

    def _paths(self, workdir: str) -> dict:
        names = ("domain.json", "nu.json", "dampened.json", "sol.json", "rows.csv", "codim.csv", "merged.json")
        return {n.split(".")[0]: os.path.join(workdir, n) for n in names}

    def steps(self, seed: int, workdir: str) -> list:
        f = self._paths(workdir)
        name, h, H, level = self.example
        example = ["example", "--name", name, "--h", h, "--H", H]
        if level is not None:
            example += ["--level", level]
        return [
            example + ["--out", f["domain"], "--nu", f["nu"]],
            ["validate-phi", "--phi", "power:2", "--p", "2", "--domain", f["domain"]],
            ["transform", "--domain", f["domain"], "--phi", "power:2", "--p", "2", "--out", f["dampened"]],
            ["solve", "--domain", f["domain"], "--phi", "power:2", "--p", "2", "--data", "coord:x", "--out", f["sol"]],
            ["verify", "--check", "doubling", "--domain", f["domain"], "--seed", str(seed), "--out", f["rows"]],
            ["verify", "--check", "codim", "--domain", f["domain"], "--nu", f["nu"], "--out", f["codim"]],
            ["report", "--inputs", f["rows"] + ".json", f["codim"] + ".json", "--out", f["merged"]],
        ]

    def _check(self, argv: list, stdout: str, f: dict) -> str | None:
        """None when the step's outputs pass, else what is wrong."""
        cmd = argv[0]
        if cmd == "example":
            nu = _load_json(f["nu"])
            if not (os.path.getsize(f["domain"]) > 0 and nu["nu"] and "vertices" in stdout):
                return "example wrote no domain or boundary measure"
        elif cmd == "validate-phi":
            lines = stdout.splitlines()
            if not lines or not all(line.endswith(": pass") for line in lines):
                return f"validate-phi: {stdout.strip()!r}"
        elif cmd == "transform":
            if not (os.path.getsize(f["dampened"]) > 0 and stdout.startswith("transformed:")):
                return "transform wrote no dampened domain"
        elif cmd == "solve":
            sol = _load_json(f["sol"])
            vals = np.array(list(sol["values"].values()), dtype=float)
            if _bad_flags(sol["flags"]) or not np.isfinite(vals).all():
                return f"solve flags {sol['flags']}"
            if not (math.isfinite(sol["energy"]) and sol["energy"] > 0):
                return f"solve energy {sol['energy']!r}"
            if not vals.min() <= sol["at_infinity"] <= vals.max():
                return f"value at infinity {sol['at_infinity']!r} outside the solution range"
        elif cmd == "verify":
            out = argv[argv.index("--out") + 1]
            if not _csv_rows_pass(out):
                return f"verify rows in {out} do not pass"
        elif cmd == "report":
            merged = _load_json(f["merged"])
            if merged.get("pass") is not True or len(merged.get("runs", [])) != 2:
                return "report did not merge two passing runs"
        return None

    def ops(self, mods: Modules, inputs: dict, rec) -> list:
        f = self._paths(inputs["dir"])
        out = []
        for argv in self.steps(inputs["seed"], inputs["dir"]):

            def step(argv=argv) -> Outcome:
                stdout, stderr = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                    try:
                        rc = mods.cli.run(argv)
                    except SystemExit as exc:  # argparse rejected the arguments
                        rc = exc.code if isinstance(exc.code, int) else 2
                if rec is not None:
                    rec.setmax(f"cli.{argv[0]}.exit", rc)
                if rc != 0:
                    return Outcome(False, note=f"exit {rc}: {stderr.getvalue().strip()}")
                problem = self._check(argv, stdout.getvalue(), f)
                if problem is not None:
                    return Outcome(False, wrong=True, note=problem)
                return Outcome(True)

            label = f"verify {argv[2]}" if argv[0] == "verify" else argv[0]
            out.append((label, step))
        return out

    def digests(self, workdir: str) -> dict:
        return {
            os.path.basename(path): _digest(path)
            for path in self._paths(workdir).values()
        }
