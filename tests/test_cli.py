"""End-to-end command-line tests driven through the in-process entry point."""

from __future__ import annotations

import base64
import csv
import dataclasses
import hashlib
import json
import math

import pytest

from conftest import column, put_column, set_entry
from uniformizer import cli
from uniformizer.cli import run
from uniformizer.dampening import power
from uniformizer.graphspace import GraphSpace, dump_domain, load_domain
from uniformizer.solver import Condenser, capacity
from uniformizer.transform import TransformError, transform


@pytest.fixture(scope="module")
def dom_file(tmp_path_factory):
    """A half-strip domain JSON written through the CLI itself."""
    path = tmp_path_factory.mktemp("cli") / "strip.json"
    code = run(
        ["example", "--name", "half_strip", "--h", "0.25", "--H", "16", "--out", str(path)]
    )
    assert code == 0
    return str(path)


@pytest.fixture(scope="module")
def nu_file(tmp_path_factory):
    """The boundary measure of the ``dom_file`` strip, written by the CLI."""
    path = tmp_path_factory.mktemp("nu")
    code = run(
        ["example", "--name", "half_strip", "--h", "0.25", "--H", "16",
         "--out", str(path / "strip.json"), "--nu", str(path / "nu.json")]
    )
    assert code == 0
    return str(path / "nu.json")


def test_example_output(dom_file, capsys, tmp_path):
    with open(dom_file) as fh:
        payload = json.load(fh)
    assert payload["format"] == 3
    assert len(payload["vertices"]["id"]) == 585
    nu_path = tmp_path / "nu.json"
    code = run(
        [
            "example", "--name", "half_strip", "--h", "0.25", "--H", "16",
            "--out", str(tmp_path / "again.json"), "--nu", str(nu_path),
        ]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "585 vertices" in out
    nu = json.loads(nu_path.read_text())
    assert nu["theta"] == 1.0
    assert len(nu["nu"]) == 9


def test_example_missing_level(tmp_path, capsys):
    code = run(
        [
            "example", "--name", "cantor_slit", "--h", "0.25", "--H", "8",
            "--out", str(tmp_path / "x.json"),
        ]
    )
    err = capsys.readouterr().err
    assert code == 2
    assert "error:" in err and "--level" in err


def test_example_infinite_extent_exits_2(tmp_path, capsys):
    out = tmp_path / "x.json"
    code = run(["example", "--name", "half_strip", "--h", "0.5", "--H", "inf", "--out", str(out)])
    _assert_input_error(code, capsys, out, "--H=inf")


def test_unbounded_boundary_exits_2(tmp_path, capsys):
    """A chain of 70 unit edges with both ends on the boundary exceeds the
    transform's boundary-diameter bound of 64."""
    ids = [f"x{i}" for i in range(71)]
    flags = [True] + [False] * 69 + [True]
    measures = [0.0] + [1.0] * 69 + [0.0]
    space = GraphSpace(ids, measures, flags, [(a, b, 1.0) for a, b in zip(ids, ids[1:])])
    with pytest.raises(TransformError, match="boundary diameter ~70 exceeds bound 64"):
        transform(space, power(2.0), 2.0)
    domain, out = tmp_path / "chain.json", tmp_path / "out.json"
    dump_domain(space, str(domain))
    code = run(["transform", "--domain", str(domain), "--phi", "power:2", "--out", str(out)])
    _assert_input_error(code, capsys, out, "boundary diameter ~70 exceeds bound 64")


def test_validate_phi_exit_codes(capsys):
    assert run(["validate-phi", "--phi", "power:2"]) == 0
    out = capsys.readouterr().out
    assert "FAIL" not in out and "pass" in out
    assert run(["validate-phi", "--phi", "power:1"]) == 1
    assert "FAIL" in capsys.readouterr().out


def test_transform_writes_the_recipe(dom_file, tmp_path, capsys):
    """A dampened domain file is the base file plus one ``dampening`` key,
    and it cannot be transformed again."""
    out = tmp_path / "dampened.json"
    assert run(["transform", "--domain", dom_file, "--phi", "power:2", "--p", "3", "--out", str(out)]) == 0
    assert capsys.readouterr().out.startswith("transformed: 586 vertices; max d_phi to infinity ")
    body = json.loads(out.read_text())
    assert body.pop("dampening") == {"kind": "power", "beta": 2.0, "p": 3.0}
    with open(dom_file) as fh:
        assert body == json.load(fh)
    again = tmp_path / "again.json"
    code = run(["transform", "--domain", str(out), "--phi", "power:2", "--out", str(again)])
    _assert_input_error(code, capsys, again, "already carries an infinity vertex")


def test_solve_on_a_dampened_file_equals_solve_with_phi(dom_file, tmp_path):
    """The rebuilt transform carries the dampened edge masses, so the solve
    on the file is the ``--phi`` solve, value at infinity included."""
    damp, a, b = tmp_path / "dampened.json", tmp_path / "a.json", tmp_path / "b.json"
    assert run(["transform", "--domain", dom_file, "--phi", "power:2", "--p", "2", "--out", str(damp)]) == 0
    assert run(["solve", "--domain", str(damp), "--p", "2", "--data", "coord:x", "--out", str(a)]) == 0
    argv = ["solve", "--domain", dom_file, "--phi", "power:2", "--p", "2", "--data", "coord:x", "--out", str(b)]
    assert run(argv) == 0
    on_file, with_phi = json.loads(a.read_text()), json.loads(b.read_text())
    assert on_file["energy"] == with_phi["energy"]
    assert on_file["values"].pop("infinity") == with_phi["at_infinity"]
    assert on_file["values"] == with_phi["values"]


def test_solve_writes_values(dom_file, tmp_path):
    out = tmp_path / "solve.json"
    code = run(
        ["solve", "--domain", dom_file, "--p", "2", "--data", "coord:y", "--out", str(out)]
    )
    assert code == 0
    body = json.loads(out.read_text())
    assert set(body) >= {"values", "energy", "iterations", "residual", "flags", "config"}
    assert body["values"]["v4_0"] == 0.0
    assert "at_infinity" not in body
    assert body["residual"] < 1e-6


def test_capacity_value(dom_file, capsys):
    code = run(
        [
            "capacity", "--domain", dom_file, "--p", "2",
            "--E", "v4_0,v4_1", "--F", "v4_8,v4_9",
        ]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert out.startswith("capacity: ")
    assert float(out.split()[1]) == pytest.approx(0.35333532999822276, rel=1e-9)


@pytest.mark.parametrize("p", [1.5, 3.0])
def test_capacity_report_equals_the_api_value(dom_file, tmp_path, p):
    """Without --tol, ``capacity`` solves with SolveOptions' defaults, so its
    report holds exactly what ``capacity()`` returns."""
    out = tmp_path / "cap.json"
    argv = [
        "capacity", "--domain", dom_file, "--p", str(p),
        "--E", "v4_0,v4_1", "--F", "v4_8,v4_9", "--out", str(out),
    ]
    assert run(argv) == 0
    cond = Condenser(E=["v4_0", "v4_1"], F=["v4_8", "v4_9"])
    assert json.loads(out.read_text())["value"] == capacity(load_domain(dom_file), cond, p).value


def test_modulus_value_and_budget(dom_file, tmp_path):
    out = tmp_path / "mod.json"
    code = run(
        [
            "modulus", "--domain", dom_file, "--p", "2",
            "--E", "v4_0", "--F", "v4_8", "--max-paths", "40", "--out", str(out),
        ]
    )
    assert code == 0
    body = json.loads(out.read_text())
    assert body["paths_used"] == 40
    assert any("path-budget" in f for f in body["flags"])
    # Which 40 paths the budget admits depends on how the engine breaks
    # ties, so no value is pinned.  The restricted program is solved:
    # its primal value meets the dual lower bound.
    assert abs(body["value"] - body["lower"]) <= 1e-9 * body["value"]
    # A restricted modulus is at most the full modulus, which equals the
    # capacity of the same plates (v4_0 / v4_8 at p = 2).
    assert body["value"] <= 0.14310178764449752 * (1 + 1e-9)


def test_modulus_drops_a_failed_seed(dom_file, tmp_path):
    """At p = 20 the flow seed's capacity solve fails on this strip; the
    modulus runs from the first route alone and says so."""
    out = tmp_path / "mod.json"
    argv = ["modulus", "--domain", dom_file, "--p", "20", "--E", "v4_0", "--F", "v4_8", "--out", str(out)]
    assert run(argv) == 0
    body = json.loads(out.read_text())
    assert body["flags"][0] == "seed-failed"
    assert body["paths_used"] > 1
    assert 0 < body["value"] and abs(body["value"] - body["lower"]) <= 1e-6 * body["value"]


def test_transform_at_p_120_keeps_every_measure(dom_file, tmp_path):
    """Below the underflow that the p = 150 rows of
    ``test_bad_p_tol_and_budget_exit_2`` refuse, the transform runs."""
    out = tmp_path / "dampened.json"
    assert run(["transform", "--domain", dom_file, "--phi", "power:2", "--p", "120", "--out", str(out)]) == 0


def test_capacity_unknown_vertex(dom_file, capsys):
    code = run(["capacity", "--domain", dom_file, "--E", "zz", "--F", "v4_8"])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error:")


@pytest.mark.parametrize(
    "plates",
    [
        ["--E", "nope", "--F", "v4_8"],
        ["--E", "v4_0", "--F", "nope"],
        ["--E", "v4_0", "--F", "v4_8", "--U", "v4_0,v4_8,nope"],
    ],
)
def test_modulus_unknown_vertex(dom_file, capsys, plates):
    code = run(["modulus", "--domain", dom_file] + plates)
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error:") and "'nope'" in err
    assert len(err.strip().splitlines()) == 1


@pytest.mark.parametrize(
    "extra",
    [
        ["--p", "3", "--eps-schedule", ","],
        ["--p", "2", "--eps-schedule", ","],
        ["--p", "3", "--eps-schedule", "nan"],
        ["--p", "1.5", "--eps-schedule", "0.1,inf"],
        ["--p", "3", "--tol", "-1"],
    ],
)
def test_solve_rejects_bad_continuation(dom_file, tmp_path, capsys, extra):
    out = tmp_path / "solve.json"
    code = run(
        ["solve", "--domain", dom_file, "--data", "coord:x", "--out", str(out)] + extra
    )
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error:")
    assert len(err.strip().splitlines()) == 1
    assert not out.exists()


@pytest.mark.parametrize(
    "argv, message",
    [
        (["capacity", "--p", "nan", "--E", "v4_0", "--F", "v4_8"], "p=nan"),
        (["capacity", "--p", "inf", "--E", "v4_0", "--F", "v4_8"], "p=inf"),
        (["modulus", "--p", "nan", "--E", "v4_0", "--F", "v4_8"], "p=nan"),
        (["modulus", "--p", "inf", "--E", "v4_0", "--F", "v4_8"], "p=inf"),
        (["modulus", "--p", "1", "--E", "v4_0", "--F", "v4_8"], "p=1"),
        (["modulus", "--tol", "nan", "--E", "v4_0", "--F", "v4_8"], "tol=nan"),
        (["modulus", "--tol", "-1", "--E", "v4_0", "--F", "v4_8"], "tol=-1"),
        (["modulus", "--tol", "2", "--E", "v4_0", "--F", "v4_8"], "tol=2"),
        (["modulus", "--max-paths", "-3", "--E", "v4_0", "--F", "v4_8"], "max_paths=-3"),
        (["solve", "--p", "nan", "--data", "coord:x"], "p=nan"),
        (["solve", "--p", "nan", "--data", "coord:x", "--phi", "power:2"], "p=nan"),
        (["solve", "--p", "inf", "--data", "coord:x", "--phi", "power:2"], "p=inf"),
        (["classify", "--p", "nan", "--phi", "power:2"], "p=nan"),
        (["classify", "--p", "inf", "--phi", "power:2"], "p=inf"),
        (["transform", "--p", "nan", "--phi", "power:2"], "p=nan"),
        (["capacity", "--p", "3", "--max-iter", "-5", "--E", "v4_0", "--F", "v4_8"], "max_iter=-5"),
        (["classify", "--p", "3", "--phi", "power:2", "--max-iter", "0"], "max_iter=0"),
        (["solve", "--p", "3", "--data", "coord:x", "--max-iter", "0"], "max_iter=0"),
        (["solve", "--data", "coord:x", "--tol", "inf"], "--tol=inf"),
        (["capacity", "--p", "50", "--E", "v4_0", "--F", "v4_8"], "Newton system: the solve is not finite"),
        (["solve", "--p", "100", "--data", "coord:x"], "Newton system: the solve is not finite"),
        (["solve", "--p", "3", "--eps-schedule", "1e200", "--data", "coord:x"], "Factor is exactly singular"),
        (["transform", "--p", "150", "--phi", "power:2"], "p=150 the power:2 dampened measure of vertex 'v0_48'"),
        (["transform", "--p", "200", "--phi", "power:2"], "p=200 the power:2 dampened measure of vertex 'v0_26'"),
        (["solve", "--p", "150", "--phi", "power:2", "--data", "coord:x"], "p=150 the power:2 dampened measure"),
        (["solve", "--p", "200", "--phi", "power:2", "--data", "coord:x"], "p=200 the power:2 dampened measure"),
        (["classify", "--p", "150", "--phi", "power:2"], "p=150 the power:2 dampened measure of vertex 'v0_48'"),
        (["classify", "--p", "200", "--phi", "power:2"], "p=200 the power:2 dampened measure of vertex 'v0_26'"),
        (["solve", "--p", "120", "--phi", "power:2", "--data", "coord:x"], "p=120 the conductance of edge"),
        (["classify", "--p", "120", "--phi", "power:2"], "p=120 the conductance of edge"),
        (["verify", "--check", "poincare", "--phi", "power:2", "--p", "150"],
         "transform: at p=150 the power:2 dampened measure of vertex 'v0_48'"),
        (["verify", "--check", "hardy", "--phi", "power:2", "--p", "200"],
         "transform: at p=200 the power:2 dampened measure of vertex 'v0_26'"),
    ],
)
def test_bad_p_tol_and_budget_exit_2(dom_file, tmp_path, capsys, argv, message):
    """A non-finite p, p <= 1 where the solvers need p > 1, a modulus tol
    outside (0, 1), a negative path budget, a Newton budget below 1 and a
    non-finite tol are each named in one line, with exit code 2 and no
    output.  So is a p or an eps so large that a Newton Hessian factors as
    exactly singular or its solve overflows, that an edge's conductance
    leaves (0, inf), or that a dampened measure underflows."""
    out = tmp_path / "out.json"
    code = run(argv[:1] + ["--domain", dom_file, "--out", str(out)] + argv[1:])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("error:") and message in captured.err
    assert len(captured.err.strip().splitlines()) == 1
    assert captured.out == ""
    assert not out.exists()


@pytest.mark.parametrize(
    "argv, message",
    [
        (["verify", "--check", "besov", "--nu", "NU", "--p", "nan"], "p=nan"),
        (["verify", "--check", "besov", "--nu", "NU", "--p", "inf"], "p=inf"),
        (["verify", "--check", "poincare", "--p", "nan"], "p=nan"),
        (["validate-phi", "--phi", "power:2", "--p", "inf"], "p=inf"),
        (["verify", "--check", "poincare", "--fields", "0"], "--fields=0"),
        (["verify", "--check", "poincare", "--radii", "nan"], "--radii entry nan"),
        (["verify", "--check", "doubling", "--radii", "0.5,-1"], "--radii entry -1"),
        (["verify", "--check", "besov", "--nu", "NU", "--fields", "-1"], "--fields=-1"),
        (["verify", "--check", "hardy", "--phi", "power:2", "--fields", "0"], "--fields=0"),
        (["verify", "--check", "doubling", "--samples", "-1"], "--samples=-1"),
        (["verify", "--check", "doubling", "--bound", "nan"], "--bound=nan"),
        (["verify", "--check", "uniformity", "--bound", "nan"], "--bound=nan"),
        (["verify", "--check", "codim", "--nu", "NU", "--bound", "nan"], "--bound=nan"),
        (["verify", "--check", "exponents", "--expect", "nan"], "--expect=nan"),
        (["verify", "--check", "exponents", "--expect", "2", "--tol", "inf"], "--tol=inf"),
        (["verify", "--check", "fatness", "--nu", "NU", "--phi", "power:2", "--floor", "nan"], "--floor=nan"),
    ],
)
def test_non_finite_p_in_checks_exits_2(dom_file, nu_file, tmp_path, capsys, argv, message):
    """The Besov and Poincare checks and the dampening validator take a
    finite p >= 1; nan and inf are bad input, not a passed or failed check.
    So are a field or sample count below 1, a radius that is not positive
    and finite, and a non-finite bound, expected slope, tol or floor."""
    out = tmp_path / "out.json"
    argv = [nu_file if a == "NU" else a for a in argv]
    code = run(argv[:1] + ["--domain", dom_file, "--out", str(out)] + argv[1:])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("error:") and message in captured.err
    assert len(captured.err.strip().splitlines()) == 1
    assert captured.out == ""
    assert not out.exists()


@pytest.mark.parametrize(
    "phi, n_max",
    [("power:2", "270"), ("power:2", "1024"), ("log_power:2", "700")],
    ids=["power-underflow", "power-overflow", "log-power-overflow"],
)
def test_n_max_outside_the_float_range_exits_2(tmp_path, capsys, phi, n_max):
    """A dyadic range whose terms leave the float range is bad input, not a
    failed condition (power:2 at 270: phi(2^n)^p underflows to 0) nor a
    traceback (2.0**1024 overflows)."""
    out = tmp_path / "out.json"
    code = run(["validate-phi", "--phi", phi, "--n-max", n_max, "--out", str(out)])
    _assert_input_error(code, capsys, out, f"--n-max={n_max}: validate: n_max={n_max} takes")
    assert run(["validate-phi", "--phi", "power:2", "--n-max", "260"]) == 0


@pytest.mark.parametrize(
    "argv, message",
    [
        (["example", "--name", "half_strip", "--h", "0.5", "--H", "8", "--level", "3"],
         "example: --name half_strip does not read --level"),
        (["classify", "--domain", "DOM", "--phi", "power:2", "--p", "2", "--seed", "5"],
         "classify: --seed is read only with --with-theory"),
    ],
    ids=["example-level", "classify-seed"],
)
def test_option_the_subcommand_does_not_read_exits_2(coarse_strip, tmp_path, capsys, argv, message):
    out = tmp_path / "out.json"
    argv = [coarse_strip[0] if a == "DOM" else a for a in argv]
    _assert_input_error(run(argv + ["--out", str(out)]), capsys, out, message)


@pytest.mark.parametrize("p", [1.05, 2.0])
def test_classify_with_theory(coarse_strip, tmp_path, capsys, p):
    """``--with-theory`` adds the exponent-formula prediction: hyperbolic iff
    p < Q_mu_plus; ``--shells`` sets the sweep length."""
    out = tmp_path / "cls.json"
    argv = ["classify", "--domain", coarse_strip[0], "--phi", "power:2", "--p", str(p), "--with-theory",
            "--seed", "0", "--shells", "5", "--out", str(out)]
    assert run(argv) == 0
    report = json.loads(out.read_text())["report"]
    assert len(report["shells"]) == 5
    theory = report["theory"]
    assert set(theory) == {"Q_beta_minus", "Q_beta_plus", "Q_mu_plus", "predicted"}
    assert theory["predicted"] == ("Hyperbolic" if p < theory["Q_mu_plus"] else "Parabolic")
    argv[argv.index("power:2")] = "log_power:2"
    _assert_input_error(run(argv[:-1] + [str(tmp_path / "log.json")]), capsys, tmp_path / "log.json",
                        "requires power dampening")


def test_besov_alpha_is_read(coarse_strip, tmp_path):
    domain, nu = coarse_strip
    out = tmp_path / "besov.json"
    argv = ["verify", "--check", "besov", "--domain", domain, "--nu", nu, "--fields", "2", "--alpha", "0.7",
            "--out", str(out)]
    assert run(argv) == 0
    assert json.loads(out.read_text())["rows"][0]["params"]["alpha"] == 0.7


def test_classify_smoke(dom_file, tmp_path, capsys):
    out = tmp_path / "cls.json"
    code = run(
        ["classify", "--domain", dom_file, "--phi", "power:2", "--p", "2", "--out", str(out)]
    )
    stdout = capsys.readouterr().out
    assert code == 0
    assert "Parabolic" in stdout
    body = json.loads(out.read_text())
    assert body["report"]["verdict"] == "Parabolic"
    assert len(body["report"]["shells"]) == 4


def test_verify_exit_codes_and_csv(dom_file, tmp_path, capsys):
    out = tmp_path / "rows.csv"
    ok = run(
        [
            "verify", "--check", "doubling", "--domain", dom_file,
            "--radii", "0.5,1.0", "--bound", "20", "--out", str(out),
        ]
    )
    assert ok == 0
    with open(out) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["check", "params", "value", "pass"]
    assert rows[1][0] == "doubling" and rows[1][3] == "True"
    sidecar = json.loads((tmp_path / "rows.csv.json").read_text())
    assert sidecar["command"] == "verify" and sidecar["pass"] is True
    assert [r["check"] for r in sidecar["rows"]] == ["doubling"]
    capsys.readouterr()
    bad = run(
        [
            "verify", "--check", "doubling", "--domain", dom_file,
            "--radii", "0.5,1.0", "--bound", "1.5",
        ]
    )
    assert bad == 1
    assert "pass=False" in capsys.readouterr().out


@pytest.fixture(scope="module")
def coarse_strip(tmp_path_factory):
    """``half_strip --h 0.5 --H 8`` and its boundary measure, written by the CLI."""
    path = tmp_path_factory.mktemp("coarse")
    domain, nu = str(path / "strip.json"), str(path / "nu.json")
    assert run(["example", "--name", "half_strip", "--h", "0.5", "--H", "8", "--out", domain, "--nu", nu]) == 0
    return domain, nu


@pytest.mark.parametrize(
    "argv, code",
    [
        (["--check", "codim", "--nu", "NU"], 0),
        (["--check", "codim", "--nu", "NU", "--bound", "0"], 1),
        (["--check", "exponents", "--expect", "1.4"], 0),
        (["--check", "exponents", "--expect", "1.4", "--tol", "0"], 1),
        (["--check", "exponents", "--expect", "2", "--tol", "0"], 1),
    ],
    ids=["codim-default", "codim-bound-0", "exponents-default", "exponents-tol-0", "exponents-expect-2-tol-0"],
)
def test_zero_bound_and_tol_are_honoured(coarse_strip, capsys, argv, code):
    """A zero ``--bound`` (codim spread, 1.4 here) or ``--tol`` (slope
    1.37 here) is a bound, not a request for the default (16 and 0.3)."""
    domain, nu = coarse_strip
    assert run(["verify", "--domain", domain] + [nu if a == "NU" else a for a in argv]) == code
    assert f"pass={code == 0}" in capsys.readouterr().out


def test_report_merge(dom_file, tmp_path):
    good = tmp_path / "good.json"
    bad = tmp_path / "bad.json"
    merged = tmp_path / "merged.json"
    run(
        [
            "verify", "--check", "doubling", "--domain", dom_file,
            "--radii", "0.5,1.0", "--bound", "20", "--out", str(good),
        ]
    )
    run(
        [
            "verify", "--check", "doubling", "--domain", dom_file,
            "--radii", "0.5,1.0", "--bound", "1.5", "--out", str(bad),
        ]
    )
    assert run(["report", "--inputs", str(good), "--out", str(merged)]) == 0
    assert json.loads(merged.read_text())["pass"] is True
    assert run(["report", "--inputs", str(good), str(bad), "--out", str(merged)]) == 1
    body = json.loads(merged.read_text())
    assert body["pass"] is False
    assert len(body["runs"]) == 2


def test_report_determinism_modulo_timestamp(dom_file, tmp_path):
    out = tmp_path / "cap.json"
    argv = [
        "capacity", "--domain", dom_file, "--p", "2",
        "--E", "v4_0,v4_1", "--F", "v4_8,v4_9", "--out", str(out),
    ]
    assert run(argv) == 0
    first = json.loads(out.read_text())
    assert run(argv) == 0
    second = json.loads(out.read_text())
    first.pop("timestamp")
    second.pop("timestamp")
    assert first == second
    assert first["config_hash"] == second["config_hash"]


# Digests of the README pipeline's outputs on half_strip --h 0.5 --H 8, with
# solves at p = 1.5 and 3 (which run the eps ladder), a p = 3 capacity and
# power:2 classifications at p = 1.5 and 3.  A change that moves a byte of a
# domain file or of a report body fails here.
PIPELINE_DIGESTS = {
    "domain.json": "93a194cbafcce5f2ff2c3037f586bcb49e6a63f3406f3229f0758f23644972fa",
    "nu.json": "1d8dfacd2492a7a7d13dcd120d772de36ff7ca830485fe3116f964850e654769",
    "dampened.json": "7db08c210f34c65c509f5a97f5517f0af84ac938ba58ee4ef379a4cb2fe8e6ca",
    "sol.json": "387b4cf5c4e128a993705d513166d5367402d418183acdc5ca983f6f81981ddf",
    "sol_phi.json": "02cefce0c12f14bd1880d72afdbe094ee773ecf676c07cf0fafb9b662ea496f1",
    "sol_1.5.json": "53b8288b2a3612178d079facfa97f4572d53eca1a1ea6a5a5d6890778c47e0f0",
    "sol_phi_1.5.json": "de0b4962c09a36a5b3a8135124284cc9b7928291282bcaa6540bb781ca8b8b5f",
    "sol_3.json": "7956d110d2e7fd53a35ecf17677f3bdb05f176a5b63e151b0430df4a2f874b8a",
    "sol_phi_3.json": "47c61ffafe23beab92a6a139706facfe931f82522081dcd247adc2627e3df78e",
    "cap_3.json": "703c68cb2c18603ca94a37aec88ea3d1f0f14b529774b1d883fcf3d76bcec4e1",
    "classify_1.5.json": "e3be84a2201949222fe8ee8a287e496a5afc572da714546e96b1998c652cae6f",
    "classify_3.json": "d58f55648fe0ac103219e478c9b27b0b372810bf29a95902ac2c32d50a08bd68",
}


def _body_bytes(path) -> bytes:
    """A report's text without its run-specific top-level blocks
    (``config`` holds temporary paths, ``timestamp`` the clock)."""
    kept, skip = [], False
    for line in path.read_text().splitlines(keepends=True):
        if line.startswith('  "'):
            skip = line.split('"')[1] in ("config", "config_hash", "timestamp")
        if not skip:
            kept.append(line)
    return "".join(kept).encode()


def test_pipeline_outputs_are_byte_stable(tmp_path):
    f = {name: tmp_path / name for name in PIPELINE_DIGESTS}
    domain = ["--domain", str(f["domain.json"])]
    argv = [
        ["example", "--name", "half_strip", "--h", "0.5", "--H", "8",
         "--out", str(f["domain.json"]), "--nu", str(f["nu.json"])],
        ["transform", *domain, "--phi", "power:2", "--p", "2", "--out", str(f["dampened.json"])],
        ["capacity", *domain, "--p", "3", "--E", "v4_0", "--F", "v4_8", "--out", str(f["cap_3.json"])],
    ]
    for p in ("2", "1.5", "3"):
        suffix = "" if p == "2" else f"_{p}"
        argv += [
            ["solve", *domain, "--p", p, "--data", "coord:x", "--out", str(f[f"sol{suffix}.json"])],
            ["solve", *domain, "--phi", "power:2", "--p", p, "--data", "coord:x",
             "--out", str(f[f"sol_phi{suffix}.json"])],
        ]
    for p in ("1.5", "3"):
        argv.append(["classify", *domain, "--phi", "power:2", "--p", p,
                     "--out", str(f[f"classify_{p}.json"])])
    for args in argv:
        assert run(args) == 0
    digests = {
        name: hashlib.sha256(
            _body_bytes(path) if name.startswith(("sol", "cap", "classify")) else path.read_bytes()
        ).hexdigest()
        for name, path in f.items()
    }
    assert digests == PIPELINE_DIGESTS


def _assert_input_error(code, capsys, out, message):
    """Exit 2, one ``error:`` line naming ``message``, no output file."""
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("error:") and message in captured.err
    assert len(captured.err.strip().splitlines()) == 1
    assert not out.exists()


@pytest.mark.parametrize(
    "change, message",
    [
        ({"nu": [1.0]}, "'nu' must be a nonempty object"),
        ({"nu": {}}, "'nu' must be a nonempty object"),
        ({"theta": None}, "'theta' must be a positive finite number"),
        ({"theta": float("inf")}, "'theta' must be a positive finite number"),
        ({"theta": 0}, "'theta' must be a positive finite number"),
        ({"mesh_scale": None}, "'mesh_scale' must be a positive finite number"),
        ({"mesh_scale": "0.25"}, "'mesh_scale' must be a positive finite number"),
        ({"nu": {"v0_0": float("nan")}}, "weight of 'v0_0' must be a positive finite number"),
        ({"nu": {"v0_0": 1.0, "v1_0": True}}, "weight of 'v1_0' must be a positive finite number"),
    ],
    ids=["nu-list", "nu-empty", "theta-null", "theta-inf", "theta-zero", "mesh-null", "mesh-string",
         "weight-nan", "weight-bool"],
)
def test_bad_boundary_measure_file_exits_2(dom_file, nu_file, tmp_path, capsys, change, message):
    with open(nu_file) as fh:
        payload = json.load(fh)
    payload.update(change)
    bad = tmp_path / "nu.json"
    bad.write_text(json.dumps(payload))
    out = tmp_path / "out.json"
    code = run(["verify", "--check", "codim", "--domain", dom_file, "--nu", str(bad), "--out", str(out)])
    _assert_input_error(code, capsys, out, message)


@pytest.mark.parametrize(
    "argv",
    [
        ["--check", "codim"],
        ["--check", "fatness", "--phi", "power:2", "--samples", "2"],
        ["--check", "besov", "--fields", "1"],
    ],
    ids=["codim", "fatness", "besov"],
)
def test_boundary_measure_id_outside_the_domain_exits_2(dom_file, nu_file, tmp_path, capsys, argv):
    with open(nu_file) as fh:
        payload = json.load(fh)
    payload["nu"]["ghost"] = 1.0
    bad = tmp_path / "nu.json"
    bad.write_text(json.dumps(payload))
    out = tmp_path / "out.json"
    code = run(["verify", "--domain", dom_file, "--nu", str(bad), "--out", str(out)] + argv)
    _assert_input_error(code, capsys, out, "id 'ghost' is not a vertex")


@pytest.mark.parametrize(
    "argv",
    [
        ["--check", "codim"],
        ["--check", "fatness", "--phi", "power:2", "--samples", "2"],
        ["--check", "besov", "--fields", "1"],
    ],
    ids=["codim", "fatness", "besov"],
)
def test_boundary_measure_interior_id_exits_2(dom_file, nu_file, tmp_path, capsys, argv):
    """A weight on an interior vertex is an input error for every nu reader
    (besov ended in a KeyError, codim ignored the weight)."""
    with open(nu_file) as fh:
        payload = json.load(fh)
    payload["nu"]["v4_4"] = 1.0
    bad = tmp_path / "nu.json"
    bad.write_text(json.dumps(payload))
    out = tmp_path / "out.json"
    code = run(["verify", "--domain", dom_file, "--nu", str(bad), "--out", str(out)] + argv)
    _assert_input_error(code, capsys, out, "id 'v4_4' is not a boundary vertex")


@pytest.mark.parametrize(
    "side, argv, message",
    [
        ({"v4_0": None}, ["solve", "--data", "SIDE"], "value of 'v4_0' must be a number"),
        ({"v4_0": 0.0, "v4_1": True}, ["solve", "--data", "SIDE"], "value of 'v4_1' must be a number"),
        # a solve report is not a data file
        ({"values": {"v4_0": 0.0}}, ["solve", "--data", "SIDE"], "value of 'values' must be a number"),
        ([[0.5, 1.0], [2.0, None]], ["solve", "--data", "const:1", "--phi", "tabulated:SIDE"],
         "samples[1] must be a [number, number] pair"),
        ({"a": 1}, ["solve", "--data", "const:1", "--phi", "tabulated:SIDE"],
         "must be a JSON list of [t, value] pairs"),
        (None, ["verify", "--check", "doubling", "--at-infinity"], "--at-infinity requires --phi"),
        (None, ["verify", "--check", "exponents", "--at-infinity"], "--at-infinity requires --phi"),
        (None, ["capacity", "--with-infinity", "--E", "v4_0", "--F", "v4_8"], "--with-infinity requires --phi"),
        (None, ["modulus", "--with-infinity", "--E", "v4_0", "--F", "v4_8"], "--with-infinity requires --phi"),
    ],
    ids=["data-null", "data-bool", "data-report", "tabulated-null", "tabulated-object",
         "doubling-at-infinity", "exponents-at-infinity", "capacity-with-infinity", "modulus-with-infinity"],
)
def test_bad_side_inputs_exit_2(dom_file, tmp_path, capsys, side, argv, message):
    side_file = tmp_path / "side.json"
    side_file.write_text(json.dumps(side))
    argv = [a.replace("SIDE", str(side_file)) for a in argv]
    out = tmp_path / "out.json"
    code = run(argv[:1] + ["--domain", dom_file, "--out", str(out)] + argv[1:])
    _assert_input_error(code, capsys, out, message)


def test_coord_data_needs_coords_on_every_boundary_vertex(dom_file, tmp_path, capsys):
    with open(dom_file) as fh:
        payload = json.load(fh)
    k = int(column(payload, "vertices", "boundary").argmax())
    set_entry(payload, "vertices", k, coords=math.nan)  # a row of NaN: no coordinates
    domain = tmp_path / "domain.json"
    domain.write_text(json.dumps(payload))
    out = tmp_path / "out.json"
    code = run(["solve", "--domain", str(domain), "--data", "coord:x", "--out", str(out)])
    _assert_input_error(code, capsys, out, f"boundary vertex {payload['vertices']['id'][k]!r} has no x coordinate")


@pytest.mark.parametrize(
    "argv",
    [
        ["--check", "poincare"],
        ["--check", "hardy", "--phi", "power:2"],
        ["--check", "adams", "--phi", "power:2", "--nu", "NU", "--q", "3", "--samples", "1"],
    ],
    ids=["poincare", "hardy", "adams"],
)
def test_smooth_fields_need_two_coordinate_columns(dom_file, nu_file, tmp_path, capsys, argv):
    with open(dom_file) as fh:
        payload = json.load(fh)
    put_column(payload, "vertices", "coords", column(payload, "vertices", "coords")[:, :1])
    domain = tmp_path / "domain.json"
    domain.write_text(json.dumps(payload))
    out = tmp_path / "out.json"
    argv = [a.replace("NU", nu_file) for a in argv]
    code = run(["verify", "--domain", str(domain), "--fields", "1", "--out", str(out)] + argv)
    _assert_input_error(code, capsys, out, "random_smooth_fields needs 2 coordinate columns; the space has 1")


def _shorten(table: str, key: str):
    return lambda p: put_column(p, table, key, column(p, table, key)[:-1])


@pytest.mark.parametrize(
    "mutate, message",
    [
        (lambda p: p.pop("format"), """domain: missing 'format' (only "format": 3 is read)"""),
        (lambda p: p.update(format=2), """domain: unknown format 2 (only "format": 3 is read)"""),
        (lambda p: p.update(format=3.0), "domain: unknown format 3.0"),
        (lambda p: p.update(format="3"), "domain: unknown format '3'"),
        (lambda p: p.update(vertices=[]), "vertices: must be an object"),
        (lambda p: p["edges"].pop("u"), "edges: missing 'u'"),
        (lambda p: p["vertices"].update(measure={"v0_0": 0.0}), "vertices.measure: must be a base64 string"),
        (lambda p: p["vertices"].update(coords="xy"), "vertices.coords: not base64"),
        (lambda p: p["edges"].update(length=None), "edges.length: must be a base64 string"),
        (lambda p: p["edges"].update(length=p["edges"]["length"].replace("A", "-", 1)), "edges.length: not base64"),
        (
            lambda p: p["vertices"].update(measure=base64.b64encode(b"\0" * 4673).decode()),
            "vertices.measure: 4673 bytes, not a whole number of 8-byte entries",
        ),
        # an edge end that is not a vertex index, below and above the range
        (lambda p: set_entry(p, "edges", 3, u=-1), "edges[3]: unknown endpoint -1 or"),
        (lambda p: set_entry(p, "edges", 3, v=585), "edges[3]: unknown endpoint 'v3_0' or 585"),
        (lambda p: set_entry(p, "vertices", 7, boundary=255), "vertices[7]: 'boundary' must be a boolean, byte 0 or 1"),
        (
            lambda p: set_entry(p, "vertices", 7, coords=[0.5, math.nan]),
            "vertices[7]: 'coords' must be all numbers or all NaN",
        ),
        (_shorten("vertices", "boundary"), "vertices: 'boundary' has 584 entries, 'id' has 585"),
        (_shorten("vertices", "coords"), "vertices: 'coords' has 1168 values, not rows for the 585 ids"),
        (_shorten("edges", "length"), "edges: 'length' has 1095 entries, 'u' has 1096"),
        # the infinity table of a dampened file in an old layout
        (
            lambda p: p.update(infinity={"id": "inf", "edges": {"v": ["v0_1"], "length": [1.0]}}),
            "domain: unknown key 'infinity'",
        ),
        (lambda p: p.update(dampening="power:2"), "dampening: must be an object"),
        (lambda p: p.update(dampening={"kind": "power", "beta": None, "p": 2.0}), "dampening: 'beta' must be a number"),
        (
            lambda p: p.update(dampening={"kind": "tabulated", "samples": [[1.0, 1.0]], "p": 2.0}),
            "dampening: tabulated dampening needs at least two samples",
        ),
    ],
    ids=["format-missing", "format-2", "format-3", "format-string", "vertices-list", "missing-column",
         "measure-object", "coords-string", "length-null", "length-not-base64", "measure-bytes", "endpoint-list",
         "endpoint-object", "boundary-byte", "coords-partly-nan", "boundary-short", "coords-short", "length-short",
         "infinity-table", "dampening-string", "dampening-beta-null", "dampening-samples-short"],
)
def test_bad_column_form_domain_exits_2(dom_file, tmp_path, capsys, mutate, message):
    """A domain file with no format or another one than 3, a column that
    is not base64 or not whole entries, columns of unequal length, an edge
    end that is not a vertex index, a boundary byte other than 0 or 1 or a
    partly-NaN coordinate row: exit 2 and one line naming the table and key
    or the entry.  Cases named for a fault of the JSON-list columns of
    "format": 2 (endpoint-list, endpoint-object) now put the nearest fault
    of an index column in its place."""
    with open(dom_file) as fh:
        payload = json.load(fh)
    mutate(payload)
    domain = tmp_path / "domain.json"
    domain.write_text(json.dumps(payload))
    out = tmp_path / "out.json"
    code = run(["solve", "--domain", str(domain), "--data", "const:1", "--out", str(out)])
    _assert_input_error(code, capsys, out, message)


@pytest.mark.parametrize(
    "flag, value",
    [("--q", "0"), ("--q", "-1"), ("--q", "nan"), ("--p-tilde", "0"), ("--p-tilde", "nan")],
)
def test_adams_exponents_out_of_range_exit_2(dom_file, nu_file, tmp_path, capsys, flag, value):
    """``verify --check adams`` takes a finite q > 0 and a finite
    p_tilde >= 1: anything else is bad input, not a passed or failed check."""
    out = tmp_path / "out.json"
    argv = ["verify", "--check", "adams", "--domain", dom_file, "--nu", nu_file, "--phi", "power:2",
            "--fields", "1", "--samples", "1", flag, value, "--out", str(out)]
    name = flag[2:].replace("-", "_")
    _assert_input_error(run(argv), capsys, out, f"{name} = {value} must be")


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--check", "adams", "--phi", "power:2", "--nu", "NU", "--fields", "1", "--samples", "1",
          "--q", "3", "--p-tilde", "0"], "verify: --p-tilde is read only without --q"),
        (["--check", "poincare", "--q", "3"], "verify: --check poincare does not read --q"),
        (["--check", "codim", "--nu", "NU", "--p", "3"], "verify: --check codim does not read --p"),
        (["--check", "doubling", "--nu", "NU"], "verify: --check doubling does not read --nu"),
        (["--check", "besov", "--nu", "NU", "--phi", "power:2"], "verify: --check besov does not read --phi"),
        (["--check", "hardy", "--phi", "power:2", "--at-infinity"],
         "verify: --check hardy does not read --at-infinity"),
        (["--check", "doubling", "--phi", "power:2", "--at-infinity", "--radii", "1,2"],
         "verify: --check doubling does not read --radii with --at-infinity"),
        (["--check", "exponents", "--phi", "power:2", "--at-infinity", "--samples", "3", "--seed", "4"],
         "verify: --check exponents does not read --samples with --at-infinity"),
        (["--check", "doubling", "--p", "3"], "verify: --check doubling does not read --p without --phi"),
        (["--check", "exponents", "--p", "3"], "verify: --check exponents does not read --p without --phi"),
        (["--check", "uniformity", "--p", "5"], "verify: --check uniformity does not read --p without --phi"),
        (["--check", "exponents", "--tol", "0.01"], "verify: --tol is read only with --expect"),
    ],
    ids=["adams-q-and-p-tilde", "poincare-q", "codim-p", "doubling-nu", "besov-phi", "hardy-at-infinity",
         "doubling-at-infinity-radii", "exponents-at-infinity-samples", "doubling-p-without-phi",
         "exponents-p-without-phi", "uniformity-p-without-phi", "exponents-tol-without-expect"],
)
def test_verify_option_the_check_does_not_read_exits_2(dom_file, nu_file, tmp_path, capsys, argv, message):
    """A verify option that the chosen check does not read is bad input
    unless it keeps its default, and so is ``--p-tilde`` next to ``--q``
    (it only enters the q that ``--q`` replaces) and ``--tol`` without
    ``--expect`` (it is the slope's tolerance).  A sweep at infinity
    places its centre and radii itself, and without ``--phi`` (no
    transform) the doubling, exponent and uniformity sweeps read no p."""
    out = tmp_path / "out.json"
    argv = [nu_file if a == "NU" else a for a in argv]
    _assert_input_error(run(["verify", "--domain", dom_file, "--out", str(out)] + argv), capsys, out, message)


def test_adams_with_tabulated_dampening_requires_q(dom_file, nu_file, tmp_path, capsys):
    """Without ``--q`` the adams check derives q from the exponent formula,
    which reads the dampening's beta; a tabulated dampening has none."""
    table = tmp_path / "table.json"
    table.write_text(json.dumps([[t, min(1.0, t**-2.0)] for t in (0.5, 1, 2, 4, 8, 16)]))
    out = tmp_path / "out.json"
    argv = ["verify", "--check", "adams", "--domain", dom_file, "--nu", nu_file, "--phi", f"tabulated:{table}",
            "--fields", "1", "--samples", "1", "--out", str(out)]
    _assert_input_error(run(argv), capsys, out, "verify: --check adams with tabulated dampening requires --q")
    assert run(argv + ["--q", "2"]) == 0


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--check", "codim"], "check 'codim' requires --nu"),
        (["--check", "besov"], "check 'besov' requires --nu"),
        (["--check", "hardy"], "check 'hardy' requires --phi"),
        (["--check", "distinf"], "check 'distinf' requires --phi"),
        (["--check", "adams", "--nu", "NU"], "check 'adams' requires --phi"),
        (["--check", "fatness", "--phi", "power:2"], "check 'fatness' requires --nu"),
    ],
    ids=["codim", "besov", "hardy", "distinf", "adams", "fatness"],
)
def test_verify_without_a_required_input_exits_2(dom_file, nu_file, tmp_path, capsys, argv, message):
    out = tmp_path / "out.json"
    argv = [nu_file if a == "NU" else a for a in argv]
    _assert_input_error(run(["verify", "--domain", dom_file, "--out", str(out)] + argv), capsys, out, message)


@pytest.mark.parametrize(
    "argv, params",
    [
        (["--check", "poincare", "--fields", "2"], {"lambda", "n_fields"}),
        (["--check", "hardy", "--phi", "power:2", "--fields", "2"], {"n_fields"}),
        (["--check", "adams", "--phi", "power:2", "--nu", "NU", "--fields", "2", "--samples", "2"], {"q", "n_fields"}),
        (["--check", "codim", "--nu", "NU"], {"theta", "radii"}),
        (["--check", "besov", "--nu", "NU", "--fields", "2"], {"alpha", "n_fields"}),
        (["--check", "doubling"], {"radii", "at_infinity"}),
        (["--check", "doubling", "--phi", "power:2", "--at-infinity"], {"radii", "at_infinity"}),
        (["--check", "exponents"], {"radii", "expect"}),
        (["--check", "exponents", "--phi", "power:2", "--at-infinity"], {"radii", "expect"}),
        (["--check", "distinf", "--phi", "power:2"], {"bound"}),
        (["--check", "uniformity", "--samples", "3"], {"n_pairs"}),
        (["--check", "fatness", "--phi", "power:2", "--nu", "NU", "--samples", "2", "--radii", "1"], {"radii", "floor"}),
    ],
    ids=["poincare", "hardy", "adams", "codim", "besov", "doubling", "doubling-at-infinity", "exponents",
         "exponents-at-infinity", "distinf", "uniformity", "fatness"],
)
def test_every_check_runs_to_a_verdict(coarse_strip, tmp_path, argv, params):
    """Each check reads only the options its table entry declares (any
    other read raises AttributeError, not an input error) and writes one
    row with its params."""
    domain, nu = coarse_strip
    out = tmp_path / "rows.json"
    assert run(["verify", "--domain", domain, "--out", str(out)] + [nu if a == "NU" else a for a in argv]) in (0, 1)
    (row,) = json.loads(out.read_text())["rows"]
    assert row["check"] == argv[1] and set(row["params"]) == params


def test_a_check_reading_an_undeclared_option_fails(coarse_strip, monkeypatch):
    domain, nu = coarse_strip
    monkeypatch.setitem(cli.CHECKS, "codim", dataclasses.replace(cli.CHECKS["codim"], reads=("radii",)))
    with pytest.raises(AttributeError, match="bound"):
        run(["verify", "--check", "codim", "--domain", domain, "--nu", nu])


def test_verify_option_at_its_default_is_accepted(coarse_strip, capsys):
    """An option that the check does not read may still be given its default."""
    domain, nu = coarse_strip
    assert run(["verify", "--check", "codim", "--domain", domain, "--nu", nu, "--p", "2", "--seed", "0"]) == 0
    assert "pass=True" in capsys.readouterr().out


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--check", "codim", "--domain", "DOM", "--nu", "BAD"],
        ["solve", "--domain", "DOM", "--data", "BAD"],
        ["solve", "--domain", "DOM", "--data", "const:1", "--phi", "tabulated:BAD"],
        ["capacity", "--domain", "DOM", "--p", "2", "--E", "@BAD", "--F", "v4_8"],
        ["report", "--inputs", "GOOD", "BAD"],
        ["solve", "--domain", "BAD", "--data", "const:1"],
    ],
    ids=["nu", "data", "tabulated", "vertex-list", "report-inputs", "domain"],
)
@pytest.mark.parametrize(
    "text, reason",
    [(b'{"v4_0": 1.0, ', "Expecting"), (b"\xff[1.0]", "'utf-8' codec can't decode")],
    ids=["truncated", "not-utf8"],
)
def test_unreadable_json_input_names_its_file(dom_file, tmp_path, capsys, argv, text, reason):
    """Every JSON input file is read by one reader: exit 2 and one line
    that names the file, for broken JSON and for text that is not UTF-8."""
    good = tmp_path / "good.json"
    good.write_text('{"pass": true}')
    bad = tmp_path / "bad.json"
    bad.write_bytes(text)
    swap = {"DOM": dom_file, "GOOD": str(good), "BAD": str(bad)}
    argv = [swap.get(a, a.replace("BAD", str(bad))) for a in argv]
    out = tmp_path / "out.json"
    code = run(argv + ["--out", str(out)])
    _assert_input_error(code, capsys, out, f"{bad}: invalid JSON ({reason}")
