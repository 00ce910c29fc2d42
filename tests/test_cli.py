"""End-to-end command-line tests driven through the in-process entry point."""

from __future__ import annotations

import csv
import hashlib
import json

import pytest

from uniformizer.cli import run


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
    assert len(payload["vertices"]) == 585
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


def test_validate_phi_exit_codes(capsys):
    assert run(["validate-phi", "--phi", "power:2"]) == 0
    out = capsys.readouterr().out
    assert "FAIL" not in out and "pass" in out
    assert run(["validate-phi", "--phi", "power:1"]) == 1
    assert "FAIL" in capsys.readouterr().out


def test_transform_infinity_toggle(dom_file, tmp_path):
    with_inf = tmp_path / "with.json"
    without = tmp_path / "without.json"
    assert run(["transform", "--domain", dom_file, "--phi", "power:2", "--out", str(with_inf)]) == 0
    assert (
        run(
            [
                "transform", "--domain", dom_file, "--phi", "power:2",
                "--no-infinity", "--out", str(without),
            ]
        )
        == 0
    )
    body_with = json.loads(with_inf.read_text())
    body_without = json.loads(without.read_text())
    # the extra vertex rides in its own block; the base vertex list is shared
    assert body_with["infinity"]["id"] == "infinity"
    assert all(e["length"] > 0 for e in body_with["infinity"]["edges"])
    assert "infinity" not in body_without
    assert body_with["vertices"] == body_without["vertices"]


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
    ],
)
def test_bad_p_tol_and_budget_exit_2(dom_file, tmp_path, capsys, argv, message):
    """A non-finite p, p <= 1 where the solvers need p > 1, a modulus tol
    outside (0, 1) and a negative path budget are each named in one line,
    with exit code 2 and no output."""
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
    ],
)
def test_non_finite_p_in_checks_exits_2(dom_file, nu_file, tmp_path, capsys, argv, message):
    """The Besov and Poincare checks and the dampening validator take a
    finite p >= 1; nan and inf are bad input, not a passed or failed check."""
    out = tmp_path / "out.json"
    argv = [nu_file if a == "NU" else a for a in argv]
    code = run(argv[:1] + ["--domain", dom_file, "--out", str(out)] + argv[1:])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("error:") and message in captured.err
    assert len(captured.err.strip().splitlines()) == 1
    assert captured.out == ""
    assert not out.exists()


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


# Digests of the README pipeline's outputs on half_strip --h 0.5 --H 8.  A
# change that moves a byte of a domain file or of a solve body fails here.
PIPELINE_DIGESTS = {
    "domain.json": "3a2536c979ef9ac39ff3b87f6c8129ba9a1939eae796c631d9263f9cfd63a3c7",
    "nu.json": "1d8dfacd2492a7a7d13dcd120d772de36ff7ca830485fe3116f964850e654769",
    "dampened.json": "006e96b51bd860f302c0ebe6099f028814698bbd4108d805e6ef6020b039c60b",
    "sol.json": "2502c75a157c98c97617856bdd31d1d600c6451f6b795fda0dd9561e303fc992",
    "sol_phi.json": "42fa728981d4bdaf1021a6522d655aee6b36990a389a7bfb3fc6af8a46440607",
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
    argv = [
        ["example", "--name", "half_strip", "--h", "0.5", "--H", "8",
         "--out", str(f["domain.json"]), "--nu", str(f["nu.json"])],
        ["transform", "--domain", str(f["domain.json"]), "--phi", "power:2", "--p", "2",
         "--out", str(f["dampened.json"])],
        ["solve", "--domain", str(f["domain.json"]), "--p", "2", "--data", "coord:x",
         "--out", str(f["sol.json"])],
        ["solve", "--domain", str(f["domain.json"]), "--phi", "power:2", "--p", "2",
         "--data", "coord:x", "--out", str(f["sol_phi.json"])],
    ]
    for args in argv:
        assert run(args) == 0
    digests = {
        name: hashlib.sha256(
            _body_bytes(path) if name.startswith("sol") else path.read_bytes()
        ).hexdigest()
        for name, path in f.items()
    }
    assert digests == PIPELINE_DIGESTS
