"""Command-line interface: generation, transformation, solves, verification.

Subcommands:

* ``example``: build one of the model domains and write its JSON file.
* ``validate-phi``: check a dampening function against its admissibility
  conditions.
* ``transform``: write the dampened realization of a domain with its point
  at infinity, as the base domain plus its ``dampening`` recipe; loading the
  file rebuilds the exact transform.
* ``solve``: Dirichlet solve; with ``--phi`` runs the dampened pipeline with
  the point at infinity, otherwise solves on the domain as given.
* ``capacity`` / ``modulus``: condenser energies by the two dual engines.
* ``classify``: parabolic/hyperbolic verdict for the far end.
* ``verify``: property checks emitting (check, params, value, pass) rows.
* ``report``: merge run reports into one summary.

Exit codes: 0 success, 1 when a requested verification reports pass=false,
2 on input errors (malformed files, unknown flags, bad parameters).
All outputs are written atomically; JSON reports embed the config hash and
seed, and a timestamp field excluded from reproducibility comparisons.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import sys
import time
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .analysis import (
    AnalysisError,
    boundary_fatness,
    classify_parabolicity,
    dist_infinity_check,
    doubling_constant,
    mass_exponents,
    sample_boundary,
    sample_interior,
    sample_pairs,
    uniformity_spot_check,
)
from .dampening import (
    Dampening,
    DampeningError,
    NMaxError,
    read_profile,
)
from .dampening import validate as validate_dampening
from .domains import GENERATORS, generate
from .energy import (
    EnergyError,
    adams_check,
    adams_exponent,
    besov_norm,
    hardy_check,
    poincare_check,
    random_smooth_fields,
)
from .graphspace import DomainFormatError, GraphSpace, _numbers, dump_domain, load_domain, read_json
from .solver import (
    Condenser,
    DirichletProblem,
    SolveOptions,
    SolverError,
    capacity,
    modulus,
    solve_dirichlet_unbounded,
    solve_p_harmonic,
)
from .transform import (
    BoundaryMeasure,
    TransformError,
    attach_infinity,
    transform,
    verify_codimensionality,
)
from .util import atomic_write_text, canonical_json, config_hash

INPUT_ERRORS = (
    DomainFormatError,
    DampeningError,
    TransformError,
    SolverError,
    AnalysisError,
    EnergyError,
    OSError,
    ValueError,
)


def _parse_phi(spec: str) -> Dampening:
    kind, _, rest = spec.partition(":")
    if kind in ("power", "log_power"):
        return read_profile(kind, float(rest), spec)
    if kind == "tabulated":
        return read_profile(kind, read_json(rest), rest)
    raise DampeningError(f"unknown dampening spec {spec!r} (power:B, log_power:B, tabulated:FILE)")


def _parse_floats(text: str) -> list[float]:
    return [float(x) for x in text.split(",") if x.strip()]


def _check_numbers(args) -> None:
    """Reject a count flag below 1, a non-finite number flag and a
    ``--radii`` entry that is not positive and finite, naming the flag.
    ``--max-iter`` is checked by the solver, as ``--tol``'s sign is."""
    for name in ("fields", "samples"):
        value = getattr(args, name, None)
        if value is not None and value < 1:
            raise ValueError(f"--{name}={value} must be at least 1")
    for name in ("bound", "expect", "tol", "floor", "H"):
        value = getattr(args, name, None)
        if value is not None and not math.isfinite(value):
            raise ValueError(f"--{name}={value:g} must be finite")
    for r in _parse_floats(getattr(args, "radii", None) or ""):
        if not 0 < r < math.inf:
            raise ValueError(f"--radii entry {r:g} must be positive and finite")


def _parse_vertices(text: str) -> list[str]:
    if text.startswith("@"):
        data = read_json(text[1:])
        if not isinstance(data, list):
            raise DomainFormatError(f"{text[1:]}: vertex list file must hold a JSON list")
        return [str(v) for v in data]
    return [v for v in text.split(",") if v]


def _load_nu(path: str) -> BoundaryMeasure:
    return BoundaryMeasure.from_payload(read_json(path))


def _boundary_data(spec: str, space: GraphSpace) -> dict:
    """Boundary data from 'const:V', 'coord:x', 'coord:y', or a JSON file."""
    bids = [space.ids[i] for i in space.boundary_indices()]
    if spec.startswith("const:"):
        val = float(spec[6:])
        return {v: val for v in bids}
    if spec.startswith("coord:"):
        axis = {"x": 0, "y": 1}.get(spec[6:])
        if axis is None:
            raise DomainFormatError(f"bad data spec {spec!r}")
        if space.coords is None:
            raise DomainFormatError("domain carries no coordinates for coord: data")
        has_axis = axis < space.coords.shape[1]
        values = space.coords[space.boundary_indices(), axis] if has_axis else np.full(len(bids), np.nan)
        missing = np.isnan(values)
        if missing.any():
            raise DomainFormatError(f"boundary vertex {bids[np.argmax(missing)]!r} has no {spec[6:]} coordinate")
        return dict(zip(bids, values.tolist()))
    raw = read_json(spec)
    if not isinstance(raw, dict):
        raise DomainFormatError(f"{spec}: boundary data must be a JSON object")
    for k, num in zip(raw, _numbers(list(raw.values()))):
        if not num:
            raise DomainFormatError(f"{spec}: value of {k!r} must be a number")
    return {str(k): float(v) for k, v in raw.items()}


def _report_payload(args: argparse.Namespace, body: dict) -> dict:
    config = {
        k: v
        for k, v in sorted(vars(args).items())
        if k not in ("func",) and not callable(v)
    }
    payload = {
        "command": args.command,
        "config": config,
        "config_hash": config_hash(config),
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }
    payload.update(body)
    return payload


def _write_json(path: str, payload: dict) -> None:
    atomic_write_text(path, canonical_json(payload))


def _write_rows(path: str, payload: dict, rows: list[dict]) -> None:
    """Write check rows as CSV plus the full payload in a ``.csv.json``
    sidecar, or the payload alone as JSON."""
    if path.endswith(".csv"):
        _write_json(path + ".json", payload)
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["check", "params", "value", "pass"])
        for row in rows:
            writer.writerow(
                [
                    row["check"],
                    json.dumps(row["params"], sort_keys=True),
                    row["value"],
                    row["pass"],
                ]
            )
        atomic_write_text(path, buf.getvalue())
    else:
        _write_json(path, payload)


# ---------------------------------------------------------------------------
# subcommands


def cmd_example(args) -> int:
    kwargs = {"h": args.h}
    if args.name == "plane_minus_cantor_square":
        kwargs["R"] = args.H
    else:
        kwargs["H"] = args.H
    if args.name in ("cantor_slit", "plane_minus_cantor_square"):
        if args.level is None:
            raise DomainFormatError(f"{args.name} requires --level")
        kwargs["level"] = args.level
    elif args.level is not None:
        raise ValueError(f"example: --name {args.name} does not read --level")
    bundle = generate(args.name, **kwargs)
    dump_domain(bundle.space, args.out)
    if args.nu:
        _write_json(args.nu, bundle.nu.to_payload())
    print(
        f"{args.name}: {bundle.space.n_vertices} vertices, "
        f"{bundle.space.n_edges} edges, theta={bundle.theta:.6g} -> {args.out}"
    )
    return 0


def cmd_validate_phi(args) -> int:
    phi = _parse_phi(args.phi)
    band_measures = None
    if args.domain:
        space = load_domain(args.domain)
        band_measures = space.bands().band_measure
    try:
        report = validate_dampening(phi, args.p, band_measures=band_measures, n_max=args.n_max)
    except NMaxError as exc:
        raise ValueError(f"--n-max={args.n_max}: {exc}") from exc
    payload = _report_payload(args, {"report": report.to_dict(), "pass": report.all_pass})
    if args.out:
        _write_json(args.out, payload)
    for name, ok in sorted(report.passes.items()):
        print(f"{name}: {'pass' if ok else 'FAIL'}")
    return 0 if report.all_pass else 1


def cmd_transform(args) -> int:
    space = load_domain(args.domain)
    ts = attach_infinity(transform(space, _parse_phi(args.phi), args.p))
    dump_domain(ts, args.out)
    d_inf = ts.distance_to_infinity()
    print(f"transformed: {ts.n_vertices} vertices; max d_phi to infinity {float(d_inf[np.isfinite(d_inf)].max()):.6g}")
    return 0


def _solve_options(args) -> SolveOptions:
    opts = SolveOptions()
    if getattr(args, "tol", None) is not None:
        opts.tol = args.tol
    if getattr(args, "max_iter", None) is not None:
        opts.max_iter = args.max_iter
    if getattr(args, "eps_schedule", None):
        opts.eps_schedule = _parse_floats(args.eps_schedule)
    return opts


def cmd_solve(args) -> int:
    space = load_domain(args.domain)
    data = _boundary_data(args.data, space)
    opts = _solve_options(args)
    if args.phi:
        phi = _parse_phi(args.phi)
        res = solve_dirichlet_unbounded(
            space, phi, args.p, data, at_infinity=args.at_infinity, options=opts
        )
        sres, body = res.solve, {"at_infinity": res.at_infinity_value}
    else:
        if args.at_infinity is not None:
            raise SolverError("--at-infinity requires --phi (the dampened pipeline)")
        sres, body = solve_p_harmonic(DirichletProblem(space, args.p, data, opts)), {}
    body.update(
        values={vid: sres.u[i] for i, vid in enumerate(space.ids)},
        energy=sres.energy, iterations=sres.iterations, residual=sres.residual, flags=sres.flags,
    )
    _write_json(args.out, _report_payload(args, body))
    print(f"solved: energy={sres.energy:.8g} iterations={sres.iterations} flags={sres.flags}")
    return 0


def _condenser_setup(args):
    if args.with_infinity and not args.phi:
        raise SolverError("--with-infinity requires --phi (the dampened pipeline)")
    space = load_domain(args.domain)
    target = space
    if args.phi:
        phi = _parse_phi(args.phi)
        ts = transform(space, phi, args.p)
        if args.with_infinity:
            ts = attach_infinity(ts)
        target = ts
    E = _parse_vertices(args.E)
    F = _parse_vertices(args.F)
    U = _parse_vertices(args.U) if args.U else None
    return target, Condenser(E=E, F=F, U=U)


def cmd_capacity(args) -> int:
    target, cond = _condenser_setup(args)
    res = capacity(target, cond, args.p, _solve_options(args))
    body = {"value": res.value, "flags": res.solve.flags}
    if args.out:
        _write_json(args.out, _report_payload(args, body))
    print(f"capacity: {res.value:.10g}")
    return 0


def cmd_modulus(args) -> int:
    target, cond = _condenser_setup(args)
    res = modulus(target, cond, args.p, tol=args.tol, max_paths=args.max_paths)
    body = {"value": res.value, "lower": res.lower, "paths_used": res.paths_used, "flags": res.flags}
    if args.out:
        _write_json(args.out, _report_payload(args, body))
    print(f"modulus: {res.value:.10g} ({res.paths_used} paths)")
    return 0


def _exponent_fit(space: GraphSpace, seed: int):
    """The mass-exponent fit the exponent formula reads: three interior
    centres and dyadic radii out to the outermost band."""
    radii = [2.0**k for k in range(0, max(3, space.bands().n_max))]
    return mass_exponents(space, sample_interior(space, 3, seed), radii)


def cmd_classify(args) -> int:
    if args.seed != 0 and not args.with_theory:
        raise ValueError("classify: --seed is read only with --with-theory")
    space = load_domain(args.domain)
    phi = _parse_phi(args.phi)
    ts = attach_infinity(transform(space, phi, args.p))
    theory_fit = _exponent_fit(space, args.seed) if args.with_theory else None
    report = classify_parabolicity(
        ts, args.p, n_shells=args.shells, options=_solve_options(args), theory_fit=theory_fit
    )
    body = {"report": report.to_dict()}
    if args.out:
        _write_json(args.out, _report_payload(args, body))
    print(f"classification: {report.verdict} (spread {report.spread:.3g})")
    return 0


def cmd_report(args) -> int:
    runs = list(map(read_json, args.inputs))

    def any_fail(node) -> bool:
        if isinstance(node, dict):
            return any(
                (k == "pass" and v is False) or any_fail(v) for k, v in node.items()
            )
        if isinstance(node, list):
            return any(any_fail(x) for x in node)
        return False

    failed = any(any_fail(r) for r in runs)
    _write_json(args.out, _report_payload(args, {"runs": runs, "pass": not failed}))
    print(f"merged {len(runs)} reports -> {args.out} ({'FAIL' if failed else 'pass'})")
    return 1 if failed else 0


# ---------------------------------------------------------------------------
# verify


def _default_radii(scale: float) -> list[float]:
    """Up to four doublings of four mesh widths that stay within 0.25."""
    radii = [4 * scale * 2**k for k in range(4) if 4 * scale * 2**k <= 0.25 * (1 + 1e-9)]
    return radii or [4 * scale]


def _within(value: float, bound: float | None) -> bool:
    return bool(np.isfinite(value)) and (bound is None or value <= bound)


def _infinity_sweep(target):
    """The target with infinity attached, infinity as centre, and the finite positive distances to it."""
    ts = attach_infinity(target)
    d = ts.distance_to_infinity()
    return ts, [ts.infinity_id], d[np.isfinite(d) & (d > 0)]


def _codim(a, space, target, nu):
    radii = _parse_floats(a.radii) if a.radii else _default_radii(nu.mesh_scale)
    rep = verify_codimensionality(space, nu, radii, spread_bound=16.0 if a.bound is None else a.bound)
    return {"theta": nu.theta, "radii": radii}, rep.spread, rep.passed


def _doubling(a, space, target, nu):
    if a.at_infinity:
        target, centers, fin = _infinity_sweep(target)
        radii = [float(fin.min()) * 2 * 2**k for k in range(5)]
    else:
        centers = sample_interior(target, a.samples, a.seed)
        radii = _parse_floats(a.radii) if a.radii else [0.5, 1.0, 2.0, 4.0]
    rep = doubling_constant(target, centers, radii, bound=a.bound)
    return {"radii": radii, "at_infinity": a.at_infinity}, rep.max_ratio, rep.passed


def _exponents(a, space, target, nu):
    if a.tol is not None and a.expect is None:
        raise ValueError("verify: --tol is read only with --expect")
    if a.at_infinity:
        target, centers, fin = _infinity_sweep(target)
        lo, hi = float(fin.min()) * 2, float(fin.max()) * 0.5
        radii = list(np.geomspace(lo, hi, 6)) if hi > lo else [lo, 2 * lo, 4 * lo]
    else:
        centers = sample_interior(target, a.samples, a.seed)
        radii = _parse_floats(a.radii) if a.radii else [1.0, 2.0, 4.0, 8.0]
    fit = mass_exponents(target, centers, radii)
    ok = fit.Q_plus <= fit.Q_minus
    if a.expect is not None:
        ok = ok and abs(fit.slope - a.expect) <= (0.3 if a.tol is None else a.tol)
    value = {"Q_minus": fit.Q_minus, "Q_plus": fit.Q_plus, "slope": fit.slope}
    return {"radii": [float(r) for r in radii], "expect": a.expect}, value, ok


def _distinf(a, space, target, nu):
    rep = dist_infinity_check(attach_infinity(target))
    return {"bound": a.bound}, rep.kappa_emp, a.bound is None or rep.kappa_emp <= a.bound


def _poincare(a, space, target, nu):
    fields = random_smooth_fields(target, a.fields, a.seed)
    centers = sample_interior(target, a.samples, a.seed + 1)
    radii = _parse_floats(a.radii) if a.radii else [1.0, 2.0]
    rep = poincare_check(target, a.p, centers, radii, fields)
    return {"lambda": rep.lam, "n_fields": a.fields}, rep.C_P, _within(rep.C_P, a.bound)


def _hardy(a, space, target, nu):
    worst = max(hardy_check(target, f) for f in random_smooth_fields(space, a.fields, a.seed))
    return {"n_fields": a.fields}, worst, _within(worst, a.bound)


def _adams(a, space, target, nu):
    if a.q is not None:
        if a.p_tilde is not None:
            raise ValueError("verify: --p-tilde is read only without --q")
        q = a.q
    else:
        beta = target.phi.beta
        if beta is None:
            raise ValueError(f"verify: --check adams with {target.phi.kind} dampening requires --q")
        qb = (beta * a.p - _exponent_fit(space, a.seed).Q_minus) / (beta - 1)
        q = adams_exponent(nu.theta, a.p, qb, p_tilde=a.p_tilde)
    fields = random_smooth_fields(target, a.fields, a.seed)
    centers = sample_boundary(space, min(a.samples, 10), a.seed + 2)
    radii = _parse_floats(a.radii) if a.radii else [0.25, 0.5]
    balls = [(c, r) for c in centers for r in radii]
    reps = [adams_check(target, nu, f, q, nu.theta, balls) for f in fields]
    worst = max([0.0] + [rep.max_ratio for rep in reps])
    return {"q": q, "n_fields": a.fields}, worst, np.isfinite(worst) and not any(rep.violations for rep in reps)


def _besov(a, space, target, nu):
    rng = np.random.default_rng(a.seed)
    b = space.boundary_indices()
    worst = 0.0
    for _ in range(a.fields):
        f1, f2 = np.zeros((2, space.n_vertices))
        f1[b], f2[b] = rng.normal(size=(2, b.size))
        n1, n2, n12 = (besov_norm(space, nu, f, a.alpha, a.p) for f in (f1, f2, f1 + f2))
        if n1 + n2 > 0:
            worst = max(worst, n12 / (n1 + n2))
    return {"alpha": a.alpha, "n_fields": a.fields}, worst, worst <= 1 + 1e-9


def _uniformity(a, space, target, nu):
    pairs = sample_pairs(target, a.samples, a.seed)
    rep = uniformity_spot_check(target, pairs)
    return {"n_pairs": len(pairs)}, rep.C_U, _within(rep.C_U, a.bound)


def _fatness(a, space, target, nu):
    centers = sample_boundary(space, a.samples, a.seed)
    radii = _parse_floats(a.radii) if a.radii else _default_radii(nu.mesh_scale)
    rep = boundary_fatness(target, nu, a.p, centers, radii, floor=a.floor)
    return {"radii": radii, "floor": a.floor}, rep.min_ratio, rep.passed


@dataclass(frozen=True)
class Check:
    """A verify check.  ``run(a, space, target, nu)`` returns its row's
    (params, value, pass); ``a`` holds only the options (argparse dests) in
    ``reads``, and ``target`` is the dampened transform when --phi is given,
    else the domain.  ``phi`` is "required", "optional" or "" (not read),
    and ``nu`` says whether --nu is required.  The transform reads --p, so
    --p is read wherever --phi is."""

    run: Callable
    reads: tuple[str, ...]
    phi: str = ""
    nu: bool = False


# The checks, in --check's order.
CHECKS = {
    "poincare": Check(_poincare, ("p", "fields", "samples", "seed", "radii", "bound"), phi="optional"),
    "hardy": Check(_hardy, ("fields", "seed", "bound"), phi="required"),
    "adams": Check(_adams, ("p", "q", "p_tilde", "fields", "samples", "seed", "radii"), phi="required", nu=True),
    "codim": Check(_codim, ("radii", "bound"), nu=True),
    "besov": Check(_besov, ("p", "fields", "seed", "alpha"), nu=True),
    "doubling": Check(_doubling, ("at_infinity", "samples", "seed", "radii", "bound"), phi="optional"),
    "exponents": Check(_exponents, ("at_infinity", "samples", "seed", "radii", "expect", "tol"), phi="optional"),
    "distinf": Check(_distinf, ("bound",), phi="required"),
    "uniformity": Check(_uniformity, ("samples", "seed", "bound"), phi="optional"),
    "fatness": Check(_fatness, ("p", "samples", "seed", "radii", "floor"), phi="required", nu=True),
}

# The options that place a sampled sweep; a sweep at infinity reads distance_to_infinity instead.
_SWEEP = ("samples", "seed", "radii")


def _verify_view(args, check: Check, default: Callable) -> argparse.Namespace:
    """The options ``check`` reads in this call, in a namespace that holds
    nothing else.  Any other verify option off its ``default`` is bad input."""
    reads = set(check.reads)
    why = {}
    if args.at_infinity and "at_infinity" in reads:
        reads -= set(_SWEEP)
        why = dict.fromkeys(_SWEEP, " with --at-infinity")
    view = argparse.Namespace(**{name: getattr(args, name) for name in check.reads if name in reads})
    reads |= {"phi"} if check.phi else set()
    reads |= {"nu"} if check.nu else set()
    if check.phi == "required" or args.phi:
        reads.add("p")
    elif check.phi:
        why["p"] = " without --phi"
    for name in dict.fromkeys(n for c in CHECKS.values() for n in ("phi", "nu", "p", *c.reads)):
        if name not in reads and getattr(args, name) != default(name):
            flag = "--" + name.replace("_", "-")
            raise ValueError(f"verify: --check {args.check} does not read {flag}{why.get(name, '')}")
    return view


def cmd_verify(args, default: Callable) -> int:
    """Run one check; ``default`` gives each verify option's default."""
    check = CHECKS[args.check]
    view = _verify_view(args, check, default)
    if args.at_infinity and not args.phi:
        raise AnalysisError("--at-infinity requires --phi (the dampened pipeline)")
    space = load_domain(args.domain)
    nu = _load_nu(args.nu) if args.nu else None
    phi = _parse_phi(args.phi) if args.phi else None
    if check.phi == "required" and phi is None:
        raise AnalysisError(f"check {args.check!r} requires --phi")
    if check.nu and nu is None:
        raise AnalysisError(f"check {args.check!r} requires --nu")
    target = transform(space, phi, args.p) if phi else space
    params, value, ok = check.run(view, space, target, nu)
    row = {"check": args.check, "params": params, "value": value, "pass": bool(ok)}
    payload = _report_payload(args, {"rows": [row], "pass": row["pass"]})
    if args.out:
        _write_rows(args.out, payload, [row])
    print(f"{row['check']}: value={row['value']} pass={row['pass']}")
    return 0 if row["pass"] else 1


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="uniformizer",
        description="Dampened-metric laboratory for unbounded graph domains",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("example", help="generate a model domain")
    p.add_argument("--name", required=True, choices=sorted(GENERATORS))
    p.add_argument("--h", type=float, required=True, help="mesh width (must divide 1)")
    p.add_argument("--H", type=float, required=True, help="truncation extent (power of two; the window radius R for plane_minus_cantor_square)")
    p.add_argument("--level", type=int, default=None, help="cantor construction level")
    p.add_argument("--out", required=True)
    p.add_argument("--nu", default=None, help="optional path for the boundary measure JSON")
    p.set_defaults(func=cmd_example)

    p = sub.add_parser("validate-phi", help="check dampening admissibility")
    p.add_argument("--phi", required=True, help="power:B | log_power:B | tabulated:FILE")
    p.add_argument("--p", type=float, default=2.0)
    p.add_argument("--n-max", type=int, default=20)
    p.add_argument("--domain", default=None, help="use this domain's band measures")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_validate_phi)

    p = sub.add_parser("transform", help="write the dampened realization")
    p.add_argument("--domain", required=True)
    p.add_argument("--phi", required=True)
    p.add_argument("--p", type=float, default=2.0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_transform)

    p = sub.add_parser("solve", help="p-harmonic Dirichlet solve")
    p.add_argument("--domain", required=True)
    p.add_argument("--phi", default=None)
    p.add_argument("--p", type=float, default=2.0)
    p.add_argument("--data", required=True, help="JSON file | const:V | coord:x | coord:y")
    p.add_argument("--at-infinity", type=float, default=None)
    p.add_argument("--tol", type=float, default=None)
    p.add_argument("--max-iter", type=int, default=None)
    p.add_argument("--eps-schedule", default=None, help="comma list of regularization values")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_solve)

    for name, fn in (("capacity", cmd_capacity), ("modulus", cmd_modulus)):
        p = sub.add_parser(name, help=f"condenser {name}")
        p.add_argument("--domain", required=True)
        p.add_argument("--phi", default=None)
        p.add_argument("--with-infinity", action="store_true")
        p.add_argument("--p", type=float, default=2.0)
        p.add_argument("--E", required=True, help="comma list of vertex ids or @file.json")
        p.add_argument("--F", required=True)
        p.add_argument("--U", default=None)
        if name == "modulus":
            p.add_argument("--tol", type=float, default=1e-6)
            p.add_argument("--max-paths", type=int, default=200)
        else:
            # None keeps SolveOptions' tol, so the value is capacity()'s
            p.add_argument("--tol", type=float, default=None)
            p.add_argument("--max-iter", type=int, default=None)
        p.add_argument("--out", default=None)
        p.set_defaults(func=fn)

    p = sub.add_parser("classify", help="parabolic/hyperbolic verdict at infinity")
    p.add_argument("--domain", required=True)
    p.add_argument("--phi", required=True)
    p.add_argument("--p", type=float, required=True)
    p.add_argument("--shells", type=int, default=4)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tol", type=float, default=None)
    p.add_argument("--max-iter", type=int, default=None)
    p.add_argument("--with-theory", action="store_true", help="attach the exponent-formula prediction")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("verify", help="property checks with pass/fail rows")
    p.add_argument("--check", required=True, choices=list(CHECKS))
    p.add_argument("--domain", required=True)
    p.add_argument("--phi", default=None)
    p.add_argument("--p", type=float, default=2.0)
    p.add_argument("--nu", default=None)
    p.add_argument("--fields", type=int, default=20, help="random field count (random:N)")
    p.add_argument("--samples", type=int, default=8)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--radii", default=None, help="comma list")
    p.add_argument("--bound", type=float, default=None)
    p.add_argument("--expect", type=float, default=None)
    p.add_argument("--tol", type=float, default=None)
    p.add_argument("--alpha", type=float, default=0.5)
    p.add_argument("--q", type=float, default=None)
    p.add_argument("--p-tilde", type=float, default=None)
    p.add_argument("--floor", type=float, default=1e-6)
    p.add_argument("--at-infinity", action="store_true", help="center sweeps at the infinity vertex")
    p.add_argument("--out", default=None)
    p.set_defaults(func=functools.partial(cmd_verify, default=p.get_default))

    p = sub.add_parser("report", help="merge JSON reports")
    p.add_argument("--inputs", nargs="+", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_report)
    return ap


def run(argv: list[str] | None = None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        _check_numbers(args)
        return args.func(args)
    except INPUT_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> int:
    return run()


if __name__ == "__main__":
    sys.exit(main())
