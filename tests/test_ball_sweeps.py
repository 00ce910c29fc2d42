"""Ball sweeps read their rows from one engine, ``GraphSpace.distance_rows``.

Each check takes the rows of all its centers from searches limited at the
largest radius it reads, one search per block of rows.  Its report must
equal, bit for bit, the one built from an unlimited single-source search
per center.  The references are of two kinds:

* for the checks whose loop reads one row per center in center order
  (Poincare, mass exponents, trace, fatness, uniformity, Besov), the check
  itself run with ``distance_rows`` replaced by one unlimited
  ``distances_from``-style search per source;
* for the checks that reorder their work or changed how they read a row
  (doubling, Adams, codimensionality, the codimensional measure), the loop
  written out here over per-center ``distances_from`` calls.

Radii are drawn from the distances of a center, so that vertices land
exactly on ball edges: ``d == r``, ``d == 2r``, ``d == r (1 + 1e-9)``, and
the largest radius puts a vertex exactly on the check's search limit.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest

from uniformizer import domains, graphspace
from uniformizer.analysis import (
    boundary_fatness,
    doubling_constant,
    mass_exponents,
    sample_boundary,
    sample_interior,
    sample_pairs,
    uniformity_spot_check,
)
from uniformizer.dampening import power
from uniformizer.energy import _weighted_median, adams_check, besov_norm, edge_mass, poincare_check, trace
from uniformizer.graphspace import GraphSpace
from uniformizer.transform import attach_infinity, codimensional_measure, transform, verify_codimensionality

TOL = 1 + 1e-9
ENGINE = GraphSpace.distance_rows


def per_center_rows(self, sources, limit=None):
    """The rows as the checks read them one center at a time: an unlimited
    single-source search per source, whatever the limit."""
    for s in sources:
        yield from ENGINE(self, [s])


def exact(obj):
    """A report as plain values with every float spelled by ``float.hex``."""
    if dataclasses.is_dataclass(obj):
        return exact(dataclasses.asdict(obj))
    if isinstance(obj, dict):
        return {k: exact(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple, np.ndarray)):
        return [exact(v) for v in list(obj)]
    if isinstance(obj, (float, np.floating)):
        return float(obj).hex()
    if isinstance(obj, np.integer):
        return int(obj)
    return obj


def hit(d: float, factor: float) -> float | None:
    """A radius r with ``r * factor == d`` in floating point, if one is
    within one ulp of d / factor."""
    r = d / factor
    for cand in (r, np.nextafter(r, np.inf), np.nextafter(r, -np.inf)):
        if cand * factor == d:
            return float(cand)
    return None


def half_hit(d: float) -> float | None:
    """A radius r with ``2 * r * (1 + 1e-9) == d``."""
    r = hit(d, TOL)
    return None if r is None else r / 2


def edge_radii(row: np.ndarray, top, lo: float = 0.0, hi: float = math.inf) -> list[float]:
    """Four ascending radii in [lo, hi] about the center of `row`: one with a
    vertex at d == r, one at d == 2r, one at d == r (1 + 1e-9), and the
    largest, top(d), for the farthest vertex it fits."""
    ds = np.unique(row[np.isfinite(row) & (row > 0)])
    rmax = next(r for r in map(top, ds[::-1]) if r is not None and lo <= r <= hi)
    radii = []
    for kind in (lambda d: d, lambda d: d / 2, lambda d: hit(d, TOL)):
        radii.append(next(r for r in map(kind, ds) if r is not None and lo <= r < rmax and r not in radii))
    assert len(set(radii)) == 3
    return sorted(radii) + [rmax]


@pytest.fixture(scope="module")
def models():
    strip = domains.half_strip(0.25, 8.0)
    cone = domains.slit_cone(0.5, 8.0)
    return {
        "strip": (strip.space, strip.nu),
        "cone": (cone.space, cone.nu),
        "strip_dampened": (attach_infinity(transform(strip.space, power(2.0), 2.0)), strip.nu),
        "cone_dampened": (attach_infinity(transform(cone.space, power(2.0), 1.5)), cone.nu),
    }


# -- the checks, each on one model space --------------------------------------


def doubling_sweeps(space):
    """(centers, radii) of each doubling sweep: interior centers, one given
    by index, and on a space with infinity the sweep about infinity that
    ``verify --at-infinity`` makes."""
    centers = sample_interior(space, 6, 0)
    centers[1] = space.index[centers[1]]
    sweeps = [(centers, edge_radii(space.distances_from(centers[0]), lambda d: d / 2))]
    if space.infinity_index >= 0:
        sweeps.append(([space.infinity_id], edge_radii(space.distance_to_infinity(), lambda d: d / 2)))
    return sweeps


def run_doubling(space, nu):
    return [doubling_constant(space, centers, radii) for centers, radii in doubling_sweeps(space)]


def ref_doubling(space, nu):
    out = []
    for centers, radii in doubling_sweeps(space):
        per_scale, skipped, overall = [], 0, 0.0
        for r in radii:
            worst = None
            for c in centers:
                d = space.distances_from(c)
                mu_r = float(space.measure[d < r].sum())
                if mu_r <= 0:
                    skipped += 1
                    continue
                ratio = float(space.measure[d < 2 * r].sum()) / mu_r
                if worst is None or ratio > worst[1]:
                    worst = (c, ratio)
            if worst is not None:
                per_scale.append({"r": float(r), "center": worst[0], "ratio": worst[1]})
                overall = max(overall, worst[1])
        out.append({"max_ratio": overall, "per_scale": per_scale, "skipped": skipped, "bound": None, "passed": True})
    return out


def run_exponents(space, nu):
    centers = sample_interior(space, 5, 1)
    return mass_exponents(space, centers, edge_radii(space.distances_from(centers[0]), lambda d: d))


def run_poincare(space, nu):
    centers = sample_interior(space, 5, 2)
    fields = np.random.default_rng(2).normal(size=(2, space.n_vertices))
    return poincare_check(space, 2.0, centers, edge_radii(space.distances_from(centers[0]), lambda d: d / 2), fields)


def adams_balls(space):
    centers = sample_boundary(space, 4, 3)
    radii = edge_radii(space.distances_from(centers[0]), half_hit)
    # radius-major, so every center comes back after the others
    return [(c, r) for r in radii for c in centers]


def adams_field(space):
    return np.random.default_rng(3).normal(size=space.n_vertices)


def run_adams(space, nu):
    rep = adams_check(space, nu, adams_field(space), 3.0, nu.theta, adams_balls(space))
    assert rep.rows
    return rep


def ref_adams(space, nu):
    masses, p, q, theta = edge_mass(space), space.p, 3.0, nu.theta
    vals, nu_arr = adams_field(space), nu.array(space)
    out = {"q": q, "theta": theta, "rows": [], "skipped": [], "violations": []}
    for center, r in adams_balls(space):
        d = space.distances_from(center)
        in_ball = d <= r * TOL
        bsel = in_ball & (nu_arr > 0)
        mu_ball = float(space.measure[in_ball].sum())
        if not bsel.any():
            out["skipped"].append({"center": center, "r": r, "reason": "no boundary mass in ball"})
            continue
        if mu_ball <= 0:
            out["skipped"].append({"center": center, "r": r, "reason": "zero-measure ball"})
            continue
        w, uv = nu_arr[bsel], vals[bsel]
        lhs = float((w * np.abs(uv - _weighted_median(uv, w)) ** q).sum()) ** (1.0 / q)
        in_2b = d <= 2 * r * TOL
        emask = in_2b[space.edge_u] & in_2b[space.edge_v]
        g = np.abs(vals[space.edge_u[emask]] - vals[space.edge_v[emask]])
        g /= space.edge_length[emask]
        energy = float((masses[emask] * g**p).sum())
        rhs = r ** (1.0 - theta / q) / mu_ball ** (1.0 / p - 1.0 / q) * energy ** (1.0 / p)
        if rhs == 0:
            if lhs > 0:
                out["violations"].append({"center": center, "r": r, "lhs": lhs})
            ratio = 0.0
        else:
            ratio = lhs / rhs
        out["rows"].append({"center": center, "r": r, "lhs": lhs, "rhs": rhs, "ratio": ratio})
    return out


def run_trace(space, nu):
    fine = dataclasses.replace(nu, mesh_scale=1e-6)  # admits every radius
    row = space.distances_from(space.index[next(iter(nu.nu))])
    # from the nearest interior vertex on, so that every ball is resolved
    radii = edge_radii(row, lambda d: hit(d, TOL), lo=row[space.interior_mask].min())[::-1]
    rep = trace(space, np.random.default_rng(4).normal(size=space.n_vertices), fine, radii)
    assert np.isfinite(rep.values).all()
    return rep


def codim_radii(space, nu):
    return edge_radii(space.distances_from(int(space.boundary_indices()[0])), lambda d: hit(d, TOL))


def run_codim(space, nu):
    return verify_codimensionality(space, nu, codim_radii(space, nu))


def ref_codim(space, nu):
    radii = codim_radii(space, nu)
    nu_vec = nu.array(space)
    rows, skipped = [], 0
    for c in space.boundary_indices():
        dist = space.distances_from(c, limit=radii[-1] * TOL)
        idx = np.nonzero(np.isfinite(dist))[0]
        dist = dist[idx]
        for r in radii:
            inside = idx[dist <= r * TOL]
            mass = float(space.measure[inside[space.interior_mask[inside]]].sum())
            nu_mass = float(nu_vec[inside[space.boundary_mask[inside]]].sum())
            if mass <= 0 or nu_mass <= 0:
                skipped += 1
                continue
            rows.append({"center": space.ids[c], "r": r, "ratio": nu_mass * r**nu.theta / mass})
    ratios = np.array([row["ratio"] for row in rows])
    lo, hi = float(ratios.min()), float(ratios.max())
    return {
        "theta": nu.theta, "rows": rows, "ratio_min": lo, "ratio_max": hi,
        "spread": hi / lo, "bound": 16.0, "skipped": skipped, "passed": bool(hi / lo <= 16.0),
    }


def measure_scale(space):
    """The mesh scale h of a codimensional measure, with a vertex at
    distance exactly h (1 + 1e-9) from the first boundary vertex."""
    row = space.distances_from(int(space.boundary_indices()[0]))
    ds = np.unique(row[row > 0])
    return next(h for h in map(lambda d: hit(d, TOL), ds[ds >= 2 * ds[0]]) if h is not None)


def run_measure(space, nu):
    return codimensional_measure(space, nu.theta, measure_scale(space))


def ref_measure(space, nu):
    h = measure_scale(space)
    bidx = space.boundary_indices()
    raw = np.empty(len(bidx))
    for j, b in enumerate(bidx):
        dist = space.distances_from(int(b), limit=h * TOL)
        idx = np.nonzero(np.isfinite(dist))[0]
        raw[j] = space.measure[idx[space.interior_mask[idx]]].sum() / h**nu.theta
    scale = space.bands().measure(0) / raw.sum()
    weights = {space.ids[int(b)]: float(raw[j] * scale) for j, b in enumerate(bidx)}
    return {"theta": float(nu.theta), "mesh_scale": float(h), "nu": weights}


def run_fatness(space, nu):
    centers = sample_boundary(space, 3, 5)
    radii = edge_radii(space.distances_from(centers[0]), half_hit, hi=1.0)
    return boundary_fatness(space, nu, space.p, centers, radii)


def run_uniformity(space, nu):
    return uniformity_spot_check(space, sample_pairs(space, 4, 6))


def run_besov(space, nu):
    rng = np.random.default_rng(7)
    f = np.zeros(space.n_vertices)
    f[nu.array(space) > 0] = rng.normal(size=len(nu.nu))
    return besov_norm(space, nu, f, 0.5, 2.0)


BASE = ("strip", "cone", "strip_dampened", "cone_dampened")
DAMPENED = ("strip_dampened", "cone_dampened")
CHECKS = {
    "doubling": (run_doubling, ref_doubling, BASE),
    "exponents": (run_exponents, None, BASE),
    "poincare": (run_poincare, None, BASE),
    "adams": (run_adams, ref_adams, DAMPENED),
    "trace": (run_trace, None, BASE),
    "codim": (run_codim, ref_codim, BASE),
    "measure": (run_measure, ref_measure, BASE),
    "fatness": (run_fatness, None, DAMPENED),
    "uniformity": (run_uniformity, None, BASE),
    "besov": (run_besov, None, BASE),
}
CASES = [(check, model) for check, (_, _, on) in CHECKS.items() for model in on]


@pytest.mark.parametrize("chunk", [graphspace.ROW_CHUNK_FLOATS, 1000], ids=["one-block", "small-blocks"])
@pytest.mark.parametrize("check,model", CASES, ids=[f"{c}-{m}" for c, m in CASES])
def test_sweep_equals_per_center_searches(models, monkeypatch, check, model, chunk):
    """Limited rows in blocks give every report bit for bit; blocks of 1000
    floats split each sweep over several searches."""
    run, ref, _ = CHECKS[check]
    space, nu = models[model]
    monkeypatch.setattr(graphspace, "ROW_CHUNK_FLOATS", chunk)
    got = exact(run(space, nu))
    if ref is None:
        monkeypatch.setattr(GraphSpace, "distance_rows", per_center_rows)
        ref = run
    assert got == exact(ref(space, nu))


def test_edge_radii_put_vertices_on_ball_edges(models):
    space, _ = models["cone_dampened"]
    row = space.distances_from(space.boundary_indices()[0])
    for top, edge in ((lambda d: d, lambda r: r), (lambda d: d / 2, lambda r: 2 * r), (half_hit, lambda r: 2 * r * TOL)):
        radii = edge_radii(row, top)
        for on_edge in (lambda r: r, lambda r: 2 * r, lambda r: r * TOL):
            assert any((row == on_edge(r)).any() for r in radii[:3])
        assert (row == edge(radii[-1])).any() and radii == sorted(radii)


def test_doubling_sweep_searches_once_per_block(monkeypatch):
    """64 centers and 4 radii on a 16,641-vertex domain: one search per
    block of rows, not one per center and radius."""
    space = domains.plane_minus_cantor_square(0.25, 16.0, 1).space
    centers = sample_interior(space, 64, 0)
    calls = []
    search = GraphSpace._search

    def counted(self, *args, **kwargs):
        calls.append(np.size(args[0]))
        return search(self, *args, **kwargs)

    monkeypatch.setattr(GraphSpace, "_search", counted)
    doubling_constant(space, centers, [0.5, 1.0, 2.0, 4.0])
    step = graphspace.ROW_CHUNK_FLOATS // space.n_vertices
    assert len(calls) == math.ceil(len(centers) / step) == 2
    assert sum(calls) == 64


def test_boundary_diameter_is_swept_once_per_base(monkeypatch):
    """Two transforms of one base and a fatness check on it read one double
    sweep, two single-source searches, between them: the frozen base keeps
    its boundary diameter as it keeps its boundary distances."""
    strip = domains.half_strip(0.25, 8.0)
    base = strip.space
    centers = sample_boundary(base, 3, 5)
    sweeps = []
    search = GraphSpace.distances_from

    def counted(self, *args, **kwargs):
        sweeps.append(self)
        return search(self, *args, **kwargs)

    monkeypatch.setattr(GraphSpace, "distances_from", counted)
    transform(base, power(2.0), 2.0)
    transform(base, power(2.0), 1.5)
    boundary_fatness(base, strip.nu, 2.0, centers, [0.25, 0.5])
    assert len(sweeps) == 2
    assert all(space is base for space in sweeps)
