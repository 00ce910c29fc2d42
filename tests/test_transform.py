"""Dampened realizations: reweighting identities, the point at infinity,
and codimension-theta boundary measures.

The reweights are defined by exact per-edge identities, so most assertions
recompute them from the base domain and compare at rounding tolerance.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from uniformizer.dampening import edge_weight, power, tail_integral
from uniformizer.energy import edge_mass, p_energy, upper_gradient
from uniformizer.graphspace import GraphSpace
from uniformizer.transform import (
    TransformError,
    attach_infinity,
    codimensional_measure,
    local_distances,
    transform,
    verify_codimensionality,
)


@pytest.fixture(scope="module")
def strip_transform(strip_small):
    return transform(strip_small.space, power(2.0), 2.0)


# ---------------------------------------------------------------------------
# reweighting identities


def test_edge_lengths_follow_representative_distance(strip_small, strip_transform):
    space = strip_small.space
    ts = strip_transform
    d = space.boundary_distance_array()
    rep = 0.5 * (d[space.edge_u] + d[space.edge_v])
    np.testing.assert_allclose(ts.edge_rep_dist, rep, atol=1e-14)
    expected = space.edge_length * edge_weight(power(2.0), rep)
    np.testing.assert_allclose(ts.edge_length, expected, rtol=1e-14)


def test_vertex_measures_follow_boundary_distance(strip_small, strip_transform):
    space = strip_small.space
    d = space.boundary_distance_array()
    w = np.minimum(1.0, np.where(d > 0, d, 1.0) ** -2.0)
    np.testing.assert_allclose(strip_transform.measure, space.measure * w**2, rtol=1e-14)


def test_edge_masses_follow_representative_distance(strip_small, strip_transform):
    space = strip_small.space
    ts = strip_transform
    w = edge_weight(power(2.0), ts.edge_rep_dist)
    np.testing.assert_allclose(edge_mass(ts), edge_mass(space) * w**2, rtol=1e-14)


def test_dyadic_spot_reweights(strip_small, strip_transform):
    # a vertical edge straddling height 4 has representative distance exactly
    # 4, so its length shrinks by 1/16 and its mass by 1/256 at p = 2
    space = strip_small.space
    ts = strip_transform
    at4 = np.nonzero(np.abs(ts.edge_rep_dist - 4.0) < 1e-12)[0]
    assert at4.size > 0
    np.testing.assert_allclose(
        ts.edge_length[at4] / space.edge_length[at4], 1.0 / 16.0, rtol=1e-14
    )
    np.testing.assert_allclose(
        edge_mass(ts)[at4] / edge_mass(space)[at4], 1.0 / 256.0, rtol=1e-14
    )


def test_band_zero_is_isometric(strip_small, strip_transform):
    space = strip_small.space
    ts = strip_transform
    near = ts.edge_rep_dist <= 1.0
    assert near.any()
    np.testing.assert_array_equal(ts.edge_length[near], space.edge_length[near])


def test_conductance_invariance(strip_small, strip_transform):
    # m_phi / l_phi^p == m / l^p edge by edge: the dampening cancels out of
    # the p-Dirichlet objective, which is what makes the solve transferable
    space = strip_small.space
    ts = strip_transform
    base = edge_mass(space) / space.edge_length**2.0
    damp = edge_mass(ts) / ts.edge_length**2.0
    np.testing.assert_allclose(damp, base, rtol=1e-12)


def test_chain_rule_and_energy_identity(strip_small, strip_transform):
    space = strip_small.space
    ts = strip_transform
    rng = np.random.default_rng(5)
    u = rng.normal(size=space.n_vertices)
    g_base = upper_gradient(space, u)
    g_damp = upper_gradient(ts, u)
    w = edge_weight(power(2.0), ts.edge_rep_dist)
    np.testing.assert_allclose(g_damp * w, g_base, rtol=1e-12)
    assert p_energy(ts, u, 2.0) == pytest.approx(p_energy(space, u, 2.0), rel=1e-12)


@pytest.mark.parametrize("p", [1.5, 3.0])
def test_energy_identity_other_exponents(strip_small, p):
    space = strip_small.space
    ts = transform(space, power(2.0), p)
    rng = np.random.default_rng(11)
    u = rng.normal(size=space.n_vertices)
    assert p_energy(ts, u, p) == pytest.approx(p_energy(space, u, p), rel=1e-12)


# ---------------------------------------------------------------------------
# the point at infinity


def test_attach_infinity_geometry(strip_small, strip_transform):
    space = strip_small.space
    g = attach_infinity(strip_transform)
    assert g.infinity_id == "infinity"
    assert g.n_vertices == space.n_vertices + 1
    assert g.measure[g.infinity_index] == 0.0
    # new edges join infinity to the outermost band only, with the dampened
    # length of the remaining radial ray: tail integral of phi past d(v)
    bands = space.bands()
    outer = np.nonzero((bands.band_index == bands.n_max) & space.interior_mask)[0]
    new = slice(space.n_edges, g.n_edges)
    assert g.n_edges - space.n_edges == outer.size
    d = space.boundary_distance_array()
    for k, v in enumerate(g.edge_v[new]):
        assert g.edge_length[new][k] == pytest.approx(
            tail_integral(power(2.0), float(d[v])), rel=1e-12
        )


def test_distance_to_infinity_bounded_by_tail(strip_small, strip_transform):
    # every vertex sees infinity within tail(d(v)) + its dampened height gap,
    # and the whole domain sits within the full tail integral of phi
    ts = attach_infinity(strip_transform)
    dist = ts.distance_to_infinity()
    finite = dist[: ts.base.n_vertices]
    assert np.isfinite(finite).all()
    assert finite.max() <= 2.0 + 1e-9  # integral of min(1, t^-2) over (0, inf)
    d = ts.base.boundary_distance_array()
    # farther from the boundary means closer to infinity (radial monotonicity
    # along each column; check on the strip's center column)
    col = [ts.base.index[f"v4_{j}"] for j in range(0, 65, 8)]
    assert all(dist[a] > dist[b] for a, b in zip(col, col[1:]) if d[a] < d[b])


def test_attach_infinity_guards(strip_transform):
    ts = attach_infinity(strip_transform)
    with pytest.raises(TransformError, match="attached"):
        attach_infinity(ts)
    with pytest.raises(TransformError, match="carries an infinity"):
        transform(ts, power(2.0), 2.0)


def test_transform_rejects_small_p(strip_small):
    with pytest.raises(TransformError):
        transform(strip_small.space, power(2.0), 0.5)


def test_transform_rejects_unbounded_boundary():
    # a long path with boundary endpoints 100 apart exceeds the default bound
    n = 101
    ids = [f"x{i}" for i in range(n)]
    flags = [True] + [False] * (n - 2) + [True]
    measures = [0.0] + [1.0] * (n - 2) + [0.0]
    edges = [(ids[i], ids[i + 1], 1.0) for i in range(n - 1)]
    space = GraphSpace(ids, measures, flags, edges)
    with pytest.raises(TransformError, match="diameter"):
        transform(space, power(2.0), 2.0)


# ---------------------------------------------------------------------------
# codimension-theta boundary measures


def test_codimensional_measure_strip():
    from uniformizer.domains import half_strip

    bundle = half_strip(0.125, 8.0)
    space = bundle.space
    nu = codimensional_measure(space, 1.0, 0.125)
    boundary_ids = {space.ids[i] for i in space.boundary_indices()}
    assert set(nu.nu) == boundary_ids
    assert all(v > 0 for v in nu.nu.values())
    rep = verify_codimensionality(space, nu, radii=[0.5, 1.0])
    assert rep.passed
    assert rep.spread <= 16.0
    assert rep.ratio_min > 0


def test_codimensional_measure_normalization_and_theta_response():
    from uniformizer.domains import half_strip

    bundle = half_strip(0.125, 8.0)
    space = bundle.space
    nu1 = codimensional_measure(space, 1.0, 0.125)
    # total nu mass is pinned to the band-0 interior measure
    assert sum(nu1.nu.values()) == pytest.approx(space.bands().measure(0), rel=1e-12)
    # a straight codim-1 boundary is uniformly weighted: each bottom vertex
    # sees exactly one interior vertex at mesh scale, so nu(v) = h everywhere
    vals = np.array(list(nu1.nu.values()))
    np.testing.assert_allclose(vals, 0.125, rtol=1e-12)
    # the wrong codimension shows up as a radius-dependent drift of the
    # calibration ratio nu(B) r^theta / mu(B), here by (r2/r1)^(theta-1) = 4
    rep1 = verify_codimensionality(space, nu1, radii=[0.25, 1.0])
    nu2 = codimensional_measure(space, 2.0, 0.125)
    rep2 = verify_codimensionality(space, nu2, radii=[0.25, 1.0])
    assert rep2.spread / rep1.spread == pytest.approx(4.0, rel=0.5)


def test_local_distances_matches_global(strip_small):
    space = strip_small.space
    center = space.index["v4_8"]
    idx, dist = local_distances(space, center, 1.5)
    full = space.distances_from(center)
    np.testing.assert_allclose(dist, full[idx], atol=1e-12)
    assert (dist <= 1.5 + 1e-12).all()
    # everything inside the radius is present
    inside = np.nonzero(full <= 1.5)[0]
    assert set(inside).issubset(set(idx))
