"""Tests for sampling, scaling diagnostics, and the parabolicity classifier."""

from __future__ import annotations

import math

import numpy as np
import pytest

from uniformizer import analysis, domains
from uniformizer.analysis import AnalysisError
from uniformizer.dampening import power, tail_integral
from uniformizer.transform import attach_infinity, transform


# ---------------------------------------------------------------------------
# deterministic sampling


def test_sample_interior_deterministic(strip_small):
    got = analysis.sample_interior(strip_small.space, 4, 0)
    assert got == ["v2_18", "v5_33", "v5_41", "v1_55"]
    assert analysis.sample_interior(strip_small.space, 4, 0) == got
    assert analysis.sample_interior(strip_small.space, 4, 1) != got


def test_sample_boundary_deterministic(strip_small):
    got = analysis.sample_boundary(strip_small.space, 4, 0)
    assert got == ["v2_0", "v4_0", "v5_0", "v7_0"]
    # the half strip's boundary is the bottom row only
    assert all(name.endswith("_0") for name in got)


def test_sample_pairs_disjoint(strip_small):
    pairs = analysis.sample_pairs(strip_small.space, 5, 3)
    assert pairs == [
        ("v8_51", "v1_38"),
        ("v3_56", "v3_12"),
        ("v1_52", "v3_6"),
        ("v4_3", "v4_12"),
        ("v0_7", "v8_15"),
    ]
    flat = [v for pair in pairs for v in pair]
    assert len(set(flat)) == len(flat)


# ---------------------------------------------------------------------------
# doubling constant


def test_doubling_strip(strip_small):
    centers = analysis.sample_interior(strip_small.space, 2, 0)
    assert centers == ["v6_41", "v3_55"]
    rep = analysis.doubling_constant(strip_small.space, centers, [0.5, 1.0])
    assert rep.max_ratio == pytest.approx(5.0)
    assert rep.passed and rep.bound is None and rep.skipped == 0
    assert [row["r"] for row in rep.per_scale] == [0.5, 1.0]
    for row in rep.per_scale:
        assert row["ratio"] >= 1.0
        assert row["center"] in centers


def test_doubling_hand_ratio(strip_small):
    # independent count: open balls around a deep interior vertex
    g = strip_small.space
    d = g.distances_from(g.index["v3_55"])
    mu_half = float(g.measure[d < 0.5].sum())
    mu_one = float(g.measure[d < 1.0].sum())
    rep = analysis.doubling_constant(g, ["v3_55"], [0.5])
    assert rep.max_ratio == pytest.approx(mu_one / mu_half)


def test_doubling_bound_fails(strip_small):
    centers = analysis.sample_interior(strip_small.space, 2, 0)
    rep = analysis.doubling_constant(strip_small.space, centers, [0.5, 1.0], bound=4.0)
    assert not rep.passed
    assert rep.bound == 4.0


def test_doubling_all_empty_raises(strip_small):
    # a tiny open ball around a boundary vertex carries no measure
    with pytest.raises(AnalysisError, match="empty"):
        analysis.doubling_constant(strip_small.space, ["v4_0"], [1e-6])


# ---------------------------------------------------------------------------
# mass exponents


def test_mass_exponents_planar():
    # deep interior of the plane-with-obstacle grid: ball mass scales like r^2
    bundle = domains.plane_minus_cantor_square(0.25, 8.0, 1)
    centers = analysis.sample_interior(bundle.space, 3, 1)
    fit = analysis.mass_exponents(bundle.space, centers, [0.5, 1.0, 2.0])
    assert abs(fit.slope - 2.0) <= 0.35
    assert fit.Q_plus <= fit.slope <= fit.Q_minus
    assert fit.fit_residual < 0.1


def test_mass_exponents_strip_saturates(strip_small):
    # balls wider than the strip grow linearly, dragging the slope below 2
    centers = analysis.sample_interior(strip_small.space, 3, 0)
    fit = analysis.mass_exponents(strip_small.space, centers, [1.0, 2.0, 4.0])
    assert 1.2 < fit.slope < 1.8
    assert fit.Q_plus < fit.Q_minus


def test_mass_exponents_needs_three_radii(strip_small):
    with pytest.raises(AnalysisError, match="3 radii"):
        analysis.mass_exponents(strip_small.space, ["v4_8"], [1.0, 2.0])


# ---------------------------------------------------------------------------
# exponent interval arithmetic


def test_q_beta_worked_example():
    lo, hi = analysis.q_beta(2.0, 2.0, (1.8, 2.0))
    assert lo == pytest.approx(2.0)
    assert hi == pytest.approx(2.2)


def test_q_beta_point_mass_exponent():
    # with a single mass exponent Q the interval collapses
    lo, hi = analysis.q_beta(3.0, 1.5, (2.0, 2.0))
    assert lo == pytest.approx(hi) == pytest.approx((1.5 * 3.0 - 2.0) / 0.5)


def test_q_beta_guards():
    with pytest.raises(AnalysisError, match="exceed 1"):
        analysis.q_beta(2.0, 1.0, (2.0, 2.0))
    with pytest.raises(AnalysisError, match="violated"):
        analysis.q_beta(1.0, 2.0, (2.0, 2.0))


def test_q_beta_hyperbolicity_equivalence():
    # p above the upper transformed exponent exactly when p is below Q
    for q in (1.7, 2.0, 2.6):
        for beta in (1.5, 2.0, 3.0):
            for p in (1.2, 1.8, 2.2, 3.1, 4.0):
                if beta * p <= q:
                    continue
                _, upper = analysis.q_beta(p, beta, (q, q))
                assert (p > upper) == (p < q) or p == q


# ---------------------------------------------------------------------------
# distance to the attached point at infinity


def test_dist_infinity_strip(strip_small):
    t = attach_infinity(transform(strip_small.space, power(2.0), 2.0))
    rep = analysis.dist_infinity_check(t)
    assert sorted(rep.per_band) == [1, 2, 3, 4]
    for m in rep.per_band:
        row = rep.per_band[m]
        # bands halve in width going inward, so vertex counts double
        assert row["count"] == 36 * 2 ** (m - 1)
        assert row["min"] > 0.99
        assert row["max"] < 2.0
    worst = max(
        max(row["max"], 1.0 / row["min"]) for row in rep.per_band.values()
    )
    assert rep.kappa_emp == pytest.approx(worst)
    assert rep.kappa_emp == pytest.approx(1.9392659225090516, rel=1e-9)


def test_dist_infinity_top_row_equals_tail(strip_small):
    # from the truncation height the cheapest route is the direct jump,
    # whose dampened length is the tail integral of the profile
    phi = power(2.0)
    t = attach_infinity(transform(strip_small.space, phi, 2.0))
    d_inf = t.distance_to_infinity()
    idx = t.base.index["v4_64"]
    assert d_inf[idx] == pytest.approx(tail_integral(phi, 16.0), rel=1e-12)
    assert tail_integral(phi, 16.0) == pytest.approx(1.0 / 16.0)


# ---------------------------------------------------------------------------
# parabolicity classifier


def test_classify_strip_parabolic(strip_small):
    t = attach_infinity(transform(strip_small.space, power(2.0), 2.0))
    rep = analysis.classify_parabolicity(t, 2.0)
    assert rep.verdict == "Parabolic"
    assert rep.R == pytest.approx(0.99745, rel=1e-3)
    caps = [s["cap"] for s in rep.shells]
    assert len(caps) == 4
    assert all(a >= b > 0 for a, b in zip(caps, caps[1:]))
    assert rep.spread > 4.0
    assert set(rep.shells[0]) == {"k", "r", "cap"}


def test_classify_cone_hyperbolic(cone_small):
    t = attach_infinity(transform(cone_small.space, power(2.0), 1.5))
    rep = analysis.classify_parabolicity(t, 1.5)
    assert rep.verdict == "Hyperbolic"
    caps = [s["cap"] for s in rep.shells]
    assert min(caps) >= 0.1 * max(caps)


def test_classify_cone_deep_parabolic():
    bundle = domains.slit_cone(0.5, 32.0)
    t = attach_infinity(transform(bundle.space, power(2.0), 3.0))
    rep = analysis.classify_parabolicity(t, 3.0)
    assert rep.verdict == "Parabolic"
    caps = [s["cap"] for s in rep.shells]
    assert all(a > b > 0 for a, b in zip(caps, caps[1:]))
    assert rep.power_fit["slope"] > 0.5


def test_classify_shallow_truncation_is_indeterminate(strip_small):
    # at p = 3 the deepest shells hit the resolution floor of this shallow
    # truncation and stall, so the classifier declines to call it
    t = attach_infinity(transform(strip_small.space, power(2.0), 3.0))
    rep = analysis.classify_parabolicity(t, 3.0)
    assert rep.verdict == "Indeterminate"
    caps = [s["cap"] for s in rep.shells]
    assert caps[-1] == pytest.approx(caps[-2], rel=1e-9)


# ---------------------------------------------------------------------------
# uniformity spot check


def test_uniformity_sampled_pairs(strip_small):
    pairs = analysis.sample_pairs(strip_small.space, 5, 3)
    rep = analysis.uniformity_spot_check(strip_small.space, pairs)
    assert len(rep.rows) == 5
    assert rep.flags == []
    assert rep.C_U == pytest.approx(1.0)
    for row in rep.rows:
        assert set(row) == {"pair", "length_ratio", "cigar_ratio"}
        assert row["length_ratio"] >= 1.0 - 1e-12


def test_uniformity_wall_hugging_pair(strip_small):
    # crossing low above the closed end forces a poor cigar ratio: the
    # midpoint sits 3 units of path from either end but only 0.25 from
    # the boundary after rescaling by the mesh
    rep = analysis.uniformity_spot_check(strip_small.space, [("v1_1", "v7_1")])
    assert rep.C_U == pytest.approx(3.0)
    row = rep.rows[0]
    assert row["length_ratio"] == pytest.approx(1.0)
    assert row["cigar_ratio"] == pytest.approx(3.0)
