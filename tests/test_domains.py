"""Tests for the built-in domain generators."""

from __future__ import annotations

import json
import math

import numpy as np
import pytest

from uniformizer import domains
from uniformizer.graphspace import DomainFormatError


def test_cantor_intervals_level_one():
    cells = domains.cantor_intervals(1)
    np.testing.assert_allclose(cells, [(0.0, 1.0 / 3.0), (2.0 / 3.0, 1.0)], atol=1e-15)


def test_cantor_intervals_scaling():
    for level in (1, 2, 3):
        cells = domains.cantor_intervals(level)
        assert len(cells) == 2**level
        total = sum(b - a for a, b in cells)
        assert total == pytest.approx((2.0 / 3.0) ** level)
        assert all(a < b for a, b in cells)


def test_cantor_intervals_guard():
    with pytest.raises(DomainFormatError, match=">= 1"):
        domains.cantor_intervals(0)


def test_half_strip_counts(strip_small):
    g = strip_small.space
    nx, ny = 9, 65
    assert g.n_vertices == nx * ny == 585
    assert int(g.boundary_mask.sum()) == nx
    # 4-neighbor grid: one horizontal edge short per row, one vertical per column
    assert g.edge_u.size == 2 * nx * ny - nx - ny
    assert g.ids[0] == "v0_0" and g.ids[-1] == "v8_64"
    np.testing.assert_allclose(g.edge_length, 0.25)


def test_half_strip_distance_is_height(strip_small):
    g = strip_small.space
    ys = g.coords[:, 1]
    np.testing.assert_allclose(g.boundary_distance_array(), ys)


def test_half_strip_measures(strip_small):
    g = strip_small.space
    assert np.all(g.measure[g.boundary_mask] == 0.0)
    interior_total = float(g.measure[g.interior_mask].sum())
    assert interior_total == pytest.approx((585 - 9) * 0.25**2)


def test_slit_cone_shape(cone_small):
    g = cone_small.space
    assert g.n_vertices == 1221
    # the slit [-1, 1] x {0} holds 2/h + 1 vertices
    assert int(g.boundary_mask.sum()) == 5
    assert g.ids[0] == "v-2_0" and g.ids[-1] == "v34_32"
    xs = g.coords[:, 0]
    ys = g.coords[:, 1]
    assert np.all(ys >= np.maximum(0.0, np.abs(xs) - 1.0) - 1e-9)


def test_slit_cone_distance_formula(cone_small):
    # inside the slit's shadow the distance is the height; outside it the
    # path must also cover the horizontal overhang
    g = cone_small.space
    xs = g.coords[:, 0]
    ys = g.coords[:, 1]
    expect = np.where(np.abs(xs) <= 1.0 + 1e-9, ys, np.abs(xs) - 1.0 + ys)
    np.testing.assert_allclose(g.boundary_distance_array(), expect)


def test_theta_values(strip_small, cone_small):
    assert strip_small.theta == 1.0
    assert cone_small.theta == 1.0
    log_ratio = math.log(2.0) / math.log(3.0)
    assert domains.THETA_CANTOR_SLIT == pytest.approx(2.0 - log_ratio)
    assert domains.THETA_CANTOR_SQUARE == pytest.approx(2.0 * (1.0 - log_ratio))
    assert domains.THETA_CANTOR_SLIT == pytest.approx(1.3690702464285427, rel=1e-15)


def test_bundled_nu_matches_codimension(strip_small, cone_small):
    # the generators ship the codimension-normalized weight: total boundary
    # weight equals the interior mass of the innermost dyadic band
    for bundle in (strip_small, cone_small):
        g = bundle.space
        d = g.boundary_distance_array()
        band0 = float(g.measure[(d <= 1.0) & g.interior_mask].sum())
        assert sum(bundle.nu.nu.values()) == pytest.approx(band0)
        assert bundle.nu.theta == bundle.theta


def test_cantor_slit_weights():
    bundle = domains.cantor_slit(0.25, 8.0, 1)
    assert bundle.space.n_vertices == 1353
    # two cells, three grid columns each, equal split of mass 1/2
    assert int(bundle.space.boundary_mask.sum()) == 6
    values = set(bundle.nu.nu.values())
    assert len(values) == 1
    assert values.pop() == pytest.approx(1.0 / 6.0)
    assert sum(bundle.nu.nu.values()) == pytest.approx(1.0)
    assert bundle.theta == domains.THETA_CANTOR_SLIT


def test_cantor_slit_gaps_stay_interior():
    bundle = domains.cantor_slit(0.25, 8.0, 1)
    g = bundle.space
    # x = 0 lies in the removed middle third, so the slit row stays interior
    i = g.index["v0_0"]
    assert not g.boundary_mask[i]
    assert g.measure[i] == pytest.approx(0.25**2)


def test_cantor_level_unresolvable():
    with pytest.raises(DomainFormatError, match="unresolvable"):
        domains.cantor_slit(0.5, 8.0, 1)
    with pytest.raises(DomainFormatError, match="unresolvable"):
        domains.cantor_slit(0.25, 8.0, 2)
    with pytest.raises(DomainFormatError, match="unresolvable"):
        domains.plane_minus_cantor_square(0.25, 8.0, 2)


def test_plane_minus_cantor_square_structure():
    bundle = domains.plane_minus_cantor_square(0.25, 8.0, 1)
    g = bundle.space
    assert g.n_vertices == 65 * 65
    assert sum(bundle.nu.nu.values()) == pytest.approx(1.0)
    # solid cells must not be traversable: no edge joins two boundary vertices
    both = g.boundary_mask[g.edge_u] & g.boundary_mask[g.edge_v]
    assert int(both.sum()) == 0
    assert bundle.theta == domains.THETA_CANTOR_SQUARE


def test_mesh_and_extent_guards():
    with pytest.raises(DomainFormatError, match="divide"):
        domains.half_strip(0.3, 16.0)
    with pytest.raises(DomainFormatError, match="power of two"):
        domains.half_strip(0.25, 12.0)
    with pytest.raises(DomainFormatError, match="power of two"):
        domains.half_strip(0.25, 4.0)
    with pytest.raises(DomainFormatError, match=r"\(0, 1\]"):
        domains.half_strip(0.0, 16.0)
    with pytest.raises(DomainFormatError, match="R=12"):
        domains.plane_minus_cantor_square(0.25, 12.0, 1)


def test_generate_dispatch_and_determinism(strip_small):
    via_name = domains.generate("half_strip", h=0.25, H=16.0)
    a = json.dumps(via_name.space.to_payload(), sort_keys=True)
    b = json.dumps(strip_small.space.to_payload(), sort_keys=True)
    assert a == b
    assert via_name.params == {"name": "half_strip", "h": 0.25, "H": 16.0}


def test_generate_unknown_name():
    with pytest.raises(DomainFormatError, match="choose from"):
        domains.generate("moebius_band", h=0.25, H=16.0)
