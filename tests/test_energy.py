"""Energy functionals, gradients, boundary norms, and embedding checks.

The 4-cycle oracle below is fully hand-computed: with lengths 1, 2, 3, 4 and
measures (0, 1, 2, 1/2), the length sums are S = (5, 3, 5, 7) and the edge
masses l * (mu_u/S_u + mu_v/S_v) come out to 1/3, 22/15, 99/70, 2/7.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from scipy.sparse import csgraph

from uniformizer import domains
from uniformizer.dampening import power
from uniformizer.energy import (
    EnergyError,
    adams_check,
    adams_exponent,
    besov_norm,
    edge_mass,
    field_array,
    hardy_check,
    p_energy,
    poincare_check,
    random_smooth_fields,
    trace,
    upper_gradient,
)
from uniformizer.graphspace import GraphSpace
from uniformizer.solver import DirichletProblem, solve_p_harmonic
from uniformizer.transform import (
    BoundaryMeasure,
    TransformError,
    attach_infinity,
    codimensional_measure,
    transform,
)


def cycle_space() -> GraphSpace:
    return GraphSpace(
        ids=["a", "b", "c", "d"],
        measures=[0.0, 1.0, 2.0, 0.5],
        boundary_flags=[True, False, False, False],
        edges=[("a", "b", 1.0), ("b", "c", 2.0), ("c", "d", 3.0), ("d", "a", 4.0)],
    )


CYCLE_MASSES = np.array([1.0 / 3.0, 22.0 / 15.0, 99.0 / 70.0, 2.0 / 7.0])


def two_atom_boundary(L: float) -> tuple[GraphSpace, BoundaryMeasure]:
    """Two boundary vertices at distance L joined through one interior vertex."""
    space = GraphSpace(
        ids=["zl", "m", "zr"],
        measures=[0.0, 1.0, 0.0],
        boundary_flags=[True, False, True],
        edges=[("zl", "m", L / 2.0), ("m", "zr", L / 2.0)],
    )
    nu = BoundaryMeasure(theta=1.0, mesh_scale=L / 2.0, nu={"zl": 1.0, "zr": 1.0})
    return space, nu


# ---------------------------------------------------------------------------
# masses, gradients, energies


def test_edge_mass_hand_computed():
    np.testing.assert_allclose(edge_mass(cycle_space()), CYCLE_MASSES, rtol=1e-14)


def test_edge_mass_slot_is_read_only(strip_small):
    ts = attach_infinity(transform(strip_small.space, power(2.0), 2.0))
    for space in (cycle_space(), ts):
        m = edge_mass(space)
        with pytest.raises(ValueError, match="read-only"):
            m[0] = -1.0
        assert edge_mass(space) is m


def test_upper_gradient_is_difference_quotient():
    space = cycle_space()
    u = np.array([0.0, 1.0, -1.0, 3.0])
    expected = np.array([1.0, 2.0 / 2.0, 4.0 / 3.0, 3.0 / 4.0])
    np.testing.assert_allclose(upper_gradient(space, u), expected, rtol=1e-14)


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
def test_p_energy_formula(p):
    space = cycle_space()
    u = np.array([0.0, 1.0, -1.0, 3.0])
    g = np.array([1.0, 1.0, 4.0 / 3.0, 0.75])
    expected = float((CYCLE_MASSES * g**p).sum())
    assert p_energy(space, u, p) == pytest.approx(expected, rel=1e-14)


def test_p_energy_translation_invariant_and_zero_on_constants():
    space = cycle_space()
    u = np.array([0.2, -1.0, 0.7, 3.1])
    assert p_energy(space, u + 17.3, 2.5) == pytest.approx(p_energy(space, u, 2.5), rel=1e-12)
    assert p_energy(space, np.full(4, 2.2), 2.0) == 0.0


def test_field_array_takes_one_value_per_vertex():
    space = cycle_space()
    arr = np.array([4.0, 5.0, 6.0, 7.0])
    np.testing.assert_array_equal(field_array(space, arr), arr)
    np.testing.assert_array_equal(field_array(space, [0, 1, 2, 3]), [0.0, 1.0, 2.0, 3.0])
    with pytest.raises(EnergyError, match="expected \\(4,\\)"):
        field_array(space, [1.0])


# ---------------------------------------------------------------------------
# boundary smoothness norm


@pytest.mark.parametrize("alpha,p", [(0.5, 2.0), (0.3, 1.5), (0.8, 3.0)])
def test_besov_two_atom_closed_form(alpha, p):
    # unit atoms at unit distance: each ordered pair contributes
    # 1 / (1^{alpha p} * nu(open ball) = 1) so norm^p = 2 regardless of alpha, p
    space, nu = two_atom_boundary(1.0)
    f = {"zl": 0.0, "m": 0.5, "zr": 1.0}
    assert besov_norm(space, nu, f, alpha, p) == pytest.approx(2.0 ** (1.0 / p), rel=1e-12)


def test_besov_distance_scaling():
    # at separation L the closed form becomes (2 / L^{alpha p})^{1/p}
    alpha, p, L = 0.5, 2.0, 4.0
    space, nu = two_atom_boundary(L)
    f = {"zl": 0.0, "m": 0.5, "zr": 1.0}
    expected = (2.0 / L ** (alpha * p)) ** (1.0 / p)
    assert besov_norm(space, nu, f, alpha, p) == pytest.approx(expected, rel=1e-12)


def test_besov_homogeneous_and_vanishes_on_constants():
    space, nu = two_atom_boundary(1.0)
    f = {"zl": 0.0, "m": 0.5, "zr": 1.0}
    g = {k: 3.0 * v for k, v in f.items()}
    assert besov_norm(space, nu, g, 0.5, 2.0) == pytest.approx(
        3.0 * besov_norm(space, nu, f, 0.5, 2.0), rel=1e-12
    )
    assert besov_norm(space, nu, {"zl": 1.0, "m": 1.0, "zr": 1.0}, 0.5, 2.0) == 0.0


def test_besov_rejects_bad_smoothness():
    space, nu = two_atom_boundary(1.0)
    f = {"zl": 0.0, "m": 0.0, "zr": 1.0}
    with pytest.raises(EnergyError):
        besov_norm(space, nu, f, 1.5, 2.0)


def test_besov_norm_directed_dijkstra_matches_undirected(monkeypatch):
    """besov_norm runs csgraph with directed=True on the symmetric
    adjacency; on criterion 10's level-2 cantor slit and one of its traced
    fields the norm must equal the directed=False result bit for bit."""
    level2 = domains.cantor_slit(1 / 16, 8.0, 2)
    space, nu = level2.space, level2.nu
    w = random_smooth_fields(space, 1, seed=7)[0]
    data = {space.ids[i]: float(w[i]) for i in space.boundary_indices()}
    sol = solve_p_harmonic(DirichletProblem(space, 2.0, data))
    f = trace(space, sol.u, nu, [0.5, 0.25]).as_dict()
    alpha = 1.0 - level2.theta / 2.0
    got = besov_norm(space, nu, f, alpha, 2.0)

    directed_args = []
    dijkstra = csgraph.dijkstra

    def undirected(graph, directed=True, **kwargs):
        directed_args.append(directed)
        return dijkstra(graph, directed=False, **kwargs)

    monkeypatch.setattr(csgraph, "dijkstra", undirected)
    ref = besov_norm(space, nu, f, alpha, 2.0)
    assert directed_args == [True]
    assert got > 0 and got.hex() == ref.hex()


# ---------------------------------------------------------------------------
# functional inequalities on a real domain


def test_poincare_check_bounded_on_strip(strip_small):
    space = strip_small.space
    fields = random_smooth_fields(space, count=3, seed=2)
    centers = ["v4_8", "v2_24", "v6_40"]
    rep = poincare_check(space, 2.0, centers, [0.5, 1.0], fields)
    assert rep.rows
    ratios = [row["ratio"] for row in rep.rows]
    assert all(np.isfinite(r) for r in ratios)
    assert max(ratios) < 50.0


def test_poincare_skips_massless_ball(strip_small):
    # a tiny ball around a boundary vertex holds only that vertex, measure 0
    space = strip_small.space
    fields = random_smooth_fields(space, count=1, seed=0)
    rep = poincare_check(space, 2.0, ["v0_0"], [1e-6], fields)
    assert not rep.rows
    assert rep.skipped and rep.skipped[0]["reason"] == "zero-mass ball"


def test_hardy_ratio_finite_and_zero_on_constants(strip_small):
    ts = transform(strip_small.space, power(2.0), 2.0)
    rng = np.random.default_rng(7)
    u = rng.normal(size=strip_small.space.n_vertices)
    ratio = hardy_check(ts, u)
    assert math.isfinite(ratio) and ratio > 0
    assert hardy_check(ts, np.ones(strip_small.space.n_vertices)) == 0.0


def test_random_smooth_fields_deterministic(strip_small):
    """Same seed, same fields; the point at infinity, which has no
    coordinates, takes the value of the origin v4_0."""
    space = strip_small.space
    a = random_smooth_fields(space, count=2, seed=9)
    b = random_smooth_fields(space, count=2, seed=9)
    np.testing.assert_array_equal(a, b)
    assert a.shape == (2, space.n_vertices)
    c = random_smooth_fields(attach_infinity(transform(space, power(2.0), 2.0)), count=2, seed=9)
    np.testing.assert_array_equal(c, np.column_stack([a, a[:, space.index["v4_0"]]]))


# ---------------------------------------------------------------------------
# trace means


def test_trace_recovers_boundary_data_of_linear_field(strip_small):
    # u = x extends its own boundary values; interior ball means around each
    # bottom vertex reproduce x, exactly at interior vertices by symmetry and
    # within the one-sided centroid shift <= r/4 at the two corners
    space = strip_small.space
    nu = codimensional_measure(space, 1.0, 0.25)
    u = space.coords[:, 0]
    rep = trace(space, u, nu, radii=[2.0, 1.0])
    assert not rep.unresolved
    x_of = {v: space.coords[space.index[v], 0] for v in rep.ids}
    errs = {v: abs(rep.values[k] - x_of[v]) for k, v in enumerate(rep.ids)}
    assert errs["v4_0"] == pytest.approx(0.0, abs=1e-12)
    assert max(errs.values()) == pytest.approx(0.25, abs=1e-12)
    assert float(np.nanmax(rep.oscillation)) <= 0.34


def test_trace_radius_guards(strip_small):
    space = strip_small.space
    nu = codimensional_measure(space, 1.0, 0.25)
    u = np.zeros(space.n_vertices)
    with pytest.raises(EnergyError, match="decreasing"):
        trace(space, u, nu, radii=[1.0])
    with pytest.raises(EnergyError, match="decreasing"):
        trace(space, u, nu, radii=[1.0, 2.0])
    with pytest.raises(EnergyError, match="resolution floor"):
        trace(space, u, nu, radii=[2.0, 0.5])


def test_nu_naming_a_missing_vertex_is_rejected():
    """besov_norm, trace and adams_check read nu through nu.array, which
    names the first id that is not a vertex of the space."""
    space, _ = two_atom_boundary(1.0)
    nu = BoundaryMeasure(theta=1.0, mesh_scale=0.25, nu={"zl": 1.0, "ghost": 1.0, "zr": 1.0})
    f = {"zl": 0.0, "m": 0.5, "zr": 1.0}
    calls = [
        lambda: besov_norm(space, nu, f, 0.5, 2.0),
        lambda: trace(space, np.array([0.0, 0.5, 1.0]), nu, radii=[2.0, 1.0]),
        lambda: adams_check(attach_infinity(transform(space, power(2.0), 2.0)), nu,
                            np.zeros(4), 3.0, 1.0, [("zl", 0.5)]),
    ]
    for call in calls:
        with pytest.raises(TransformError, match="id 'ghost' is not a vertex"):
            call()


def test_trace_flags_vertex_without_interior_mass():
    # a lone boundary atom 10 away from any interior vertex cannot be traced
    space = GraphSpace(
        ids=["zl", "m", "zr"],
        measures=[0.0, 1.0, 0.0],
        boundary_flags=[True, False, True],
        edges=[("zl", "m", 10.0), ("m", "zr", 1.0)],
    )
    nu = BoundaryMeasure(theta=1.0, mesh_scale=0.25, nu={"zl": 1.0, "zr": 1.0})
    rep = trace(space, np.array([0.0, 5.0, 0.0]), nu, radii=[2.0, 1.0])
    assert rep.unresolved == ["zl"]
    assert rep.values[rep.ids.index("zr")] == pytest.approx(5.0)


# ---------------------------------------------------------------------------
# embedding exponent arithmetic


def test_adams_exponent_closed_form():
    theta = 2.0 - math.log(2.0) / math.log(3.0)
    q = adams_exponent(theta, 2.0, 2.0, p_tilde=1.25)
    # theta = -Q q / p + Q + q / p_tilde solved for q
    assert q == pytest.approx((2.0 - theta) / (2.0 / 2.0 - 1.0 / 1.25), rel=1e-12)
    # default auxiliary exponent is p - 1/4 (codim-1 boundary keeps q > p)
    q_default = adams_exponent(1.0, 2.0, 2.0)
    assert q_default == pytest.approx((2.0 - 1.0) / (1.0 - 1.0 / 1.75), rel=1e-12)


def test_adams_exponent_guards():
    # Q/p <= 1/p_tilde leaves no admissible q at all
    with pytest.raises(EnergyError, match="degenerate"):
        adams_exponent(0.5, 4.0, 2.0, p_tilde=1.5)
    # a near-dimension-zero boundary drives q below p
    with pytest.raises(EnergyError, match="exceed"):
        adams_exponent(1.99, 2.0, 2.0, p_tilde=1.999)


def test_adams_check_smoke(strip_small):
    space = strip_small.space
    ts = attach_infinity(transform(space, power(2.0), 2.0))
    nu = codimensional_measure(space, 1.0, 0.25)
    u = np.append(space.coords[:, 0], 0.0)
    q = adams_exponent(1.0, 2.0, 2.0, p_tilde=1.25)
    balls = [("v8_0", 0.5), ("v8_0", 1.0), ("v0_0", 0.5)]
    rep = adams_check(ts, nu, u, q, 1.0, balls)
    assert rep.rows and not rep.skipped
    for row in rep.rows:
        assert math.isfinite(row["lhs"]) and math.isfinite(row["rhs"])
