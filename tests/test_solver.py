"""Dirichlet solvers, capacities, and moduli against independent oracles.

Oracles used here:

* series (path) problems: the exact Lagrange drops, Delta_i proportional to
  (l_i^p / m_i)^(1/(p-1)), normalized to the total potential difference;
* p = 2 on a real domain: a dense weighted-Laplacian solve assembled in-test;
* p != 2 with one free vertex: scalar energy minimization;
* modulus: full convex program over an exhaustively enumerated path family,
  solved with SLSQP;
* the line search's ``brentq``: scipy's ``brentq``, call for call.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq as scipy_brentq
from scipy.optimize import minimize, minimize_scalar

from uniformizer import domains, solver
from uniformizer.dampening import power
from uniformizer.energy import edge_mass, p_energy
from uniformizer.graphspace import GraphSpace
from uniformizer.solver import (
    Condenser,
    DirichletProblem,
    SolveOptions,
    SolverError,
    capacity,
    capacity_of_infinity,
    modulus,
    solve_dirichlet_unbounded,
    solve_p_harmonic,
)
from uniformizer.transform import attach_infinity, transform
from conftest import fine_ladder


def path_space(lengths: list[float]) -> GraphSpace:
    """Chain with boundary endpoints and unit interior measures."""
    n = len(lengths) + 1
    ids = [f"w{i}" for i in range(n)]
    measures = [0.0] + [1.0] * (n - 2) + [0.0]
    flags = [True] + [False] * (n - 2) + [True]
    edges = [(ids[i], ids[i + 1], lengths[i]) for i in range(n - 1)]
    return GraphSpace(ids, measures, flags, edges)


def series_drops(space: GraphSpace, p: float, total: float = 1.0) -> np.ndarray:
    """Exact per-edge potential drops of the series problem."""
    m = edge_mass(space)
    raw = (space.edge_length**p / m) ** (1.0 / (p - 1.0))
    return total * raw / raw.sum()


def series_energy(space: GraphSpace, p: float) -> float:
    drops = series_drops(space, p)
    m = edge_mass(space)
    return float((m * (drops / space.edge_length) ** p).sum())


def grid_space(nx: int, ny: int) -> GraphSpace:
    """nx-by-ny unit grid; the bottom-left vertex is the boundary anchor."""
    ids = [f"g{i}_{j}" for j in range(ny) for i in range(nx)]
    measures = [0.0 if (i, j) == (0, 0) else 1.0 for j in range(ny) for i in range(nx)]
    flags = [(i, j) == (0, 0) for j in range(ny) for i in range(nx)]
    edges = []
    for j in range(ny):
        for i in range(nx):
            if i + 1 < nx:
                edges.append((f"g{i}_{j}", f"g{i + 1}_{j}", 1.0))
            if j + 1 < ny:
                edges.append((f"g{i}_{j}", f"g{i}_{j + 1}", 1.0))
    return GraphSpace(ids, measures, flags, edges)


# ---------------------------------------------------------------------------
# Dirichlet solves


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0, 4.0])
def test_series_solution_matches_lagrange_drops(p):
    space = path_space([1.0, 2.0, 0.5, 1.5])
    res = solve_p_harmonic(DirichletProblem(space, p, {"w0": 0.0, "w4": 1.0}))
    expected = np.concatenate([[0.0], np.cumsum(series_drops(space, p))])
    np.testing.assert_allclose(res.u, expected, atol=1e-9)
    assert res.energy == pytest.approx(series_energy(space, p), rel=1e-9)


def test_p2_matches_dense_linear_solve(strip_small):
    space = strip_small.space
    rng = np.random.default_rng(4)
    bidx = space.boundary_indices()
    data = {space.ids[i]: float(rng.uniform(-1.0, 1.0)) for i in bidx}
    res = solve_p_harmonic(DirichletProblem(space, 2.0, data))

    c = edge_mass(space) / space.edge_length**2
    n = space.n_vertices
    L = np.zeros((n, n))
    for e in range(space.n_edges):
        u, v = space.edge_u[e], space.edge_v[e]
        L[u, u] += c[e]
        L[v, v] += c[e]
        L[u, v] -= c[e]
        L[v, u] -= c[e]
    free = np.ones(n, dtype=bool)
    free[bidx] = False
    g = np.zeros(n)
    for i in bidx:
        g[i] = data[space.ids[i]]
    rhs = -L[np.ix_(free, ~free)] @ g[~free]
    u_free = np.linalg.solve(L[np.ix_(free, free)], rhs)
    oracle = g.copy()
    oracle[free] = u_free
    np.testing.assert_allclose(res.u, oracle, atol=1e-10)


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
def test_newton_system_matches_dense_solve(strip_small, monkeypatch, p):
    """The first solves, ordered by ORDERING (the first) and in natural
    order on the baked plan (the later ones; at p = 2 the kept factor),
    agree with a dense solve of the Hessian assembled here from the edge
    list and the per-edge weights each solve was given."""
    solves = []
    solve = solver._NewtonSystem.solve

    def recording(self, b, flags, w):
        x = solve(self, b, flags, w)
        solves.append((b.copy(), w.copy(), x.copy()))
        return x

    monkeypatch.setattr(solver._NewtonSystem, "solve", recording)
    space = strip_small.space
    f = {space.ids[i]: space.coords[i, 0] for i in space.boundary_indices()}
    solve_p_harmonic(DirichletProblem(space, p, f))

    eu, ev = space.edge_u, space.edge_v
    free = space.interior_mask
    moving = (edge_mass(space) > 0) & (free[eu] | free[ev])
    slot = np.cumsum(free) - 1
    assert len(solves) >= 2
    for b, weight, x in solves[:3]:
        H = np.zeros((b.size, b.size))
        for u, v, w in zip(eu[moving], ev[moving], weight, strict=True):
            if free[u]:
                H[slot[u], slot[u]] += w
            if free[v]:
                H[slot[v], slot[v]] += w
            if free[u] and free[v]:
                H[slot[u], slot[v]] -= w
                H[slot[v], slot[u]] -= w
        oracle = np.linalg.solve(H, b)
        assert np.linalg.norm(x - oracle) <= 1e-12 * np.linalg.norm(oracle)


def test_newton_system_orders_and_factors_once(strip_small, monkeypatch):
    """One solve at p = 3 runs the fill-reducing ordering once and factors
    every later step in natural order; a p = 2 solve factors once."""
    calls = []
    splu = solver.splu

    def counting(A, permc_spec, **kwargs):
        calls.append(permc_spec)
        return splu(A, permc_spec=permc_spec, **kwargs)

    monkeypatch.setattr(solver, "splu", counting)
    space = strip_small.space
    f = {space.ids[i]: space.coords[i, 0] for i in space.boundary_indices()}
    res = solve_p_harmonic(DirichletProblem(space, 3.0, f))
    assert res.iterations >= 2
    assert calls[0] == solver.ORDERING and set(calls[1:]) == {"NATURAL"}
    calls.clear()
    res = solve_p_harmonic(DirichletProblem(space, 2.0, f))
    assert calls == [solver.ORDERING]
    assert res.iterations == 1


def test_newton_system_plan_past_int32_keys():
    """A chain of 50,000 free vertices: the planned CSC slots key each entry
    as col * n + row, past 2**31 here, so the plan must not wrap.  Unit
    masses and alternating lengths make the exact p = 3 drops proportional
    to length**1.5."""
    nf = 50_000
    n = nf + 2
    lengths = np.where(np.arange(n - 1) % 2 == 0, 1.0, 2.0)
    space = GraphSpace.from_arrays(
        [f"w{i}" for i in range(n)],
        np.r_[0.0, np.ones(nf), 0.0],
        np.r_[True, np.zeros(nf, dtype=bool), True],
        np.arange(n - 1),
        np.arange(1, n),
        lengths,
        edge_mass=np.ones(n - 1),
    )
    res = solve_p_harmonic(DirichletProblem(space, 3.0, {"w0": 0.0, f"w{n - 1}": 1.0}))
    drops = lengths**1.5
    expected = np.r_[0.0, np.cumsum(drops) / drops.sum()]
    assert res.flags == []
    np.testing.assert_allclose(res.u, expected, atol=1e-9)


@pytest.mark.parametrize("p", [1.5, 3.0])
def test_single_free_vertex_matches_scalar_minimization(p):
    space = GraphSpace(
        ids=["z0", "z1", "z2", "c"],
        measures=[0.0, 0.0, 0.0, 1.0],
        boundary_flags=[True, True, True, False],
        edges=[("z0", "c", 1.0), ("z1", "c", 2.0), ("z2", "c", 1.0)],
    )
    f = {"z0": 0.0, "z1": 0.6, "z2": 1.0}
    res = solve_p_harmonic(DirichletProblem(space, p, f))
    m = edge_mass(space)
    fv = np.array([0.0, 0.6, 1.0])
    ln = space.edge_length

    def energy(v: float) -> float:
        return float((m * (np.abs(v - fv) / ln) ** p).sum())

    opt = minimize_scalar(energy, bounds=(0.0, 1.0), method="bounded",
                          options={"xatol": 1e-12})
    assert res.u[3] == pytest.approx(opt.x, abs=1e-6)
    assert res.energy == pytest.approx(opt.fun, rel=1e-8)


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
def test_maximum_principle_and_energy_minimality(strip_small, p):
    space = strip_small.space
    f = {space.ids[i]: space.coords[i, 0] for i in space.boundary_indices()}
    res = solve_p_harmonic(DirichletProblem(space, p, f))
    assert res.u.min() >= -1.0 - 1e-10
    assert res.u.max() <= 1.0 + 1e-10
    assert res.energy == pytest.approx(p_energy(space, res.u, p), rel=1e-12)
    # no admissible perturbation of the free vertices does better
    rng = np.random.default_rng(0)
    free = space.interior_mask
    for _ in range(5):
        bump = np.where(free, rng.normal(scale=1e-3, size=space.n_vertices), 0.0)
        assert p_energy(space, res.u + bump, p) >= res.energy - 1e-12


def test_flat_and_harmonic_inits_agree(strip_small):
    space = strip_small.space
    f = {space.ids[i]: space.coords[i, 0] for i in space.boundary_indices()}
    a = solve_p_harmonic(DirichletProblem(space, 3.0, f))
    b = solve_p_harmonic(
        DirichletProblem(space, 3.0, f, SolveOptions(init="flat", eps_schedule=fine_ladder(f)))
    )
    np.testing.assert_allclose(a.u, b.u, atol=1e-8)


@pytest.mark.parametrize("p", [1.5, 3.0])
def test_default_continuation_matches_fine_continuation(strip_small, p):
    """The default schedule (factor 1e-3, warm-start levels stopped at
    sqrt(tol)) lands on the u of a fine one; energies alone cannot show an
    error in u on edges where the difference is about 0."""
    space = strip_small.space
    f = {
        space.ids[i]: math.sin(math.pi * space.coords[i, 0])
        for i in space.boundary_indices()
    }
    a = solve_p_harmonic(DirichletProblem(space, p, f))
    b = solve_p_harmonic(DirichletProblem(space, p, f, SolveOptions(eps_schedule=fine_ladder(f))))
    np.testing.assert_allclose(a.u, b.u, rtol=0, atol=1e-8)
    assert a.flags == []
    assert a.residual < SolveOptions().tol


@pytest.mark.parametrize("p", [1.5, 3.0])
def test_default_continuation_u_on_dampened_strip(p):
    """On a dampened strip the default ladder (factor 1e-3, last level
    stopped on the step) lands within 1e-9 of a factor-0.3 ladder's u; a
    last level stopped on the energy drop alone missed by 1.3e-9 at p = 1.5."""
    space = domains.half_strip(0.25, 64.0).space
    f = {
        space.ids[i]: math.sin(math.pi * space.coords[i, 0])
        for i in space.boundary_indices()
    }
    a = solve_dirichlet_unbounded(space, power(2.0), p, f)
    b = solve_dirichlet_unbounded(
        space, power(2.0), p, f, options=SolveOptions(eps_schedule=fine_ladder(f))
    )
    np.testing.assert_allclose(a.u, b.u, rtol=0, atol=1e-9)
    assert a.solve.flags == []


def test_condenser_capacity_newton_steps(cone_small):
    """Criterion 3's slit-cone condenser at p = 3 takes at most 6 Newton
    steps (5 measured; 22 under a factor-0.1 schedule that solves every
    level to tol)."""
    space = cone_small.space
    E, F = ["v0_2"], ["v0_6"]
    d = space.multi_source_distances([space.index[v] for v in E + F])
    U = [space.ids[i] for i in np.nonzero(d <= 2.5)[0]]
    res = capacity(space, Condenser(E=E, F=F, U=U), 3.0)
    assert res.solve.flags == []
    assert res.solve.iterations <= 6


@pytest.mark.parametrize(
    "p, options, message",
    [
        (3.0, SolveOptions(eps_schedule=[]), "eps schedule is empty"),
        (2.0, SolveOptions(eps_schedule=[]), "eps schedule is empty"),
        (3.0, SolveOptions(eps_schedule=[float("nan")]), "must be finite"),
        (1.5, SolveOptions(eps_schedule=[0.1, float("inf")]), "must be finite"),
        (2.0, SolveOptions(eps_schedule=[float("nan")]), "must be finite"),
        (3.0, SolveOptions(eps_schedule=[0.1, 0.0]), "must be positive"),
        (3.0, SolveOptions(tol=0.0), "tol=0 must be positive"),
        (1.5, SolveOptions(tol=-1.0), "tol=-1 must be positive"),
        (2.0, SolveOptions(tol=float("nan")), "tol=nan must be positive"),
    ],
)
def test_bad_continuation_inputs_rejected(strip_small, p, options, message):
    space = strip_small.space
    ramp = {space.ids[i]: space.coords[i, 0] for i in space.boundary_indices()}
    with pytest.raises(SolverError, match=message):
        solve_p_harmonic(DirichletProblem(space, p, ramp, options))


def test_constant_data_short_circuits(strip_small):
    space = strip_small.space
    f = {space.ids[i]: 0.7 for i in space.boundary_indices()}
    res = solve_p_harmonic(DirichletProblem(space, 3.0, f))
    np.testing.assert_allclose(res.u, 0.7, atol=1e-14)
    assert res.energy == 0.0
    assert res.iterations == 0


def test_solver_guards(strip_small):
    space = strip_small.space
    full = {space.ids[i]: 0.0 for i in space.boundary_indices()}
    with pytest.raises(SolverError, match="empty"):
        solve_p_harmonic(DirichletProblem(space, 2.0, {}))
    partial = dict(list(full.items())[:-1])
    with pytest.raises(SolverError, match="missing from boundary data"):
        solve_p_harmonic(DirichletProblem(space, 2.0, partial))
    # interior pins are permitted in the generic solver (obstacle-style use);
    # the unbounded pipeline is the one that rejects them
    pinned_mid = solve_p_harmonic(DirichletProblem(space, 2.0, {**full, "v4_8": 1.0}))
    assert pinned_mid.u[space.index["v4_8"]] == 1.0
    with pytest.raises(SolverError, match="not a boundary vertex"):
        solve_dirichlet_unbounded(space, power(2.0), 2.0, {**full, "v4_8": 1.0})
    with pytest.raises(SolverError, match="exceed 1"):
        solve_p_harmonic(DirichletProblem(space, 1.0, full))
    ramp = {space.ids[i]: space.coords[i, 0] for i in space.boundary_indices()}
    with pytest.raises(SolverError, match="init"):
        solve_p_harmonic(DirichletProblem(space, 3.0, ramp, SolveOptions(init="wild")))
    with pytest.raises(SolverError, match="positive"):
        solve_p_harmonic(
            DirichletProblem(space, 3.0, ramp, SolveOptions(eps_schedule=[0.1, -0.1]))
        )


def test_free_vertex_without_a_conductive_route_raises():
    """A solve names the first free vertex, in index order, whose component
    has no positive-conductance edge to a pin; w2 and w4 hang off the chain
    w0 - w1 - w3 by massless edges."""
    space = GraphSpace.from_arrays(
        [f"w{i}" for i in range(5)],
        np.array([0.0, 1.0, 1.0, 0.0, 1.0]),
        np.array([True, False, False, True, False]),
        np.array([0, 1, 2, 3]),
        np.array([1, 3, 1, 4]),
        np.ones(4),
        edge_mass=np.array([1.0, 1.0, 0.0, 0.0]),
    )
    with pytest.raises(SolverError, match="free vertex 'w2' has no positive-conductance route to a pin"):
        solve_p_harmonic(DirichletProblem(space, 3.0, {"w0": 0.0, "w3": 1.0}))


def test_nan_energy_after_a_step_raises(strip_small, monkeypatch):
    """A Newton step that leaves the energy NaN (here a line search that
    returns NaN) is an error, not a NaN iterate that runs out the step
    budget flagged only ``unconverged``."""
    monkeypatch.setattr(solver, "brentq", lambda f, a, b, xtol: math.nan)
    space = strip_small.space
    ramp = {space.ids[i]: space.coords[i, 0] for i in space.boundary_indices()}
    with pytest.raises(SolverError, match="energy became NaN"):
        solve_p_harmonic(DirichletProblem(space, 3.0, ramp, SolveOptions(max_iter=1)))


class Counted:
    """A function that counts its calls."""

    def __init__(self, f):
        self.f, self.calls = f, 0

    def __call__(self, t):
        self.calls += 1
        return self.f(t)


TERMS = st.floats(-3.0, 3.0)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(
    terms=st.lists(st.tuples(st.floats(0.1, 3.0), TERMS, TERMS), min_size=1, max_size=5),
    p=st.sampled_from([1.5, 2.0, 3.0]),
    lo=st.floats(-2.0, 0.0),
    width=st.floats(0.5, 8.0),
    scale=st.integers(-300, 0).map(lambda k: 10.0**k),
)
def test_brentq_is_scipys_brentq(terms, p, lo, width, scale):
    """On slopes of the line-search form, sum a sign(d + t e) |d + t e|^(p-1)
    e, over a bracket where the sign changes, the port returns scipy's root
    bit for bit after as many slope calls, and fails to converge where
    scipy does.  Scaled down to 1e-300, the step's denominators underflow
    to 0: C divides to inf or NaN there and bisects, and so must the port."""
    a, d, e = (np.array(c) for c in zip(*terms))

    def slope(t):
        x = d + t * e
        return scale * float(np.sum(a * np.sign(x) * np.abs(x) ** (p - 1) * e))

    hi = lo + width
    f_lo, f_hi = slope(lo), slope(hi)
    assume(f_lo != 0 and f_hi != 0 and (f_lo < 0) != (f_hi < 0))
    theirs, ours = Counted(slope), Counted(slope)
    try:
        want = scipy_brentq(theirs, lo, hi, xtol=1e-13)
    except RuntimeError:  # no convergence in 100 iterations
        with pytest.raises(SolverError, match="no convergence"):
            solver.brentq(ours, lo, hi, xtol=1e-13)
    else:
        assert solver.brentq(ours, lo, hi, xtol=1e-13).hex() == want.hex()
    assert ours.calls == theirs.calls


def test_brentq_rejects_a_nan_slope_and_a_bracket_without_a_root():
    with pytest.raises(SolverError, match="NaN"):
        solver.brentq(lambda t: -1.0 if t == 0.0 else math.nan, 0.0, 1.0, xtol=1e-13)
    with pytest.raises(SolverError, match="one sign"):
        solver.brentq(lambda t: t + 1.0, 0.0, 1.0, xtol=1e-13)


# ---------------------------------------------------------------------------
# capacity


@pytest.mark.parametrize("p", [1.5, 2.0, 2.5])
def test_series_capacity_closed_form(p):
    space = path_space([1.0, 2.0, 0.5, 1.5])
    res = capacity(space, Condenser(E=["w0"], F=["w4"]), p)
    assert res.value == pytest.approx(series_energy(space, p), rel=1e-9)
    assert res.potential[0] == 1.0 and res.potential[4] == 0.0


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
def test_capacity_counts_edge_between_plates(p):
    # E = {w0} and F = {w4} share an edge beside the free chain w1..w3; the
    # Newton steps never move that edge, but its energy (its conductance,
    # at difference 1) adds to the closed-form series capacity of the chain
    ids = [f"w{i}" for i in range(5)]
    chain = [(ids[i], ids[i + 1], ln) for i, ln in enumerate([1.0, 2.0, 0.5, 1.5])]
    space = GraphSpace(
        ids, [0.5, 1.0, 1.0, 1.0, 0.0], [False, False, False, False, True],
        chain + [("w0", "w4", 3.0)],
    )
    c = edge_mass(space) / space.edge_length**p
    ends = [{space.ids[u], space.ids[v]} for u, v in zip(space.edge_u, space.edge_v)]
    shared = ends.index({"w0", "w4"})
    in_chain = np.arange(space.n_edges) != shared
    series = float(np.sum(c[in_chain] ** (-1.0 / (p - 1.0)))) ** (1.0 - p)
    assert c[shared] > 0
    res = capacity(space, Condenser(E=["w0"], F=["w4"]), p)
    assert res.value == pytest.approx(float(c[shared]) + series, rel=1e-9)


def test_capacity_symmetric_in_plates():
    space = grid_space(4, 3)
    E = ["g0_0", "g0_1", "g0_2"]
    F = ["g3_0", "g3_1", "g3_2"]
    a = capacity(space, Condenser(E=E, F=F), 2.5)
    b = capacity(space, Condenser(E=F, F=E), 2.5)
    assert a.value == pytest.approx(b.value, rel=1e-10)
    np.testing.assert_allclose(a.potential, 1.0 - b.potential, atol=1e-8)


def test_capacity_monotone_in_plate_growth():
    space = grid_space(4, 3)
    small = capacity(space, Condenser(E=["g0_1"], F=["g3_1"]), 2.0)
    large = capacity(
        space, Condenser(E=["g0_0", "g0_1", "g0_2"], F=["g3_1"]), 2.0
    )
    assert large.value > small.value


def test_capacity_fills_island_inside_u():
    # U keeps a vertex whose every edge leaves U: it is held at 0, flagged,
    # and the value reduces to the one surviving edge's conductance
    space = GraphSpace(
        ids=["bd", "x", "m", "y", "z"],
        measures=[0.0, 1.0, 1.0, 1.0, 1.0],
        boundary_flags=[True, False, False, False, False],
        edges=[
            ("bd", "x", 1.0),
            ("x", "m", 1.0),
            ("m", "y", 1.0),
            ("x", "y", 2.0),
            ("m", "z", 1.0),
        ],
    )
    p = 2.0
    res = capacity(space, Condenser(E=["x"], F=["y"], U=["x", "y", "z"]), p)
    assert "isolated-free-component" in res.solve.flags
    assert res.potential[space.index["z"]] == 0.0
    e_xy = [e for e in range(space.n_edges)
            if {space.ids[space.edge_u[e]], space.ids[space.edge_v[e]]} == {"x", "y"}][0]
    c = edge_mass(space)[e_xy] / space.edge_length[e_xy] ** p
    assert res.value == pytest.approx(float(c), rel=1e-12)


def test_capacity_guards():
    space = grid_space(3, 3)
    with pytest.raises(SolverError, match="non-empty"):
        capacity(space, Condenser(E=[], F=["g2_2"]), 2.0)
    with pytest.raises(SolverError, match="overlap"):
        capacity(space, Condenser(E=["g0_0"], F=["g0_0"]), 2.0)
    with pytest.raises(SolverError, match="outside U"):
        capacity(space, Condenser(E=["g0_0"], F=["g2_2"], U=["g0_0", "g1_1"]), 2.0)


@pytest.mark.parametrize(
    "cond, message",
    [
        (Condenser(E=[], F=["g2_2"]), "condenser plates must be non-empty"),
        (Condenser(E=["g0_0"], F=[]), "condenser plates must be non-empty"),
        (Condenser(E=["g0_0", "g1_1"], F=["g1_1"]), "condenser plates overlap"),
        (Condenser(E=["zz"], F=["g2_2"]), "condenser vertex 'zz' is not in the space"),
        (Condenser(E=["g0_0"], F=["g2_2", "zz"]), "condenser vertex 'zz' is not in the space"),
        # an unknown id in U is named before the plate vertex outside U
        (Condenser(E=["g0_0"], F=["g2_2"], U=["g0_0", "zz"]), "condenser vertex 'zz' is not in the space"),
        (Condenser(E=["g0_0"], F=["g2_2", "g2_1"], U=["g0_0", "g2_2"]), "plate vertex 'g2_1' is outside U"),
    ],
    ids=["empty-E", "empty-F", "overlap", "unknown-E", "unknown-F", "unknown-U", "outside-U"],
)
def test_capacity_and_modulus_reject_a_bad_condenser_alike(cond, message):
    space = grid_space(3, 3)
    for engine in (capacity, modulus):
        with pytest.raises(SolverError) as err:
            engine(space, cond, 2.0)
        assert str(err.value) == message, engine.__name__


@pytest.mark.parametrize(
    "p, kwargs, message",
    [
        (float("nan"), {}, "p=nan must be finite and exceed 1"),
        (float("inf"), {}, "p=inf must be finite and exceed 1"),
        (1.0, {}, "p=1 must be finite and exceed 1"),
        (2.0, {"tol": float("nan")}, "tol=nan must lie in"),
        (2.0, {"tol": -1.0}, "tol=-1 must lie in"),
        (2.0, {"tol": 0.0}, "tol=0 must lie in"),
        (2.0, {"tol": 2.0}, "tol=2 must lie in"),
        (2.0, {"max_paths": -3}, "max_paths=-3 must be >= 0"),
    ],
)
def test_modulus_rejects_bad_arguments(p, kwargs, message):
    space = grid_space(3, 3)
    with pytest.raises(SolverError, match=message):
        modulus(space, Condenser(E=["g0_0"], F=["g2_2"]), p, **kwargs)


# ---------------------------------------------------------------------------
# modulus


def all_simple_paths(space: GraphSpace, E: list[str], F: list[str]) -> list[list[int]]:
    """Every simple E-to-F path as an edge index list (exhaustive DFS)."""
    adj: dict[int, list[tuple[int, int]]] = {i: [] for i in range(space.n_vertices)}
    for e in range(space.n_edges):
        u, v = int(space.edge_u[e]), int(space.edge_v[e])
        adj[u].append((v, e))
        adj[v].append((u, e))
    targets = {space.index[v] for v in F}
    paths: list[list[int]] = []

    def walk(v: int, seen: set[int], trail: list[int]) -> None:
        if v in targets:
            paths.append(list(trail))
            return
        for w, e in adj[v]:
            if w not in seen:
                seen.add(w)
                trail.append(e)
                walk(w, seen, trail)
                trail.pop()
                seen.remove(w)

    for s in E:
        si = space.index[s]
        walk(si, {si}, [])
    return paths


def modulus_full_program(space: GraphSpace, paths: list[list[int]], p: float) -> float:
    """SLSQP solve of the complete modulus program over the given family."""
    m = edge_mass(space)
    ln = space.edge_length
    ne = space.n_edges

    def objective(rho):
        return float((m * np.abs(rho) ** p).sum())

    def jac(rho):
        return p * m * np.abs(rho) ** (p - 1.0) * np.sign(rho)

    cons = [
        {
            "type": "ineq",
            "fun": (lambda rho, idx=pa: float((ln[idx] * rho[idx]).sum()) - 1.0),
        }
        for pa in paths
    ]
    x0 = np.full(ne, 1.0 / ln.min() / 2.0)
    out = minimize(
        objective, x0, jac=jac, method="SLSQP", bounds=[(0.0, None)] * ne,
        constraints=cons, options={"maxiter": 400, "ftol": 1e-14},
    )
    assert out.success, out.message
    return float(out.fun)


def test_modulus_single_path_closed_form():
    space = path_space([1.0, 2.0, 0.5])
    p = 2.5
    res = modulus(space, Condenser(E=["w0"], F=["w3"]), p, tol=1e-10)
    # one path: rho_e proportional to (l_e/m_e)^(1/(p-1)), scaled to rho-length 1
    m = edge_mass(space)
    ln = space.edge_length
    raw = (ln / m) ** (1.0 / (p - 1.0))
    rho = raw / float((ln * raw).sum())
    expected = float((m * rho**p).sum())
    assert res.value == pytest.approx(expected, rel=1e-8)
    assert res.paths_used == 1
    np.testing.assert_allclose(res.rho, rho, rtol=1e-6)


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
def test_modulus_matches_full_program_on_grid(p):
    space = grid_space(4, 3)
    E = ["g0_0", "g0_1", "g0_2"]
    F = ["g3_0", "g3_1", "g3_2"]
    paths = all_simple_paths(space, E, F)
    assert len(paths) > 20  # the family is genuinely nontrivial
    oracle = modulus_full_program(space, paths, p)
    res = modulus(space, Condenser(E=E, F=F), p, tol=1e-9)
    assert res.value == pytest.approx(oracle, rel=2e-5)
    # admissibility of the returned density on every enumerated path
    ln = space.edge_length
    for pa in paths:
        assert float((ln[pa] * res.rho[pa]).sum()) >= 1.0 - 1e-6


@pytest.mark.parametrize("p", [1.01, 1.5, 2.0, 3.0])
def test_modulus_capacity_duality(p):
    space = grid_space(4, 3)
    E = ["g0_0", "g0_1", "g0_2"]
    F = ["g3_0", "g3_1", "g3_2"]
    cap = capacity(space, Condenser(E=E, F=F), p)
    mod = modulus(space, Condenser(E=E, F=F), p, tol=1e-9)
    assert mod.value == pytest.approx(cap.value, rel=1e-6)
    assert mod.flags == []


def test_modulus_translated_condenser_does_not_stall(cone_small):
    """A criterion-3 condenser moved inside the slit cone (as bench/stalls.py
    places it for seed 2): an inexact restricted dual solve makes the path
    generation return a path it already holds."""
    space = cone_small.space
    E, F = ["v6_22"], ["v6_26"]
    d = space.multi_source_distances([space.index[v] for v in E + F])
    U = [space.ids[i] for i in np.nonzero(d <= 2.5)[0]]
    cond = Condenser(E=E, F=F, U=U)
    cap = capacity(space, cond, 3.0).value
    res = modulus(space, cond, 3.0, tol=1e-6, max_paths=400)
    assert "stalled" not in res.flags
    assert abs(cap - res.value) / cap <= 1e-3


def test_modulus_path_budget_flag():
    space = grid_space(4, 3)
    res = modulus(
        space,
        Condenser(E=["g0_0", "g0_1", "g0_2"], F=["g3_0", "g3_1", "g3_2"]),
        2.0,
        max_paths=2,
    )
    assert "path-budget" in res.flags


def test_modulus_zero_budget_keeps_first_path():
    space = grid_space(4, 3)
    res = modulus(space, Condenser(E=["g0_1"], F=["g3_1"]), 2.0, max_paths=0)
    assert res.paths_used == 1
    assert "path-budget" in res.flags
    assert res.value == pytest.approx(res.lower, rel=1e-12)


def test_modulus_reports_inexact_restricted_dual(monkeypatch):
    """A restricted solve that stops above its KKT tolerance (iteration cap
    or failed line search) makes the result ``unconverged``."""
    exact = solver._restricted_dual

    def inexact(*args):
        lam, r, lower, _ = exact(*args)
        return lam, r, lower, 1e-9

    cond = Condenser(E=["g0_0", "g0_1", "g0_2"], F=["g3_0", "g3_1", "g3_2"])
    assert modulus(grid_space(4, 3), cond, 2.0, tol=1e-9).flags == []
    monkeypatch.setattr(solver, "_restricted_dual", inexact)
    assert modulus(grid_space(4, 3), cond, 2.0, tol=1e-9).flags == ["unconverged"]


@pytest.mark.parametrize("p", [1.5, 3.0])
def test_restricted_dual_least_squares_step(cone_small, monkeypatch, p):
    """When LAPACK's solve rejects the restricted Hessian, the Newton step
    comes from least squares; on criterion 3's slit-cone condenser the
    modulus still meets the capacity."""
    space = cone_small.space
    E, F = ["v0_2"], ["v0_6"]
    d = space.multi_source_distances([space.index[v] for v in E + F])
    cond = Condenser(E=E, F=F, U=[space.ids[i] for i in np.nonzero(d <= 2.5)[0]])
    cap = capacity(space, cond, p).value
    fallbacks = []

    def singular(H, g):
        fallbacks.append(H.shape)
        raise np.linalg.LinAlgError("Singular matrix")

    monkeypatch.setattr(np.linalg, "solve", singular)
    res = modulus(space, cond, p, tol=1e-6, max_paths=400)
    assert fallbacks
    assert res.flags == []
    assert abs(res.value - cap) / cap <= 1e-12


def test_modulus_closes_on_a_tight_restricted_solve(monkeypatch):
    """Intermediate restricted solves stop early, yet every exit (converged,
    path budget, stall) is decided on a solve to the full KKT tolerance."""
    exact = solver._restricted_dual
    tolerances: list = []

    def recording(A, lam, m, p, kkt_tol):
        tolerances.append(kkt_tol)
        return exact(A, lam, m, p, kkt_tol)

    monkeypatch.setattr(solver, "_restricted_dual", recording)
    space = grid_space(4, 3)
    cond = Condenser(E=["g0_0", "g0_1", "g0_2"], F=["g3_0", "g3_1", "g3_2"])

    res = modulus(space, cond, 2.0, tol=1e-9)
    assert res.flags == []
    assert tolerances[0] > solver._DUAL_KKT_TOL
    assert tolerances[-1] == solver._DUAL_KKT_TOL

    tolerances.clear()
    res = modulus(space, cond, 2.0, max_paths=2)
    assert res.flags == ["path-budget"]
    assert res.paths_used == 2
    assert tolerances[-1] == solver._DUAL_KKT_TOL
    assert res.value == pytest.approx(res.lower, rel=1e-12)

    # a router that keeps returning the seed path, as a violated one
    route = solver.shortest_route
    seed: list = []

    def replay_seed(*args):
        if not seed:
            seed.append(route(*args))
        return (0.0,) + seed[0][1:]

    monkeypatch.setattr(solver, "shortest_route", replay_seed)
    tolerances.clear()
    res = modulus(space, cond, 2.0)
    assert res.flags == ["stalled"]
    assert tolerances == [solver._LOOSE_KKT_FACTOR, solver._DUAL_KKT_TOL]


def cone_condenser(space) -> Condenser:
    """Criterion 3's slit-cone condenser: v0_2 to v0_6 inside window 2.5."""
    E, F = ["v0_2"], ["v0_6"]
    d = space.multi_source_distances([space.index[v] for v in E + F])
    return Condenser(E=E, F=F, U=[space.ids[i] for i in np.nonzero(d <= 2.5)[0]])


@pytest.mark.parametrize("p", [1.5, 3.0])
def test_condenser_modulus_rounds(cone_small, monkeypatch, p):
    """The flow seed starts the cutting planes near their end: criterion 3's
    slit-cone condenser takes at most 10 restricted dual solves (3 and 2
    measured; 90 and 76 when the loop starts from one path)."""
    exact = solver._restricted_dual
    rounds: list = []

    def counting(*args):
        rounds.append(args[-1])
        return exact(*args)

    monkeypatch.setattr(solver, "_restricted_dual", counting)
    res = modulus(cone_small.space, cone_condenser(cone_small.space), p, tol=1e-6, max_paths=400)
    assert res.flags == []
    assert len(rounds) <= 10


@pytest.mark.parametrize("wrong", ["permuted", "distance", "shuffled"])
@pytest.mark.parametrize("p", [1.5, 3.0])
def test_modulus_does_not_trust_its_seed(cone_small, monkeypatch, p, wrong):
    """The seed only picks the starting paths: ``value`` and ``lower`` come
    from the loop's own routing stop and closing tight solve.  Seeded from a
    wrong potential (a permutation of the capacity potential, whose walks
    die at once, or the distance ratio d_F / (d_E + d_F), whose walks reach
    F by other paths) or with the right paths at wrong multipliers, the
    modulus still returns the unseeded value, so it stays an independent
    check of the capacity."""
    space = cone_small.space
    cond = cone_condenser(space)
    with monkeypatch.context() as m:
        m.setattr(solver, "_flow_paths", lambda *args: [])
        unseeded = modulus(space, cond, p, tol=1e-6, max_paths=400)
    rng = np.random.default_rng(7)
    capacity_solve, decompose = solver._capacity, solver._flow_paths
    seeded: list = []

    def wrong_potential(graph, E_idx, F_idx, *args):
        res = capacity_solve(graph, E_idx, F_idx, *args)
        u = res.potential
        if wrong == "permuted":
            u = rng.permutation(u)
        else:
            d_E = graph.multi_source_distances(E_idx)
            d_F = graph.multi_source_distances(F_idx)
            u = np.where(np.isnan(u), np.nan, d_F / (d_E + d_F))
        return solver.CapacityResult(value=res.value, potential=u, solve=res.solve)

    def recording(*args):
        paths = decompose(*args)
        if wrong == "shuffled":
            amounts = rng.permutation([a for _, a in paths]) * 10.0 ** rng.uniform(-3, 3, len(paths))
            paths = [(edges, a) for (edges, _), a in zip(paths, amounts)]
        seeded.extend(paths)
        return paths

    if wrong != "shuffled":
        monkeypatch.setattr(solver, "_capacity", wrong_potential)
    monkeypatch.setattr(solver, "_flow_paths", recording)
    res = modulus(space, cond, p, tol=1e-6, max_paths=400)
    assert (len(seeded) == 0) == (wrong == "permuted")
    assert unseeded.flags == []
    assert res.flags == []
    assert res.value == pytest.approx(unseeded.value, rel=1e-9)
    assert res.lower == pytest.approx(unseeded.lower, rel=1e-9)


@pytest.mark.parametrize("max_paths", [0, 1, 2, 5])
def test_modulus_seed_keeps_the_path_budget(monkeypatch, max_paths):
    """The seed admits at most max_paths - 1 paths beside the first route,
    and below two paths it solves no capacity at all."""
    exact = solver._capacity
    solves: list = []

    def counting(*args):
        solves.append(args)
        return exact(*args)

    monkeypatch.setattr(solver, "_capacity", counting)
    cond = Condenser(E=["g0_0", "g0_1", "g0_2"], F=["g3_0", "g3_1", "g3_2"])
    res = modulus(grid_space(4, 3), cond, 2.0, max_paths=max_paths)
    assert res.paths_used <= max(max_paths, 1)
    assert "path-budget" in res.flags
    assert len(solves) == (1 if max_paths >= 2 else 0)


def massless_bridge() -> GraphSpace:
    """Boundary vertices a - b - c, joined by edges of zero mass, and an
    interior vertex d hanging off b."""
    return GraphSpace(
        ["a", "b", "c", "d"], [0.0, 0.0, 0.0, 1.0], [True, True, True, False],
        [("a", "b", 1.0), ("b", "c", 1.0), ("b", "d", 1.0)],
    )


@pytest.mark.parametrize(
    "make_space, cond, flag",
    [
        # U holds only the plates, so no edge joins them
        (lambda: grid_space(3, 3), Condenser(E=["g0_0"], F=["g2_2"], U=["g0_0", "g2_2"]), "no-path"),
        (massless_bridge, Condenser(E=["a"], F=["c"]), "zero-cost-connection"),
    ],
    ids=["no-path", "zero-cost-connection"],
)
def test_modulus_early_returns_solve_no_capacity(monkeypatch, make_space, cond, flag):
    def refuse(*args):
        raise AssertionError("capacity solved before an early return")

    monkeypatch.setattr(solver, "_capacity", refuse)
    res = modulus(make_space(), cond, 2.0)
    assert res.flags == [flag]
    assert res.paths_used == 0


def test_modulus_seed_flags_do_not_leak(monkeypatch):
    """Flags of the seed's capacity solve say nothing about the modulus."""
    exact = solver._capacity

    def flagged(*args):
        res = exact(*args)
        res.solve.flags.append("unconverged")
        return res

    monkeypatch.setattr(solver, "_capacity", flagged)
    cond = Condenser(E=["g0_0", "g0_1", "g0_2"], F=["g3_0", "g3_1", "g3_2"])
    assert modulus(grid_space(4, 3), cond, 2.0, tol=1e-9).flags == []


@pytest.mark.parametrize("p", [1.5, 3.0])
def test_flow_paths_decompose_the_capacity_flow(cone_small, p):
    """Each walk is a simple path from E to F inside U, and on criterion 3's
    slit-cone condenser 55 walks take up the whole flow out of E."""
    space = cone_small.space
    E_idx, F_idx, in_U = solver._condenser_indices(space, cone_condenser(space))
    u = solver._capacity(space, E_idx, F_idx, p, None, in_U).potential
    c = edge_mass(space) / space.edge_length**p
    paths = solver._flow_paths(space, u, c, E_idx, F_idx, p, 60)
    assert len(paths) == 55
    eu, ev = space.edge_u, space.edge_v
    for edges, amount in paths:
        assert amount > 0
        assert in_U[eu[edges]].all() and in_U[ev[edges]].all()
        # a simple path: interior vertices meet two of its edges, its ends one
        degree = np.bincount(np.concatenate([eu[edges], ev[edges]]), minlength=space.n_vertices)
        ends = np.nonzero(degree == 1)[0]
        assert degree.max() <= 2
        assert ends.size == 2 and np.isin(ends, E_idx).sum() == 1 and np.isin(ends, F_idx).sum() == 1
    inside = in_U[eu] & in_U[ev]
    at_E = np.isin(eu, E_idx) | np.isin(ev, E_idx)
    out_E = float((c * np.abs(u[eu] - u[ev]) ** (p - 1))[inside & at_E].sum())
    assert sum(amount for _, amount in paths) == pytest.approx(out_E, rel=1e-12)


def test_flow_paths_end_quietly_at_a_dead_end():
    """A walk that meets a vertex without outgoing flow (the field is no
    capacity potential) ends the decomposition, and the walks completed
    before it are kept; an edge with a NaN end (outside U) carries no flow."""
    space = grid_space(3, 2)  # g0_0 - g1_0 - g2_0 below g0_1 - g1_1 - g2_1
    E_idx, F_idx = np.array([0]), np.array([2])
    c = np.ones(space.n_edges)
    # g0_0 -> g1_0 -> g2_0 carries 0.5; the next walk enters g0_1, a sink
    u = np.array([1.0, 0.5, 0.0, 0.8, 0.9, 0.9])
    assert [a for _, a in solver._flow_paths(space, u, c, E_idx, F_idx, 2.0, 5)] == [0.5]
    # g1_0 outside U: its edges carry no flow, so the one walk goes round it
    u = np.array([1.0, np.nan, 0.0, 0.75, 0.5, 0.25])
    [(edges, amount)] = solver._flow_paths(space, u, c, E_idx, F_idx, 2.0, 5)
    assert amount == 0.25
    assert 1 not in np.concatenate([space.edge_u[edges], space.edge_v[edges]])
    u[3] = np.nan  # g0_1 too: no flow leaves E
    assert solver._flow_paths(space, u, c, E_idx, F_idx, 2.0, 5) == []


# ---------------------------------------------------------------------------
# unbounded solves and capacity at infinity


def test_unbounded_solve_free_infinity(strip_small):
    space = strip_small.space
    f = {space.ids[i]: space.coords[i, 0] for i in space.boundary_indices()}
    res = solve_dirichlet_unbounded(space, power(2.0), 2.0, f)
    assert -1.0 - 1e-10 <= res.at_infinity_value <= 1.0 + 1e-10
    assert res.transformed.infinity_attached
    assert np.isfinite(res.u).all()
    # boundary data is reproduced exactly
    for i in space.boundary_indices():
        assert res.u[i] == pytest.approx(f[space.ids[i]], abs=1e-14)


def test_unbounded_solve_pinned_infinity(strip_small):
    space = strip_small.space
    f = {space.ids[i]: 0.0 for i in space.boundary_indices()}
    res = solve_dirichlet_unbounded(space, power(2.0), 2.0, f, at_infinity=0.7)
    assert res.at_infinity_value == pytest.approx(0.7)
    assert res.u[: space.n_vertices].max() < 0.7
    assert res.u.min() >= -1e-12


def test_capacity_of_infinity_shells(strip_small):
    ts = attach_infinity(transform(strip_small.space, power(2.0), 2.0))
    R = 1.0
    caps = [capacity_of_infinity(ts, 2.0, R / 2.0**k, R) for k in (2, 3, 4)]
    assert all(c > 0 and math.isfinite(c) for c in caps)
    # shrinking the inner shell can only shrink the condenser family
    assert caps[0] >= caps[1] >= caps[2]
    # the shell's index arrays and the public id path give the same value
    d = ts.distance_to_infinity()
    for k, cap in zip((2, 3, 4), caps):
        r = R / 2.0**k
        cond = Condenser(
            E=[vid for vid, dv in zip(ts.ids, d) if dv <= r * (1 + 1e-9)],
            F=[vid for vid, dv in zip(ts.ids, d) if dv >= R],
        )
        assert cap == capacity(ts, cond, 2.0).value
    with pytest.raises(SolverError, match="r <= R/4"):
        capacity_of_infinity(ts, 2.0, 0.3 * R, R)
    with pytest.raises(SolverError, match="infinity"):
        capacity_of_infinity(transform(strip_small.space, power(2.0), 2.0), 2.0, 0.25, 1.0)
