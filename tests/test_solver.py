"""Dirichlet solvers, capacities, and moduli against independent oracles.

Oracles used here:

* series (path) problems: the exact Lagrange drops, Delta_i proportional to
  (l_i^p / m_i)^(1/(p-1)), normalized to the total potential difference;
* p = 2 on a real domain: a dense weighted-Laplacian solve assembled in-test;
* p != 2 with one free vertex: scalar energy minimization;
* modulus: full convex program over an exhaustively enumerated path family,
  solved with SLSQP.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from scipy.optimize import minimize, minimize_scalar

from uniformizer import solver
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
    f = {space.ids[i]: space.coords[space.ids[i]][0] for i in space.boundary_indices()}
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
    f = {space.ids[i]: space.coords[space.ids[i]][0] for i in space.boundary_indices()}
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
    f = {space.ids[i]: space.coords[space.ids[i]][0] for i in space.boundary_indices()}
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
    f = {space.ids[i]: space.coords[space.ids[i]][0] for i in space.boundary_indices()}
    a = solve_p_harmonic(DirichletProblem(space, 3.0, f))
    b = solve_p_harmonic(
        DirichletProblem(space, 3.0, f, SolveOptions(init="flat", eps_factor=0.3))
    )
    np.testing.assert_allclose(a.u, b.u, atol=1e-8)


@pytest.mark.parametrize("p", [1.5, 3.0])
def test_default_continuation_matches_fine_continuation(strip_small, p):
    """The default schedule (factor 0.01, warm-start levels stopped at
    sqrt(tol)) lands on the u of a fine one; energies alone cannot show an
    error in u on edges where the difference is about 0."""
    space = strip_small.space
    f = {
        space.ids[i]: math.sin(math.pi * space.coords[space.ids[i]][0])
        for i in space.boundary_indices()
    }
    a = solve_p_harmonic(DirichletProblem(space, p, f))
    b = solve_p_harmonic(DirichletProblem(space, p, f, SolveOptions(eps_factor=0.3)))
    np.testing.assert_allclose(a.u, b.u, rtol=0, atol=1e-8)
    assert a.flags == []
    assert a.residual < SolveOptions().tol


def test_condenser_capacity_newton_steps(cone_small):
    """Criterion 3's slit-cone condenser at p = 3 takes at most 14 Newton
    steps (22 under a factor-0.1 schedule that solves every level to tol)."""
    space = cone_small.space
    E, F = ["v0_2"], ["v0_6"]
    d = space.multi_source_distances([space.index[v] for v in E + F])
    U = [space.ids[i] for i in np.nonzero(d <= 2.5)[0]]
    res = capacity(space, Condenser(E=E, F=F, U=U), 3.0)
    assert res.solve.flags == []
    assert res.solve.iterations <= 14


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
        (3.0, SolveOptions(eps_factor=2.0), "must lie in"),
        (1.5, SolveOptions(eps_factor=0.0), "must lie in"),
        (3.0, SolveOptions(eps_floor_factor=0.0), "must lie in"),
    ],
)
def test_bad_continuation_inputs_rejected(strip_small, p, options, message):
    space = strip_small.space
    ramp = {space.ids[i]: space.coords[space.ids[i]][0] for i in space.boundary_indices()}
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
    ramp = {space.ids[i]: space.coords[space.ids[i]][0] for i in space.boundary_indices()}
    with pytest.raises(SolverError, match="init"):
        solve_p_harmonic(DirichletProblem(space, 3.0, ramp, SolveOptions(init="wild")))
    with pytest.raises(SolverError, match="positive"):
        solve_p_harmonic(
            DirichletProblem(space, 3.0, ramp, SolveOptions(eps_schedule=[0.1, -0.1]))
        )


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


# ---------------------------------------------------------------------------
# unbounded solves and capacity at infinity


def test_unbounded_solve_free_infinity(strip_small):
    space = strip_small.space
    f = {space.ids[i]: space.coords[space.ids[i]][0] for i in space.boundary_indices()}
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
