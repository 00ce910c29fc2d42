"""Property tests: the invariants the dampening transform guarantees, on
random small connected graphs and random power profiles.

Examples are derandomized and few, so the suite stays deterministic and fast.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from uniformizer.dampening import edge_weight, power
from uniformizer.energy import edge_mass, p_energy, upper_gradient
from uniformizer.graphspace import GraphSpace
from uniformizer.solver import (
    Condenser,
    DirichletProblem,
    capacity,
    modulus,
    solve_dirichlet_unbounded,
    solve_p_harmonic,
)
from uniformizer.transform import transform

PROPERTY = settings(max_examples=25, deadline=None, derandomize=True, database=None)
EXPONENTS = st.sampled_from([1.5, 2.0, 3.0])
PROFILES = st.floats(1.5, 4.0).map(power)


@st.composite
def domains(draw) -> GraphSpace:
    """A connected graph on 4..9 vertices: a random tree plus random chords,
    lengths in [0.1, 2], at least one boundary and two interior vertices."""
    n = draw(st.integers(4, 9))
    pairs = {(draw(st.integers(0, i - 1)), i) for i in range(1, n)}
    for a, b in draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=n)):
        if a != b:
            pairs.add((min(a, b), max(a, b)))
    pairs = sorted(pairs)
    lengths = draw(st.lists(st.floats(0.1, 2.0), min_size=len(pairs), max_size=len(pairs)))
    order = draw(st.permutations(range(n)))
    boundary = set(order[: draw(st.integers(1, n - 2))])
    ids = [f"v{i}" for i in range(n)]
    return GraphSpace(
        ids,
        [0.0 if i in boundary else draw(st.floats(0.1, 2.0)) for i in range(n)],
        [i in boundary for i in range(n)],
        [(ids[a], ids[b], ln) for (a, b), ln in zip(pairs, lengths)],
    )


def _field(space: GraphSpace, seed: int) -> np.ndarray:
    return np.random.default_rng(seed).normal(size=space.n_vertices)


def _boundary_data(space: GraphSpace, seed: int) -> dict:
    rng = np.random.default_rng(seed)
    return {space.ids[i]: float(rng.uniform(-1.0, 1.0)) for i in space.boundary_indices()}


@PROPERTY
@given(domains(), PROFILES, EXPONENTS, st.integers(0, 2**16))
def test_energy_identity(space, phi, p, seed):
    ts = transform(space, phi, p)
    u = _field(space, seed)
    assert p_energy(ts, u, p) == pytest.approx(p_energy(space, u, p), rel=1e-12)


@PROPERTY
@given(domains(), PROFILES, EXPONENTS, st.integers(0, 2**16))
def test_chain_rule(space, phi, p, seed):
    ts = transform(space, phi, p)
    u = _field(space, seed)
    w = edge_weight(phi, ts.edge_rep_dist)
    np.testing.assert_allclose(upper_gradient(ts, u) * w, upper_gradient(space, u), rtol=1e-12)
    np.testing.assert_allclose(edge_mass(ts), edge_mass(space) * w**p, rtol=1e-12)


@PROPERTY
@given(domains(), PROFILES, EXPONENTS, st.integers(0, 2**16))
def test_base_and_dampened_minimizers_agree(space, phi, p, seed):
    data = _boundary_data(space, seed)
    base = solve_p_harmonic(DirichletProblem(space, p, data))
    damp = solve_p_harmonic(DirichletProblem(transform(space, phi, p), p, data))
    np.testing.assert_allclose(damp.u, base.u, rtol=0, atol=1e-6)


@PROPERTY
@given(domains(), PROFILES, EXPONENTS, st.integers(0, 2**16))
def test_maximum_principle_with_infinity(space, phi, p, seed):
    data = _boundary_data(space, seed)
    res = solve_dirichlet_unbounded(space, phi, p, data)
    lo, hi = min(data.values()), max(data.values())
    slack = 1e-9 * max(hi - lo, 1.0)
    values = np.append(res.u, res.at_infinity_value)
    assert not any(f.startswith("max-principle-violation") for f in res.solve.flags)
    assert lo - slack <= values.min() and values.max() <= hi + slack


@PROPERTY
@given(domains(), EXPONENTS, st.data())
def test_capacity_equals_modulus(space, p, data):
    e, f = data.draw(st.lists(st.sampled_from(space.ids), min_size=2, max_size=2, unique=True))
    cond = Condenser(E=[e], F=[f])
    mod = modulus(space, cond, p, tol=1e-9)
    # zero-mass edges can join the plates at no cost; then there is no
    # path program to compare
    assume(not {"zero-cost-connection", "no-path"} & set(mod.flags))
    cap = capacity(space, cond, p).value
    assert abs(mod.value - cap) <= 1e-6 * cap
