"""Property tests: the invariants the dampening transform guarantees, on
random small connected graphs and random profiles of every kind.

Examples are derandomized and few, so the suite stays deterministic and fast.
"""

from __future__ import annotations

import json
import math
import os
import tempfile

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import hex_columns
from uniformizer.dampening import edge_weight, log_power, power, tabulated
from uniformizer.energy import edge_mass, p_energy, upper_gradient
from uniformizer.graphspace import GraphSpace, dump_domain, load_domain
from uniformizer.solver import (
    Condenser,
    DirichletProblem,
    capacity,
    modulus,
    solve_dirichlet_unbounded,
    solve_p_harmonic,
)
from uniformizer.transform import attach_infinity, transform
from uniformizer.util import canonical_json, jsonable

PROPERTY = settings(max_examples=25, deadline=None, derandomize=True, database=None)
EXPONENTS = st.sampled_from([1.5, 2.0, 3.0])


@st.composite
def tabulated_profiles(draw):
    """Samples at 2^-k (k <= 2), 1, 2, 4, ..., 64: flat up to t = 1, then
    power segments with slopes in [1.1, 4], past every distance to the
    boundary of a graph below (at most 8 edges of length 2)."""
    samples = [(2.0 ** -k, 1.0) for k in range(draw(st.integers(0, 2)), 0, -1)] + [(1.0, 1.0)]
    for slope in draw(st.lists(st.floats(1.1, 4.0), min_size=6, max_size=6)):
        t, value = samples[-1]
        samples.append((2 * t, value * 2.0**-slope))
    return tabulated(samples)


PROFILES = st.floats(1.5, 4.0).map(power) | st.floats(1.5, 4.0).map(log_power) | tabulated_profiles()


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


@PROPERTY
@given(domains(), PROFILES, EXPONENTS)
def test_json_round_trip_is_byte_stable(space, phi, p):
    with tempfile.TemporaryDirectory() as tmp:
        first, second = os.path.join(tmp, "first.json"), os.path.join(tmp, "second.json")
        for g in (space, attach_infinity(transform(space, phi, p))):
            dump_domain(g, first)
            back = load_domain(first)
            dump_domain(back, second)
            with open(first, "rb") as a, open(second, "rb") as b:
                assert a.read() == b.read()
        # the dampened file rebuilds the transform, masses included
        np.testing.assert_array_equal(edge_mass(back), edge_mass(g))
        assert (back.phi, back.p) == (g.phi, g.p)


# Finite floats a domain file must carry bit for bit: subnormals, values near
# 1e300 and the float maximum, -0.0 and ones with no short decimal form.
POSITIVE = st.floats(min_value=5e-324, max_value=1e300) | st.sampled_from([5e-324, 1e-310, 9.9e299, 1e300, 1 / 3])
COORDINATES = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from([-0.0, 5e-324, -1.797e308])


@st.composite
def awkward_spaces(draw) -> GraphSpace:
    """A ``domains()`` graph with awkward finite floats: positive lengths and
    interior measures from ``POSITIVE``, boundary measures 0.0 or -0.0, and
    a coordinate block of 1 to 3 columns whose other rows are NaN (all of
    them NaN, or no block, for no coordinates)."""
    g = draw(domains())
    measure = [draw(st.sampled_from([0.0, -0.0]) if b else POSITIVE) for b in g.boundary_mask.tolist()]
    lengths = draw(st.lists(POSITIVE, min_size=g.n_edges, max_size=g.n_edges))
    dim = draw(st.integers(1, 3))
    row = st.tuples(*[COORDINATES] * dim) | st.just((math.nan,) * dim)
    coords = draw(st.none() | st.lists(row, min_size=g.n_vertices, max_size=g.n_vertices).map(np.array))
    return GraphSpace.from_arrays(
        list(g.ids), np.array(measure), g.boundary_mask, g.edge_u, g.edge_v, np.array(lengths), coords=coords
    )


@PROPERTY
@given(awkward_spaces())
def test_domain_file_keeps_every_bit(space):
    """load_domain(dump_domain(s)) equals s by float.hex in every column, in
    vertex and edge order, and a second dump is byte-identical."""
    with tempfile.TemporaryDirectory() as tmp:
        first, second = os.path.join(tmp, "first.json"), os.path.join(tmp, "second.json")
        dump_domain(space, first)
        back = load_domain(first)
        dump_domain(back, second)
        with open(first, "rb") as a, open(second, "rb") as b:
            assert a.read() == b.read()
    assert hex_columns(back) == hex_columns(space)


# Leaves for the JSON writer: every value kind jsonable converts, with the
# floats json spells specially and strings that need escaping.
SPECIAL_FLOATS = st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 1e-320, 1e308])
FLOATS = st.floats() | SPECIAL_FLOATS
TEXT = st.text(st.characters() | st.sampled_from(['"', "\\", "\n", "\t", "\x00", "\x1f", "\x7f", "é", "\u2028"]))
LEAVES = (
    st.none()
    | st.booleans()
    | st.integers(-(2**70), 2**70)
    | FLOATS
    | TEXT
    | FLOATS.map(np.float64)
    | st.integers(-(2**63), 2**63 - 1).map(np.int64)
    | st.booleans().map(np.bool_)
    | st.lists(FLOATS, max_size=6)
    | st.lists(FLOATS, max_size=6).map(lambda xs: np.array(xs, dtype=float))
)
KEYS = TEXT | st.integers(-3, 3) | st.sampled_from(["%s", "%", "id"])


def _tables(inner):
    """Lists of dicts sharing one key sequence."""
    keys = st.lists(KEYS, min_size=1, max_size=4, unique=True)
    return keys.flatmap(
        lambda ks: st.lists(
            st.lists(inner, min_size=len(ks), max_size=len(ks)).map(lambda vs: dict(zip(ks, vs))),
            max_size=4,
        )
    )


NESTED = st.recursive(
    LEAVES,
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=4).map(tuple)
    | st.dictionaries(KEYS, inner, max_size=4)
    | _tables(inner),
    max_leaves=24,
)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(NESTED)
@example([{}, {}])
@example([{"v": 1.5, "u": "a"}, {"u": "b", "v": math.inf}, {"u": "c", "v": [True, None]}])
def test_canonical_json_reads_back_as_a_fixed_point(obj):
    """The text ends in one newline, reads back as the ``jsonable`` form of
    the value, and writing what it reads back gives the same text."""
    text = canonical_json(obj)
    assert text.endswith("\n") and not text.endswith("\n\n")
    assert json.loads(text) == jsonable(obj)
    assert canonical_json(json.loads(text)) == text
