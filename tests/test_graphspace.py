"""Metric and measure primitives on weighted graph domains.

Distance oracles are recomputed in-test with a dense Floyd-Warshall pass so
the Dijkstra-based library code is checked against an independent algorithm.
"""

from __future__ import annotations

import base64
import json
import math
import re

import numpy as np
import pytest
from scipy.sparse import csgraph

from conftest import column, hex_columns, put_column, set_entry
from uniformizer import domains, graphspace
from uniformizer.dampening import power
from uniformizer.graphspace import (
    DomainFormatError,
    GraphSpace,
    band_of_distance,
    dump_domain,
    from_payload,
    load_domain,
    shortest_route,
)
from uniformizer.transform import attach_infinity, transform


def cycle_space() -> GraphSpace:
    """4-cycle a-b-c-d with lengths 1, 2, 3, 4 and a single boundary vertex."""
    return GraphSpace(
        ids=["a", "b", "c", "d"],
        measures=[0.0, 1.0, 2.0, 0.5],
        boundary_flags=[True, False, False, False],
        edges=[("a", "b", 1.0), ("b", "c", 2.0), ("c", "d", 3.0), ("d", "a", 4.0)],
    )


def floyd_warshall(n: int, edges: list[tuple[int, int, float]]) -> np.ndarray:
    dist = np.full((n, n), np.inf)
    np.fill_diagonal(dist, 0.0)
    for u, v, w in edges:
        dist[u, v] = min(dist[u, v], w)
        dist[v, u] = min(dist[v, u], w)
    for k in range(n):
        dist = np.minimum(dist, dist[:, k : k + 1] + dist[k : k + 1, :])
    return dist


def random_connected(seed: int, n: int = 14) -> tuple[GraphSpace, list[tuple[int, int, float]]]:
    """Random spanning tree plus extra chords, lengths in [0.5, 2)."""
    rng = np.random.default_rng(seed)
    edges: list[tuple[int, int, float]] = []
    for v in range(1, n):
        u = int(rng.integers(0, v))
        edges.append((u, v, float(rng.uniform(0.5, 2.0))))
    for _ in range(n):
        u, v = rng.integers(0, n, size=2)
        if u != v and not any({int(u), int(v)} == {a, b} for a, b, _ in edges):
            edges.append((int(u), int(v), float(rng.uniform(0.5, 2.0))))
    ids = [f"n{i}" for i in range(n)]
    space = GraphSpace(
        ids=ids,
        measures=[0.0] + [1.0] * (n - 1),
        boundary_flags=[True] + [False] * (n - 1),
        edges=[(ids[u], ids[v], w) for u, v, w in edges],
    )
    return space, edges


# ---------------------------------------------------------------------------
# distances


def test_cycle_distances_match_floyd_warshall():
    space = cycle_space()
    oracle = floyd_warshall(4, [(0, 1, 1.0), (1, 2, 2.0), (2, 3, 3.0), (3, 0, 4.0)])
    for i, x in enumerate(space.ids):
        for j, y in enumerate(space.ids):
            assert space.distances_from(x)[space.index[y]] == pytest.approx(oracle[i, j], abs=1e-14)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_random_graph_distances_match_floyd_warshall(seed):
    space, edges = random_connected(seed)
    oracle = floyd_warshall(space.n_vertices, edges)
    for i in range(space.n_vertices):
        np.testing.assert_allclose(space.distances_from(i), oracle[i], atol=1e-12)


def test_multi_source_distances_are_pointwise_minima():
    space, edges = random_connected(3)
    oracle = floyd_warshall(space.n_vertices, edges)
    sources = [0, 5, 9]
    got = space.multi_source_distances(sources)
    np.testing.assert_allclose(got, oracle[sources].min(axis=0), atol=1e-12)


def test_distance_limit_truncates():
    space = cycle_space()
    d = space.distances_from(0, limit=1.5)
    assert d[1] == pytest.approx(1.0)
    assert not np.isfinite(d[2])


def test_shortest_route_reports_cost_and_consistent_path():
    space = cycle_space()
    cost, vpath, epath = shortest_route(space, [0], [2])
    assert cost == pytest.approx(3.0)
    assert vpath[0] == 0 and vpath[-1] == 2
    assert sum(space.edge_length[e] for e in epath) == pytest.approx(cost)
    # per-edge weights override lengths: make the long way round cheap
    w = np.array([10.0, 10.0, 1.0, 1.0])
    cost_w, vpath_w, _ = shortest_route(space, [0], [2], edge_weights=w)
    assert cost_w == pytest.approx(2.0)
    assert vpath_w == [0, 3, 2]


def test_shortest_route_unreachable_target_raises():
    space = cycle_space()
    with pytest.raises(ValueError, match="empty target set"):
        shortest_route(space, [0], [])
    with pytest.raises(ValueError, match="unreachable"):
        shortest_route(space, [0], [2], edge_weights=np.array([1.0, np.inf, 1.0, np.inf]))


def test_shortest_route_rejects_empty_sources():
    space = cycle_space()
    with pytest.raises(ValueError, match="empty source set"):
        shortest_route(space, [], [2])


@pytest.mark.parametrize(
    "sources, targets, weights, message",
    [
        ([0], [2], np.ones(3), "3 edge weights for 4 edges"),
        ([0], [2], np.ones(5), "5 edge weights for 4 edges"),
        ([0], [2], np.array([1.0, np.nan, 1.0, 1.0]), "NaN edge weights"),
        ([0], [2], np.array([1.0, -1.0, 1.0, 1.0]), "negative edge weights"),
        ([-1], [2], None, r"source index outside \[0, 4\)"),
        ([0, 4], [2], None, r"source index outside \[0, 4\)"),
        ([0], [999], None, r"target index outside \[0, 4\)"),
        ([0], [-2, 2], None, r"target index outside \[0, 4\)"),
    ],
)
def test_shortest_route_rejects_bad_inputs(sources, targets, weights, message):
    with pytest.raises(ValueError, match=message):
        shortest_route(cycle_space(), sources, targets, edge_weights=weights)


def test_weighted_routes_leave_the_metric_alone(strip_small):
    """Weighted routes write into a cached matrix of their own: afterwards
    the adjacency still holds the lengths, and distances and an unweighted
    route are those of a fresh space."""
    space = strip_small.space
    fresh = domains.half_strip(0.25, 16.0).space
    rng = np.random.default_rng(5)
    for _ in range(3):
        w = rng.uniform(0.0, 3.0, size=space.n_edges)
        w[rng.random(space.n_edges) < 0.2] = np.inf
        try:
            shortest_route(space, [0], [space.n_vertices - 1], edge_weights=w)
        except ValueError:  # the infinities may cut the target off
            pass
    np.testing.assert_array_equal(space.adjacency().data, fresh.adjacency().data)
    np.testing.assert_array_equal(space.distances_from(7), fresh.distances_from(7))
    last = space.n_vertices - 1
    assert shortest_route(space, [0, 3], [last]) == shortest_route(fresh, [0, 3], [last])


def test_shortest_route_ties_go_to_smallest_target_index():
    space = cycle_space()
    cost, vpath, epath = shortest_route(space, [0], [3, 1], edge_weights=np.zeros(4))
    assert (cost, vpath, epath) == (0.0, [0, 1], [0])
    cost, vpath, epath = shortest_route(space, [2, 0], [2])
    assert (cost, vpath, epath) == (0.0, [2], [])


@pytest.mark.parametrize("seed", range(12))
def test_shortest_route_matches_floyd_warshall(seed):
    """Routes from several sources to several targets under weights with
    zeros (still edges) and infinities (no edge) cost the oracle's minimum,
    and the returned paths are walks whose weights add up to that cost."""
    space, _ = random_connected(seed, n=24)
    rng = np.random.default_rng(100 + seed)
    w = rng.uniform(0.5, 2.0, size=space.n_edges)
    w[rng.random(space.n_edges) < 0.15] = 0.0
    w[rng.random(space.n_edges) < 0.3] = np.inf
    weighted = [(int(u), int(v), float(x)) for u, v, x in zip(space.edge_u, space.edge_v, w)]
    oracle = floyd_warshall(space.n_vertices, weighted)
    picks = rng.permutation(space.n_vertices)
    sources, targets = picks[:2].tolist(), picks[2:5].tolist()
    best = oracle[np.ix_(sources, targets)].min()
    cost, vpath, epath = shortest_route(space, sources, targets, edge_weights=w)
    assert cost == pytest.approx(best, rel=1e-12, abs=1e-15)
    assert vpath[0] in sources and vpath[-1] in targets
    assert len(epath) == len(vpath) - 1
    for k, e in enumerate(epath):
        assert {int(space.edge_u[e]), int(space.edge_v[e])} == {vpath[k], vpath[k + 1]}
    assert sum(w[e] for e in epath) == cost


# ---------------------------------------------------------------------------
# boundary distance and bands


def test_boundary_distance_on_strip_rows(strip_small):
    space = strip_small.space
    # the boundary is the bottom row, so d equals the height coordinate
    np.testing.assert_allclose(space.boundary_distance_array(), space.coords[:, 1], rtol=0, atol=1e-12)


def test_cached_distance_arrays_are_read_only():
    """The two cached arrays, boundary distance and distance to infinity,
    are read-only and every call returns the same array.  distances_from
    caches nothing: a write to what it returned leaves the next call alone."""
    space = cycle_space()
    ts = attach_infinity(transform(domains.half_strip(0.25, 8).space, power(2.0), 2.0))
    for get in (space.boundary_distance_array, ts.boundary_distance_array, ts.distance_to_infinity):
        arr = get()
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = -1.0
        assert get() is arr
    for limit in (None, 2.5):
        first = space.distances_from("a", limit=limit)
        want = first.copy()
        first[:] = -1.0
        np.testing.assert_array_equal(space.distances_from("a", limit=limit), want)
    np.testing.assert_array_equal(want, [0.0, 1.0, np.inf, np.inf])


FROZEN_ARRAYS = ("edge_u", "edge_v", "edge_length", "measure", "boundary_mask")


def test_space_arrays_are_read_only():
    """A write to an array of a space raises, so the caches built from it
    (adjacency, boundary distance, edge masses) stay true."""
    for space in (cycle_space(), domains.half_strip(0.5, 8).space):
        for name in FROZEN_ARRAYS:
            with pytest.raises(ValueError, match="read-only"):
                getattr(space, name)[0] = 1


def test_transform_base_arrays_are_read_only():
    """A transform shares arrays with its base; neither can be written."""
    ts = attach_infinity(transform(domains.half_strip(0.5, 8).space, power(2.0), 2.0))
    for space in (ts.base, ts):
        for name in FROZEN_ARRAYS:
            with pytest.raises(ValueError, match="read-only"):
                getattr(space, name)[0] = 1


def test_vertex_tables_are_read_only():
    """ids, index and the coordinate block cannot be written.  A transform
    holds its base's block, and attaching infinity adds one NaN row to it."""
    space = domains.half_strip(0.5, 8).space
    with pytest.raises(TypeError):
        space.ids[0] = "x"
    with pytest.raises(TypeError):
        space.index["x"] = 0
    ts = transform(space, power(2.0), 2.0)
    assert ts.coords is space.coords
    full = attach_infinity(ts)
    assert full.coords.shape == (space.n_vertices + 1, 2)
    np.testing.assert_array_equal(full.coords[:-1], space.coords)
    assert np.isnan(full.coords[-1]).all()
    for s in (space, full):
        with pytest.raises(ValueError, match="read-only"):
            s.coords[0, 0] = 1.0


@pytest.mark.parametrize(
    "make",
    [
        lambda: domains.cantor_slit(1 / 32, 8.0, 1),
        lambda: domains.plane_minus_cantor_square(0.25, 16.0, 1),
    ],
    ids=["cantor_slit", "plane_minus_cantor_square"],
)
def test_dijkstra_on_symmetric_adjacency_matches_undirected(make):
    """distances_from, distance_rows and multi_source_distances run csgraph
    with directed=True on the symmetric adjacency; the arrays must equal the
    directed=False result bit for bit (the rows with and without a limit,
    and limited rows equal to unlimited ones within the limit)."""
    space = make().space
    adj = space.adjacency()
    b = space.boundary_indices()
    sources = b[:: b.size // 5][:5]
    for limit in (None, 0.25):
        lim = np.inf if limit is None else limit
        for s in sources:
            ref = csgraph.dijkstra(adj, directed=False, indices=int(s), limit=lim)
            got = space.distances_from(int(s), limit=limit)
            assert got.dtype == ref.dtype and got.tobytes() == ref.tobytes()
        rows = np.array(list(space.distance_rows(sources, limit=limit)))
        ref = csgraph.dijkstra(adj, directed=False, indices=sources, limit=lim)
        assert rows.tobytes() == ref.tobytes()
        full = csgraph.dijkstra(adj, directed=False, indices=sources)
        assert rows[rows <= lim].tobytes() == full[full <= lim].tobytes()
    for src in (sources, b):
        ref = csgraph.dijkstra(adj, directed=False, indices=src, min_only=True)
        got = space.multi_source_distances(src)
        assert got.dtype == ref.dtype and got.tobytes() == ref.tobytes()


def test_band_of_distance_half_open_convention():
    assert band_of_distance(0.3) == 0
    assert band_of_distance(1.0) == 0
    assert band_of_distance(1.5) == 1
    assert band_of_distance(2.0) == 1
    assert band_of_distance(2.0000001) == 2
    assert band_of_distance(4.0) == 2
    assert band_of_distance(100.0) == 7
    # the same rule elementwise on arrays
    d = np.array([0.3, 1.0, 1.5, 2.0, 2.0000001, 4.0, 100.0])
    np.testing.assert_array_equal(band_of_distance(d), [0, 0, 1, 1, 2, 2, 7])


def test_bands_partition_and_measures(strip_small):
    space = strip_small.space
    dec = space.bands()
    d = space.boundary_distance_array()
    interior = space.interior_mask
    assert dec.n_max == band_of_distance(float(d.max()))
    # band indices agree with the scalar helper on every interior vertex
    for i in np.flatnonzero(interior):
        assert dec.band_index[i] == band_of_distance(float(d[i]))
    # band measures add up to the total (boundary carries measure zero)
    assert sum(dec.band_measure.values()) == pytest.approx(space.measure.sum())
    for n, m in dec.band_measure.items():
        sel = interior & (dec.band_index == n)
        assert m == pytest.approx(float(space.measure[sel].sum()))


def test_metric_ball_is_open_and_monotone():
    """The ball about x of radius r is ``distances_from(x) < r``."""
    space = cycle_space()
    d = space.distances_from("a")

    def ball(r):
        return {space.ids[i] for i in np.flatnonzero(d < r)}

    assert ball(0.5) == {"a"}
    # open convention: the vertex at distance exactly r stays outside
    assert ball(1.0) == {"a"}
    assert ball(1.5) == {"a", "b"}
    assert ball(3.5) == {"a", "b", "c"}
    assert ball(4.5) == {"a", "b", "c", "d"}


# ---------------------------------------------------------------------------
# construction and serialization


def test_empty_boundary_rejected():
    with pytest.raises(DomainFormatError, match="boundary"):
        GraphSpace(["x", "y"], [1.0, 1.0], [False, False], [("x", "y", 1.0)])


def test_boundary_measure_must_vanish():
    with pytest.raises(DomainFormatError):
        GraphSpace(["x", "y"], [1.0, 1.0], [True, False], [("x", "y", 1.0)])


def test_disconnected_graph_rejected():
    with pytest.raises(DomainFormatError, match="connect"):
        GraphSpace(
            ["x", "y", "z", "w"],
            [0.0, 1.0, 0.0, 1.0],
            [True, False, True, False],
            [("x", "y", 1.0), ("z", "w", 1.0)],
        )


def test_nonpositive_edge_length_rejected():
    with pytest.raises(DomainFormatError):
        GraphSpace(["x", "y"], [0.0, 1.0], [True, False], [("x", "y", -1.0)])


def test_edge_to_unknown_vertex_rejected():
    with pytest.raises(DomainFormatError, match="ghost"):
        GraphSpace(["x", "y"], [0.0, 1.0], [True, False], [("x", "ghost", 1.0)])


def test_duplicate_vertex_id_rejected():
    with pytest.raises(DomainFormatError, match="duplicate"):
        GraphSpace(
            ["x", "x", "y"], [0.0, 0.0, 1.0], [True, True, False],
            [("x", "y", 1.0)],
        )


@pytest.mark.parametrize(
    "mutate, fragment",
    [
        (lambda p: p.pop("vertices"), "vertices"),
        (lambda p: p["vertices"].pop("measure"), "measure"),
        (lambda p: p["edges"].pop("length"), "length"),
        (lambda p: set_entry(p, "vertices", 0, boundary=2), "boolean"),
        (lambda p: (set_entry(p, "vertices", 3, id="nope"), _append_edge(p, 0, 3, 1.0)), "nope"),
        # from_arrays runs the checks of a file's edge columns
        (lambda p: _cycle_from_arrays([0, 1, 2, 3, 1], [1, 2, 3, 0, 0]), r"^edges\[4\]: duplicate edge 'b'-'a'$"),
        (lambda p: _cycle_from_arrays([0, 1, 2, 3], [1, 2, 4, 0]), r"^edges\[2\]: unknown endpoint 'c' or 4$"),
        (lambda p: _cycle_from_arrays([0, 1, 3, 3], [1, 2, 3, 0]), r"^edges\[2\]: self loop at 'd'$"),
    ],
)
def test_payload_diagnostics_name_the_offender(mutate, fragment):
    """A mutated file form of cycle_space, or edge columns given to
    from_arrays, is refused with a message naming the offender."""
    payload = cycle_space().to_payload()
    with pytest.raises(DomainFormatError, match=fragment):
        mutate(payload)
        from_payload(payload)


def _cycle_from_arrays(edge_u: list[int], edge_v: list[int]) -> GraphSpace:
    """cycle_space's vertices with the given edge ends, each of length 1."""
    return GraphSpace.from_arrays(
        ["a", "b", "c", "d"],
        np.array([0.0, 1.0, 2.0, 0.5]),
        np.array([True, False, False, False]),
        np.array(edge_u),
        np.array(edge_v),
        np.ones(len(edge_u)),
    )


def _append_edge(p: dict, u: int, v: int, length: float) -> None:
    for key, x in (("u", u), ("v", v), ("length", length)):
        put_column(p, "edges", key, np.append(column(p, "edges", key), x))


def _drop_byte(p: dict, table: str, key: str) -> None:
    p[table][key] = base64.b64encode(base64.b64decode(p[table][key])[:-1]).decode("ascii")


def _coords(*rows):
    return lambda p: put_column(p, "vertices", "coords", rows)


def _dampening(**recipe):
    return lambda p: p.update(dampening=recipe)


NAN = math.nan

# Mutations of the file form of cycle_space (vertices a, b, c, d; edges a-b,
# b-c, c-d, d-a).  Each value case breaks an entry at k > 0 and another
# entry after it (in another way where the order of the checks matters), so
# a check that looks at a whole column at once must still name the first
# offender.  Edge ends are indices: -1, 4 and 9 are not vertices.
FIRST_OFFENDER_CASES = [
    ("top-level", lambda p: p.pop("edges"), "domain: missing 'edges'"),
    ("format-missing", lambda p: p.pop("format"), "domain: missing 'format' (only \"format\": 3 is read)"),
    ("vertices-list", lambda p: p.update(vertices=[]), "vertices: must be an object"),
    ("edges-list", lambda p: p.update(edges=[]), "edges: must be an object"),
    (
        "vertex-object",
        lambda p: (set_entry(p, "vertices", 1, id={"id": "b"}), set_entry(p, "vertices", 3, id=7)),
        "vertices[1]: 'id' must be a nonempty string",
    ),
    ("vertex-missing-key", lambda p: p["vertices"].pop("boundary"), "vertices: missing 'boundary'"),
    (
        "vertex-id",
        lambda p: (set_entry(p, "vertices", 1, id=""), set_entry(p, "vertices", 2, id=5)),
        "vertices[1]: 'id' must be a nonempty string",
    ),
    (
        # a column fault comes before any entry fault
        "vertex-measure",
        lambda p: (_drop_byte(p, "vertices", "measure"), set_entry(p, "vertices", 3, id=None)),
        "vertices.measure: 31 bytes, not a whole number of 8-byte entries",
    ),
    (
        "vertex-boundary",
        lambda p: (set_entry(p, "vertices", 1, boundary=2), set_entry(p, "vertices", 2, measure=NAN)),
        "vertices[1]: 'boundary' must be a boolean, byte 0 or 1",
    ),
    (
        "vertex-coords",
        _coords([NAN, NAN], [0.0, NAN], [NAN, 1.0], [NAN, NAN]),
        "vertices[1]: 'coords' must be all numbers or all NaN",
    ),
    (
        "vertex-coords-bool",
        lambda p: (_coords([0.0, 0.0], [1.0, 0.0], [NAN, 1.0], [0.0, NAN])(p),
                   set_entry(p, "vertices", 3, boundary=7)),
        "vertices[2]: 'coords' must be all numbers or all NaN",
    ),
    (
        "edge-object",
        lambda p: (set_entry(p, "edges", 1, v=4), set_entry(p, "edges", 2, u=-1)),
        "edges[1]: unknown endpoint 'b' or 4",
    ),
    ("edge-missing-key", lambda p: p["edges"].pop("v"), "edges: missing 'v'"),
    (
        "edge-length-type",
        lambda p: (p["edges"].update(length="AAAA*AAA"), set_entry(p, "edges", 2, v=4)),
        "edges.length: not base64",
    ),
    (
        "duplicate-id",
        lambda p: (set_entry(p, "vertices", 2, id="a"), set_entry(p, "vertices", 3, id="b"),
                   set_entry(p, "edges", 0, v=4)),
        "vertices[2]: duplicate id 'a'",
    ),
    (
        "unknown-endpoint",
        lambda p: (set_entry(p, "edges", 1, v=-1), set_entry(p, "edges", 3, u=9)),
        "edges[1]: unknown endpoint 'b' or -1",
    ),
    (
        "self-loop",
        lambda p: (set_entry(p, "edges", 1, v=1), set_entry(p, "edges", 2, v=4)),
        "edges[1]: self loop at 'b'",
    ),
    (
        "duplicate-edge",
        lambda p: (set_entry(p, "edges", 2, u=1, v=0), set_entry(p, "edges", 3, u=0, v=1)),
        "edges[2]: duplicate edge 'b'-'a'",
    ),
    (
        "zero-length",
        lambda p: (set_entry(p, "edges", 1, length=0.0), set_entry(p, "edges", 2, v=4)),
        "edges[1]: length must be positive and finite",
    ),
    (
        "inf-length",
        lambda p: (set_entry(p, "edges", 1, length=math.inf), set_entry(p, "edges", 3, length=-1.0)),
        "edges[1]: length must be positive and finite",
    ),
    (
        "nan-length",
        lambda p: (set_entry(p, "edges", 2, length=NAN), set_entry(p, "edges", 3, u=0, v=0)),
        "edges[2]: length must be positive and finite",
    ),
    (
        "measure-value",
        lambda p: (set_entry(p, "vertices", 2, measure=0.0), set_entry(p, "vertices", 3, measure=0.0)),
        "vertices[2] ('c'): interior vertex must have positive measure",
    ),
    (
        "measure-rule-order",
        lambda p: (set_entry(p, "vertices", 2, measure=0.0), set_entry(p, "vertices", 3, measure=-1.0)),
        "vertices[2] ('c'): interior vertex must have positive measure",
    ),
    (
        # a column in the JSON-list form of "format": 2
        "vertex-measure-bool",
        lambda p: p["vertices"].update(measure=[0.0, 1.0, 2.0, 0.5]),
        "vertices.measure: must be a base64 string",
    ),
    (
        "edge-length-bool",
        lambda p: put_column(p, "edges", "length", column(p, "edges", "length")[:-1]),
        "edges: 'length' has 3 entries, 'u' has 4",
    ),
    ("unknown-key", lambda p: p.update(infinity={"id": "inf"}), "domain: unknown key 'infinity'"),
    ("dampening-object", lambda p: p.update(dampening=[]), "dampening: must be an object"),
    ("dampening-kind", _dampening(kind="cubic", beta=2.0, p=2.0), "dampening: unknown kind 'cubic'"),
    (
        "dampening-extra-key",
        _dampening(kind="power", beta=2.0, samples=[[1.0, 1.0], [2.0, 0.25]], p=2.0),
        "dampening: keys must be 'kind', 'beta' and 'p'",
    ),
    (
        "dampening-missing-p",
        _dampening(kind="tabulated", samples=[[1.0, 1.0], [2.0, 0.25]]),
        "dampening: keys must be 'kind', 'samples' and 'p'",
    ),
    ("dampening-beta-string", _dampening(kind="power", beta="2", p=None), "dampening: 'beta' must be a number"),
    ("dampening-p-bool", _dampening(kind="log_power", beta=2.0, p=True), "dampening: 'p' must be a number"),
    (
        "dampening-samples-object",
        _dampening(kind="tabulated", samples={"t": 1.0}, p=2.0),
        "dampening: tabulated samples must be a JSON list of [t, value] pairs",
    ),
    (
        "dampening-samples-pair",
        _dampening(kind="tabulated", samples=[[1.0, 1.0], [2.0, None], [4.0]], p=2.0),
        "dampening: samples[1] must be a [number, number] pair",
    ),
    (
        "dampening-samples-value",
        _dampening(kind="tabulated", samples=[[1.0, 1.0], [2.0, 1.5], [4.0, 2.0]], p=2.0),
        "dampening: samples[1]: value must lie in (0, 1]",
    ),
    ("dampening-p-range", _dampening(kind="power", beta=2.0, p=0.5), "dampening: transform: p=0.5 must be finite and >= 1"),
    (
        "dampening-beta-range",
        _dampening(kind="power", beta=1.0, p=2.0),
        "dampening: tail_integral diverges: power with beta <= 1",
    ),
]
OFFENDER_PARAMS = [pytest.param(mutate, message, id=name) for name, mutate, message in FIRST_OFFENDER_CASES]


@pytest.mark.parametrize("mutate, message", OFFENDER_PARAMS)
def test_payload_diagnostics_name_the_first_offender(mutate, message):
    payload = cycle_space().to_payload()
    mutate(payload)
    with pytest.raises(DomainFormatError) as info:
        from_payload(payload)
    assert str(info.value) == message


@pytest.mark.parametrize("mutate, message", OFFENDER_PARAMS)
def test_column_form_names_the_same_first_offender(tmp_path, mutate, message):
    """Written as JSON text and read back by load_domain, as the CLI reads a
    domain, each mutated payload gives from_payload's message."""
    payload = cycle_space().to_payload()
    mutate(payload)
    path = tmp_path / "domain.json"
    path.write_text(json.dumps(payload))
    with pytest.raises(DomainFormatError) as info:
        load_domain(str(path))
    assert str(info.value) == message


def test_json_round_trip(tmp_path):
    """Every column comes back bit for bit and in order, and a second dump
    is byte-identical (canonical serialization)."""
    space = _with_coords([[-0.0, 5e-324], [NAN, NAN], [1e300, -1.5], [NAN, NAN]])
    path = tmp_path / "cycle.json"
    dump_domain(space, str(path))
    back = load_domain(str(path))
    assert hex_columns(back) == hex_columns(space)
    path2 = tmp_path / "cycle2.json"
    dump_domain(back, str(path2))
    assert path.read_bytes() == path2.read_bytes()


def test_payload_survives_json_text_round_trip(strip_small):
    space = strip_small.space
    text = json.dumps(space.to_payload())
    back = from_payload(json.loads(text))
    assert hex_columns(back) == hex_columns(space)


def test_load_builds_the_vertex_index_once(tmp_path, monkeypatch):
    path = tmp_path / "strip.json"
    dump_domain(domains.half_strip(0.5, 8).space, str(path))
    calls, vertex_index = [], graphspace._vertex_index

    def counted(ids):
        calls.append(len(ids))
        return vertex_index(ids)

    monkeypatch.setattr(graphspace, "_vertex_index", counted)
    load_domain(str(path))
    assert len(calls) == 1


@pytest.mark.parametrize(
    "coords, message",
    [
        (np.empty((4, 0)), "vertices.coords: shape (4, 0), not (4, dim >= 1)"),
        ([[0.0, 1.0], [NAN, 2.0], [NAN, NAN], [NAN, NAN]], "vertices.coords: a row mixes NaN and numbers"),
    ],
    ids=["empty", "nan"],
)
def test_writer_refuses_coords_the_format_cannot_carry(tmp_path, coords, message):
    """No file is written for a coordinate block that would load as another
    one: a block of no columns cannot even be built, and a row with some
    but not all NaN is refused by the writer."""
    path = tmp_path / "out.json"
    with pytest.raises(DomainFormatError, match=re.escape(message)):
        dump_domain(_with_coords(coords), str(path))
    assert not path.exists()


def test_an_all_nan_block_is_no_coordinates():
    space = _with_coords(np.full((4, 2), NAN))
    assert space.coords is None
    assert "coords" not in space.to_payload()["vertices"]


def test_writer_refuses_more_vertices_than_int32_ends_name(tmp_path, monkeypatch):
    """Checked before any column is encoded; the count is faked on a small
    space built first."""
    space = cycle_space()
    monkeypatch.setattr(GraphSpace, "n_vertices", property(lambda self: 2**31))
    with pytest.raises(DomainFormatError, match="int32"):
        dump_domain(space, str(tmp_path / "out.json"))
    assert not (tmp_path / "out.json").exists()


def test_integer_coords_load_as_floats():
    space = from_payload(_with_coords([[0, 1], [1.5, 0], [2, 2], [0, 3.0]]).to_payload())
    assert space.coords.dtype == np.float64
    np.testing.assert_array_equal(space.coords, [[0.0, 1.0], [1.5, 0.0], [2.0, 2.0], [0.0, 3.0]])


def _int_coords_from_file(tmp_path):
    path = tmp_path / "int_coords.json"
    dump_domain(_with_coords([[k, -k] for k in range(4)]), str(path))
    return load_domain(str(path))


def _with_coords(coords, ids=("a", "b", "c", "d")):
    return GraphSpace(
        ids=list(ids),
        measures=[0.0, 1.0, 2.0, 0.5],
        boundary_flags=[True, False, False, False],
        edges=[(ids[0], ids[1], 1.0), (ids[1], ids[2], 2.0), (ids[2], ids[3], 3.0), (ids[3], ids[0], 4.0)],
        coords=coords,
    )


DUMP_INPUTS = [
    pytest.param(lambda tmp: cycle_space(), id="no-coords"),
    pytest.param(lambda tmp: _with_coords([[NAN, NAN], [1.0, 2.0], [NAN, NAN], [0, 0.5]]), id="some-coords"),
    pytest.param(lambda tmp: _with_coords([[1.0, -0.0, 2.5 * k] for k in range(4)]), id="3d-coords"),
    pytest.param(_int_coords_from_file, id="int-coords-file"),
    pytest.param(
        lambda tmp: attach_infinity(transform(domains.half_strip(0.25, 8).space, power(2.0), 2.0)), id="infinity"
    ),
    pytest.param(
        lambda tmp: _with_coords(
            [[0.5, 1.0], [1.0, 1.0], [2.0, 0.0], [3.0, 0.0]], ids=("été", "a%s", 'q"\\', "\U0001d4b3")
        ),
        id="non-ascii-id",
    ),
]


@pytest.mark.parametrize("make", DUMP_INPUTS)
def test_dump_domain_writes_json_dumps_bytes(tmp_path, make):
    """A domain file is the compact json.dumps text of the payload, and
    loads back as the space it was written from."""
    space = make(tmp_path)
    path = tmp_path / "out.json"
    dump_domain(space, str(path))
    assert path.read_text() == json.dumps(space.to_payload(), sort_keys=True, separators=(",", ":")) + "\n"
    assert path.read_text().isascii()
    back = load_domain(str(path))
    assert back.ids == space.ids
    assert hex_columns(back)["coords"] == hex_columns(space)["coords"]
    assert back.infinity_id == space.infinity_id
    for name in ("measure", "boundary_mask", "edge_u", "edge_v", "edge_length"):
        np.testing.assert_array_equal(getattr(back, name), getattr(space, name))
