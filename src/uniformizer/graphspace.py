"""Finite weighted graphs with a marked boundary, treated as metric measure spaces.

A domain is a connected graph whose edges carry positive lengths and whose
vertices carry a measure that vanishes exactly on a nonempty set of boundary
vertices.  Path distance (sum of edge lengths along a path) makes it a length
space; the vertex measure makes it a measure space.  Everything downstream
(dampened metrics, energies, capacities) is built on the ``GraphSpace``
distance methods: ``distance_rows`` from several sources, limited or not, one
search per block of rows (every ball sweep reads it), ``distances_from`` one
vertex, ``multi_source_distances`` the nearest of several, and the cached
``boundary_distance_array``.  A metric ball about x of radius r is
``distances_from(x) < r``; a check on closed balls, ``<= r (1 + 1e-9)``, says so.

Distance to the boundary induces the dyadic band decomposition used to grade
the far field: band 0 is ``{d <= 1}`` and band ``n >= 1`` is
``{2^(n-1) < d <= 2^n}``.

Domain files hold ``GraphSpace.to_payload`` under ``"format": 3``: the
vertex ids as one JSON list, and every other column of the vertex and edge
tables as one base64 string of its little-endian values, with a fixed dtype
per column (``_COLUMNS``); the ``coords`` block is ``GraphSpace.coords`` as
it is.  A dampened domain adds one ``dampening`` block, its recipe, from
which ``from_payload`` rebuilds the transform (``transform.from_recipe``).
``dump_domain`` writes a file as one line of compact JSON with the stdlib C
encoder.
"""

from __future__ import annotations

import base64
import json
from dataclasses import dataclass
from itertools import repeat
from types import MappingProxyType
from typing import Iterator, Sequence

import numpy as np
import scipy.sparse as sp
from scipy.sparse import csgraph

from .util import atomic_write_text


class DomainFormatError(ValueError):
    """Malformed domain data: violates the schema or a structural invariant."""


# The most floats one ``distance_rows`` search returns (8 MB of rows).
ROW_CHUNK_FLOATS = 2**20


@dataclass
class BandDecomposition:
    """Dyadic grading of a space by distance to the boundary.

    band_index[i] is the band of vertex i (boundary vertices sit in band 0,
    their distance being zero).  band_measure maps band -> total vertex
    measure in it; bands with no vertices are absent.
    """

    band_index: np.ndarray
    band_measure: dict[int, float]
    n_max: int

    def measure(self, n: int) -> float:
        return self.band_measure.get(n, 0.0)


def band_of_distance(d):
    """Band index of boundary distances: 0 for d <= 1, else ceil(log2 d).

    Elementwise on arrays; a scalar distance gives an int.  A small downward
    shift before the ceiling keeps values that are powers of two (up to float
    drift) in the lower band, matching the half-open convention (2^(n-1), 2^n].
    """
    d = np.asarray(d, dtype=float)
    band = np.zeros(d.shape, dtype=np.int64)
    far = d > 1.0
    band[far] = np.maximum(1, np.ceil(np.log2(d[far]) - 1e-12).astype(np.int64))
    return int(band) if band.ndim == 0 else band


def _frozen(a: np.ndarray) -> np.ndarray:
    """Mark a cached array read-only, so callers cannot corrupt the cache."""
    a.flags.writeable = False
    return a


_ID_RULE = "'id' must be a nonempty string"


def _nonempty_strings(ids: Sequence) -> np.ndarray:
    """Per id, whether it is a nonempty string (``_ID_RULE``)."""
    return np.array([isinstance(x, str) and x != "" for x in ids], dtype=bool)


def _vertex_index(ids: list[str]) -> dict[str, int]:
    """Position of each vertex id; names the first repeated id."""
    index = dict(zip(ids, range(len(ids))))
    if len(index) != len(ids):
        first: dict[str, int] = {}
        k = next(k for k, vid in enumerate(ids) if first.setdefault(vid, k) != k)
        raise DomainFormatError(f"vertices[{k}]: duplicate id {ids[k]!r}")
    if not ids:
        raise DomainFormatError("vertices: empty vertex list")
    return index


def _end_indices(index: dict[str, int], ends: Sequence) -> np.ndarray:
    """Vertex index of each edge end, -1 where it is not a vertex id."""
    if not set(map(type, ends)).isdisjoint((list, dict)):  # unhashable, so never an id
        ends = [None if isinstance(e, (list, dict)) else e for e in ends]
    return np.fromiter(map(index.get, ends, repeat(-1)), dtype=np.int64, count=len(ends))


def _edge_arrays(
    eu: np.ndarray, ev: np.ndarray, lengths: Sequence, n: int, ends
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Endpoint indices (int64) and lengths of an edge list given as three
    columns, checked; an end outside [0, n) is unknown, and ``ends(k)`` gives
    the two ends of edge k as the message names them.

    Per edge the checks are, in this order: both endpoints known, no self
    loop, vertex pair not seen on an earlier edge, length positive and
    finite.  They run on whole arrays; the error names the first failing
    edge and, on it, the first failing check.
    """
    eu, ev = np.ascontiguousarray(eu, dtype=np.int64), np.ascontiguousarray(ev, dtype=np.int64)
    el = np.ascontiguousarray(lengths, dtype=float)
    for key, col in (("v", ev), ("length", el)):  # named as a file's columns are
        if col.size != eu.size:
            raise DomainFormatError(f"edges: '{key}' has {col.size} entries, 'u' has {eu.size}")
    unknown = (eu < 0) | (eu >= n) | (ev < 0) | (ev >= n)
    loop = eu == ev
    seen_before = np.ones(eu.size, dtype=bool)
    pair = np.minimum(eu, ev) * n + np.maximum(eu, ev)
    seen_before[np.unique(pair, return_index=True)[1]] = False
    bad_length = ~(el > 0.0) | ~np.isfinite(el)
    bad = unknown | loop | seen_before | bad_length
    if bad.any():
        k = int(np.argmax(bad))
        u, v = ends(k)
        if unknown[k]:
            msg = f"unknown endpoint {u!r} or {v!r}"
        elif loop[k]:
            msg = f"self loop at {u!r}"
        elif seen_before[k]:
            msg = f"duplicate edge {u!r}-{v!r}"
        else:
            msg = "length must be positive and finite"
        raise DomainFormatError(f"edges[{k}]: {msg}")
    return eu, ev, el


class GraphSpace:
    """Immutable weighted graph domain.

    Vertices and edges keep their construction order throughout; all arrays
    are aligned with that order, which is what makes serialized output
    byte-stable.  The tuple form ``GraphSpace(ids, measures, boundary_flags,
    edges)`` and ``from_arrays`` run the same checks.  ``infinity_id`` (set
    through ``from_arrays``) marks the single added point used by dampened
    (transformed) spaces; it is exempt from the measure-positivity rule but
    from nothing else.  The space is frozen, so its caches stay true: the
    arrays of vertex and edge data are read-only, ``ids`` is a tuple and
    ``index`` a read-only map.  ``coords`` is None or an (n, dim >= 1)
    float64 array, a row of NaN for a vertex without coordinates; a block
    that is all NaN is stored as None.

    The edge-mass slot holds one mass per edge.  ``from_arrays(edge_mass=...)``
    fills it with explicit masses (the dampened ones of a transform);
    otherwise ``energy.edge_mass`` fills it on first use with the length-share
    rule.  Either way every engine reads masses through ``energy.edge_mass``.
    """

    def __init__(
        self,
        ids: Sequence[str],
        measures: Sequence[float],
        boundary_flags: Sequence[bool],
        edges: Sequence[tuple[str, str, float]],
        coords: np.ndarray | None = None,
    ):
        us, vs, lengths = zip(*[(u, v, ln) for u, v, ln in edges]) if len(edges) else ((), (), ())
        self._build(ids, measures, boundary_flags, us, vs, lengths, coords, by_id=True)

    @classmethod
    def from_arrays(
        cls,
        ids: Sequence[str],
        measures: np.ndarray,
        boundary_flags: np.ndarray,
        edge_u: np.ndarray,
        edge_v: np.ndarray,
        edge_length: np.ndarray,
        coords: np.ndarray | None = None,
        infinity_id: str | None = None,
        edge_mass: np.ndarray | None = None,
    ) -> "GraphSpace":
        """The space whose edge k joins vertex indices ``edge_u[k]`` and
        ``edge_v[k]``, checked as the tuple form is; a message names an end
        ``ids[i]``, or ``i`` when it is outside the ids.  ``edge_mass``, when
        given, fills the edge-mass slot in place of the length-share rule."""
        space = cls.__new__(cls)
        space._build(ids, measures, boundary_flags, edge_u, edge_v, edge_length, coords, infinity_id, edge_mass)
        return space

    def _build(
        self, ids, measures, boundary_flags, u, v, lengths, coords, infinity_id=None, edge_mass=None, by_id=False
    ) -> None:
        """The one construction path; every check runs here, once.  Edge ends
        ``u`` and ``v`` are vertex ids when ``by_id``, else vertex indices.
        The space owns what it is given: arrays of the right dtype are kept,
        not copied, and made read-only, ``coords`` included."""
        self.ids: tuple[str, ...] = tuple(ids)
        try:  # before the index, which an unhashable id breaks; join is the cheapest pass that takes only strings
            "".join(self.ids)
        except TypeError:
            _first_offender("vertices", [(_nonempty_strings(self.ids), _ID_RULE)])
        self.index = MappingProxyType(_vertex_index(self.ids))
        if "" in self.index:
            raise DomainFormatError(f"vertices[{self.index['']}]: {_ID_RULE}")
        n = len(self.ids)
        self.measure = np.ascontiguousarray(measures, dtype=float)
        self.boundary_mask = np.ascontiguousarray(boundary_flags, dtype=bool)
        if self.measure.shape != (n,) or self.boundary_mask.shape != (n,):
            raise DomainFormatError("vertices: measure/boundary arrays misaligned")
        self.infinity_id = infinity_id
        self.infinity_index = self.index[infinity_id] if infinity_id is not None else -1
        if by_id:  # an end is named as it was given
            eu, ev, ends = _end_indices(self.index, u), _end_indices(self.index, v), lambda k: (u[k], v[k])
        else:  # an end is named by its id, or by its index when it has none
            eu, ev, ends = u, v, lambda k: tuple(self.ids[i] if 0 <= i < n else i for i in (int(u[k]), int(v[k])))
        self.edge_u, self.edge_v, self.edge_length = _edge_arrays(eu, ev, lengths, n, ends)
        if edge_mass is not None:
            edge_mass = _frozen(np.array(edge_mass, dtype=float))
            if edge_mass.shape != self.edge_length.shape or not (
                np.isfinite(edge_mass).all() and (edge_mass >= 0).all()
            ):
                raise DomainFormatError("edges: masses must align with edges, finite and >= 0")
        self._validate_measures()
        for a in (self.edge_u, self.edge_v, self.edge_length, self.measure, self.boundary_mask):
            _frozen(a)
        coords = None if coords is None else np.ascontiguousarray(coords, dtype=float)
        if coords is not None and (coords.ndim != 2 or coords.shape[0] != n or coords.size == 0):
            raise DomainFormatError(f"vertices.coords: shape {coords.shape}, not ({n}, dim >= 1)")
        self.coords = None if coords is None or np.isnan(coords).all() else _frozen(coords)
        self._edge_mass = edge_mass
        self._adjacency = self._route = self._boundary_distance = self._bands = None
        # solver.capacity's last potential (key, read-only copy), transform's boundary diameter
        self._equilibrium = self._boundary_diameter = None
        self._check_connected()

    # -- construction checks ------------------------------------------------

    def _validate_measures(self) -> None:
        if not self.boundary_mask.any():
            raise DomainFormatError("vertices: boundary set is empty")
        bad_value = ~np.isfinite(self.measure) | (self.measure < 0)
        bad_boundary = self.boundary_mask & (self.measure != 0.0)
        bad_interior = ~self.boundary_mask & (self.measure == 0.0)
        if self.infinity_index >= 0:
            bad_interior[self.infinity_index] = False
        bad = bad_value | bad_boundary | bad_interior
        if bad.any():
            # the first offending vertex, with the first rule it fails
            i = int(np.argmax(bad))
            msg = next(
                msg
                for mask, msg in (
                    (bad_value, "measure must be finite and >= 0"),
                    (bad_boundary, "boundary vertex must have zero measure"),
                    (bad_interior, "interior vertex must have positive measure"),
                )
                if mask[i]
            )
            raise DomainFormatError(f"vertices[{i}] ({self.ids[i]!r}): {msg}")
        if not (~self.boundary_mask).any():
            raise DomainFormatError("vertices: no interior vertices")
        if self.infinity_index >= 0 and self.boundary_mask[self.infinity_index]:
            raise DomainFormatError("infinity vertex cannot be a boundary vertex")

    def _check_connected(self) -> None:
        ncomp, _ = csgraph.connected_components(self.adjacency(), directed=False)
        if ncomp != 1:
            raise DomainFormatError(f"graph is disconnected ({ncomp} components)")

    # -- basic accessors ----------------------------------------------------

    @property
    def n_vertices(self) -> int:
        return len(self.ids)

    @property
    def n_edges(self) -> int:
        return len(self.edge_length)

    @property
    def interior_mask(self) -> np.ndarray:
        return ~self.boundary_mask

    def boundary_indices(self) -> np.ndarray:
        return np.nonzero(self.boundary_mask)[0]

    def adjacency(self) -> sp.csr_matrix:
        if self._adjacency is None:
            n = self.n_vertices
            rows = np.concatenate([self.edge_u, self.edge_v])
            cols = np.concatenate([self.edge_v, self.edge_u])
            vals = np.concatenate([self.edge_length, self.edge_length])
            self._adjacency = sp.csr_matrix((vals, (rows, cols)), shape=(n, n))
        return self._adjacency

    def _route_plan(self) -> tuple[np.ndarray, np.ndarray, sp.csr_matrix]:
        """Routing state, built on the first weighted search and reused.

        The COO-to-CSR conversion leaves adjacency() canonical (rows in
        order, columns increasing within a row), so its entries are the edge
        ends sorted by row, then column.  Returns, in that storage order, the
        edge id behind each entry and its int64 key ``row * n + col``
        (strictly increasing), and a CSR matrix that holds the adjacency's
        own ``indices``/``indptr`` and a data array of its own, into which
        ``_search`` writes the weights of each weighted run.
        """
        if self._route is None:
            adj, n = self.adjacency(), self.n_vertices
            rows = np.concatenate([self.edge_u, self.edge_v])
            cols = np.concatenate([self.edge_v, self.edge_u])
            slot_edge = np.tile(np.arange(self.n_edges), 2)[np.lexsort((cols, rows))]
            slot_key = np.repeat(np.arange(n, dtype=np.int64), np.diff(adj.indptr)) * n + adj.indices
            weighted = sp.csr_matrix((np.empty_like(adj.data), adj.indices, adj.indptr), shape=adj.shape)
            self._route = (_frozen(slot_edge), _frozen(slot_key), weighted)
        return self._route

    # -- metric primitives --------------------------------------------------

    def _search(self, sources, limit=None, min_only=False, edge_weights=None):
        """The package's one Dijkstra run, on the cached adjacency.

        adjacency() is symmetric, so directed=True gives the undirected
        distances without scipy building its transpose on every call.
        ``edge_weights`` (float, one per edge) replace the lengths slot by
        slot in the cached weighted matrix of ``_route_plan``; then the
        predecessors come back too, as ``(dist, pred)``.  A zero weight stays
        an edge and an infinite one is never relaxed.
        """
        graph = self.adjacency()
        if edge_weights is not None:
            slot_edge, _, graph = self._route_plan()
            # mode="clip" writes straight into graph.data ("raise" buffers);
            # every slot id is a valid edge id
            np.take(edge_weights, slot_edge, out=graph.data, mode="clip")
        out = csgraph.dijkstra(
            graph,
            directed=True,
            indices=sources,
            min_only=min_only,
            limit=np.inf if limit is None else max(float(limit), 0.0),
            return_predecessors=edge_weights is not None,
        )
        return out if edge_weights is None else out[:2]

    def distance_rows(self, sources: Sequence[str | int], limit: float | None = None) -> Iterator[np.ndarray]:
        """Path distances from each source (vertex id or index) to every
        vertex, one row per source in order, one search per block of at most
        ``ROW_CHUNK_FLOATS`` floats.  Entries over ``limit`` (read as 0 when
        negative) are inf; those within it equal unlimited ones bit for bit."""
        src = np.array([s if isinstance(s, (int, np.integer)) else self.index[s] for s in sources], dtype=np.int64)
        step = max(1, ROW_CHUNK_FLOATS // self.n_vertices)
        for k in range(0, src.size, step):
            yield from self._search(src[k : k + step], limit)

    def distances_from(self, source: str | int, limit: float | None = None) -> np.ndarray:
        """Single-source path distances to every vertex (inf when unreached/over limit)."""
        return next(self.distance_rows([source], limit))

    def multi_source_distances(self, sources: Sequence[int]) -> np.ndarray:
        """Distance to the nearest of several source vertices, for every vertex."""
        idx = np.unique(np.asarray(sources, dtype=np.int64))
        if idx.size == 0:
            raise ValueError("multi_source_distances: empty source set")
        return self._search(idx, min_only=True)

    def boundary_distance_array(self) -> np.ndarray:
        if self._boundary_distance is None:
            self._boundary_distance = _frozen(self.multi_source_distances(self.boundary_indices()))
        return self._boundary_distance

    def bands(self) -> BandDecomposition:
        if self._bands is None:
            d = self.boundary_distance_array()
            if not np.isfinite(d).all():
                raise DomainFormatError("bands: some vertex cannot reach the boundary")
            idx = band_of_distance(d)
            totals = np.bincount(idx, weights=self.measure)
            meas = {int(b): float(totals[b]) for b in range(len(totals)) if totals[b] > 0 or (idx == b).any()}
            self._bands = BandDecomposition(
                band_index=idx, band_measure=meas, n_max=int(idx.max())
            )
        return self._bands

    # -- serialization ------------------------------------------------------

    def to_payload(self) -> dict:
        """The on-disk schema, ``"format": 3``, in construction order: the
        ids as a JSON list, every other column as base64 of its values in the
        dtype ``_COLUMNS`` gives it, and edge ends as indices into the ids.
        ``coords`` is the row-major n x dim block, a vertex without
        coordinates a row of NaN; it is left out when no vertex has any.

        Raises DomainFormatError for a space whose file would load as another
        one: 2^31 or more vertices (ends are int32), or a coordinate row with
        some but not all NaN."""
        n = self.n_vertices
        if n >= 2**31:
            raise DomainFormatError(f"vertices: {n} vertices; a file names edge ends as int32")
        vertices = {
            "id": list(self.ids),
            "measure": _encode("measure", self.measure),
            "boundary": _encode("boundary", self.boundary_mask),
        }
        if self.coords is not None:
            nan = np.isnan(self.coords)
            if (nan.any(axis=1) & ~nan.all(axis=1)).any():
                raise DomainFormatError("vertices.coords: a row mixes NaN and numbers; a file holds no such row")
            vertices["coords"] = _encode("coords", self.coords)
        columns = (("u", self.edge_u), ("v", self.edge_v), ("length", self.edge_length))
        edges = {key: _encode(key, values) for key, values in columns}
        return {"format": 3, "vertices": vertices, "edges": edges}


# -- deterministic route extraction -----------------------------------------


def shortest_route(
    space: GraphSpace,
    sources: Sequence[int],
    targets: Sequence[int],
    edge_weights: np.ndarray | None = None,
) -> tuple[float, list[int], list[int]]:
    """Cheapest path from a source set to a target set under per-edge weights.

    Weights default to edge lengths and may be zero (Dijkstra still
    applies); an infinite weight takes its edge out.  One multi-source
    Dijkstra reaches every vertex; the route ends at the reachable target
    of least cost, the smallest index among equal ones, and follows the
    predecessor tree back to a source, so it is deterministic.

    Returns (cost, vertex index path, edge index path); raises ValueError
    on weights that are not one per edge, NaN or negative, on an empty
    source or target set or one with an index outside the vertices, and
    when no target is reachable.
    """
    n = space.n_vertices
    w = space.edge_length if edge_weights is None else np.asarray(edge_weights, dtype=float)
    if w.shape != (space.n_edges,):
        raise ValueError(f"shortest_route: {w.size} edge weights for {space.n_edges} edges")
    if not (w >= 0).all():
        what = "NaN" if np.isnan(w).any() else "negative"
        raise ValueError(f"shortest_route: {what} edge weights")
    src = np.unique(np.asarray(sources, dtype=np.int64))
    tgt = np.unique(np.asarray(targets, dtype=np.int64))
    for name, idx in (("source", src), ("target", tgt)):
        if idx.size == 0:
            raise ValueError(f"shortest_route: empty {name} set")
        if idx[0] < 0 or idx[-1] >= n:
            raise ValueError(f"shortest_route: {name} index outside [0, {n})")
    dist, pred = space._search(src, min_only=True, edge_weights=w)
    reached = int(tgt[np.argmin(dist[tgt])])
    if not np.isfinite(dist[reached]):
        raise ValueError("shortest_route: targets unreachable from sources")
    vpath = [reached]
    while pred[vpath[-1]] >= 0:
        vpath.append(int(pred[vpath[-1]]))
    vpath.reverse()
    hops = np.asarray(vpath, dtype=np.int64)
    slot_edge, slot_key, _ = space._route_plan()
    epath = slot_edge[np.searchsorted(slot_key, hops[:-1] * n + hops[1:])].tolist()
    return float(dist[reached]), vpath, epath


# -- JSON domain files -------------------------------------------------------

# The dtype of each base64 column of a domain file; ``id`` is a JSON list.
_COLUMNS = {"measure": "<f8", "boundary": "u1", "coords": "<f8", "u": "<i4", "v": "<i4", "length": "<f8"}


def _encode(key: str, values: np.ndarray) -> str:
    """Column ``key`` as base64 of its values in the column's dtype."""
    return base64.b64encode(np.ascontiguousarray(values, dtype=_COLUMNS[key])).decode("ascii")


def _decode(text, table: str, key: str) -> np.ndarray:
    """The values of base64 column ``key`` of a table, a read-only array of
    the column's dtype."""
    where = f"{table}.{key}"
    _require(isinstance(text, str), where, "must be a base64 string")
    try:
        raw = base64.b64decode(text, validate=True)
    except ValueError:  # binascii.Error, or a character that is not ASCII
        raise DomainFormatError(f"{where}: not base64") from None
    size = np.dtype(_COLUMNS[key]).itemsize
    _require(len(raw) % size == 0, where, f"{len(raw)} bytes, not a whole number of {size}-byte entries")
    return np.frombuffer(raw, _COLUMNS[key])


def _require(cond: bool, where: str, msg: str) -> None:
    if not cond:
        raise DomainFormatError(f"{where}: {msg}")


def _first_offender(where: str, checks: list[tuple[np.ndarray, str]]) -> None:
    """Raise for the first entry that fails a check.

    ``checks`` pairs, in the order the checks apply to one entry, a boolean
    pass array with the check's message.  The lowest failing entry is named,
    with the earliest check it fails.
    """
    hits = [(int(np.argmin(ok)), i) for i, (ok, _) in enumerate(checks) if not ok.all()]
    if hits:
        k, i = min(hits)
        raise DomainFormatError(f"{where}[{k}]: {checks[i][1]}")


_NUMBER = (int, float)


def _column_table(table, where: str, keys: tuple[str, ...]) -> list:
    """The columns under ``keys`` of a table, checked to have as many entries
    as the first: an ``id`` column as its JSON list, the others decoded."""
    _require(isinstance(table, dict), where, "must be an object")
    cols: list = []
    for key in keys:
        _require(key in table, where, f"missing '{key}'")
        col = table[key]
        if key == "id":
            _require(isinstance(col, list), f"{where}.{key}", "must be a list")
        else:
            col = _decode(col, where, key)
        if cols and len(col) != len(cols[0]):
            raise DomainFormatError(f"{where}: '{key}' has {len(col)} entries, '{keys[0]}' has {len(cols[0])}")
        cols.append(col)
    return cols


def _numbers(col: list) -> list[bool]:
    """Per entry, whether it is a JSON number (a boolean is not)."""
    if set(map(type, col)) <= {int, float}:
        return [True] * len(col)
    ok = list(map(isinstance, col, repeat(_NUMBER)))
    if any(map(isinstance, col, repeat(bool))):
        ok = [num and not isinstance(x, bool) for num, x in zip(ok, col)]
    return ok


def from_payload(payload: dict) -> GraphSpace:
    """Build a space from a domain file's value, with entry-level diagnostics.

    The file is ``"format": 3`` (see ``GraphSpace.to_payload``); a value
    with no format or another one is refused with one message.  A column
    that is not base64, or whose bytes are not a whole number of entries, or
    whose count differs from ``id``'s, is named by table and key.  Each value
    check runs over a whole column at once; a bad entry is reported as
    ``vertices[k]`` or ``edges[k]`` (the first offender), with the message of
    the first check it fails.  With a ``dampening`` block the result is the
    transform that block describes.
    """
    _require(isinstance(payload, dict), "domain", "top level must be an object")
    _require("vertices" in payload, "domain", "missing 'vertices'")
    _require("edges" in payload, "domain", "missing 'edges'")
    _require("format" in payload, "domain", 'missing \'format\' (only "format": 3 is read)')
    fmt = payload["format"]
    _require(type(fmt) is int and fmt == 3, "domain", f'unknown format {fmt!r} (only "format": 3 is read)')
    extra = [key for key in payload if key not in ("format", "vertices", "edges", "dampening")]
    if extra:
        raise DomainFormatError(f"domain: unknown key {extra[0]!r}")
    vertices = payload["vertices"]
    ids, measure, flags = _column_table(vertices, "vertices", ("id", "measure", "boundary"))
    n, rows = len(ids), None
    if "coords" in vertices:
        rows = _decode(vertices["coords"], "vertices", "coords")
        whole = n and rows.size and rows.size % n == 0
        _require(whole, "vertices", f"'coords' has {rows.size} values, not rows for the {n} ids")
        rows = rows.reshape(n, -1)
    eu, ev, el = _column_table(payload["edges"], "edges", ("u", "v", "length"))
    checks = []
    # a check that holds for the whole column at once adds no flags
    if set(map(type, ids)) != {str} or "" in ids:
        checks.append((_nonempty_strings(ids), _ID_RULE))
    checks.append((flags <= 1, "'boundary' must be a boolean, byte 0 or 1"))
    if rows is not None:
        nan = np.isnan(rows)
        checks.append((~nan.any(axis=1) | nan.all(axis=1), "'coords' must be all numbers or all NaN"))
    _first_offender("vertices", checks)
    space = GraphSpace.from_arrays(ids, measure, flags, eu, ev, el, coords=rows)
    from .transform import from_recipe  # here, as transform imports this module

    return from_recipe(space, payload["dampening"]) if "dampening" in payload else space


def read_json(path: str):
    """The value of the JSON file at `path`.  Text that is not UTF-8 or not
    JSON raises DomainFormatError, naming the path."""
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise DomainFormatError(f"{path}: invalid JSON ({exc})") from exc


def load_domain(path: str) -> GraphSpace:
    return from_payload(read_json(path))


def dump_domain(space: GraphSpace, path: str) -> None:
    """Write `space` to `path` as one line of compact, ASCII, key-sorted JSON
    of ``GraphSpace.to_payload`` (``"format": 3``, base64 columns), by the
    stdlib C encoder.  Raises DomainFormatError, writing nothing, for a space
    that the format cannot carry."""
    atomic_write_text(path, json.dumps(space.to_payload(), sort_keys=True, separators=(",", ":")) + "\n")
