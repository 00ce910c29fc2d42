"""Dampened (bounded) realizations of unbounded graph domains.

Scaling each edge length by the dampening weight of its representative
boundary distance, and each vertex measure by that weight to the power p,
turns a domain with an unbounded far field into one of finite diameter:

* edge length:   ``l_phi(e) = l(e) * phi(dbar_e)``, with the representative
  ``dbar_e`` the midpoint of the endpoint boundary distances,
* vertex measure: ``mu_phi(v) = mu(v) * phi(d(v))^p``,
* edge mass:      ``m_phi(e) = m(e) * phi(dbar_e)^p``.

Using the same representative ``dbar_e`` for the metric and the mass makes the
gradient chain rule and the p-energy identity exact to rounding, not just
comparable: ``g_phi(e) * phi(dbar_e) = g(e)`` and
``sum m_phi g_phi^p = sum m g^p`` term by term.

The far end is then compactified by one extra vertex joined to every vertex of
the outermost distance band, the joining edge carrying the integral of phi
over the remaining distance range -- the length a radial ray to infinity would
have in the dampened metric.

A dampened domain file holds the recipe, not the result: the base domain
plus ``"dampening": {"kind", "beta" | "samples", "p"}``, from which
``from_recipe`` rebuilds the transform bit for bit.

This module also hosts codimension-theta boundary measures: a weight on
boundary vertices calibrated so that a boundary ball of radius r carries about
``mu(ball)/r^theta``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dampening import Dampening, DampeningError, edge_weight, read_profile, tail_integral
from .energy import edge_mass
from .graphspace import DomainFormatError, GraphSpace, _frozen, _numbers, _require


class TransformError(ValueError):
    """Transform preconditions violated (unbounded boundary, re-attachment, ...)."""


DEFAULT_BOUNDARY_DIAMETER_BOUND = 64.0
INFINITY_ID = "infinity"


class TransformedSpace(GraphSpace):
    """The dampened realization of a domain: a GraphSpace plus its provenance.

    Lengths and measures are the dampened ones (plus the infinity vertex once
    attached), so every metric primitive and engine takes it as the GraphSpace
    it is.  Base vertices keep their indices; the infinity vertex, when
    present, is the last one.

    The edge-mass slot holds the transform's masses in edge order: base-derived
    edges first (mass ``m(e) * phi(dbar_e)^p``), then edges incident to
    infinity (length-share mass computed in the dampened graph, as they have
    no base counterpart).  ``energy.edge_mass`` returns them.

    Provenance: ``base`` (the undampened domain), ``phi``, ``p`` and
    ``edge_rep_dist`` (the representative boundary distance of each base edge).
    """

    base: GraphSpace
    phi: Dampening
    p: float
    edge_rep_dist: np.ndarray
    _infinity_distance: np.ndarray | None = None

    @property
    def infinity_attached(self) -> bool:
        return self.infinity_index >= 0

    def distance_to_infinity(self) -> np.ndarray:
        """Dampened distance from every vertex to the infinity vertex, computed
        once and returned read-only."""
        if not self.infinity_attached:
            raise TransformError("infinity not attached")
        if self._infinity_distance is None:
            self._infinity_distance = _frozen(self.distances_from(self.infinity_index))
        return self._infinity_distance

    def to_payload(self) -> dict:
        """The base domain's payload plus the recipe ``from_recipe`` reads."""
        if not self.infinity_attached:
            raise TransformError("to_payload: a dampened domain file holds the transform with infinity attached")
        kind = self.phi.kind
        param = {"samples": [list(s) for s in self.phi.samples]} if kind == "tabulated" else {"beta": self.phi.beta}
        return {**self.base.to_payload(), "dampening": {"kind": kind, **param, "p": self.p}}


def _approx_boundary_diameter(space: GraphSpace) -> float:
    """Double-sweep lower bound on the boundary set diameter (guard only)."""
    bidx = space.boundary_indices()
    d0 = space.distances_from(int(bidx[0]))
    far = int(bidx[np.argmax(d0[bidx])])
    d1 = space.distances_from(far)
    return float(np.max(d1[bidx]))


def transform(space: GraphSpace, phi: Dampening, p: float) -> TransformedSpace:
    """Dampened realization of a domain (without the point at infinity).

    Only bounded boundaries are supported: a boundary whose approximate
    diameter exceeds ``DEFAULT_BOUNDARY_DIAMETER_BOUND`` (64) raises
    TransformError.  So does a p so large that an interior vertex's
    dampened measure mu phi(d)^p underflows to 0.
    """
    if not (1 <= p < np.inf):
        raise TransformError(f"transform: p={p:g} must be finite and >= 1")
    if space.infinity_id is not None:
        raise TransformError("transform: space already carries an infinity vertex")
    diam = _approx_boundary_diameter(space)
    if diam > DEFAULT_BOUNDARY_DIAMETER_BOUND:
        raise TransformError(
            f"transform: boundary diameter ~{diam:g} exceeds bound {DEFAULT_BOUNDARY_DIAMETER_BOUND:g}; "
            "only bounded boundaries are supported"
        )
    d = space.boundary_distance_array()
    rep = 0.5 * (d[space.edge_u] + d[space.edge_v])
    w_edge = edge_weight(phi, rep)
    measure = space.measure * edge_weight(phi, d) ** p
    lost = (measure == 0.0) & (space.measure > 0.0)
    if lost.any():
        vid = space.ids[int(np.argmax(lost))]
        raise TransformError(
            f"transform: at p={p:g} the {phi.label()} dampened measure of vertex {vid!r} underflows to 0"
        )
    ts = TransformedSpace.from_arrays(
        list(space.ids),
        measure,
        space.boundary_mask,
        space.edge_u,
        space.edge_v,
        space.edge_length * w_edge,
        coords=space.coords,
        edge_mass=edge_mass(space) * w_edge**p,
    )
    ts.base, ts.phi, ts.p, ts.edge_rep_dist = space, phi, float(p), rep
    return ts


def attach_infinity(ts: TransformedSpace) -> TransformedSpace:
    """Add the point at infinity (id ``INFINITY_ID``), joined to the
    outermost distance band.

    Each outer-band vertex v gets an edge of length ``integral of phi over
    (d(v), infinity)`` -- the dampened length of the remaining radial ray.
    Returns a new TransformedSpace; the input is left untouched.
    """
    if ts.infinity_attached:
        raise TransformError("attach_infinity: already attached")
    if INFINITY_ID in ts.base.index:
        raise TransformError(f"attach_infinity: id {INFINITY_ID!r} collides with a vertex")
    space = ts.base
    bands = space.bands()
    outer = np.nonzero((bands.band_index == bands.n_max) & space.interior_mask)[0]
    if outer.size == 0:
        raise TransformError("attach_infinity: outermost band has no interior vertices")
    d = space.boundary_distance_array()
    tail = tail_integral(ts.phi, d[outer])

    inf_index = len(space.ids)
    measures = np.append(ts.measure, 0.0)
    edge_u = np.concatenate([space.edge_u, np.full(outer.size, inf_index, dtype=np.int64)])
    edge_v = np.concatenate([space.edge_v, outer.astype(np.int64)])
    edge_length = np.concatenate([ts.edge_length, tail])

    # length-share masses for the new edges, computed in the dampened graph
    # (they have no base counterpart); S sums all incident dampened lengths
    S = np.zeros(inf_index + 1)
    np.add.at(S, edge_u, edge_length)
    np.add.at(S, edge_v, edge_length)
    inf_masses = tail * measures[outer] / S[outer]
    out = TransformedSpace.from_arrays(
        list(space.ids) + [INFINITY_ID],
        measures,
        np.append(space.boundary_mask, False),
        edge_u,
        edge_v,
        edge_length,
        coords=None if space.coords is None else np.vstack([space.coords, np.full(space.coords.shape[1], np.nan)]),
        infinity_id=INFINITY_ID,
        edge_mass=np.concatenate([edge_mass(ts), inf_masses]),
    )
    out.base, out.phi, out.p, out.edge_rep_dist = space, ts.phi, ts.p, ts.edge_rep_dist
    return out


def from_recipe(base: GraphSpace, recipe) -> TransformedSpace:
    """``attach_infinity(transform(base, phi, p))`` for a domain file's
    ``dampening`` block; every error is a DomainFormatError naming it."""
    _require(isinstance(recipe, dict), "dampening", "must be an object")
    kind = recipe.get("kind")
    _require(kind in ("power", "log_power", "tabulated"), "dampening", f"unknown kind {kind!r}")
    param = "samples" if kind == "tabulated" else "beta"
    _require(set(recipe) == {"kind", param, "p"}, "dampening", f"keys must be 'kind', {param!r} and 'p'")
    try:
        phi = read_profile(kind, recipe[param], "dampening")
        _require(_numbers([recipe["p"]])[0], "dampening", "'p' must be a number")
        return attach_infinity(transform(base, phi, recipe["p"]))
    except (DampeningError, TransformError) as exc:
        raise DomainFormatError(f"dampening: {exc}") from exc


# -- boundary measures -------------------------------------------------------


@dataclass
class BoundaryMeasure:
    """Codimension-theta weight on boundary vertices (positive everywhere)."""

    theta: float
    mesh_scale: float
    nu: dict[str, float]

    def array(self, space: GraphSpace) -> np.ndarray:
        """The weights in vertex order, zero where nu names no weight; raises
        TransformError naming the first id that is not a boundary vertex of
        the space."""
        idx = [space.index.get(vid, -1) for vid in self.nu]
        if -1 in idx:
            vid = list(self.nu)[idx.index(-1)]
            raise TransformError(f"boundary measure: id {vid!r} is not a vertex of the domain")
        inner = ~space.boundary_mask[idx]
        if inner.any():
            vid = list(self.nu)[int(np.argmax(inner))]
            raise TransformError(f"boundary measure: id {vid!r} is not a boundary vertex of the domain")
        out = np.zeros(space.n_vertices)
        out[idx] = list(self.nu.values())
        return out

    def to_payload(self) -> dict:
        return {
            "theta": float(self.theta),
            "mesh_scale": float(self.mesh_scale),
            "nu": {k: float(v) for k, v in self.nu.items()},
        }

    @staticmethod
    def from_payload(payload: dict) -> "BoundaryMeasure":
        """Read the file schema: theta, mesh_scale and the weights of the
        nonempty object nu are positive finite JSON numbers (not booleans)."""
        if not isinstance(payload, dict):
            raise DomainFormatError("boundary measure: top level must be an object")
        for key in ("theta", "mesh_scale", "nu"):
            if key not in payload:
                raise DomainFormatError(f"boundary measure: missing {key!r}")
        nu = payload["nu"]
        if not isinstance(nu, dict) or not nu:
            raise DomainFormatError("boundary measure: 'nu' must be a nonempty object")
        entries = [("'theta'", payload["theta"]), ("'mesh_scale'", payload["mesh_scale"])]
        entries += [(f"weight of {vid!r}", w) for vid, w in nu.items()]
        for (what, x), num in zip(entries, _numbers([x for _, x in entries])):
            if not (num and 0 < x < np.inf):
                raise DomainFormatError(f"boundary measure: {what} must be a positive finite number")
        return BoundaryMeasure(
            theta=float(payload["theta"]),
            mesh_scale=float(payload["mesh_scale"]),
            nu={str(k): float(v) for k, v in nu.items()},
        )


def local_distances(
    space: GraphSpace, center: int, rmax: float
) -> tuple[np.ndarray, np.ndarray]:
    """Vertices within rmax of one vertex (inclusive): ascending indices and
    their distances, from the space's own Dijkstra stopped at rmax."""
    dist = space.distances_from(center, limit=rmax)
    idx = np.nonzero(np.isfinite(dist))[0]
    return idx, dist[idx]


def codimensional_measure(space: GraphSpace, theta: float, h: float) -> BoundaryMeasure:
    """Boundary weight from interior mass at the mesh scale.

    Raw weight at a boundary vertex is the interior measure within distance h
    (inclusive: the open ball at the exact mesh scale is empty) divided by
    h^theta; weights are then globally scaled so their total equals the
    measure of band 0.  On a straight grid boundary with theta = 1 this is an
    arc-length weight proportional to h.
    """
    if not (theta > 0 and h > 0):
        raise TransformError("codimensional_measure: theta and h must be positive")
    bidx = space.boundary_indices()
    interior = space.interior_mask
    reach = space.distance_rows(bidx, limit=h * (1 + 1e-9))
    raw = np.array([space.measure[np.isfinite(d) & interior].sum() for d in reach]) / h**theta
    total_raw = raw.sum()
    if total_raw <= 0:
        raise TransformError("codimensional_measure: no interior mass at mesh scale")
    band0 = space.bands().measure(0)
    scale = band0 / total_raw
    nu = {space.ids[int(b)]: float(raw[j] * scale) for j, b in enumerate(bidx)}
    if any(v <= 0 for v in nu.values()):
        raise TransformError("codimensional_measure: some boundary vertex has no interior neighbor at mesh scale")
    return BoundaryMeasure(theta=float(theta), mesh_scale=float(h), nu=nu)


@dataclass
class CodimReport:
    theta: float
    rows: list[dict]
    ratio_min: float
    ratio_max: float
    spread: float
    bound: float
    skipped: int
    passed: bool


def verify_codimensionality(
    space: GraphSpace,
    nu: BoundaryMeasure,
    radii: list[float],
    spread_bound: float = 16.0,
) -> CodimReport:
    """Check nu(ball)*r^theta against interior mass mu(ball) across scales.

    ratio(center, r) = nu(B(c,r) on the boundary) * r^theta / mu(B(c,r) in the
    interior), balls inclusive of radius.  Passes when max/min ratio over the
    sampled centers and radii stays within spread_bound.  The centers are
    the boundary vertices, thinned to a fixed 48 evenly spaced in index
    order when there are more.
    """
    cidx = space.boundary_indices()
    if cidx.size > 48:
        cidx = cidx[np.linspace(0, cidx.size - 1, 48).astype(int)]
    radii = sorted(float(r) for r in radii)
    if not radii or radii[0] <= 0:
        raise TransformError("verify_codimensionality: radii must be positive")
    nu_vec = nu.array(space)
    interior = space.interior_mask
    rows: list[dict] = []
    skipped = 0
    for c, d in zip(cidx, space.distance_rows(cidx, limit=radii[-1] * (1 + 1e-9))):
        for r in radii:
            inside = d <= r * (1 + 1e-9)
            mass = float(space.measure[inside & interior].sum())
            nu_mass = float(nu_vec[inside & space.boundary_mask].sum())
            if mass <= 0 or nu_mass <= 0:
                skipped += 1
                continue
            rows.append(
                {"center": space.ids[c], "r": r, "ratio": nu_mass * r**nu.theta / mass}
            )
    if not rows:
        raise TransformError("verify_codimensionality: all samples degenerate")
    ratios = np.array([row["ratio"] for row in rows])
    lo, hi = float(ratios.min()), float(ratios.max())
    spread = hi / lo
    return CodimReport(
        theta=nu.theta,
        rows=rows,
        ratio_min=lo,
        ratio_max=hi,
        spread=spread,
        bound=float(spread_bound),
        skipped=skipped,
        passed=bool(spread <= spread_bound),
    )
