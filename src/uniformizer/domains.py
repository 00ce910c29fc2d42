"""Deterministic grid discretizations of the model domains.

Four families, all 4-neighbor square grids with mesh h (h divides 1), interior
vertex measure h^2, zero boundary measure, and edge length h:

* ``half_strip``: ``[-1, 1] x [0, H]`` with the bottom segment as boundary.
  Boundary distance is the height coordinate; codimension theta = 1.
* ``slit_cone``: the region ``y >= max(0, |x| - 1)`` up to height H, slit
  along ``[-1, 1] x {0}``; the slit is the boundary, approached from above
  (no vertex duplication); theta = 1.
* ``cantor_slit``: same cone, but only the level-l middle-thirds Cantor cells
  of the slit are boundary; the removed gaps stay interior.  The boundary
  weight assigns each of the 2^l cells mass 2^-l, split evenly over that
  cell's vertices; theta = 2 - log 2 / log 3.
* ``plane_minus_cantor_square``: a plane window of radius R around the product
  Cantor set K x K in ``[0, 1]^2`` at level l.  Each of the 4^l solid cells
  keeps only its surface vertices as boundary (deep cell vertices are not in
  the closed domain) and edges between boundary vertices are omitted so paths
  cannot tunnel through solid cells; each cell carries weight 4^-l over its
  kept vertices; theta = 2 (1 - log 2 / log 3).

Truncation heights/radii must be powers of two, at least 8.  Construction is
fully vectorized and emits vertices in row-major scan order, so repeated
builds are byte-identical when serialized.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .graphspace import DomainFormatError, GraphSpace
from .transform import BoundaryMeasure, codimensional_measure

THETA_CANTOR_SLIT = 2.0 - math.log(2.0) / math.log(3.0)
THETA_CANTOR_SQUARE = 2.0 * (1.0 - math.log(2.0) / math.log(3.0))


@dataclass
class DomainBundle:
    space: GraphSpace
    theta: float
    nu: BoundaryMeasure
    params: dict


def _check_mesh(h: float) -> int:
    """h must divide 1; returns 1/h as an integer."""
    if not (0 < h <= 1):
        raise DomainFormatError(f"mesh h={h:g} must lie in (0, 1]")
    k = round(1.0 / h)
    if abs(k * h - 1.0) > 1e-9:
        raise DomainFormatError(f"mesh h={h:g} must divide 1")
    return k


def _check_extent(H: float, name: str = "H") -> int:
    """Truncation must be a power of two, at least 8; returns the exponent."""
    n = round(math.log2(H)) if H > 0 else -1
    if n < 3 or 2.0**n != H:
        raise DomainFormatError(f"{name}={H:g} must be a power of two >= 8")
    return n


def cantor_intervals(level: int) -> list[tuple[float, float]]:
    """Closed middle-thirds Cantor intervals of [0, 1] at the given level."""
    if level < 1:
        raise DomainFormatError("cantor level must be >= 1")
    cells = [(0.0, 1.0)]
    for _ in range(level):
        nxt = []
        for a, b in cells:
            w = (b - a) / 3.0
            nxt.append((a, a + w))
            nxt.append((b - w, b))
        cells = nxt
    return cells


def _cantor_cells(xs: np.ndarray, h: float, level: int, lo: float) -> np.ndarray:
    """The level-l Cantor cell holding each grid coordinate of ``xs``, -1 in
    a gap; the cells are ``cantor_intervals`` carried from [0, 1] to
    [lo, 1].  Raises when a cell is narrower than the mesh (3^-level < h)."""
    if 3.0 ** (-level) < h * (1 - 1e-12):
        raise DomainFormatError(
            f"cantor level {level} unresolvable at mesh h={h:g} (3^-level < h)"
        )
    cell_of = np.full(xs.size, -1, dtype=np.int64)
    for ci, (a, b) in enumerate(cantor_intervals(level)):
        inside = (xs >= lo + (1 - lo) * a - 1e-9) & (xs <= lo + (1 - lo) * b + 1e-9)
        cell_of[inside] = ci
    return cell_of


def _build_grid(
    present: np.ndarray,
    boundary: np.ndarray,
    h: float,
    x0: float,
    y0: float,
    ix0: int,
    iy0: int,
    drop_boundary_boundary_edges: bool = False,
) -> tuple[GraphSpace, np.ndarray]:
    """Assemble a GraphSpace from (ny, nx) presence/boundary masks.

    Returns the space and the (ny, nx) vertex-index map (-1 where absent).
    Ids are ``v{ix}_{iy}`` in lattice integers; vertices appear in row-major
    scan order (y rows bottom to top, x within a row).
    """
    ny, nx = present.shape
    idmap = np.full((ny, nx), -1, dtype=np.int64)
    rows, cols = np.nonzero(present)
    nv = rows.size
    if nv == 0:
        raise DomainFormatError("generator produced an empty domain")
    idmap[rows, cols] = np.arange(nv)
    ids = [f"v{ix0 + int(a)}_{iy0 + int(b)}" for b, a in zip(rows, cols)]
    coords = np.column_stack([x0 + cols * h, y0 + rows * h])
    bflags = boundary[rows, cols]
    measures = np.where(bflags, 0.0, h * h)

    eu_parts = []
    ev_parts = []
    for db, da in ((0, 1), (1, 0)):
        src = present[: ny - db, : nx - da] & present[db:, da:]
        if drop_boundary_boundary_edges:
            src = src & ~(boundary[: ny - db, : nx - da] & boundary[db:, da:])
        rb, cb = np.nonzero(src)
        eu_parts.append(idmap[rb, cb])
        ev_parts.append(idmap[rb + db, cb + da])
    edge_u = np.concatenate(eu_parts)
    edge_v = np.concatenate(ev_parts)
    edge_length = np.full(edge_u.size, h)
    space = GraphSpace.from_arrays(
        ids, measures, bflags, edge_u, edge_v, edge_length, coords=coords
    )
    return space, idmap


def half_strip(h: float, H: float) -> DomainBundle:
    """Strip [-1, 1] x [0, H]; boundary is the bottom segment; theta = 1."""
    k1 = _check_mesh(h)
    _check_extent(H)
    nx = 2 * k1 + 1
    ny = int(round(H / h)) + 1
    present = np.ones((ny, nx), dtype=bool)
    boundary = np.zeros((ny, nx), dtype=bool)
    boundary[0, :] = True
    space, _ = _build_grid(present, boundary, h, -1.0, 0.0, 0, 0)
    nu = codimensional_measure(space, 1.0, h)
    return DomainBundle(
        space=space, theta=1.0, nu=nu, params={"name": "half_strip", "h": h, "H": H}
    )


def _cone_masks(h: float, H: float) -> tuple[np.ndarray, np.ndarray, int, int]:
    """Presence mask for y >= max(0, |x| - 1) up to height H; returns (present,
    |ix| lattice array broadcastable, center column, 1/h)."""
    k1 = _check_mesh(h)
    _check_extent(H)
    half_cols = int(round((H + 1) / h))
    nx = 2 * half_cols + 1
    ny = int(round(H / h)) + 1
    ix = np.arange(nx) - half_cols
    iy = np.arange(ny)
    present = iy[:, None] >= (np.abs(ix)[None, :] - k1)
    return present, np.abs(ix), half_cols, k1


def slit_cone(h: float, H: float) -> DomainBundle:
    """Cone y >= max(0, |x| - 1) slit along [-1, 1] x {0}; theta = 1."""
    present, _, half_cols, _ = _cone_masks(h, H)
    boundary = np.zeros_like(present)
    boundary[0, :] = present[0, :]
    space, _ = _build_grid(present, boundary, h, -(half_cols * h), 0.0, -half_cols, 0)
    nu = codimensional_measure(space, 1.0, h)
    return DomainBundle(
        space=space, theta=1.0, nu=nu, params={"name": "slit_cone", "h": h, "H": H}
    )


def cantor_slit(h: float, H: float, level: int) -> DomainBundle:
    """Cone slit along the level-l Cantor subset of [-1, 1] x {0}.

    Cells are the middle-thirds intervals scaled to [-1, 1]; slit points
    outside the cells stay interior.  Each cell carries boundary weight
    2^-level split evenly over its vertices.
    """
    present, _, half_cols, _ = _cone_masks(h, H)
    cell_of = _cantor_cells((np.arange(present.shape[1]) - half_cols) * h, h, level, -1.0)
    boundary = np.zeros_like(present)
    boundary[0, :] = present[0, :] & (cell_of >= 0)
    space, idmap = _build_grid(present, boundary, h, -(half_cols * h), 0.0, -half_cols, 0)

    cols = np.nonzero(boundary[0, :])[0]
    counts = np.bincount(cell_of[cols], minlength=2**level)
    if (counts == 0).any():
        raise DomainFormatError("cantor cell contains no grid vertex; refine the mesh")
    mass = 2.0 ** (-level)
    nu_map = {}
    for c in cols:
        vid = space.ids[int(idmap[0, c])]
        nu_map[vid] = mass / counts[cell_of[c]]
    nu = BoundaryMeasure(theta=THETA_CANTOR_SLIT, mesh_scale=h, nu=nu_map)
    return DomainBundle(
        space=space,
        theta=THETA_CANTOR_SLIT,
        nu=nu,
        params={"name": "cantor_slit", "h": h, "H": H, "level": level},
    )


def plane_minus_cantor_square(h: float, R: float, level: int) -> DomainBundle:
    """Plane window of radius R around [0,1]^2 minus the level-l product
    Cantor set; solid cells keep only surface vertices as boundary.

    Each of the 4^level cells carries weight 4^-level split over its kept
    vertices; theta = 2 (1 - log2/log3).
    """
    k1 = _check_mesh(h)
    _check_extent(R, name="R")
    n_side = 2 * int(round(R / h)) + 1
    x0 = 0.5 - R
    axis_cell = _cantor_cells(x0 + np.arange(n_side) * h, h, level, 0.0)
    in_axis = axis_cell >= 0
    in_cell = in_axis[:, None] & in_axis[None, :]  # [row=y, col=x]

    padded = np.zeros((n_side + 2, n_side + 2), dtype=bool)
    padded[1:-1, 1:-1] = in_cell
    deep = (
        in_cell
        & padded[:-2, 1:-1]
        & padded[2:, 1:-1]
        & padded[1:-1, :-2]
        & padded[1:-1, 2:]
    )
    present = ~deep
    boundary = in_cell & ~deep
    space, idmap = _build_grid(
        present, boundary, h, x0, x0, 0, 0, drop_boundary_boundary_edges=True
    )

    n_int = 2**level
    rows, cols = np.nonzero(boundary)
    cell_ids = axis_cell[cols] * n_int + axis_cell[rows]
    counts = np.bincount(cell_ids, minlength=n_int * n_int)
    mass = 4.0 ** (-level)
    nu_map = {}
    for r, c, cid in zip(rows, cols, cell_ids):
        nu_map[space.ids[int(idmap[r, c])]] = mass / counts[cid]
    if len(nu_map) != rows.size:
        raise DomainFormatError("internal: duplicate boundary vertex in cell map")
    nu = BoundaryMeasure(theta=THETA_CANTOR_SQUARE, mesh_scale=h, nu=nu_map)
    return DomainBundle(
        space=space,
        theta=THETA_CANTOR_SQUARE,
        nu=nu,
        params={"name": "plane_minus_cantor_square", "h": h, "R": R, "level": level},
    )


GENERATORS = {
    "half_strip": half_strip,
    "slit_cone": slit_cone,
    "cantor_slit": cantor_slit,
    "plane_minus_cantor_square": plane_minus_cantor_square,
}


def generate(name: str, **kwargs) -> DomainBundle:
    if name not in GENERATORS:
        raise DomainFormatError(
            f"unknown generator {name!r}; choose from {sorted(GENERATORS)}"
        )
    return GENERATORS[name](**kwargs)
