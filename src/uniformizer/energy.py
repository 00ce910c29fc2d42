"""Discrete first-order calculus on weighted graph spaces.

Edge upper gradients, length-share edge masses, p-energies, and the
inequality checkers built on them: Poincare, weighted-integrability (Hardy
type), Besov boundary norms, ball-average traces, and the boundary
oscillation (Adams type) estimate.

Every space carries one edge-mass slot.  A dampened realization fills it
with the transform's masses, ``m(e) * phi(dbar_e)^p``, so that the chain rule
and the energy identity hold to machine precision; any other space gets
length-share masses on first use, which split each vertex measure over its
incident edges in proportion to edge length, so the total edge mass equals
the total vertex measure exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain
from typing import TYPE_CHECKING

import numpy as np

from .graphspace import GraphSpace, _frozen

if TYPE_CHECKING:
    from .transform import BoundaryMeasure, TransformedSpace


class EnergyError(ValueError):
    pass


def field_array(space: GraphSpace, u) -> np.ndarray:
    """A field as a float array with one value per vertex, in index order."""
    arr = np.asarray(u, dtype=float)
    if arr.shape != (space.n_vertices,):
        raise EnergyError(
            f"field has shape {arr.shape}, expected ({space.n_vertices},)"
        )
    return arr


def edge_mass(space: GraphSpace) -> np.ndarray:
    """The space's edge masses (read-only), from its edge-mass slot.

    An empty slot is filled with the length-share masses
    m(e) = l(e) (mu(x)/S(x) + mu(y)/S(y)), where S(v) is the total length
    incident to v, so summing over edges returns the total vertex measure
    exactly (each vertex spreads its measure over its incident edges
    proportionally to length).
    """
    if space._edge_mass is None:
        nv = space.n_vertices
        eu, ev, ln = space.edge_u, space.edge_v, space.edge_length
        S = np.bincount(eu, weights=ln, minlength=nv) + np.bincount(
            ev, weights=ln, minlength=nv
        )
        share = np.where(S > 0, space.measure / np.where(S > 0, S, 1.0), 0.0)
        space._edge_mass = _frozen(ln * (share[eu] + share[ev]))
    return space._edge_mass


def upper_gradient(space: GraphSpace, u) -> np.ndarray:
    """Per-edge difference quotient |u(x) - u(y)| / l(e)."""
    vals = field_array(space, u)
    return np.abs(vals[space.edge_u] - vals[space.edge_v]) / space.edge_length


def p_energy(space: GraphSpace, u, p: float) -> float:
    """Sum of m(e) g(e)^p over edges; the discrete Dirichlet p-energy."""
    if p < 1:
        raise EnergyError(f"p={p:g} must be >= 1")
    g = upper_gradient(space, u)
    return float(np.sum(edge_mass(space) * g**p))


def random_smooth_fields(space, count: int, seed: int) -> np.ndarray:
    """Deterministic smooth test fields from low-frequency cosine products.

    Each field sums 4 products cos(a x + c) cos(b y + d), with frequencies
    a, b uniform in [-1, 1], phases uniform in [0, 2 pi) and normal
    amplitudes divided by 4.  x and y are coordinate columns 0 and 1, NaN
    (no coordinates, as at infinity) read as 0.  Returns (count, n_vertices).
    """
    if space.coords is None:
        raise EnergyError("space has no coordinates; cannot build smooth fields")
    if space.coords.shape[1] < 2:
        raise EnergyError(f"random_smooth_fields needs 2 coordinate columns; the space has {space.coords.shape[1]}")
    xy = space.coords[:, :2]
    xy = np.where(np.isnan(xy), 0.0, xy)
    rng = np.random.default_rng(seed)
    out = np.zeros((count, space.n_vertices))
    for k in range(count):
        amp = rng.normal(size=4) / 4
        wx = rng.uniform(-1.0, 1.0, size=4)
        wy = rng.uniform(-1.0, 1.0, size=4)
        ph = rng.uniform(0, 2 * np.pi, size=(2, 4))
        for j in range(4):
            out[k] += amp[j] * np.cos(wx[j] * xy[:, 0] + ph[0, j]) * np.cos(
                wy[j] * xy[:, 1] + ph[1, j]
            )
    return out


# ---------------------------------------------------------------------------
# Poincare inequality probe


@dataclass
class PoincareReport:
    p: float
    lam: float
    rows: list = field(default_factory=list)
    skipped: list = field(default_factory=list)

    @property
    def C_P(self) -> float:
        ratios = [r["ratio"] for r in self.rows]
        return max(ratios) if ratios else 0.0


# the inflation factor of the Poincare check's gradient ball
POINCARE_LAMBDA = 2.0


def poincare_check(space, p: float, centers: list, radii: list, fields) -> PoincareReport:
    """Empirical constant for the ball Poincare inequality.

    For each (center, r, field): compare the mean oscillation of u over
    B(center, r) against r times the p-mean of the gradient over the
    inflated ball B(center, lam r), lam = ``POINCARE_LAMBDA``.  Balls are
    open and weighted by the vertex measure; zero-measure balls are skipped
    and flagged.
    """
    if not (1 <= p < np.inf):
        raise EnergyError(f"p={p:g} must be finite and >= 1")
    lam = POINCARE_LAMBDA
    masses = edge_mass(space)
    report = PoincareReport(p=p, lam=lam)
    fields = np.atleast_2d(np.asarray(fields, dtype=float))
    grads = [upper_gradient(space, vals) for vals in fields]
    for center, d in zip(centers, space.distance_rows(centers, limit=lam * max(radii, default=0.0))):
        for r in radii:
            in_ball = d < r
            in_lam = d < lam * r
            mu_ball = float(space.measure[in_ball].sum())
            mu_lam = float(space.measure[in_lam].sum())
            if mu_ball <= 0 or mu_lam <= 0:
                report.skipped.append({"center": center, "r": r, "reason": "zero-mass ball"})
                continue
            emask = in_lam[space.edge_u] & in_lam[space.edge_v]
            for fi, vals in enumerate(fields):
                u_mean = float((vals[in_ball] * space.measure[in_ball]).sum()) / mu_ball
                lhs = (
                    float((np.abs(vals[in_ball] - u_mean) * space.measure[in_ball]).sum())
                    / mu_ball
                )
                grad_mean = float((masses[emask] * grads[fi][emask] ** p).sum()) / mu_lam
                rhs = r * grad_mean ** (1.0 / p)
                ratio = 0.0 if lhs == 0 else (np.inf if rhs == 0 else lhs / rhs)
                report.rows.append(
                    {"center": center, "r": r, "field": fi, "lhs": lhs, "rhs": rhs, "ratio": ratio}
                )
    return report


# ---------------------------------------------------------------------------
# Weighted integrability (Hardy-type) ratio


def hardy_check(t: TransformedSpace, u) -> float:
    """Ratio of the weighted p-oscillation to the base-space p-energy.

    LHS integrates |u - c|^p against the transformed vertex measure over the
    base vertices, with c the transformed-measure mean of u; RHS is the base
    p-energy of u.  Both sides vanish for constants (ratio 0).
    """
    base = t.base
    nb = base.n_vertices
    vals = field_array(base, u)
    mu_phi = t.measure[:nb]
    total = float(mu_phi.sum())
    if total <= 0:
        raise EnergyError("transformed measure vanishes on the base vertices")
    c = float((vals * mu_phi).sum()) / total
    lhs = float((np.abs(vals - c) ** t.p * mu_phi).sum())
    rhs = p_energy(base, vals, t.p)
    if rhs == 0:
        return 0.0
    return lhs / rhs


# ---------------------------------------------------------------------------
# Besov boundary norm


def besov_norm(space: GraphSpace, nu: BoundaryMeasure, f, alpha: float, p: float) -> float:
    """Boundary smoothness norm from a weighted double sum of differences.

    norm^p = sum over ordered boundary pairs x != y of
    |f(y)-f(x)|^p / (d(x,y)^{alpha p} nu(B(x, d(x,y)))) nu(x) nu(y),
    with d the path metric of the ambient space and open balls.  ``f`` holds
    one value per vertex, in index order (only those that nu weights are
    read).  Returns the p-th root (homogeneous of degree 1 in f).
    """
    if not (0 < alpha < 1):
        raise EnergyError(f"alpha={alpha:g} must lie in (0, 1)")
    if not (1 <= p < np.inf):
        raise EnergyError(f"p={p:g} must be finite and >= 1")
    nu_vec = nu.array(space)
    idx = np.nonzero(nu_vec)[0]
    if idx.size < 2:
        return 0.0
    w = nu_vec[idx]
    vals = field_array(space, f)[idx]
    total = 0.0
    for i, row in enumerate(space.distance_rows(idx)):
        d = row[idx]
        order = np.argsort(d, kind="stable")
        cum = np.concatenate([[0.0], np.cumsum(w[order])])
        ball = cum[np.searchsorted(d[order], d, side="left")]
        for j in range(idx.size):
            if j == i:
                continue
            dij = d[j]
            if not np.isfinite(dij) or dij <= 0 or ball[j] <= 0:
                continue
            total += abs(vals[j] - vals[i]) ** p / (dij ** (alpha * p) * ball[j]) * w[i] * w[j]
    return float(total ** (1.0 / p))


# ---------------------------------------------------------------------------
# Trace by shrinking ball averages


@dataclass
class TraceReport:
    ids: list
    values: np.ndarray
    oscillation: np.ndarray
    radii: list
    unresolved: list = field(default_factory=list)

    def nu_weighted_error(self, nu: BoundaryMeasure, f: dict) -> float:
        """nu-weighted mean of |Tu - f| over resolved boundary vertices;
        ``f`` maps vertex ids to values."""
        num = 0.0
        den = 0.0
        for vid, val in zip(self.ids, self.values):
            if not np.isfinite(val) or vid not in nu.nu:
                continue
            num += nu.nu[vid] * abs(val - f[vid])
            den += nu.nu[vid]
        if den == 0:
            raise EnergyError("no resolved boundary vertices carry weight")
        return num / den


def trace(space: GraphSpace, u, nu: BoundaryMeasure, radii: list) -> TraceReport:
    """Boundary values of u recovered as interior ball averages.

    Tu at a boundary vertex is the measure-weighted mean of u over the
    inclusive ball at the smallest radius; the per-vertex oscillation of the
    mean across the (decreasing) radius list is the convergence diagnostic.
    Radii must stay at or above four mesh widths; a vertex whose smallest
    ball contains no interior mass is flagged unresolved.

    The value is that mean itself, not an extrapolated r -> 0 limit, so it
    carries a first-order bias of order r times the gradient of u near the
    vertex: r/4 at a strip corner for a linear field, and about 0.11
    (nu-weighted) at r = 0.25 for the p=2 solution with data x on the
    level-1 Cantor slit cone.
    """
    radii = list(radii)
    if len(radii) < 2 or any(b >= a for a, b in zip(radii, radii[1:])):
        raise EnergyError("radii must be a strictly decreasing list of length >= 2")
    if radii[-1] < 4 * nu.mesh_scale * (1 - 1e-9):
        raise EnergyError(
            f"smallest radius {radii[-1]:g} is below the resolution floor "
            f"4h = {4 * nu.mesh_scale:g}"
        )
    vals = field_array(space, u)
    idx = np.nonzero(nu.array(space))[0]
    ids = [space.ids[i] for i in idx]
    out = np.full(idx.size, np.nan)
    osc = np.full(idx.size, np.nan)
    unresolved = []
    interior_mass = np.where(space.boundary_mask, 0.0, space.measure)
    for k, (vid, dist) in enumerate(zip(ids, space.distance_rows(idx, limit=radii[0] * (1 + 1e-9)))):
        means = []
        for r in radii:
            sel = dist <= r * (1 + 1e-9)
            m = float(interior_mass[sel].sum())
            if m <= 0:
                unresolved.append(vid)
                break
            means.append(float((vals[sel] * interior_mass[sel]).sum()) / m)
        else:
            out[k] = means[-1]
            osc[k] = max(means) - min(means)
    return TraceReport(ids=ids, values=out, oscillation=osc, radii=radii, unresolved=unresolved)


# ---------------------------------------------------------------------------
# Boundary oscillation (Adams-type) estimate


def adams_exponent(theta: float, p: float, q_minus: float, p_tilde: float | None = None) -> float:
    """Boundary Lebesgue exponent q from the codimension relation.

    Solves theta = -Q^- q / p + Q^- + q / p_tilde for q.  The auxiliary
    exponent p_tilde defaults to max(1, p - 1/4) (a slightly better exponent
    is always available on these spaces; the exact value is configuration);
    a given p_tilde must be finite and at least 1.  Requires the resulting q
    to exceed p.
    """
    if p_tilde is None:
        p_tilde = max(1.0, p - 0.25)
    elif not 1.0 <= p_tilde < np.inf:
        raise EnergyError(f"p_tilde = {p_tilde:g} must be finite and at least 1")
    denom = q_minus / p - 1.0 / p_tilde
    if denom <= 0:
        raise EnergyError(
            f"exponent relation degenerate: Q^-/p - 1/p_tilde = {denom:g} <= 0"
        )
    q = (q_minus - theta) / denom
    if q <= p:
        raise EnergyError(
            f"derived q = {q:g} does not exceed p = {p:g}; "
            "choose a smaller p_tilde or check theta"
        )
    return q


def _weighted_median(values: np.ndarray, weights: np.ndarray) -> float:
    order = np.argsort(values, kind="stable")
    cw = np.cumsum(weights[order])
    k = int(np.searchsorted(cw, 0.5 * cw[-1]))
    return float(values[order][min(k, len(values) - 1)])


@dataclass
class AdamsReport:
    q: float
    theta: float
    rows: list = field(default_factory=list)
    skipped: list = field(default_factory=list)
    violations: list = field(default_factory=list)

    @property
    def max_ratio(self) -> float:
        ratios = [r["ratio"] for r in self.rows]
        return max(ratios) if ratios else 0.0


def adams_check(
    t: TransformedSpace, nu: BoundaryMeasure, u, q: float, theta: float, balls: list
) -> AdamsReport:
    """Boundary q-oscillation against interior gradient energy, per ball.

    For each (center id, radius) in the transformed metric: LHS is the
    nu-weighted q-norm of u minus its nu-median over the boundary part of
    the ball; RHS is r^{1 - theta/q} / mu_phi(B)^{1/p - 1/q} times the
    p-energy of u over edges inside the doubled ball, to the power 1/p.
    Balls are inclusive.  A ball with zero RHS but positive LHS is recorded
    as a violation.  q must be positive and finite.  Balls are measured
    center by center and reported in the order given.
    """
    if not 0.0 < q < np.inf:
        raise EnergyError(f"q = {q:g} must be positive and finite")
    masses = edge_mass(t)
    p = t.p
    vals = field_array(t, u)
    grad = upper_gradient(t, vals)
    report = AdamsReport(q=q, theta=theta)
    nu_arr = nu.array(t)
    by_center: dict = {}
    for k, (center, r) in enumerate(balls):
        by_center.setdefault(center, []).append((k, r))
    found: list[list] = [[] for _ in balls]  # per ball, its (report list, entry) pairs
    limit = 2 * max((r for _, r in balls), default=0.0) * (1 + 1e-9)
    for center, d in zip(by_center, t.distance_rows(list(by_center), limit=limit)):
        for k, r in by_center[center]:
            in_ball = d <= r * (1 + 1e-9)
            bsel = in_ball & (nu_arr > 0)
            mu_ball = float(t.measure[in_ball].sum())
            if not bsel.any():
                found[k].append(("skipped", {"center": center, "r": r, "reason": "no boundary mass in ball"}))
                continue
            if mu_ball <= 0:
                found[k].append(("skipped", {"center": center, "r": r, "reason": "zero-measure ball"}))
                continue
            w = nu_arr[bsel]
            uv = vals[bsel]
            c = _weighted_median(uv, w)
            lhs = float((w * np.abs(uv - c) ** q).sum()) ** (1.0 / q)
            in_2b = d <= 2 * r * (1 + 1e-9)
            emask = in_2b[t.edge_u] & in_2b[t.edge_v]
            energy = float((masses[emask] * grad[emask] ** p).sum())
            rhs = r ** (1.0 - theta / q) / mu_ball ** (1.0 / p - 1.0 / q) * energy ** (1.0 / p)
            if rhs == 0:
                if lhs > 0:
                    found[k].append(("violations", {"center": center, "r": r, "lhs": lhs}))
                ratio = 0.0
            else:
                ratio = lhs / rhs
            found[k].append(("rows", {"center": center, "r": r, "lhs": lhs, "rhs": rhs, "ratio": ratio}))
    for name, entry in chain.from_iterable(found):
        getattr(report, name).append(entry)
    return report
