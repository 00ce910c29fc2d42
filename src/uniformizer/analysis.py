"""Empirical geometry checks on base and dampened spaces.

Doubling constants, two-sided ball-mass exponents, the induced exponent
formulas, comparability of the distance to infinity with the dyadic band
scale, parabolic/hyperbolic classification of the far end by shell
capacities, uniformity spot checks along shortest paths, and boundary
fatness.  Everything here is an empirical witness at finite scale:
envelopes, maxima, and fits over deterministic samples.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .dampening import evaluate
from .graphspace import shortest_route
from .solver import SolveOptions, _capacity, capacity_of_infinity
from .transform import BoundaryMeasure, TransformedSpace, _approx_boundary_diameter


class AnalysisError(ValueError):
    pass


# ---------------------------------------------------------------------------
# deterministic samplers


def sample_interior(space, count: int, seed: int) -> list[str]:
    """Uniform interior vertex sample (without the infinity vertex)."""
    pool = np.nonzero(space.interior_mask)[0]
    if space.infinity_index >= 0:
        pool = pool[pool != space.infinity_index]
    rng = np.random.default_rng(seed)
    pick = rng.choice(pool, size=min(count, pool.size), replace=False)
    return [space.ids[i] for i in np.sort(pick)]


def sample_boundary(space, count: int, seed: int) -> list[str]:
    pool = space.boundary_indices()
    rng = np.random.default_rng(seed)
    pick = rng.choice(pool, size=min(count, pool.size), replace=False)
    return [space.ids[i] for i in np.sort(pick)]


def sample_pairs(space, count: int, seed: int) -> list[tuple[str, str]]:
    """Disjoint interior vertex pairs, deterministic in the seed."""
    pool = np.nonzero(space.interior_mask)[0]
    if space.infinity_index >= 0:
        pool = pool[pool != space.infinity_index]
    rng = np.random.default_rng(seed)
    take = min(2 * count, pool.size - pool.size % 2)
    pick = rng.choice(pool, size=take, replace=False)
    return [
        (space.ids[int(pick[2 * i])], space.ids[int(pick[2 * i + 1])])
        for i in range(take // 2)
    ]


# ---------------------------------------------------------------------------
# doubling and mass exponents


@dataclass
class DoublingReport:
    max_ratio: float
    per_scale: list
    skipped: int
    bound: float | None
    passed: bool


def doubling_constant(space, centers: list, radii: list, bound: float | None = None) -> DoublingReport:
    """Worst ratio measure(B(x, 2r)) / measure(B(x, r)) over samples.

    Centers are vertex ids or indices.  Balls are open in the space's own
    metric (pass a transformed space for the dampened metric/measure pair).
    Zero-mass inner balls are skipped and counted; at each radius the first
    center with the worst ratio is reported.
    """
    reach = space.distance_rows(centers, limit=2 * max(radii, default=0.0))
    masses = [[(space.measure[d < r].sum(), space.measure[d < 2 * r].sum()) for r in radii] for d in reach]
    per_scale = []
    skipped = 0
    overall = 0.0
    for k, r in enumerate(radii):
        worst = None
        for c, mass in zip(centers, masses):
            mu_r, mu_2r = map(float, mass[k])
            if mu_r <= 0:
                skipped += 1
                continue
            ratio = mu_2r / mu_r
            if worst is None or ratio > worst[1]:
                worst = (c, ratio)
        if worst is not None:
            per_scale.append({"r": float(r), "center": worst[0], "ratio": worst[1]})
            overall = max(overall, worst[1])
    if not per_scale:
        raise AnalysisError("doubling_constant: every sampled ball was empty")
    return DoublingReport(
        max_ratio=overall,
        per_scale=per_scale,
        skipped=skipped,
        bound=bound,
        passed=bool(bound is None or overall <= bound),
    )


@dataclass
class ExponentFit:
    """Two-sided envelope exponents for ball-mass growth.

    Q_minus bounds mass ratios from below via (r/R)^Q_minus, Q_plus from
    above; slope is the pooled least-squares point estimate used where a
    single fitted exponent is wanted.
    """

    Q_minus: float
    Q_plus: float
    fit_residual: float
    scale_range: tuple
    slope: float


def mass_exponents(space, centers: list, radii: list) -> ExponentFit:
    """Envelope exponents of ball mass across dyadic scales.

    Centers are vertex ids or indices.  For every center and radius pair
    r < R the statistic log(mass(B_R)/mass(B_r)) / log(R/r) is collected;
    Q_minus is the max minus a slack, Q_plus the min plus the same slack
    (slack = 5 percent of the observed spread, so Q_plus <= Q_minus
    always).  The least-squares slope of log mass against log r (fit per
    center, pooled) gives the point estimate and residual.
    """
    radii = sorted(float(r) for r in radii)
    if len(radii) < 3:
        raise AnalysisError("mass_exponents: need at least 3 radii")
    slopes = []
    ls_slopes = []
    residuals = []
    for d in space.distance_rows(centers, limit=radii[-1]):
        mus = np.array([float(space.measure[d < r].sum()) for r in radii])
        keep = mus > 0
        rs = np.array(radii)[keep]
        mus = mus[keep]
        if rs.size < 2:
            continue
        for i in range(rs.size):
            for j in range(i + 1, rs.size):
                slopes.append(math.log(mus[j] / mus[i]) / math.log(rs[j] / rs[i]))
        if rs.size >= 3:
            x = np.log(rs)
            y = np.log(mus)
            coef = np.polyfit(x, y, 1)
            ls_slopes.append(coef[0])
            residuals.append(float(np.sqrt(np.mean((y - np.polyval(coef, x)) ** 2))))
    if not slopes:
        raise AnalysisError("mass_exponents: all sampled balls empty")
    raw_max = max(slopes)
    raw_min = min(slopes)
    slack = 0.05 * (raw_max - raw_min)
    slope = float(np.mean(ls_slopes)) if ls_slopes else 0.5 * (raw_max + raw_min)
    residual = float(np.sqrt(np.mean(np.array(residuals) ** 2))) if residuals else float("nan")
    return ExponentFit(
        Q_minus=raw_max - slack,
        Q_plus=raw_min + slack,
        fit_residual=residual,
        scale_range=(radii[0], radii[-1]),
        slope=slope,
    )


def q_beta(p: float, beta: float, q_mu: tuple[float, float]) -> tuple[float, float]:
    """Induced far-field exponents of the dampened measure.

    Q_beta_minus = (beta p - Q_plus) / (beta - 1) and
    Q_beta_plus = (beta p - Q_minus) / (beta - 1); requires beta > 1 and
    beta p > Q_minus.  ``q_mu`` is the base measure's (Q_minus, Q_plus) pair.
    """
    qm, qp = float(q_mu[0]), float(q_mu[1])
    if beta <= 1:
        raise AnalysisError(f"beta={beta:g} must exceed 1")
    if beta * p <= qm:
        raise AnalysisError(
            f"hypothesis beta*p > Q_minus violated: {beta:g}*{p:g} <= {qm:g}"
        )
    return ((beta * p - qp) / (beta - 1), (beta * p - qm) / (beta - 1))


# ---------------------------------------------------------------------------
# distance to infinity


@dataclass
class DistInfinityReport:
    per_band: dict
    kappa_emp: float


def dist_infinity_check(t: TransformedSpace) -> DistInfinityReport:
    """Compare d_phi(v, infinity) with the band scale 2^m phi(2^m).

    Tabulates the ratio over all interior vertices in bands m >= 1 and
    reports kappa_emp = max(max ratio, 1/min ratio).
    """
    base = t.base
    bands = base.bands()
    d_inf = t.distance_to_infinity()[: base.n_vertices]
    per_band = {}
    gmin, gmax = math.inf, 0.0
    for m in range(1, bands.n_max + 1):
        sel = (bands.band_index == m) & base.interior_mask
        if not sel.any():
            continue
        scale = 2.0**m * evaluate(t.phi, 2.0**m)
        ratios = d_inf[sel] / scale
        lo, hi = float(ratios.min()), float(ratios.max())
        per_band[m] = {"min": lo, "max": hi, "count": int(sel.sum())}
        gmin, gmax = min(gmin, lo), max(gmax, hi)
    if not per_band:
        raise AnalysisError("dist_infinity_check: no vertices beyond band 0")
    return DistInfinityReport(per_band=per_band, kappa_emp=max(gmax, 1.0 / gmin))


# ---------------------------------------------------------------------------
# parabolicity


@dataclass
class ParabolicityReport:
    verdict: str
    R: float
    shells: list
    spread: float
    monotone: bool
    power_fit: dict
    log_fit: dict
    theory: dict | None = None
    flags: list = field(default_factory=list)

    def to_dict(self) -> dict:
        return asdict(self)


def _line_fit(x: np.ndarray, y: np.ndarray) -> dict:
    coef = np.polyfit(x, y, 1)
    res = float(np.sqrt(np.mean((y - np.polyval(coef, x)) ** 2)))
    return {"slope": float(coef[0]), "residual": res}


def classify_parabolicity(
    t: TransformedSpace,
    p: float,
    n_shells: int = 4,
    k_start: int = 2,
    options: SolveOptions | None = None,
    theory_fit: ExponentFit | None = None,
) -> ParabolicityReport:
    """Classify the far end by the decay of shell capacities around infinity.

    Sweeps r = R/2^k (R = half the dampened distance from the boundary to
    infinity) and decides:

    * Parabolic when the capacities decrease monotonically and follow a
      decaying power law in r (slope >= 0.5, residual < 0.2, spread >= 4) or
      the borderline logarithmic law c * [log(R/r)]^(1-p) (slope of log cap
      against log log(R/r) <= -0.5, residual < 0.2, spread >= 1.25);
    * Hyperbolic when the values stay above 10 percent of their maximum and
      show no such decay;
    * Indeterminate otherwise.

    These thresholds are fixed constants.

    When a base-measure ExponentFit is supplied (power dampening only) the
    report carries the theory-side prediction: hyperbolic iff p < Q_plus.
    """
    if abs(p - t.p) > 1e-12:
        raise AnalysisError(
            f"classification p={p:g} differs from the transform's p={t.p:g}"
        )
    if n_shells < 4:
        raise AnalysisError("classify_parabolicity: need at least 4 shells")
    base = t.base
    d_inf = t.distance_to_infinity()
    R = 0.5 * float(d_inf[base.boundary_indices()].min())
    shells = []
    caps = []
    for k in range(k_start, k_start + n_shells):
        r = R / 2.0**k
        cap = capacity_of_infinity(t, p, r, R, options)
        shells.append({"k": k, "r": r, "cap": cap})
        caps.append(cap)
    caps_arr = np.array(caps)
    if (caps_arr <= 0).any():
        verdictable = caps_arr[caps_arr > 0]
        spread = float(caps_arr.max() / verdictable.min()) if verdictable.size else math.inf
    else:
        spread = float(caps_arr.max() / caps_arr.min())
    monotone = bool(np.all(caps_arr[1:] <= caps_arr[:-1] * (1 + 1e-2)))
    rs = np.array([s["r"] for s in shells])
    with np.errstate(divide="ignore"):
        y = np.log(caps_arr)
    power_fit = _line_fit(np.log(rs), y) if np.isfinite(y).all() else {"slope": math.inf, "residual": 0.0}
    # The borderline law cap ~ [log(R/r)]^s: y against log L, L = log(R/r).
    # The asymptotic exponent emerges only once log(R/r) dominates the O(1)
    # effective-scale transient, so a sweep probing the borderline case
    # should start deep enough (k_start) that L is a few units; the slope
    # then stabilizes near the true exponent.
    log_fit = (
        _line_fit(np.log(np.log(R / rs)), y)
        if np.isfinite(y).all()
        else {"slope": -math.inf, "residual": 0.0}
    )
    flags = []
    decays = monotone and (
        (spread >= 4.0 and power_fit["residual"] < 0.2 and power_fit["slope"] >= 0.5)
        or (spread >= 1.25 and log_fit["residual"] < 0.2 and log_fit["slope"] <= -0.5)
    )
    if decays:
        verdict = "Parabolic"
    elif caps_arr.min() >= 0.1 * caps_arr.max() and not (monotone and spread >= 4.0):
        verdict = "Hyperbolic"
    else:
        verdict = "Indeterminate"
        flags.append("no-clear-regime")

    theory = None
    if theory_fit is not None:
        if t.phi.kind != "power":
            raise AnalysisError("theory prediction requires power dampening")
        qp = theory_fit.Q_plus
        qbm, qbp = q_beta(p, t.phi.beta, (theory_fit.Q_minus, qp))
        theory = {
            "Q_beta_minus": qbm,
            "Q_beta_plus": qbp,
            "Q_mu_plus": float(qp),
            "predicted": "Hyperbolic" if p < qp else "Parabolic",
        }
    return ParabolicityReport(
        verdict=verdict,
        R=R,
        shells=shells,
        spread=spread,
        monotone=monotone,
        power_fit=power_fit,
        log_fit=log_fit,
        theory=theory,
        flags=flags,
    )


# ---------------------------------------------------------------------------
# uniformity spot check


@dataclass
class UniformityReport:
    rows: list
    C_U: float
    flags: list = field(default_factory=list)


def uniformity_spot_check(space, pairs: list) -> UniformityReport:
    """Witness uniformity constants along shortest interior paths.

    For each pair, the candidate curve is the shortest path avoiding
    boundary vertices and the infinity vertex, if attached.  Reported per
    pair: curve length over metric distance, and the cigar ratio
    max_z min(sublength to either end) / boundary distance of z.  The max
    over pairs upper-bounds what curves achieve; shortest paths need not be
    the best uniform curves.
    """
    d_bdry = space.boundary_distance_array()
    rows = []
    flags = []
    best = 0.0
    for (x, y), d in zip(pairs, space.distance_rows([x for x, _ in pairs])):
        xi, yi = space.index[x], space.index[y]
        excluded = space.boundary_mask.copy()
        if space.infinity_index >= 0:
            excluded[space.infinity_index] = True
        excluded[xi] = excluded[yi] = False
        w = np.where(excluded[space.edge_u] | excluded[space.edge_v], np.inf, space.edge_length)
        try:
            cost, vpath, epath = shortest_route(space, [xi], [yi], w)
        except ValueError:
            flags.append({"pair": [x, y], "reason": "no-interior-path"})
            continue
        dist = float(d[yi])
        len_ratio = cost / dist if dist > 0 else 1.0
        cum = np.concatenate([[0.0], np.cumsum(space.edge_length[epath])])
        cigar = 0.0
        for j in range(1, len(vpath) - 1):
            sub = min(cum[j], cost - cum[j])
            dz = d_bdry[vpath[j]]
            cigar = max(cigar, sub / dz) if dz > 0 else math.inf
        rows.append({"pair": [x, y], "length_ratio": len_ratio, "cigar_ratio": cigar})
        best = max(best, len_ratio, cigar)
    if not rows:
        raise AnalysisError("uniformity_spot_check: no pair admitted an interior path")
    return UniformityReport(rows=rows, C_U=best, flags=flags)


# ---------------------------------------------------------------------------
# boundary fatness


@dataclass
class FatnessReport:
    rows: list
    min_ratio: float
    floor: float
    passed: bool
    skipped: list = field(default_factory=list)


def boundary_fatness(
    t: TransformedSpace,
    nu: BoundaryMeasure,
    p: float,
    centers: list,
    radii: list,
    floor: float = 1e-6,
) -> FatnessReport:
    """Relative capacity density of boundary balls in the dampened metric.

    ratio(center, r) = cap_p(boundary part of B(center, r), complement of
    B(center, 2r)) * r^(p - theta) / nu(boundary part of B).  Radii must
    respect r <= min(1, boundary diameter)/2.  Balls whose interior part is
    empty are flagged unresolved; zero-nu balls are skipped.
    """
    diam = _approx_boundary_diameter(t)
    rcap = min(1.0, diam / 2.0)
    for r in radii:
        if r > rcap * (1 + 1e-9):
            raise AnalysisError(
                f"radius {r:g} exceeds min(1, boundary diameter)/2 = {rcap:g}"
            )
    nu_vec = nu.array(t)
    rows = []
    skipped = []
    for c, d in zip(centers, t.distance_rows(centers, limit=2 * max(radii, default=0.0) * (1 + 1e-9))):
        for r in radii:
            in_ball = d <= r * (1 + 1e-9)
            if not (in_ball & t.interior_mask).any():
                skipped.append({"center": c, "r": r, "reason": "unresolved"})
                continue
            E_sel = in_ball & t.boundary_mask
            nu_ball = float(nu_vec[E_sel].sum())
            if nu_ball <= 0:
                skipped.append({"center": c, "r": r, "reason": "zero-nu-ball"})
                continue
            F_sel = d > 2 * r * (1 + 1e-9)
            if not F_sel.any():
                skipped.append({"center": c, "r": r, "reason": "degenerate-shell"})
                continue
            cap = _capacity(t, np.nonzero(E_sel)[0], np.nonzero(F_sel)[0], p, None).value
            ratio = cap * r ** (p - nu.theta) / nu_ball
            rows.append({"center": c, "r": r, "cap": cap, "nu_ball": nu_ball, "ratio": ratio})
    if not rows:
        raise AnalysisError("boundary_fatness: every sample degenerate")
    min_ratio = min(row["ratio"] for row in rows)
    return FatnessReport(
        rows=rows,
        min_ratio=min_ratio,
        floor=floor,
        passed=bool(min_ratio >= floor),
        skipped=skipped,
    )
