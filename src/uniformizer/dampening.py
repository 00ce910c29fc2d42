"""Dampening weight functions and their admissibility checks.

A dampening function is a non-increasing ``phi: (0, inf) -> (0, 1]`` equal to 1
on ``(0, 1]`` with an integrable tail.  Scaling edge lengths by ``phi`` of the
boundary distance compresses the far field of an unbounded domain to finite
diameter; the measure is reweighted by ``phi^p``.  Admissibility beyond
monotonicity is quantified by dyadic ratio constants:

* halving control: ``phi(t) <= C * phi(2t)`` (bounded drop per doubling),
* strict decay: ``phi(t) >= tau * phi(2t)`` with ``tau > 2``,
* tail sums ``sum_{n>=m} 2^n phi(2^n)`` comparable to their first term,
* weighted tail sums ``sum_{n>=m} phi(2^n)^p mu(band n)`` comparable to their
  first term (this one depends on the space through its band measures).

The strict-decay constant is meaningful only where phi actually decays, so the
empirical ``tau`` is taken over dyadic ``t >= 1``; on ``t <= 1/2`` both values
equal 1 and the ratio is trivially 1.

Supported kinds: ``power`` (``min(1, t^-beta)``), ``log_power``
(``min(1, t^-beta * log(e - 1 + t))``), and ``tabulated`` (log-log linear
interpolation through given samples).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np


class DampeningError(ValueError):
    """Invalid dampening parameters, domain violations, or divergent tails."""


@dataclass(frozen=True)
class Dampening:
    kind: str
    beta: float | None = None
    samples: tuple[tuple[float, float], ...] | None = None

    def label(self) -> str:
        if self.kind == "tabulated":
            return f"tabulated[{len(self.samples or ())}]"
        return f"{self.kind}:{self.beta:g}"


def power(beta: float) -> Dampening:
    """phi(t) = min(1, t^-beta).  Integrable tail requires beta > 1."""
    if not (beta > 0 and math.isfinite(beta)):
        raise DampeningError("power dampening requires beta > 0")
    return Dampening(kind="power", beta=float(beta))


def log_power(beta: float) -> Dampening:
    """phi(t) = min(1, t^-beta * log(e - 1 + t)); equals 1 on (0, 1]."""
    if not (beta > 1 and math.isfinite(beta)):
        raise DampeningError("log_power dampening requires beta > 1")
    return Dampening(kind="log_power", beta=float(beta))


def tabulated(samples) -> Dampening:
    """Dampening through sample points (t, value), t ascending and positive.

    Values must lie in (0, 1], be non-increasing, and equal 1 wherever t <= 1.
    Between samples the function is a power law (linear in log-log).
    """
    pts = tuple((float(t), float(v)) for t, v in samples)
    if len(pts) < 2:
        raise DampeningError("tabulated dampening needs at least two samples")
    for k, (t, v) in enumerate(pts):
        if not (t > 0 and math.isfinite(t)):
            raise DampeningError(f"samples[{k}]: t must be positive and finite")
        if not (0 < v <= 1):
            raise DampeningError(f"samples[{k}]: value must lie in (0, 1]")
        if t <= 1 and v != 1.0:
            raise DampeningError(f"samples[{k}]: value must be 1 for t <= 1")
        if k > 0:
            if t <= pts[k - 1][0]:
                raise DampeningError(f"samples[{k}]: t values must be strictly increasing")
            if v > pts[k - 1][1]:
                raise DampeningError(f"samples[{k}]: values must be non-increasing")
    return Dampening(kind="tabulated", samples=pts)


# -- evaluation --------------------------------------------------------------


def evaluate(phi: Dampening, t):
    """phi(t) for scalar or array t; raises on t <= 0 or outside tabulated range."""
    arr = np.asarray(t, dtype=float)
    if (arr <= 0).any():
        raise DampeningError("evaluate: t must be positive")
    out = _values(phi, arr, strict_range=True)
    return float(out) if np.isscalar(t) or arr.ndim == 0 else out


def _values(phi: Dampening, arr: np.ndarray, strict_range: bool) -> np.ndarray:
    """Vectorized evaluation; t == 0 is allowed here and maps to 1 (flat zone)."""
    if phi.kind == "power":
        with np.errstate(divide="ignore"):
            return np.minimum(1.0, np.where(arr > 0, arr, 1.0) ** (-phi.beta))
    if phi.kind == "log_power":
        safe = np.where(arr > 0, arr, 1.0)
        return np.minimum(1.0, safe ** (-phi.beta) * np.log(np.e - 1.0 + safe))
    if phi.kind == "tabulated":
        ts = np.array([p[0] for p in phi.samples])
        vs = np.array([p[1] for p in phi.samples])
        lo, hi = ts[0], ts[-1]
        inside = (arr >= lo * (1 - 1e-12)) & (arr <= hi * (1 + 1e-12))
        if strict_range and not (inside | (arr <= 1.0)).all():
            bad = float(arr[~(inside | (arr <= 1.0))].flat[0])
            raise DampeningError(
                f"evaluate: t={bad:g} outside tabulated range [{lo:g}, {hi:g}]"
            )
        clipped = np.clip(arr, lo, hi)
        out = np.exp(np.interp(np.log(clipped), np.log(ts), np.log(vs)))
        return np.where(arr <= 1.0, 1.0, out)
    raise DampeningError(f"unknown dampening kind {phi.kind!r}")


def edge_weight(phi: Dampening, t) -> np.ndarray:
    """Evaluation tolerant of t == 0 (edges between boundary vertices)."""
    arr = np.asarray(t, dtype=float)
    if (arr < 0).any():
        raise DampeningError("edge_weight: t must be nonnegative")
    return _values(phi, arr, strict_range=False)


# -- tail integrals ----------------------------------------------------------


def tail_integral(phi: Dampening, t: float) -> float:
    """Integral of phi over (t, infinity) to relative accuracy 1e-8 or better.

    Power tails are closed form; log_power uses adaptive quadrature on the
    decaying branch; tabulated tails are summed segment-wise in closed form
    plus a power-law extrapolation of the last segment (an error if that
    extrapolation diverges).
    """
    if not (t >= 0 and math.isfinite(t)):
        raise DampeningError("tail_integral: t must be finite and >= 0")
    if phi.kind == "power":
        if phi.beta <= 1:
            raise DampeningError("tail_integral diverges: power with beta <= 1")
        if t >= 1.0:
            return t ** (1.0 - phi.beta) / (phi.beta - 1.0)
        return (1.0 - t) + 1.0 / (phi.beta - 1.0)
    if phi.kind == "log_power":
        start = max(t, 1.0)
        flat = max(0.0, 1.0 - t)
        from scipy import integrate  # only this branch needs it

        val, _ = integrate.quad(
            lambda s: s ** (-phi.beta) * math.log(math.e - 1.0 + s),
            start,
            np.inf,
            epsabs=0.0,
            epsrel=1e-10,
            limit=400,
        )
        return flat + val
    if phi.kind == "tabulated":
        return _tabulated_tail(phi, t)
    raise DampeningError(f"unknown dampening kind {phi.kind!r}")


def _tabulated_tail(phi: Dampening, t: float) -> float:
    ts = [p[0] for p in phi.samples]
    vs = [p[1] for p in phi.samples]
    total = 0.0
    if t < ts[0]:
        if ts[0] > 1.0 and t < 1.0:
            # flat up to 1, then the (1, ts[0]) gap is also flat (phi == 1 there
            # would need a sample; require coverage instead)
            raise DampeningError("tail_integral: tabulated samples must start at t <= 1")
        total += ts[0] - t
        t = ts[0]
    for k in range(len(ts) - 1):
        a, b = ts[k], ts[k + 1]
        if b <= t:
            continue
        lo = max(a, t)
        m = math.log(vs[k + 1] / vs[k]) / math.log(b / a)
        scale = vs[k] / a**m
        if abs(m + 1.0) < 1e-12:
            seg = scale * math.log(b / lo)
        else:
            seg = scale * (b ** (m + 1.0) - lo ** (m + 1.0)) / (m + 1.0)
        total += seg
    last_m = math.log(vs[-1] / vs[-2]) / math.log(ts[-1] / ts[-2])
    start = max(t, ts[-1])
    if start > ts[-1]:
        raise DampeningError(
            f"tail_integral: t={t:g} beyond tabulated range end {ts[-1]:g}"
        )
    if last_m >= -1.0 - 1e-12:
        raise DampeningError(
            "tail_integral diverges: tabulated tail slope >= -1 (condition (2) fails)"
        )
    total += vs[-1] * ts[-1] / (-last_m - 1.0)
    return total


def tail_integral_many(phi: Dampening, ts) -> np.ndarray:
    """tail_integral over an array; closed form vectorized for the power kind."""
    arr = np.asarray(ts, dtype=float)
    if phi.kind == "power":
        if phi.beta <= 1:
            raise DampeningError("tail_integral diverges: power with beta <= 1")
        big = np.maximum(arr, 1.0)
        tail_at_one_plus = big ** (1.0 - phi.beta) / (phi.beta - 1.0)
        return tail_at_one_plus + np.maximum(0.0, 1.0 - arr)
    uniq, inverse = np.unique(arr, return_inverse=True)
    vals = np.array([tail_integral(phi, float(t)) for t in uniq])
    return vals[inverse]


# -- validation --------------------------------------------------------------


@dataclass
class PhiValidationReport:
    kind: str
    p: float
    n_max: int
    tail_integral_estimate: float
    C_phi_emp: float
    tau_emp: float
    cond5_implied_constant: float
    cond6_implied_constant: float
    passes: dict[str, bool]
    flags: list[str] = field(default_factory=list)

    @property
    def all_pass(self) -> bool:
        return all(self.passes.values())

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "p": self.p,
            "n_max": self.n_max,
            "tail_integral_estimate": self.tail_integral_estimate,
            "C_phi_emp": self.C_phi_emp,
            "tau_emp": self.tau_emp,
            "cond5_implied_constant": self.cond5_implied_constant,
            "cond6_implied_constant": self.cond6_implied_constant,
            "pass": dict(self.passes),
            "all_pass": self.all_pass,
            "flags": list(self.flags),
        }


def _dyadic_range(phi: Dampening, j_hi: int) -> tuple[int, bool]:
    """Clamp the top of a dyadic exponent range to the tabulated sample
    range if needed; returns the top and whether it was clamped."""
    limited = False
    if phi.kind == "tabulated":
        hi_t = phi.samples[-1][0]
        j_max = int(math.floor(math.log2(hi_t) + 1e-12))
        if j_max - 1 < j_hi:
            j_hi = j_max - 1
            limited = True
    return j_hi, limited


def validate(
    phi: Dampening,
    p: float,
    band_measures: dict[int, float] | None = None,
    n_max: int = 20,
) -> PhiValidationReport:
    """Empirical admissibility report over dyadic scales up to 2^n_max.

    band_measures feeds the measure-weighted tail condition; when absent a flat
    synthetic profile is used and flagged, which checks only the phi-decay part
    of that condition.
    """
    if not (1 <= p < np.inf):
        raise DampeningError(f"validate: p={p:g} must be finite and >= 1")
    if n_max < 2:
        raise DampeningError("validate: n_max must be >= 2")
    flags: list[str] = []
    passes: dict[str, bool] = {}

    # condition (1): identically 1 on (0, 1]
    probe = np.array([0.125, 0.25, 0.5, 0.75, 1.0])
    passes["1"] = bool(np.max(np.abs(edge_weight(phi, probe) - 1.0)) <= 1e-12)

    # condition (2): integrable tail; estimate is the full integral over (0, inf)
    # assuming the flat value 1 below the first resolvable scale
    try:
        t0 = phi.samples[0][0] if phi.kind == "tabulated" else 1e-9
        tail_est = float(tail_integral(phi, t0)) + t0
        passes["2"] = math.isfinite(tail_est)
    except DampeningError:
        tail_est = math.inf
        passes["2"] = False
        flags.append("tail-divergent")

    # conditions (3) and (4): dyadic halving ratios
    j_hi, limited = _dyadic_range(phi, n_max - 1)
    if limited:
        flags.append("range-limited")
    ratios = []
    ratios_ge1 = []
    for j in range(-2, j_hi + 1):
        t = 2.0**j
        a = float(edge_weight(phi, t))
        b = float(edge_weight(phi, 2.0 * t))
        if b <= 0:
            continue
        r = a / b
        ratios.append(r)
        if j >= 0:
            ratios_ge1.append(r)
    C_phi_emp = max(ratios) if ratios else math.inf
    tau_emp = min(ratios_ge1) if ratios_ge1 else 0.0
    passes["3"] = math.isfinite(C_phi_emp) and C_phi_emp >= tau_emp
    passes["4"] = tau_emp > 2.0

    # condition (5): sum_{n >= m} 2^n phi(2^n) comparable to the first term
    n_hi, _ = _dyadic_range(phi, n_max)
    terms = np.array([2.0**n * float(edge_weight(phi, 2.0**n)) for n in range(1, n_hi + 1)])
    tail5 = 0.0
    if phi.kind == "power" and phi.beta > 1:
        q = 2.0 ** (1.0 - phi.beta)
        tail5 = terms[-1] * q / (1.0 - q)
    elif phi.kind == "log_power":
        n = n_hi + 1
        partial = 0.0
        while n < n_hi + 400:
            term = 2.0**n * float(edge_weight(phi, 2.0**n))
            partial += term
            if term < 1e-16 * max(partial, terms[-1]):
                break
            n += 1
        tail5 = partial
    suffix = np.cumsum(terms[::-1])[::-1] + tail5
    with np.errstate(divide="ignore", invalid="ignore"):
        cond5 = suffix / terms
    cond5_const = float(np.max(cond5)) if np.isfinite(cond5).all() else math.inf
    passes["5"] = math.isfinite(cond5_const)

    # condition (6): measure-weighted version over band measures
    if band_measures is None:
        band_measures = {n: 1.0 for n in range(0, n_hi + 1)}
        flags.append("synthetic-bands")
    ns = sorted(n for n, mu in band_measures.items() if n >= 1 and mu > 0)
    cond6_const = math.nan
    passes["6"] = False
    if len(ns) >= 2:
        wterms = np.array(
            [float(edge_weight(phi, 2.0**n)) ** p * band_measures[n] for n in ns]
        )
        tail6 = 0.0
        divergent = False
        if phi.kind == "power":
            growth = np.exp(np.mean(np.log(wterms[-3:] / wterms[-4:-1]))) if len(wterms) >= 4 else (
                wterms[-1] / wterms[-2]
            )
            if growth >= 1.0 - 1e-12:
                divergent = True
                flags.append("cond6-divergent-tail")
            else:
                tail6 = wterms[-1] * growth / (1.0 - growth)
        suffix6 = np.cumsum(wterms[::-1])[::-1] + tail6
        cond6 = suffix6 / wterms
        cond6_const = float(np.max(cond6))
        passes["6"] = math.isfinite(cond6_const) and not divergent
    else:
        flags.append("cond6-insufficient-bands")

    return PhiValidationReport(
        kind=phi.label(),
        p=float(p),
        n_max=int(n_max),
        tail_integral_estimate=tail_est,
        C_phi_emp=C_phi_emp,
        tau_emp=tau_emp,
        cond5_implied_constant=cond5_const,
        cond6_implied_constant=cond6_const,
        passes=passes,
        flags=flags,
    )
