"""Dampening profiles: evaluation, tail integrals, admissibility checks.

Closed forms used as oracles:

* power beta:  phi(t) = min(1, t^-beta), tail over [t, inf) for t >= 1 is
  t^(1-beta)/(beta-1); for beta = 2 the tail at t = 2^m is exactly 2^-m.
* log_power beta: phi(t) = min(1, t^-beta * log(e - 1 + t)); the tail has no
  elementary antiderivative, so scipy quadrature is the oracle.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from scipy.integrate import quad

from uniformizer.dampening import (
    Dampening,
    DampeningError,
    edge_weight,
    evaluate,
    log_power,
    power,
    tabulated,
    tail_integral,
    validate,
)


# ---------------------------------------------------------------------------
# evaluation


def test_power_profile_values():
    phi = power(2.0)
    assert evaluate(phi, 0.5) == 1.0
    assert evaluate(phi, 1.0) == 1.0
    assert evaluate(phi, 2.0) == pytest.approx(0.25)
    assert evaluate(phi, 4.0) == pytest.approx(1.0 / 16.0)
    ts = np.array([0.25, 1.0, 8.0])
    np.testing.assert_allclose(evaluate(phi, ts), [1.0, 1.0, 8.0**-2.0])


def test_log_power_profile_values():
    phi = log_power(2.0)
    for t in [1.5, 3.0, 17.0]:
        assert evaluate(phi, t) == pytest.approx(t**-2.0 * math.log(math.e - 1.0 + t))
    # the log factor never pushes the profile above its cap of 1
    assert evaluate(phi, 1.0) == 1.0
    assert evaluate(phi, 0.125) == 1.0


def test_evaluate_rejects_nonpositive_arguments():
    with pytest.raises(DampeningError):
        evaluate(power(2.0), 0.0)
    with pytest.raises(DampeningError):
        evaluate(power(2.0), np.array([1.0, -3.0]))


def test_edge_weight_tolerates_zero():
    # edge_weight is the relaxed evaluator used on representative distances,
    # where an endpoint sitting on the boundary gives t = 0 (flat zone)
    np.testing.assert_allclose(edge_weight(power(2.0), np.array([0.0, 2.0])), [1.0, 0.25])


def test_tabulated_log_log_interpolation_is_exact_on_powers():
    ts = np.geomspace(1.0, 1024.0, 41)
    phi = tabulated([(float(t), float(t**-1.5)) for t in ts])
    probe = np.geomspace(1.3, 900.0, 17)
    np.testing.assert_allclose(evaluate(phi, probe), probe**-1.5, rtol=1e-12)
    assert evaluate(phi, 0.5) == 1.0


def test_tabulated_out_of_range():
    phi = tabulated([(1.0, 1.0), (2.0, 0.25), (4.0, 1.0 / 16.0)])
    with pytest.raises(DampeningError, match="range"):
        evaluate(phi, 100.0)
    # the relaxed evaluator clamps to the last sample instead
    assert edge_weight(phi, 100.0) == pytest.approx(1.0 / 16.0)


def test_tabulated_rejects_bad_samples():
    with pytest.raises(DampeningError):
        tabulated([(2.0, 0.25), (1.0, 1.0)])
    with pytest.raises(DampeningError):
        tabulated([(1.0, 1.0), (2.0, -0.5)])


# ---------------------------------------------------------------------------
# tail integrals


@pytest.mark.parametrize("m", [0, 1, 2, 5, 10])
def test_power_two_tail_is_dyadic(m):
    assert tail_integral(power(2.0), 2.0**m) == pytest.approx(2.0**-m, rel=1e-12)


@pytest.mark.parametrize("beta", [1.5, 2.0, 3.0])
@pytest.mark.parametrize("t", [1.0, 2.5, 16.0])
def test_power_tail_closed_form(beta, t):
    expected = t ** (1.0 - beta) / (beta - 1.0)
    assert tail_integral(power(beta), t) == pytest.approx(expected, rel=1e-12)


def test_power_tail_below_flat_zone():
    # flat zone contributes its length, then the t >= 1 closed form
    assert tail_integral(power(3.0), 0.25) == pytest.approx(0.75 + 0.5, rel=1e-12)


@pytest.mark.parametrize("t", [1.0, 3.0, 10.0])
def test_log_power_tail_matches_quadrature(t):
    beta = 2.0
    oracle, err = quad(lambda s: s**-beta * math.log(math.e - 1.0 + s), t, np.inf)
    assert err < 1e-9
    assert tail_integral(log_power(beta), t) == pytest.approx(oracle, rel=1e-8)


@pytest.mark.parametrize(
    "phi",
    [power(1.5), log_power(2.0), tabulated([(1.0, 1.0), (8.0, 0.125), (64.0, 1 / 512)])],
    ids=["power", "log_power", "tabulated"],
)
def test_tail_integral_of_an_array_matches_scalar(phi):
    """An array gives an array, entry by entry the float of the scalar call
    (a repeated t included)."""
    ts = np.array([0.25, 1.0, 2.0, 7.0, 2.0, 64.0])
    got = tail_integral(phi, ts)
    assert isinstance(got, np.ndarray) and isinstance(tail_integral(phi, 2.0), float)
    np.testing.assert_allclose(got, [tail_integral(phi, float(t)) for t in ts], rtol=1e-12)


def test_divergent_tail_raises():
    with pytest.raises(DampeningError, match="diverg"):
        tail_integral(power(1.0), 1.0)


# ---------------------------------------------------------------------------
# admissibility


def test_validate_power_two_report():
    rep = validate(power(2.0), p=2.0)
    assert all(rep.passes.values())
    # halving ratio of t^-2 is exactly 4 at every dyadic scale past 1
    assert rep.C_phi_emp == pytest.approx(4.0)
    assert rep.tau_emp == pytest.approx(4.0)
    # full integral: 1 over the flat zone plus 1 over the tail
    assert rep.tail_integral_estimate == pytest.approx(2.0, rel=1e-6)
    # geometric suffix sums: terms 2^n phi(2^n) = 2^-n give ratio 2, and the
    # flat-measure p-weighted terms phi(2^n)^2 = 2^-4n give ratio 16/15
    assert rep.cond5_implied_constant == pytest.approx(2.0, rel=1e-9)
    assert rep.cond6_implied_constant == pytest.approx(16.0 / 15.0, rel=1e-9)


def test_validate_log_power_doubling_floor():
    rep = validate(log_power(2.0), p=2.0)
    assert all(rep.passes.values())
    # halving ratio 4 log(e-1+t)/log(e-1+2t) dips below 4 near t = 1 and
    # climbs back toward 4; the report floor is the min over dyadic scales
    ratio = lambda t: 4.0 * math.log(math.e - 1.0 + t) / math.log(math.e - 1.0 + 2.0 * t)
    expected = min(ratio(2.0**j) for j in range(0, 20))
    assert rep.tau_emp == pytest.approx(expected, rel=1e-9)
    assert 2.0 < rep.tau_emp < 4.0


def test_validate_flags_divergent_power():
    rep = validate(power(1.0), p=2.0)
    assert not rep.passes["2"]
    assert not rep.passes["4"]  # halving ratio 2 is not strict decay
    assert "tail-divergent" in rep.flags


def test_validate_uses_band_measures(strip_small):
    dec = strip_small.space.bands()
    rep = validate(power(2.0), p=2.0, band_measures=dec.band_measure, n_max=8)
    assert all(rep.passes.values())
    assert math.isfinite(rep.cond6_implied_constant)


def test_validate_tabulated_is_range_limited():
    ts = np.geomspace(1.0, 64.0, 25)
    phi = tabulated([(float(t), float(t**-2.0)) for t in ts])
    rep = validate(phi, p=2.0)
    assert "range-limited" in rep.flags
    assert rep.passes["4"]


def test_validate_refuses_samples_that_end_below_four():
    """The dyadic checks read phi at t = 2, 4, ...; samples that stop short
    of 4 leave them nothing, and the error names the sample range."""
    with pytest.raises(DampeningError, match=r"samples span t in \[1, 2\]"):
        validate(tabulated([[1, 1], [2, 0.5]]), p=2.0)


def test_bad_profiles_rejected():
    with pytest.raises(DampeningError):
        power(0.0)
    with pytest.raises(DampeningError):
        power(-1.5)
    with pytest.raises(DampeningError, match="mystery"):
        evaluate(Dampening(kind="mystery"), 2.0)
