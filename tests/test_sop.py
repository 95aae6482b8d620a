import math
import os
import pathlib
import subprocess
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from noma_secrecy import sop
from noma_secrecy.channel import ChannelStats, mean_gain, rho_t_for_received_snr
from noma_secrecy.config import RunConfig
from noma_secrecy.montecarlo import SimConfig, empirical_sops
from noma_secrecy.optimize import minmax_pa
from noma_secrecy.rates import ALPHA_MAX, ALPHA_MIN
from noma_secrecy.sop import (
    TargetRates,
    asymptotic_sops,
    exact_sop_far,
    exact_sop_near,
    exact_sops,
)
from reference import log_integrand_far, log_integrand_near, per_halving_survival_integral, written_integrand

LAM1 = 50.0 ** -2.5
LAM2 = 100.0 ** -2.5
RTH1 = TargetRates(1.0, 1.0)


def stats_at(rho_t: float) -> ChannelStats:
    return ChannelStats(lambda1=LAM1, lambda2=LAM2, rho_t=rho_t)


# Frozen values from an independent adaptive-quadrature oracle (rescaled
# integrand, absolute error below 1e-9 in every case).
NEAR_ORACLE = [
    (1e6, 0.9, 1.473050485599370e-01),
    (1e6, 0.5, 8.132091591516355e-02),
    (1e6, 0.1, 1.874672564069251e-01),
    (1e7, 0.9, 2.972140978441873e-02),
]
FAR_ORACLE = [
    (1e8, 0.5, 5.971668208434089e-03),
    (1e6, 0.3, 5.063690365571214e-01),
    (1e7, 0.7, 5.965901465800338e-02),
]

# A corner where the far user's integrand bends at y = 1/(alpha*rho_t) ~ 1e-9,
# far below the gain scale lambda1 = 8.5e-5. Frozen from a 30-digit mpmath
# quadrature with breakpoints at the bend.
BEND_CORNER = ChannelStats(lambda1=8.5e-5, lambda2=1e-6, rho_t=2.05e9)
BEND_CORNER_FAR = 0.0297892532682274541


@pytest.mark.parametrize("rho_t,alpha,expected", NEAR_ORACLE)
def test_exact_near_matches_frozen_oracle(rho_t, alpha, expected):
    result = exact_sop_near(stats_at(rho_t), alpha, RTH1)
    assert result.value == pytest.approx(expected, abs=1e-9)
    assert result.quad_error <= 1e-9


@pytest.mark.parametrize("rho_t,alpha,expected", FAR_ORACLE)
def test_exact_far_matches_frozen_oracle(rho_t, alpha, expected):
    result = exact_sop_far(stats_at(rho_t), alpha, RTH1)
    assert result.value == pytest.approx(expected, abs=1e-9)
    assert result.quad_error <= 1e-9


def test_exact_far_matches_frozen_oracle_at_bend_corner():
    result = exact_sop_far(BEND_CORNER, 0.5, TargetRates(4.0, 4.0))
    assert result.value == pytest.approx(BEND_CORNER_FAR, abs=1e-9)
    assert result.quad_error <= 1e-9


def test_exact_agrees_with_live_adaptive_quadrature():
    from scipy import integrate

    stats = ChannelStats(lambda1=1.0, lambda2=1.0, rho_t=100.0)
    b = 0.5 * stats.rho_t * stats.lambda2

    def integrand(t):
        return math.exp(-2.0 * t * stats.lambda2 / stats.lambda1 / (b * t + 1.0) - t)

    integral, err = integrate.quad(integrand, 0.0, np.inf, limit=400)
    assert err < 1e-8
    expected = 1.0 - math.exp(-1.0 / (0.5 * 100.0) / stats.lambda1) * integral
    assert exact_sop_near(stats, 0.5, RTH1).value == pytest.approx(expected, abs=1e-8)


def test_outage_certain_when_near_user_gets_no_power():
    assert exact_sop_near(stats_at(1e8), ALPHA_MIN, RTH1).value >= 0.999


def test_outage_certain_when_far_user_gets_no_power():
    assert exact_sop_far(stats_at(1e8), ALPHA_MAX, RTH1).value >= 0.999


def test_zero_target_rate_is_accepted():
    targets = TargetRates(0.0, 0.0)
    value = exact_sop_near(stats_at(1e6), 0.5, targets).value
    assert 0.0 < value < 1.0


def test_symmetric_stats_mirror_the_users():
    stats = ChannelStats(lambda1=1e-4, lambda2=1e-4, rho_t=1e6)
    grid = np.linspace(0.05, 0.95, 31)
    far = exact_sop_far(stats, grid, RTH1).value
    near_mirrored = exact_sop_near(stats, 1.0 - grid, RTH1).value
    assert np.max(np.abs(far - near_mirrored)) <= 1e-8


def test_curve_mode_matches_scalar_calls():
    stats = stats_at(1e7)
    grid = np.array([0.2, 0.5, 0.8])
    curve = exact_sop_near(stats, grid, RTH1)
    for i, alpha in enumerate(grid):
        assert curve.value[i] == pytest.approx(exact_sop_near(stats, float(alpha), RTH1).value, abs=1e-12)


def test_alpha_window_is_enforced():
    stats = stats_at(1e6)
    for bad in (0.0, 1e-7, 1.0, 1.0 - 1e-7, math.nan, np.nextafter(ALPHA_MIN, 0.0)):
        with pytest.raises(ValueError):
            exact_sop_near(stats, bad, RTH1)
    for bad in (np.array([0.5, 1e-9]), np.array([0.5, math.nan]), np.array([np.nextafter(ALPHA_MAX, 1.0)])):
        with pytest.raises(ValueError):
            exact_sop_far(stats, bad, RTH1)
    edges = exact_sop_far(stats, np.array([ALPHA_MIN, ALPHA_MAX]), RTH1).value
    assert np.all((edges >= 0.0) & (edges <= 1.0))


ALPHA_ENTRY_POINTS = {
    "exact_sop_near": lambda alpha: exact_sop_near(stats_at(1e6), alpha, RTH1),
    "exact_sop_far": lambda alpha: exact_sop_far(stats_at(1e6), alpha, RTH1),
    **{f"exact_sops_order_{order}": lambda alpha, order=order: exact_sops(stats_at(1e6), alpha, RTH1, order)
       for order in (0, 2, 3)},
    # One closed-form call gives both users; each user's row is an entry.
    "asymptotic_sop_near": lambda alpha: asymptotic_sops(stats_at(1e6), alpha, RTH1)[0],
    "asymptotic_sop_far": lambda alpha: asymptotic_sops(stats_at(1e6), alpha, RTH1)[1],
    "empirical_sops": lambda alpha: empirical_sops((stats_at(1e6),), alpha, (RTH1,), SimConfig(1000, 1))[0],
}


@pytest.mark.parametrize("entry", ALPHA_ENTRY_POINTS)
def test_every_alpha_entry_point_takes_the_same_window(entry):
    call = ALPHA_ENTRY_POINTS[entry]
    for bad in (0.0, 1e-9, 1.0 - 1e-9, 1.0, -0.2, math.nan):
        with pytest.raises(ValueError):
            call(bad)
    for edge in (ALPHA_MIN, ALPHA_MAX):
        call(edge)


@pytest.mark.parametrize("shape", [(0,), (0, 3)], ids=("flat", "by_3"))
@pytest.mark.parametrize("entry", [name for name in ALPHA_ENTRY_POINTS if name != "empirical_sops"])
def test_an_empty_alpha_gives_empty_fields(entry, shape):
    # Shaped as for any other alpha: both users lead with an axis of 2, every
    # exact entry gives value, quad_error and psi, and each order adds that
    # many derivative fields. A closed-form entry is one user's row of the
    # closed forms' array.
    result = ALPHA_ENTRY_POINTS[entry](np.empty(shape))
    if entry.startswith("asymptotic_"):
        both, fields = False, [result]
    else:
        both = entry.startswith("exact_sops")
        fields = [field for field in result if field is not None]
        assert len(fields) == 3 + (int(entry[-1]) if both else 0)
    for field in fields:
        assert field.shape == ((2,) if both else ()) + shape


def test_asymptotic_near_reference_values():
    stats = ChannelStats(lambda1=1e-4, lambda2=1e-5, rho_t=1e6)  # rho_t * lambda1 = 100
    assert asymptotic_sops(stats, 0.5, TargetRates(1.0, 1.0))[0] == pytest.approx(
        1.0 - math.exp(-0.06), rel=1e-12
    )
    assert asymptotic_sops(stats, 0.5, TargetRates(0.0, 0.0))[0] == pytest.approx(
        1.0 - math.exp(-0.02), rel=1e-12
    )
    assert asymptotic_sops(stats, ALPHA_MAX, TargetRates(1.0, 1.0))[0] >= 0.999


def test_asymptotic_far_reference_values():
    stats = ChannelStats(lambda1=1e-3, lambda2=1e-4, rho_t=1e6)  # rho_t * lambda2 = 100
    assert asymptotic_sops(stats, 0.5, TargetRates(1.0, 1.0))[1] == pytest.approx(
        1.0 - math.exp(-0.06), rel=1e-12
    )
    assert asymptotic_sops(stats, ALPHA_MIN, TargetRates(1.0, 1.0))[1] >= 0.999


def test_asymptotic_symmetry_mirrors_users():
    stats = ChannelStats(lambda1=1e-4, lambda2=1e-4, rho_t=1e7)
    grid = np.linspace(0.05, 0.95, 19)
    far = asymptotic_sops(stats, grid, RTH1)[1]
    near_mirrored = asymptotic_sops(stats, 1.0 - grid, RTH1)[0]
    assert np.max(np.abs(far - near_mirrored)) <= 1e-12


def test_high_snr_convergence_at_40db():
    stats = ChannelStats(LAM1, LAM2, 10.0 ** 4.0 / LAM2)  # rho_r = 40 dB
    grid = np.arange(0.1, 0.91, 0.1)
    approx = asymptotic_sops(stats, grid, RTH1)
    for user, user_exact in enumerate((exact_sop_near, exact_sop_far)):
        exact = user_exact(stats, grid, RTH1).value
        assert np.max(np.abs(exact - approx[user]) / exact) <= 0.02


def test_so1_nondecreasing_in_target_rate():
    stats = stats_at(1e8)
    values = [exact_sop_near(stats, 0.5, TargetRates(r, r)).value for r in np.arange(0.0, 3.1, 0.25)]
    assert np.all(np.diff(values) >= -1e-12)


def test_so1_nonincreasing_in_snr():
    values = [exact_sop_near(stats_at(rho), 0.5, RTH1).value for rho in np.logspace(5, 10, 11)]
    assert np.all(np.diff(values) <= 1e-12)


def test_distance_trends_oppose_each_other():
    rho_t = 1e8  # fixed transmit power while the far user moves away
    so1, so2 = [], []
    for d2 in np.arange(60.0, 151.0, 10.0):
        stats = ChannelStats(LAM1, d2 ** -2.5, rho_t)
        so1.append(exact_sop_near(stats, 0.5, RTH1).value)
        so2.append(exact_sop_far(stats, 0.5, RTH1).value)
    assert np.all(np.diff(so1) <= 1e-12)
    assert np.all(np.diff(so2) >= -1e-12)


@pytest.mark.parametrize("log_integrand", [log_integrand_near, log_integrand_far])
def test_integrand_is_log_concave_in_alpha(log_integrand):
    stats = stats_at(1e7)
    h = 1e-3
    alpha = np.linspace(0.05, 0.95, 73)[:, None]
    y = np.logspace(-8, -2, 25)[None, :]
    second = (
        log_integrand(stats, alpha - h, RTH1, y)
        - 2.0 * log_integrand(stats, alpha, RTH1, y)
        + log_integrand(stats, alpha + h, RTH1, y)
    )
    assert np.max(second) <= 1e-8


def test_unimodal_curves_have_single_minimum():
    stats = stats_at(1e8)
    grid = np.linspace(ALPHA_MIN, ALPHA_MAX, 1000)
    so1 = exact_sop_near(stats, grid, RTH1).value
    diffs = np.diff(so1)
    meaningful = diffs[np.abs(diffs) > 1e-12]
    signs = np.sign(meaningful)
    assert np.count_nonzero(np.diff(signs) != 0.0) == 1


lam_pairs = st.tuples(
    st.floats(min_value=1e-6, max_value=1.0),
    st.floats(min_value=1.0, max_value=100.0),
).map(lambda t: (t[0] * t[1], t[0]))


@settings(max_examples=60, deadline=None)
@example(lams=(8.5e-5, 1e-6), rho_t=2.05e9, alpha=0.5, rth=4.0)
@given(
    lams=lam_pairs,
    rho_t=st.floats(min_value=1.0, max_value=1e10),
    alpha=st.floats(min_value=ALPHA_MIN, max_value=ALPHA_MAX),
    rth=st.floats(min_value=0.0, max_value=4.0),
)
def test_probabilities_stay_in_unit_interval(lams, rho_t, alpha, rth):
    lam1, lam2 = lams
    stats = ChannelStats(lambda1=lam1, lambda2=lam2, rho_t=rho_t)
    targets = TargetRates(rth, rth)
    for func in (exact_sop_near, exact_sop_far):
        result = func(stats, alpha, targets)
        assert 0.0 <= result.value <= 1.0
        assert 0.0 <= result.quad_error <= 1e-9
    for value in asymptotic_sops(stats, alpha, targets):
        assert 0.0 <= value <= 1.0


def test_target_rates_exponentials_are_exact():
    targets = TargetRates(1.5, 0.25)
    assert targets.pi1 == 2.0 ** 1.5
    assert targets.pi2 == 2.0 ** 0.25
    assert TargetRates(0.0, 0.0).pi1 == 1.0
    with pytest.raises(ValueError):
        TargetRates(-0.1, 1.0)


@pytest.mark.parametrize("field", ["rth1", "rth2"])
@pytest.mark.parametrize("bad", [math.nan, math.inf, 1024.0, 1100.0])
def test_target_rates_reject_non_finite_and_overflowing_rates(field, bad):
    # 2**rth overflows a double from 1024 bits on.
    values = {"rth1": 1.0, "rth2": 1.0}
    values[field] = bad
    with pytest.raises(ValueError, match="target secrecy rates"):
        TargetRates(**values)
    values[field] = 1023.0
    assert math.isfinite(getattr(TargetRates(**values), "pi" + field[-1]))


def test_exact_sops_order_zero_takes_no_derivatives():
    stats = stats_at(1e7)
    scalar = exact_sops(stats, 0.3, RTH1)
    assert scalar.value.shape == scalar.quad_error.shape == (2,)
    assert scalar.phi is None and scalar.dphi is None and scalar.d2phi is None
    grid = np.linspace(0.1, 0.9, 5)
    curve = exact_sops(stats, grid, RTH1)
    assert curve.value.shape == curve.quad_error.shape == (2, grid.size)
    assert curve.phi is None and curve.dphi is None and curve.d2phi is None
    # Order 0 gives what exact_sop_near/far give one user at a time.
    for row, func in zip(curve.value, (exact_sop_near, exact_sop_far)):
        assert np.abs(row - func(stats, grid, RTH1).value).max() <= 1e-15
    assert exact_sops(stats, grid, RTH1, order=2).d2phi is None


def test_psi_is_the_log_survival_and_keeps_its_digits_where_the_sop_rounds_to_one():
    # Where 1e-6 <= s_o <= 0.5, log1p(-s_o) loses at most eps/s_o relative,
    # so it checks psi to 1e-9 there.
    checked = 0
    for stats, alpha, targets in _box_sweep(200, seed=21):
        points = np.append(np.linspace(ALPHA_MIN, ALPHA_MAX, 8), alpha)
        sops = exact_sops(stats, points, targets)
        inside = (1e-6 <= sops.value) & (sops.value <= 0.5)
        checked += int(np.count_nonzero(inside))
        assert sops.psi[inside] == pytest.approx(np.log1p(-sops.value[inside]), rel=1e-9, abs=0.0)
    assert checked >= 1000
    # At 20-bit targets at default geometry every SOP rounds to 1.
    sops = exact_sops(RunConfig().stats(), np.linspace(ALPHA_MIN, ALPHA_MAX, 101), TargetRates(20.0, 20.0))
    assert np.all(sops.value == 1.0)
    assert np.all(np.isfinite(sops.psi)) and np.all(sops.psi < -30.0)


@pytest.mark.parametrize("order", [-1, 1, 4, None, "3"])
def test_exact_sops_rejects_an_unknown_order(order):
    with pytest.raises(ValueError, match="order"):
        exact_sops(stats_at(1e7), 0.3, RTH1, order)



def _box_sweep(count, seed):
    """Seeded log-uniform draws over test_probabilities_stay_in_unit_interval's box."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        lam2 = 10.0 ** rng.uniform(-6.0, 0.0)
        stats = ChannelStats(lam2 * 10.0 ** rng.uniform(0.0, 2.0), lam2, 10.0 ** rng.uniform(0.0, 10.0))
        rth = rng.uniform(0.0, 4.0)
        yield stats, rng.uniform(ALPHA_MIN, ALPHA_MAX), TargetRates(rth, rth)


def _config_sweep(count, seed):
    """Seeded draws over the config domain: received SNR -20..120 dB, path-loss
    exponent 1.5..6, d2/d1 up to 10**1.5 and each target rate 0..4 bits."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        lam2 = mean_gain(10.0 ** rng.uniform(0.0, 1.5), rng.uniform(1.5, 6.0))  # d1 = 1 m
        stats = ChannelStats(1.0, lam2, rho_t_for_received_snr(rng.uniform(-20.0, 120.0), lam2))
        yield stats, TargetRates(rng.uniform(0.0, 4.0), rng.uniform(0.0, 4.0))


def _assert_same_bits(monkeypatch, cases):
    """Every case gives the same value and quad_error bits from both kernels,
    one user at a time and both users at orders 0, 2 and 3 alike."""

    def reference(*args, moments=0):
        return per_halving_survival_integral(*args, moments=moments, halvings=sop._HALVINGS)

    entries = [exact_sop_near, exact_sop_far]
    entries += [lambda *case, order=order: exact_sops(*case, order=order) for order in (0, 2, 3)]
    for func in entries:
        fused = [func(*case) for case in cases]
        with monkeypatch.context() as patch:
            patch.setattr(sop, "_survival_integral", reference)
            expected = [func(*case) for case in cases]
        for got, want in zip(fused, expected):
            assert type(got.value) is type(want.value)
            assert np.asarray(got.value).tobytes() == np.asarray(want.value).tobytes()
            assert np.asarray(got.quad_error).tobytes() == np.asarray(want.quad_error).tobytes()
    # Every order sums the integrand by the same rule, so the derivatives
    # come with the bits of the plain values.
    for case in cases:
        plain = exact_sops(*case)
        for order in (2, 3):
            moment = exact_sops(*case, order=order)
            assert moment.value.tobytes() == plain.value.tobytes()
            assert moment.quad_error.tobytes() == plain.quad_error.tobytes()
            assert moment.psi.tobytes() == plain.psi.tobytes()


def test_fused_kernel_matches_per_halving_bits_over_the_box(monkeypatch):
    cases = list(_box_sweep(400, seed=2024))
    _assert_same_bits(monkeypatch, cases)
    grid = np.linspace(ALPHA_MIN, ALPHA_MAX, 1000)
    curves = [(stats, grid, targets) for stats, _, targets in cases[:12]]
    _assert_same_bits(monkeypatch, curves)


def test_reported_error_bounds_the_change_from_three_more_halvings(monkeypatch):
    # The kernel stops at halving 3 and reports its change from halving 2.
    # Over the box and the config domain, halvings 4-6 (1473 nodes) move no
    # value by more than that, and no fair-split solve misses the contract.
    configs = [(stats, targets) for stats, _, targets in _box_sweep(200, seed=23)]
    configs += list(_config_sweep(200, seed=29))
    grid = np.linspace(ALPHA_MIN, ALPHA_MAX, 60)
    curves = [exact_sops(stats, grid, targets) for stats, targets in configs]
    for stats, targets in configs:
        minmax_pa(stats, targets)  # a QuadratureError fails the test
    with monkeypatch.context() as patch:
        patch.setattr(sop, "_survival_integral", lambda *a, moments=0: per_halving_survival_integral(*a, halvings=6))
        fine = [exact_sops(stats, grid, targets).value for stats, targets in configs]
    for curve, value in zip(curves, fine):
        assert np.all(np.abs(curve.value - value) <= curve.quad_error + 1e-15)


def test_kernel_build_matches_the_written_integrand(monkeypatch):
    # The kernel builds the integrand as exp(kappa/(s + 1/z)), which rounds
    # differently from the integral as written; the two stay within a few ulps.
    def reference(*args, moments=0):
        return per_halving_survival_integral(*args, integrand=written_integrand, moments=moments)

    cases = list(_box_sweep(2000, seed=41))
    grid = np.linspace(ALPHA_MIN, ALPHA_MAX, 1000)
    curves = [(stats, grid, targets) for stats, _, targets in cases[:12]]
    got = [func(*case) for func in (exact_sop_near, exact_sop_far) for case in cases + curves]
    slopes = [exact_sops(*case, order=3) for case in cases]
    with monkeypatch.context() as patch:
        patch.setattr(sop, "_survival_integral", reference)
        want = [func(*case) for func in (exact_sop_near, exact_sop_far) for case in cases + curves]
        want_slopes = [exact_sops(*case, order=3) for case in cases]
    for g, w in zip(got, want):
        assert np.abs(np.subtract(g.value, w.value)).max() <= 1e-15
        assert np.abs(np.subtract(g.quad_error, w.quad_error)).max() <= 1e-15
    for g, w in zip(slopes, want_slopes):
        for field in ("phi", "dphi", "d2phi"):
            x, ref = getattr(g, field), getattr(w, field)
            big = np.abs(ref) > 1e-6
            assert np.all(np.abs(x - ref)[big] <= 1e-12 * np.abs(ref)[big])


def test_curve_call_holds_one_full_size_array_at_a_time():
    # A 1000-point call fills one (185 nodes x 1000 columns) float array, and
    # a two-user call one of 2000 columns; a second temporary of that size
    # would take the peak past 1.5 of them.
    grid = np.linspace(ALPHA_MIN, ALPHA_MAX, 1000)
    for func, columns in ((exact_sop_near, 1000), (exact_sop_far, 1000), (exact_sops, 2000)):
        limit = 1.5 * 185 * columns * 8
        func(stats_at(1e7), grid, RTH1)
        tracemalloc.start()
        try:
            func(stats_at(1e7), grid, RTH1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < limit


def test_quadrature_error_reports_the_nodes_it_reached(monkeypatch):
    monkeypatch.setattr(sop, "_ACCEPT_TOL", -1.0)
    args = (stats_at(1e7), 0.5, RTH1)
    with pytest.raises(sop.QuadratureError) as fused:
        exact_sop_near(*args)
    monkeypatch.setattr(sop, "_survival_integral", lambda *a, moments=0: per_halving_survival_integral(*a))
    with pytest.raises(sop.QuadratureError) as expected:
        exact_sop_near(*args)
    assert str(fused.value) == str(expected.value)
    assert "after 185 nodes" in str(fused.value)


def test_sop_slopes_match_central_differences_over_the_box():
    # Five-point differences, s_o' of the values, s_o'' of s_o' and phi'' of
    # phi', wherever |s_o'| > 1e-6; the step keeps every point inside the window.
    checked = 0
    for stats, alpha, targets in _box_sweep(200, seed=11):
        h = 3e-3 * min(alpha, 1.0 - alpha)
        points = alpha + h * np.arange(-2.0, 3.0)
        slopes = exact_sops(stats, points, targets, order=3)
        assert np.all(slopes.quad_error <= 1e-9)
        # s_o' = -(1 - s_o)*phi and s_o'' = -(1 - s_o)*(phi' + phi^2)
        first = -(1.0 - slopes.value) * slopes.phi
        second = -(1.0 - slopes.value) * (slopes.dphi + slopes.phi ** 2)
        for user, func in enumerate((exact_sop_near, exact_sop_far)):
            value = func(stats, points, targets).value
            # Both calls return halving 3; only BLAS rounding, which follows a
            # pass's column count, separates them.
            assert slopes.value[user] == pytest.approx(value, abs=1e-15)
            if abs(first[user, 2]) <= 1e-6:
                continue
            checked += 1
            stencil = np.array([1.0, -8.0, 0.0, 8.0, -1.0]) / (12.0 * h)
            assert first[user, 2] == pytest.approx(stencil @ value, rel=1e-5)
            assert second[user, 2] == pytest.approx(stencil @ first[user], rel=1e-5)
            assert slopes.d2phi[user, 2] == pytest.approx(stencil @ slopes.dphi[user], rel=1e-5)
    assert checked >= 250


def test_sop_slopes_without_the_third_derivative_keep_every_other_bit():
    # The two extra moments are summed after the others, so dropping them
    # changes no other field.
    for stats, alpha, targets in _box_sweep(40, seed=13):
        points = np.array([alpha, 0.5 * (alpha + ALPHA_MIN)])
        full = exact_sops(stats, points, targets, order=3)
        lean = exact_sops(stats, points, targets, order=2)
        assert lean.d2phi is None and full.d2phi.shape == (2, 2)
        for got, want in zip(lean[:5], full[:5]):
            assert got.tobytes() == want.tobytes()


# ROADMAP item 12: a column's bits depend on how many columns share its
# pass, through the rounding of the pass's weight products. A fix makes
# every prefix of a curve give the full curve's bits and turns this test
# into an XPASS, which fails the run until the mark comes off.
@pytest.mark.xfail(strict=True, raises=AssertionError, reason="known defect; see ROADMAP item 12")
def test_a_curve_prefix_keeps_the_full_curves_bits():
    stats, targets = RunConfig().stats(), TargetRates(1, 1)
    grid = np.linspace(ALPHA_MIN, ALPHA_MAX, 333)
    differ = []
    for order in (0, 2, 3):
        full = exact_sops(stats, grid, targets, order)
        for k in (1, 2, 3, 5, 7, 33):
            prefix = exact_sops(stats, grid[:k], targets, order)
            if any(want is not None and got.tobytes() != want[:, :k].tobytes() for got, want in zip(prefix, full)):
                differ.append((order, k))
    assert not differ


def test_log_survival_is_strictly_concave_at_each_minimizer():
    # phi' < 0 at an interior root of phi makes it a strict minimum of s_o,
    # where Newton on phi converges quadratically. Away from the minimizer
    # phi' may be positive: near the window edges it is on part of the box.
    checked = 0
    for stats, _, targets in _box_sweep(100, seed=12):
        outcome = minmax_pa(stats, targets)
        for user, alpha in enumerate((outcome.near.alpha, outcome.far.alpha)):
            if ALPHA_MIN < alpha < ALPHA_MAX:
                checked += 1
                assert exact_sops(stats, alpha, targets, order=3).dphi[user] < 0.0
    assert checked >= 120


# Wide passes: two column halves on two or more usable CPUs, the first on
# the calling thread and the second on a pool worker.

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"


@pytest.mark.parametrize("users", [(1,), (0, 1)], ids=("one_user", "both_users"))
@pytest.mark.parametrize("points", [256, 257, 999, 1000, 2001])
def test_a_split_pass_keeps_the_unsplit_bits(monkeypatch, points, users):
    # Each half is summed by its own weight products, which round by groups
    # of 4 columns; the first half ends at a multiple of 4, so no column's
    # group changes. More than two CPUs still cut two halves.
    stats, targets = RunConfig().stats(), TargetRates(1, 1)
    grid = np.linspace(ALPHA_MIN, ALPHA_MAX, points)
    columns = points * len(users)
    monkeypatch.setattr(sop, "_PART_COLUMNS", 64)
    calls, caller, build = [], threading.current_thread(), sop._weighted_sums

    def recording(scaled_slope, kappa, moments):  # who built which part
        calls.append((threading.current_thread() is caller, scaled_slope.size))
        return build(scaled_slope, kappa, moments)

    monkeypatch.setattr(sop, "_weighted_sums", recording)
    for order in (0, 2, 3):
        monkeypatch.setattr(sop, "_usable_cpus", lambda: 1)
        calls.clear()
        whole = sop._sop_pass(stats, grid, targets, users, order)
        assert calls == [(True, columns)]
        for cpus in (2, 3, 4):
            monkeypatch.setattr(sop, "_usable_cpus", lambda cpus=cpus: cpus)
            calls.clear()
            split = sop._sop_pass(stats, grid, targets, users, order)
            half = columns // 8 * 4
            assert sorted(calls) == [(False, columns - half), (True, half)]
            for got, want in zip(split, whole):
                assert (got is None) == (want is None)
                if got is not None:
                    assert got.tobytes() == want.tobytes()


def test_a_worker_half_error_reaches_the_caller_and_the_worker_stays_usable(monkeypatch):
    monkeypatch.setattr(sop, "_usable_cpus", lambda: 2)
    caller, build = threading.current_thread(), sop._weighted_sums
    built = []

    def failing(scaled_slope, kappa, moments):
        if threading.current_thread() is not caller:
            raise RuntimeError("worker half failed")
        built.append(scaled_slope.size)
        return build(scaled_slope, kappa, moments)

    stats, targets = RunConfig().stats(), TargetRates(1, 1)
    grid = np.linspace(ALPHA_MIN, ALPHA_MAX, 1000)
    with monkeypatch.context() as patch:
        patch.setattr(sop, "_weighted_sums", failing)
        with pytest.raises(RuntimeError, match="worker half failed"):
            exact_sop_near(stats, grid, targets)
    assert built == [500]  # the caller's half ran to its end
    split = exact_sop_near(stats, grid, targets)
    monkeypatch.setattr(sop, "_usable_cpus", lambda: 1)
    whole = exact_sop_near(stats, grid, targets)
    assert split.value.tobytes() == whole.value.tobytes()


def test_an_underflow_only_the_worker_half_meets_raises_under_errstate(monkeypatch):
    # The near user's integrand underflows where its slope (1 - alpha)*rho_t
    # nears 0: here in the last columns of the grid, all in the second half.
    stats, targets = ChannelStats(1.0, 1.0, 1.0), TargetRates(4.0, 0.0)
    grid = np.linspace(0.5, ALPHA_MAX, 1000)
    for cpus in (2, 1):
        monkeypatch.setattr(sop, "_usable_cpus", lambda cpus=cpus: cpus)
        exact_sop_near(stats, grid, targets)  # numpy ignores underflow by default
        with np.errstate(under="raise"):
            exact_sop_near(stats, grid[:500], targets)
            with pytest.raises(FloatingPointError, match="underflow"):
                exact_sop_near(stats, grid, targets)


def test_concurrent_wide_passes_each_get_their_own_halves(monkeypatch):
    # More callers than cores share the pool, Monte Carlo counts among wide
    # passes, each waiting for its own parts; a part handed to the wrong
    # caller would change its result.
    monkeypatch.setattr(sop, "_usable_cpus", lambda: 2)
    grid, sim = np.linspace(ALPHA_MIN, ALPHA_MAX, 600), SimConfig(realizations=100_001, seed=3)
    configs = [(stats_at(10.0 ** (6 + k)), TargetRates(0.5 * k, 1.0)) for k in range(4)]
    jobs = [lambda stats=stats, targets=targets: exact_sop_far(stats, grid, targets).value.tobytes()
            for stats, targets in configs]
    jobs += [lambda stats=stats, targets=targets: empirical_sops((stats,), 0.4, (targets,), sim)
             for stats, targets in configs[:2]]
    expected = [job() for job in jobs]
    results = {}

    def run(index):
        results[index] = [jobs[index]() for _ in range(10)]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=run, args=(index,)) for index in range(len(jobs))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
            assert not thread.is_alive()
    finally:
        sys.setswitchinterval(interval)
    assert results == {index: [want] * 10 for index, want in enumerate(expected)}


def _run_script(code):
    return subprocess.run([sys.executable, "-I", "-c", code, str(SRC)], capture_output=True, text=True, timeout=120)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_a_child_forked_after_a_wide_pass_finishes_its_own():
    # Only the forking thread survives a fork; the child must start its own
    # pool instead of queueing its parts for threads it does not have. The
    # alarm ends a child that waits forever.
    code = """
import os, signal, sys
sys.path.insert(0, sys.argv[1])
import numpy as np
from noma_secrecy import montecarlo, sop
from noma_secrecy.config import RunConfig
sop._usable_cpus = lambda: 2
grid = np.linspace(0.01, 0.99, 1000)
stats, targets = RunConfig().stats(), sop.TargetRates(1.0, 1.0)
sim = montecarlo.SimConfig(100_001)  # two slices of at least one chunk
def run():
    curve = sop.exact_sop_near(stats, grid, targets).value.tobytes()
    return curve, montecarlo.empirical_sops((stats,), 0.4, (targets,), sim)

before = run()
pid = os.fork()
if pid == 0:
    signal.alarm(30)
    os._exit(0 if run() == before else 1)
print(os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]))
"""
    proc = _run_script(code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["0"]


def test_wide_passes_start_one_daemon_worker_and_narrow_ones_none():
    # A two-slice Monte Carlo count and the wide passes after it share the
    # one worker that two CPUs need.
    code = """
import sys, threading
sys.path.insert(0, sys.argv[1])
import numpy as np
from noma_secrecy import montecarlo, sop
from noma_secrecy.config import RunConfig
from noma_secrecy.optimize import minmax_pa
sop._usable_cpus = lambda: 2
stats, targets = RunConfig().stats(), sop.TargetRates(1.0, 1.0)
minmax_pa(stats, targets)
sop.exact_sop_near(stats, 0.3, targets)
sop.exact_sops(stats, 0.3, targets, order=3)
print(threading.active_count() - 1)
montecarlo.empirical_sops((stats,), 0.4, (targets,), montecarlo.SimConfig(100_001))  # two slices
grid = np.linspace(0.01, 0.99, 1000)
for _ in range(5):
    sop.exact_sop_far(stats, grid, targets)
    sop.exact_sops(stats, grid, targets, order=2)
extra = [thread for thread in threading.enumerate() if thread is not threading.main_thread()]
print(len(extra), all(thread.daemon for thread in extra))
"""
    proc = _run_script(code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["0", "1", "True"]
