import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from noma_secrecy import sop
from noma_secrecy.channel import ChannelStats
from noma_secrecy.rates import ALPHA_MAX, ALPHA_MIN
from noma_secrecy.sop import (
    TargetRates,
    asymptotic_sop_far,
    asymptotic_sop_near,
    exact_sop_far,
    exact_sop_near,
    exact_sop_slopes,
    log_integrand_far,
    log_integrand_near,
)

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


def test_asymptotic_near_reference_values():
    stats = ChannelStats(lambda1=1e-4, lambda2=1e-5, rho_t=1e6)  # rho_t * lambda1 = 100
    assert asymptotic_sop_near(stats, 0.5, TargetRates(1.0, 1.0)) == pytest.approx(
        1.0 - math.exp(-0.06), rel=1e-12
    )
    assert asymptotic_sop_near(stats, 0.5, TargetRates(0.0, 0.0)) == pytest.approx(
        1.0 - math.exp(-0.02), rel=1e-12
    )
    assert asymptotic_sop_near(stats, ALPHA_MAX, TargetRates(1.0, 1.0)) >= 0.999


def test_asymptotic_far_reference_values():
    stats = ChannelStats(lambda1=1e-3, lambda2=1e-4, rho_t=1e6)  # rho_t * lambda2 = 100
    assert asymptotic_sop_far(stats, 0.5, TargetRates(1.0, 1.0)) == pytest.approx(
        1.0 - math.exp(-0.06), rel=1e-12
    )
    assert asymptotic_sop_far(stats, ALPHA_MIN, TargetRates(1.0, 1.0)) >= 0.999


def test_asymptotic_symmetry_mirrors_users():
    stats = ChannelStats(lambda1=1e-4, lambda2=1e-4, rho_t=1e7)
    grid = np.linspace(0.05, 0.95, 19)
    far = asymptotic_sop_far(stats, grid, RTH1)
    near_mirrored = asymptotic_sop_near(stats, 1.0 - grid, RTH1)
    assert np.max(np.abs(far - near_mirrored)) <= 1e-12


def test_high_snr_convergence_at_40db():
    stats = ChannelStats(LAM1, LAM2, 10.0 ** 4.0 / LAM2)  # rho_r = 40 dB
    grid = np.arange(0.1, 0.91, 0.1)
    for user_exact, user_asym in (
        (exact_sop_near, asymptotic_sop_near),
        (exact_sop_far, asymptotic_sop_far),
    ):
        exact = user_exact(stats, grid, RTH1).value
        approx = user_asym(stats, grid, RTH1)
        assert np.max(np.abs(exact - approx) / exact) <= 0.02


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
    for func in (asymptotic_sop_near, asymptotic_sop_far):
        value = func(stats, alpha, targets)
        assert 0.0 <= value <= 1.0


def test_target_rates_exponentials_are_exact():
    targets = TargetRates(1.5, 0.25)
    assert targets.pi1 == 2.0 ** 1.5
    assert targets.pi2 == 2.0 ** 0.25
    assert TargetRates(0.0, 0.0).pi1 == 1.0
    with pytest.raises(ValueError):
        TargetRates(-0.1, 1.0)



def _kernel_integrand(pi, slope, lam_exp, lam_int, z):
    """The kernel's build: exp(kappa/(s + 1/z)), kappa = -pi*lam_int/lam_exp, s = slope*lam_int."""
    return np.exp((-pi * lam_int / lam_exp) / np.add.outer(1.0 / z, slope * lam_int))


def _written_integrand(pi, slope, lam_exp, lam_int, z):
    """The integrand as the SOP integral writes it, exp(-pi*y/((slope*y + 1)*lam_exp))."""
    y = lam_int * z[:, None]
    return np.exp(-pi * y / ((slope[None, :] * y + 1.0) * lam_exp))


def _per_halving_survival_integral(pi, slope, lam_exp, lam_int, scale, reached,
                                   integrand=_kernel_integrand, moments=0):
    """The exp-sinh loop evaluated one halving at a time: the reference for the
    fused kernel, which must return the same bits when it builds the kernel's
    integrand. Appends the last halving it ran to ``reached``. With
    ``moments`` it also sums e*h**k, k = 2..moments, with h = slope*y/(slope*y + 1)."""
    slope = np.atleast_1d(slope)
    total = 0.0
    nodes = 0
    prev = None
    for level, (z, w) in enumerate(sop._DE_NODES):
        nodes += len(z)
        e = integrand(pi, slope, lam_exp, lam_int, z)
        terms = [e]
        if moments:
            y = lam_int * z[:, None]
            h = slope * y / (slope * y + 1.0)
            terms += [np.maximum(e, sop._MOMENT_FLOOR) * h ** k for k in range(2, moments + 1)]
        total = total + np.array([w @ term for term in terms])
        est = total * (sop._STEP0 / (1 << level))
        if prev is not None:
            diff = np.abs(est[0] - prev)
            worst = float((scale * diff).max())
            if worst < sop._REFINE_TOL or (level == sop._MAX_HALVINGS and worst <= sop._ACCEPT_TOL):
                reached.append(level)
                return (est[0], diff, est[1:]) if moments else (est[0], diff)
        prev = est[0]
    reached.append(level)
    raise sop.QuadratureError(
        f"outage quadrature did not converge: error {worst:.3e} "
        f"after {nodes} nodes (tolerance {sop._ACCEPT_TOL:g})"
    )


def _box_sweep(count, seed):
    """Seeded log-uniform draws over test_probabilities_stay_in_unit_interval's box."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        lam2 = 10.0 ** rng.uniform(-6.0, 0.0)
        stats = ChannelStats(lam2 * 10.0 ** rng.uniform(0.0, 2.0), lam2, 10.0 ** rng.uniform(0.0, 10.0))
        rth = rng.uniform(0.0, 4.0)
        yield stats, rng.uniform(ALPHA_MIN, ALPHA_MAX), TargetRates(rth, rth)


def _assert_same_bits(monkeypatch, cases):
    """Every case gives the same value and quad_error bits from both kernels."""
    reached = []

    def reference(*args):
        return _per_halving_survival_integral(*args, reached)

    for func in (exact_sop_near, exact_sop_far):
        fused = [func(*case) for case in cases]
        with monkeypatch.context() as patch:
            patch.setattr(sop, "_survival_integral", reference)
            expected = [func(*case) for case in cases]
        for got, want in zip(fused, expected):
            assert type(got.value) is type(want.value)
            assert np.asarray(got.value).tobytes() == np.asarray(want.value).tobytes()
            assert np.asarray(got.quad_error).tobytes() == np.asarray(want.quad_error).tobytes()
    return reached


def test_fused_kernel_matches_per_halving_bits_over_the_box(monkeypatch):
    cases = list(_box_sweep(400, seed=2024))
    reached = _assert_same_bits(monkeypatch, cases)
    assert max(reached) == sop._FUSED_HALVINGS
    grid = np.linspace(ALPHA_MIN, ALPHA_MAX, 1000)
    curves = [(stats, grid, targets) for stats, _, targets in cases[:12]]
    reached = _assert_same_bits(monkeypatch, curves)
    assert max(reached) == sop._FUSED_HALVINGS


def test_fused_kernel_matches_per_halving_bits_in_later_halvings(monkeypatch):
    # A tolerance this tight sends many calls past the fused block.
    monkeypatch.setattr(sop, "_REFINE_TOL", 1e-16)
    cases = list(_box_sweep(60, seed=7))
    grid = np.linspace(0.05, 0.95, 7)
    cases += [(stats, grid, targets) for stats, _, targets in cases[:6]]
    reached = _assert_same_bits(monkeypatch, cases)
    assert set(reached) >= {4, 5, 6}


def test_kernel_build_matches_the_written_integrand(monkeypatch):
    # The kernel builds the integrand as exp(kappa/(s + 1/z)), which rounds
    # differently from the integral as written; the two stay within a few ulps.
    def reference(*args, moments=0):
        return _per_halving_survival_integral(*args, [], integrand=_written_integrand, moments=moments)

    cases = list(_box_sweep(2000, seed=41))
    grid = np.linspace(ALPHA_MIN, ALPHA_MAX, 1000)
    curves = [(stats, grid, targets) for stats, _, targets in cases[:12]]
    got = [func(*case) for func in (exact_sop_near, exact_sop_far) for case in cases + curves]
    slopes = [exact_sop_slopes(*case) for case in cases]
    with monkeypatch.context() as patch:
        patch.setattr(sop, "_survival_integral", reference)
        want = [func(*case) for func in (exact_sop_near, exact_sop_far) for case in cases + curves]
        want_slopes = [exact_sop_slopes(*case) for case in cases]
    for g, w in zip(got, want):
        assert np.abs(np.subtract(g.value, w.value)).max() <= 1e-15
        assert np.abs(np.subtract(g.quad_error, w.quad_error)).max() <= 1e-15
    for g, w in zip(slopes, want_slopes):
        for field in ("phi", "dphi", "d2phi"):
            x, ref = getattr(g, field), getattr(w, field)
            big = np.abs(ref) > 1e-6
            assert np.all(np.abs(x - ref)[big] <= 1e-12 * np.abs(ref)[big])


def test_curve_call_holds_one_full_size_array_at_a_time():
    # A 1000-point call fills one (185 nodes x 1000 columns) float array; a
    # second temporary of that size would take the peak past 1.5 of them.
    grid = np.linspace(ALPHA_MIN, ALPHA_MAX, 1000)
    limit = 1.5 * 185 * grid.size * 8
    for func in (exact_sop_near, exact_sop_far):
        func(stats_at(1e7), grid, RTH1)
        tracemalloc.start()
        try:
            func(stats_at(1e7), grid, RTH1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < limit


def test_quadrature_error_reports_the_nodes_it_reached(monkeypatch):
    monkeypatch.setattr(sop, "_REFINE_TOL", -1.0)
    monkeypatch.setattr(sop, "_ACCEPT_TOL", -1.0)
    args = (stats_at(1e7), 0.5, RTH1)
    with pytest.raises(sop.QuadratureError) as fused:
        exact_sop_near(*args)
    monkeypatch.setattr(sop, "_survival_integral", lambda *a: _per_halving_survival_integral(*a, []))
    with pytest.raises(sop.QuadratureError) as expected:
        exact_sop_near(*args)
    assert str(fused.value) == str(expected.value)
    assert "after 1473 nodes" in str(fused.value)


def test_sop_slopes_match_central_differences_over_the_box():
    # Five-point differences, s_o' of the values, s_o'' of s_o' and phi'' of
    # phi', wherever |s_o'| > 1e-6; the step keeps every point inside the window.
    checked = 0
    for stats, alpha, targets in _box_sweep(200, seed=11):
        h = 3e-3 * min(alpha, 1.0 - alpha)
        points = alpha + h * np.arange(-2.0, 3.0)
        slopes = exact_sop_slopes(stats, points, targets)
        assert np.all(slopes.quad_error <= 1e-9)
        # s_o' = -(1 - s_o)*phi and s_o'' = -(1 - s_o)*(phi' + phi^2)
        first = -(1.0 - slopes.value) * slopes.phi
        second = -(1.0 - slopes.value) * (slopes.dphi + slopes.phi ** 2)
        for user, func in enumerate((exact_sop_near, exact_sop_far)):
            value = func(stats, points, targets).value
            # The two calls may stop at different halvings, each within the stop rule.
            assert slopes.value[user] == pytest.approx(value, abs=sop._REFINE_TOL)
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
        full = exact_sop_slopes(stats, points, targets)
        lean = exact_sop_slopes(stats, points, targets, d2phi=False)
        assert lean.d2phi is None and full.d2phi.shape == (2, 2)
        for got, want in zip(lean[:4], full[:4]):
            assert got.tobytes() == want.tobytes()


def test_log_survival_is_strictly_concave_at_each_minimizer():
    # phi' < 0 at an interior root of phi makes it a strict minimum of s_o,
    # where Newton on phi converges quadratically. Away from the minimizer
    # phi' may be positive: near the window edges it is on part of the box.
    from noma_secrecy.optimize import optimal_pa_far, optimal_pa_near

    checked = 0
    for stats, _, targets in _box_sweep(100, seed=12):
        for user, solve in enumerate((optimal_pa_near, optimal_pa_far)):
            alpha = solve(stats, targets).alpha
            if ALPHA_MIN < alpha < ALPHA_MAX:
                checked += 1
                assert exact_sop_slopes(stats, alpha, targets).dphi[user] < 0.0
    assert checked >= 120
