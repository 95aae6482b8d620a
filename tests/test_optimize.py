import math

import numpy as np
import pytest

from noma_secrecy.channel import ChannelStats, mean_gain, rho_t_for_received_snr
from noma_secrecy.optimize import (
    XTOL,
    Candidate,
    CandidateSet,
    _select,
    brent_minimize,
    brent_root,
    equal_sop_alpha_asymptotic,
    minmax_pa,
    minmax_pa_asymptotic,
    optimal_pa_far,
    optimal_pa_far_asymptotic,
    optimal_pa_near,
    optimal_pa_near_asymptotic,
)
from noma_secrecy.rates import ALPHA_MAX, ALPHA_MIN
from noma_secrecy.sop import TargetRates, exact_sop_far, exact_sop_near

LAM1 = 50.0 ** -2.5
LAM2 = 100.0 ** -2.5
STATS_30DB = ChannelStats(LAM1, LAM2, 1e8)
RTH1 = TargetRates(1.0, 1.0)


def test_brent_finds_quadratic_minimum():
    result = brent_minimize(lambda a: (a - 0.3) ** 2)
    assert abs(result.alpha - 0.3) <= XTOL
    assert result.value <= XTOL ** 2


def test_brent_converges_on_kink():
    result = brent_minimize(lambda a: abs(a - 0.7))
    assert abs(result.alpha - 0.7) <= XTOL


def test_brent_evaluation_counts():
    calls = []

    def smooth(a):
        calls.append(a)
        return (a - 0.42) ** 2

    def kink(a):
        calls.append(a)
        return abs(a - 0.42)

    brent_minimize(smooth)
    assert len(calls) <= 8  # parabolic steps are exact on a parabola
    calls.clear()
    brent_minimize(kink)
    assert len(calls) <= 40  # golden-section alone needs 39 to reach XTOL


def test_brent_rejects_non_finite_objective():
    with pytest.raises(ValueError):
        brent_minimize(lambda a: float("nan"))
    with pytest.raises(ValueError):
        brent_root(lambda a: float("inf"), 0.0, 1.0, -1.0, 1.0)


def test_brent_argument_validation():
    with pytest.raises(ValueError):
        brent_minimize(lambda a: a, lower=0.7, upper=0.3)
    with pytest.raises(ValueError):
        brent_root(lambda a: a - 2.0, 0.0, 1.0, -2.0, -1.0)


def test_brent_root_finds_transcendental_root():
    calls = []

    def g(a):
        calls.append(a)
        return math.cos(a) - a

    root = brent_root(g, 0.0, 1.0, 1.0, math.cos(1.0) - 1.0)
    assert root == pytest.approx(0.7390851332151607, abs=XTOL)
    assert len(calls) <= 10
    assert brent_root(g, 0.0, 1.0, 0.0, -1.0) == 0.0


def test_near_optimum_matches_dense_grid():
    result = optimal_pa_near(STATS_30DB, RTH1)
    grid = np.linspace(ALPHA_MIN, ALPHA_MAX, 10_000)
    best_alpha, best_value = None, np.inf
    for chunk in np.array_split(grid, 10):
        values = exact_sop_near(STATS_30DB, chunk, RTH1).value
        i = int(np.argmin(values))
        if values[i] < best_value:
            best_alpha, best_value = float(chunk[i]), float(values[i])
    assert abs(result.alpha - best_alpha) <= (grid[1] - grid[0]) + XTOL
    assert result.value <= best_value + 1e-12


def test_far_optimum_matches_dense_grid():
    result = optimal_pa_far(STATS_30DB, RTH1)
    grid = np.linspace(ALPHA_MIN, ALPHA_MAX, 10_000)
    best_alpha, best_value = None, np.inf
    for chunk in np.array_split(grid, 10):
        values = exact_sop_far(STATS_30DB, chunk, RTH1).value
        i = int(np.argmin(values))
        if values[i] < best_value:
            best_alpha, best_value = float(chunk[i]), float(values[i])
    assert abs(result.alpha - best_alpha) <= (grid[1] - grid[0]) + XTOL
    assert result.value <= best_value + 1e-12


def test_exact_optima_approach_closed_forms_at_40db():
    stats = ChannelStats(LAM1, LAM2, 10.0 ** 4.0 / LAM2)
    near = optimal_pa_near(stats, RTH1)
    far = optimal_pa_far(stats, RTH1)
    assert abs(near.alpha - optimal_pa_near_asymptotic(RTH1).alpha) <= 0.02
    assert abs(far.alpha - optimal_pa_far_asymptotic(RTH1).alpha) <= 0.02


def test_symmetric_stats_mirror_the_optima():
    stats = ChannelStats(1e-4, 1e-4, 1e7)
    near = optimal_pa_near(stats, RTH1)
    far = optimal_pa_far(stats, RTH1)
    assert abs(near.alpha - (1.0 - far.alpha)) <= 0.02


def test_closed_form_near_reference_values():
    assert optimal_pa_near_asymptotic(RTH1) == pytest.approx((math.sqrt(2.0) - 1.0, False))
    assert optimal_pa_near_asymptotic(TargetRates(2.0, 2.0)).alpha == pytest.approx(
        -3.0 + math.sqrt(12.0), rel=1e-12
    )
    degenerate = optimal_pa_near_asymptotic(TargetRates(0.0, 0.0))
    assert degenerate.alpha == 0.0 and degenerate.degenerate


def test_closed_form_far_reference_values():
    assert optimal_pa_far_asymptotic(RTH1) == pytest.approx((2.0 - math.sqrt(2.0), False))
    degenerate = optimal_pa_far_asymptotic(TargetRates(0.0, 0.0))
    assert degenerate.alpha == 1.0 and degenerate.degenerate


@pytest.mark.parametrize("pi", [1.1, 1.5, 2.0, 4.0, 8.0])
def test_closed_forms_are_complementary_for_equal_targets(pi):
    rth = math.log2(pi)
    targets = TargetRates(rth, rth)
    near = optimal_pa_near_asymptotic(targets)
    far = optimal_pa_far_asymptotic(targets)
    assert near.alpha + far.alpha == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("rth", [0.5, 1.0, 2.0])
def test_brent_on_asymptotic_curves_recovers_closed_forms(rth):
    targets = TargetRates(rth, rth)
    from noma_secrecy.sop import asymptotic_sop_far, asymptotic_sop_near

    near = brent_minimize(lambda a: asymptotic_sop_near(STATS_30DB, a, targets))
    far = brent_minimize(lambda a: asymptotic_sop_far(STATS_30DB, a, targets))
    assert abs(near.alpha - optimal_pa_near_asymptotic(targets).alpha) <= 1e-6
    assert abs(far.alpha - optimal_pa_far_asymptotic(targets).alpha) <= 1e-6


def _equal_sop_root(stats, targets):
    """Brent-Dekker root of s_o1 - s_o2 over the whole window."""
    def gap(a):
        return exact_sop_near(stats, a, targets).value - exact_sop_far(stats, a, targets).value

    return brent_root(gap, ALPHA_MIN, ALPHA_MAX, gap(ALPHA_MIN), gap(ALPHA_MAX))


def test_equal_sop_symmetric_crossing_is_half():
    stats = ChannelStats(1e-4, 1e-4, 1e7)
    root = _equal_sop_root(stats, RTH1)
    assert root == pytest.approx(0.5, abs=1e-12)


def test_equal_sop_crossing_is_a_true_root():
    root = _equal_sop_root(STATS_30DB, RTH1)
    gap = exact_sop_near(STATS_30DB, root, RTH1).value - exact_sop_far(STATS_30DB, root, RTH1).value
    assert abs(gap) <= 1e-8
    grid = np.linspace(ALPHA_MIN, ALPHA_MAX, 1000)
    g = exact_sop_near(STATS_30DB, grid, RTH1).value - exact_sop_far(STATS_30DB, grid, RTH1).value
    flips = np.nonzero(np.sign(g[:-1]) != np.sign(g[1:]))[0]
    spacing = grid[1] - grid[0]
    assert any(grid[i] - spacing <= root <= grid[i + 1] + spacing for i in flips)


def test_equal_sop_closed_form_reference_values():
    stats = ChannelStats(1.0, 1.0, 1e6)
    form = equal_sop_alpha_asymptotic(stats, TargetRates(1.0, math.log2(1.2)))
    assert form.alpha == pytest.approx(0.1, rel=1e-12)
    assert not form.degenerate
    outside = equal_sop_alpha_asymptotic(STATS_30DB, RTH1)
    assert outside.alpha == pytest.approx(1.5493, abs=5e-4)
    assert outside.degenerate


def test_minmax_beats_dense_grid():
    # 4 SNRs x 3 far-user distances x 6 x 6 target pairs; the reference
    # setup (30 dB, 100 m, 1/1 bit) is one of the 432 configurations.
    grid = np.linspace(ALPHA_MIN, ALPHA_MAX, 1000)
    beaten = []
    for rho_r in (10.0, 20.0, 30.0, 40.0):
        for d2 in (60.0, 100.0, 150.0):
            lam2 = mean_gain(d2)
            stats = ChannelStats(LAM1, lam2, rho_t_for_received_snr(rho_r, lam2))
            for rth1 in (0.5, 1.0, 1.5, 2.0, 2.5, 3.0):
                for rth2 in (0.25, 0.5, 1.0, 1.5, 2.0, 3.0):
                    targets = TargetRates(rth1, rth2)
                    outcome = minmax_pa(stats, targets)
                    worst = np.maximum(
                        exact_sop_near(stats, grid, targets).value,
                        exact_sop_far(stats, grid, targets).value,
                    )
                    if outcome.objective > float(worst.min()) + 1e-9:
                        beaten.append((rho_r, d2, rth1, rth2))
    assert not beaten


def test_minmax_candidate_bookkeeping():
    outcome = minmax_pa(STATS_30DB, RTH1)
    pool = outcome.candidates.present()
    assert outcome.selected in [c.alpha for c in pool]
    assert all(outcome.objective <= c.max_sop + 1e-15 for c in pool)


def test_minmax_symmetric_selects_half():
    stats = ChannelStats(1e-4, 1e-4, 1e7)
    outcome = minmax_pa(stats, RTH1)
    assert abs(outcome.selected - 0.5) <= 1e-6


def test_minmax_agrees_with_asymptotic_selection():
    exact = minmax_pa(STATS_30DB, RTH1)
    asym = minmax_pa_asymptotic(STATS_30DB, RTH1)
    assert abs(exact.selected - asym.selected) <= 0.02


def test_asymptotic_minmax_drops_degenerate_candidates():
    stats = ChannelStats(3e-5, 1e-5, 1e8)
    outcome = minmax_pa_asymptotic(stats, TargetRates(0.0, 0.0))
    assert outcome.candidates.alpha1 is None
    assert outcome.candidates.alpha2 is None
    assert outcome.selected == pytest.approx(0.75, rel=1e-12)


def test_asymptotic_minmax_drops_out_of_window_crossing():
    outcome = minmax_pa_asymptotic(STATS_30DB, RTH1)
    assert outcome.candidates.alpha3 is None
    assert outcome.selected == pytest.approx(2.0 - math.sqrt(2.0), rel=1e-12)


def test_selection_breaks_ties_toward_smaller_alpha():
    tied = CandidateSet(
        alpha1=Candidate(alpha=0.7, so1=0.2, so2=0.1),
        alpha2=Candidate(alpha=0.3, so1=0.1, so2=0.2),
        alpha3=None,
    )
    outcome = _select(tied)
    assert outcome.selected == 0.3
    with pytest.raises(RuntimeError):
        _select(CandidateSet(None, None, None))
