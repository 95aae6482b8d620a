import math

import numpy as np
import pytest

from noma_secrecy.channel import ChannelStats, mean_gain, rho_t_for_received_snr
from noma_secrecy.optimize import (
    XTOL,
    Candidate,
    _hermite_start,
    _select,
    minmax_pa,
    newton_root,
    optimal_pa_far_asymptotic,
    optimal_pa_near_asymptotic,
)
from noma_secrecy.rates import ALPHA_MAX, ALPHA_MIN
from noma_secrecy import sop
from noma_secrecy.sop import TargetRates, exact_sop_far, exact_sop_near, exact_sops
from reference import per_halving_survival_integral

LAM1 = 50.0 ** -2.5
LAM2 = 100.0 ** -2.5
STATS_30DB = ChannelStats(LAM1, LAM2, 1e8)
RTH1 = TargetRates(1.0, 1.0)


def test_newton_converges_on_monotone_functions_in_lockstep():
    columns = [
        (lambda x: math.cos(x) - x, lambda x: -math.sin(x) - 1.0, 0.7390851332151607),
        (lambda x: x ** 3 - 0.2, lambda x: 3.0 * x * x, 0.2 ** (1.0 / 3.0)),
    ]
    calls = []

    def evaluate(x):
        calls.append(x.copy())
        return (np.array([f(v) for (f, _, _), v in zip(columns, x)]),
                np.array([df(v) for (_, df, _), v in zip(columns, x)]))

    lower, upper = np.array([0.0, 0.0]), np.array([1.0, 1.0])
    f_lo, df_lo = evaluate(lower)
    f_hi, df_hi = evaluate(upper)
    calls.clear()
    roots = newton_root(evaluate, lower, upper, f_lo, f_hi, df_lo, df_hi)
    assert np.all(np.abs(roots - [root for _, _, root in columns]) <= XTOL)
    assert np.array_equal(calls[-1], roots)  # the last call was made at the roots
    assert len(calls) <= 8


def test_newton_bisects_where_a_step_would_leave_the_bracket():
    points = []

    def evaluate(x):
        points.append(float(x[0]))
        return np.arctan(10.0 * (x - 0.3)), 10.0 / (1.0 + 100.0 * (x - 0.3) ** 2)

    # From x = 0, where f = arctan(-3) and f' = 1, the Newton step lands at
    # 1.25, past the bracket's end 0.95.
    root = newton_root(evaluate, [0.0], [0.95], [math.atan(-3.0)], [math.atan(6.5)], [1.0], [10.0 / 43.25])
    assert points[0] == 0.475
    assert abs(root[0] - 0.3) <= XTOL
    assert len(points) <= 12


def test_newton_steps_onto_the_bracket_end_when_the_root_lies_just_past_it():
    # The end values come from another evaluation of g, which puts the root
    # at 0.299; g itself puts it 1e-10 past the bracket's end 0.3. The second
    # step overshoots that end by less than XTOL and is clipped onto it,
    # which collapses the bracket onto the iterate. Bisecting instead would
    # take about 17 more evaluations.
    points = []

    def evaluate(x):
        points.append(float(x[0]))
        return 0.3 + 1e-10 - x, -np.ones_like(x)

    root = newton_root(evaluate, [0.0], [0.3], [0.3], [-1e-3], [-1.0], [-1.0])
    assert points == [0.299, 0.3]
    assert abs(root[0] - (0.3 + 1e-10)) <= XTOL


@pytest.mark.parametrize("settle", [False, True])
def test_newton_stops_on_a_sub_xtol_step(settle):
    points = []

    def evaluate(x):
        points.append(float(x[0]))
        return 0.3 - x, -np.ones_like(x)

    root = newton_root(evaluate, [0.2], [0.3 + 4e-9], [0.1], [-4e-9], [-1.0], [-1.0], settle=settle)
    # The step from 0.3 + 4e-9 is -4e-9: settling takes it and evaluates 0.3.
    assert points == ([0.3] if settle else [])
    assert root[0] == (0.3 if settle else 0.3 + 4e-9)


def test_newton_rejects_non_finite_values_and_unbracketed_roots():
    def line(x):
        return 0.5 - x, -np.ones_like(x)

    with pytest.raises(ValueError):
        newton_root(lambda x: (x * math.nan, np.ones_like(x)), [0.0], [1.0], [-1.0], [1.0], [2.0], [2.0])
    with pytest.raises(ValueError):
        newton_root(line, [0.0], [1.0], [math.nan], [-0.5], [-1.0], [-1.0])
    with pytest.raises(ValueError):
        newton_root(line, [0.6], [1.0], [-0.1], [-0.5], [-1.0], [-1.0])
    with pytest.raises(ValueError):
        newton_root(line, [1.0], [0.0], [-0.5], [0.5], [-1.0], [-1.0])


@pytest.mark.parametrize("offset", [0.0, 0.3, 0.8])
def test_hermite_start_error_falls_as_the_sixth_power_of_the_cell(offset):
    # phi = exp(-3x) - 0.4: the interpolant's error is at most
    # max|phi^(6)| * w**6 / (720 * 64) on a cell of width w, so its root lies
    # within that over min|phi'| of phi's. A cubic start would err as w**4.
    root = math.log(2.5) / 3.0
    for w in (0.2, 0.1, 0.05, 0.025):
        lo = root - offset * w
        hi = lo + w
        ends = [(math.exp(-3.0 * x) - 0.4, -3.0 * math.exp(-3.0 * x), 9.0 * math.exp(-3.0 * x)) for x in (lo, hi)]
        x0 = _hermite_start(lo, hi, *(v for pair in zip(*ends) for v in pair))
        bound = 729.0 * math.exp(-3.0 * lo) / (720.0 * 64.0) / (3.0 * math.exp(-3.0 * hi)) * w ** 6
        assert lo <= x0 <= hi
        assert abs(x0 - root) <= bound


def test_hermite_start_stays_in_the_bracket_whatever_the_derivatives():
    # phi = -tanh(40(x - 0.27)) on [0.2, 0.3], with end derivatives drawn at
    # random over many decades and signs: the start still lies in the
    # cell, and Newton from the cell narrowed to it still reaches the root.
    def phi(x):
        return -np.tanh(40.0 * (x - 0.27)), -40.0 / np.cosh(40.0 * (x - 0.27)) ** 2

    lo, hi = 0.2, 0.3
    (f_lo, f_hi), (df_lo, df_hi) = phi(np.array([lo, hi]))
    rng = np.random.default_rng(3)
    for _ in range(200):
        slopes = (rng.choice([-1.0, 1.0], 4) * 10.0 ** rng.uniform(-3.0, 6.0, 4)).tolist()
        x0 = _hermite_start(lo, hi, float(f_lo), float(f_hi), *slopes)
        assert lo <= x0 <= hi
        f, df = (float(v) for v in phi(np.array(x0)))
        if (f > 0.0) == (f_lo > 0.0):
            bracket = [x0], [hi], [f], [f_hi], [df], [df_hi]
        else:
            bracket = [lo], [x0], [f_lo], [f], [df_lo], [df]
        root = newton_root(phi, *bracket)
        assert abs(root[0] - 0.27) <= XTOL


def test_near_optimum_matches_dense_grid():
    result = minmax_pa(STATS_30DB, RTH1).near
    grid = np.linspace(ALPHA_MIN, ALPHA_MAX, 10_000)
    best_alpha, best_value = None, np.inf
    for chunk in np.array_split(grid, 10):
        values = exact_sop_near(STATS_30DB, chunk, RTH1).value
        i = int(np.argmin(values))
        if values[i] < best_value:
            best_alpha, best_value = float(chunk[i]), float(values[i])
    assert abs(result.alpha - best_alpha) <= (grid[1] - grid[0]) + XTOL
    assert result.so1 <= best_value + 1e-12


def test_far_optimum_matches_dense_grid():
    result = minmax_pa(STATS_30DB, RTH1).far
    grid = np.linspace(ALPHA_MIN, ALPHA_MAX, 10_000)
    best_alpha, best_value = None, np.inf
    for chunk in np.array_split(grid, 10):
        values = exact_sop_far(STATS_30DB, chunk, RTH1).value
        i = int(np.argmin(values))
        if values[i] < best_value:
            best_alpha, best_value = float(chunk[i]), float(values[i])
    assert abs(result.alpha - best_alpha) <= (grid[1] - grid[0]) + XTOL
    assert result.so2 <= best_value + 1e-12


def test_exact_optima_approach_closed_forms_at_40db():
    stats = ChannelStats(LAM1, LAM2, 10.0 ** 4.0 / LAM2)
    outcome = minmax_pa(stats, RTH1)
    near, far = outcome.near, outcome.far
    assert abs(near.alpha - optimal_pa_near_asymptotic(RTH1)) <= 0.02
    assert abs(far.alpha - optimal_pa_far_asymptotic(RTH1)) <= 0.02


def test_symmetric_stats_mirror_the_optima():
    stats = ChannelStats(1e-4, 1e-4, 1e7)
    outcome = minmax_pa(stats, RTH1)
    near, far = outcome.near, outcome.far
    assert abs(near.alpha - (1.0 - far.alpha)) <= 0.02


# Both closed forms at 8 bits (pi = 256) to 25 digits, from
# sqrt(pi*(pi - 1)) - (pi - 1) and pi - sqrt(pi*(pi - 1)) in 40-digit arithmetic.
ALPHA1_HAT_8_BITS = 0.4995107627409919851239228
ALPHA2_HAT_8_BITS = 0.5004892372590080148760772


def test_closed_form_near_reference_values():
    assert optimal_pa_near_asymptotic(RTH1) == pytest.approx(math.sqrt(2.0) - 1.0)
    assert optimal_pa_near_asymptotic(TargetRates(2.0, 2.0)) == pytest.approx(
        -3.0 + math.sqrt(12.0), rel=1e-12
    )
    assert optimal_pa_near_asymptotic(TargetRates(8.0, 8.0)) == pytest.approx(
        ALPHA1_HAT_8_BITS, rel=1e-15, abs=0.0
    )
    assert optimal_pa_near_asymptotic(TargetRates(0.0, 0.0)) == 0.0


def test_closed_form_far_reference_values():
    assert optimal_pa_far_asymptotic(RTH1) == pytest.approx(2.0 - math.sqrt(2.0))
    assert optimal_pa_far_asymptotic(TargetRates(8.0, 8.0)) == pytest.approx(
        ALPHA2_HAT_8_BITS, rel=1e-15, abs=0.0
    )
    assert optimal_pa_far_asymptotic(TargetRates(0.0, 0.0)) == 1.0


# 2**60 and up: pi - 1 rounds to pi, and pi*(pi - 1) overflows from 2**512.
@pytest.mark.parametrize("pi", [1.1, 1.5, 2.0, 4.0, 8.0, 2.0 ** 60, 2.0 ** 600, 2.0 ** 1023])
def test_closed_forms_are_complementary_for_equal_targets(pi):
    rth = math.log2(pi)
    targets = TargetRates(rth, rth)
    near = optimal_pa_near_asymptotic(targets)
    far = optimal_pa_far_asymptotic(targets)
    assert near + far == pytest.approx(1.0, abs=1e-12)


def _golden_section_minimize(objective, lower=ALPHA_MIN, upper=ALPHA_MAX, tol=1e-9):
    """Minimizer of a unimodal objective on [lower, upper], solver-independent."""
    ratio = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lower, upper
    c, d = b - ratio * (b - a), a + ratio * (b - a)
    fc, fd = objective(c), objective(d)
    while b - a > tol:
        if fc <= fd:
            b, d, fd = d, c, fc
            c = b - ratio * (b - a)
            fc = objective(c)
        else:
            a, c, fc = c, d, fd
            d = a + ratio * (b - a)
            fd = objective(d)
    return 0.5 * (a + b)


@pytest.mark.parametrize("rth", [0.5, 1.0, 2.0])
def test_brent_on_asymptotic_curves_recovers_closed_forms(rth):
    # Kept under its old name; the minimizer is now a test-local golden-section search.
    targets = TargetRates(rth, rth)
    from noma_secrecy.sop import asymptotic_sop_far, asymptotic_sop_near

    near = _golden_section_minimize(lambda a: asymptotic_sop_near(STATS_30DB, a, targets))
    far = _golden_section_minimize(lambda a: asymptotic_sop_far(STATS_30DB, a, targets))
    assert abs(near - optimal_pa_near_asymptotic(targets)) <= 1e-6
    assert abs(far - optimal_pa_far_asymptotic(targets)) <= 1e-6


def _equal_sop_root(stats, targets, tol=1e-12):
    """Root of s_o1 - s_o2 over the whole window, by bisection."""
    def gap(a):
        return exact_sop_near(stats, a, targets).value - exact_sop_far(stats, a, targets).value

    lo, hi = ALPHA_MIN, ALPHA_MAX
    g_lo = gap(lo)
    assert g_lo * gap(hi) <= 0.0
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        g_mid = gap(mid)
        if g_mid == 0.0:
            return mid
        if (g_mid > 0.0) == (g_lo > 0.0):
            lo, g_lo = mid, g_mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


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


def _grid_configs():
    # 4 SNRs x 3 far-user distances x 6 x 6 target pairs; the reference
    # setup (30 dB, 100 m, 1/1 bit) is one of the 432 configurations.
    for rho_r in (10.0, 20.0, 30.0, 40.0):
        for d2 in (60.0, 100.0, 150.0):
            lam2 = mean_gain(d2)
            stats = ChannelStats(LAM1, lam2, rho_t_for_received_snr(rho_r, lam2))
            for rth1 in (0.5, 1.0, 1.5, 2.0, 2.5, 3.0):
                for rth2 in (0.25, 0.5, 1.0, 1.5, 2.0, 3.0):
                    yield stats, TargetRates(rth1, rth2)


def test_minmax_beats_dense_grid():
    grid = np.linspace(ALPHA_MIN, ALPHA_MAX, 1000)
    beaten = []
    for stats, targets in _grid_configs():
        outcome = minmax_pa(stats, targets)
        worst = np.maximum(
            exact_sop_near(stats, grid, targets).value,
            exact_sop_far(stats, grid, targets).value,
        )
        if outcome.objective > float(worst.min()) + 1e-9:
            beaten.append((stats, targets))
    assert not beaten


def test_solved_splits_meet_their_tolerances(monkeypatch):
    # Each interior minimizer brackets the root of phi = d/dalpha log(1 - s_o)
    # within XTOL, with phi taken from the reference rule at halving 6. A
    # crossing's objective moves to first order with alpha, so it is settled
    # to rounding: s_o1 and s_o2 agree there far inside what XTOL allows.
    solved = [(stats, targets, minmax_pa(stats, targets)) for stats, targets in _grid_configs()]
    crossings = [o.crossing for _, _, o in solved if o.crossing is not None]
    assert crossings
    assert all(abs(c.so1 - c.so2) <= 1e-11 * c.max_sop for c in crossings)
    # 1473 nodes, about eight times the kernel's, so the check does not rest on the kernel.
    monkeypatch.setattr(
        sop, "_survival_integral", lambda *a, moments=0: per_halving_survival_integral(*a, moments=moments, halvings=6)
    )
    missed = []
    checked = 0
    for stats, targets, outcome in solved:
        for candidate, user in ((outcome.near, 0), (outcome.far, 1)):
            alpha = candidate.alpha
            if not ALPHA_MIN + XTOL <= alpha <= ALPHA_MAX - XTOL:
                continue
            checked += 1
            phi = exact_sops(stats, np.array([alpha - XTOL, alpha + XTOL]), targets, order=3).phi[user]
            if not phi[0] > 0.0 > phi[1]:
                missed.append((stats, targets, user, alpha))
    assert checked == 2 * 432
    assert not missed


def _count_passes(monkeypatch):
    calls = []
    kernel = sop._survival_integral

    def counted(*args, **kwargs):
        calls.append(1)
        return kernel(*args, **kwargs)

    monkeypatch.setattr(sop, "_survival_integral", counted)
    return calls


def test_solves_take_few_quadrature_passes(monkeypatch):
    # Each Newton iteration, on a minimizer's phi or on the crossing's
    # s_o1 - s_o2, starts at the root of the quintic Hermite interpolant on
    # its cell, so it usually stops soon after the pass that evaluates that
    # start.
    # The crossing bound of 6 is tight: config (20 dB, 60 m, rth 0.5/0.25)
    # takes 6 passes only because its second crossing Newton point gives
    # s_o1 - s_o2 = 0.0 exactly, which skips the settle pass. A change that
    # rounds the crossing differently can give it a 7th.
    calls = _count_passes(monkeypatch)
    passes, crossing = [], []
    for stats, targets in _grid_configs():
        calls.clear()
        outcome = minmax_pa(stats, targets)
        passes.append(len(calls))
        if outcome.crossing is not None:
            crossing.append(len(calls))
    assert max(passes) <= 12
    assert np.mean(passes) <= 2.5
    assert crossing and max(crossing) <= 6


def test_minmax_candidate_bookkeeping():
    for stats, targets in _grid_configs():
        outcome = minmax_pa(stats, targets)
        pool = [c for c in (outcome.near, outcome.far, outcome.crossing) if c is not None]
        objective = min(c.max_sop for c in pool)
        assert outcome.objective == objective
        assert outcome.selected in [c.alpha for c in pool if c.max_sop == objective]
        assert outcome == _select(outcome.near, outcome.far, outcome.crossing)


def test_minmax_symmetric_selects_half():
    stats = ChannelStats(1e-4, 1e-4, 1e7)
    outcome = minmax_pa(stats, RTH1)
    assert abs(outcome.selected - 0.5) <= 1e-6


def test_minmax_agrees_with_asymptotic_selection():
    # At 30 dB the high-SNR crossing, 1.549, lies outside the window, so the
    # asymptotic fair split is the far user's closed-form minimizer.
    exact = minmax_pa(STATS_30DB, RTH1)
    assert abs(exact.selected - optimal_pa_far_asymptotic(RTH1)) <= 0.02


def test_selection_breaks_ties_toward_smaller_alpha():
    outcome = _select(
        Candidate(alpha=0.7, so1=0.2, so2=0.1),
        Candidate(alpha=0.3, so1=0.1, so2=0.2),
        None,
    )
    assert outcome.selected == 0.3
