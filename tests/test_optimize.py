import dataclasses
import math

import numpy as np
import pytest

from noma_secrecy.channel import ChannelStats, mean_gain, rho_t_for_received_snr
from noma_secrecy.config import RunConfig
from noma_secrecy.optimize import (
    XTOL,
    Candidate,
    _column,
    _hermite_start,
    _newton,
    _refine,
    _select,
    minmax_pa,
    optimal_pa_asymptotic,
)
from noma_secrecy.rates import ALPHA_MAX, ALPHA_MIN
from noma_secrecy import optimize, sop
from noma_secrecy.sop import TargetRates, asymptotic_sops, exact_sop_far, exact_sop_near, exact_sops
from reference import per_halving_survival_integral

LAM1 = 50.0 ** -2.5
LAM2 = 100.0 ** -2.5
STATS_30DB = ChannelStats(LAM1, LAM2, 1e8)
RTH1 = TargetRates(1.0, 1.0)


def _recorded(values):
    """An evaluate for _refine whose pass is values(x) on the array of its
    points, the pair (f, df), and the list of the points it was called at.
    _refine has no pass cap, so a broken safeguard fails here instead of
    looping."""
    points = []

    def evaluate(x):
        assert len(points) < 100, "no convergence in 100 passes"
        points.append(list(x))
        return values(np.array(x))

    return evaluate, points


def _same(pair):
    return pair


def test_newton_converges_on_monotone_functions_in_lockstep():
    columns = [
        (lambda x: math.cos(x) - x, lambda x: -math.sin(x) - 1.0, lambda x: -math.cos(x), 0.7390851332151607),
        (lambda x: x ** 3 - 0.2, lambda x: 3.0 * x * x, lambda x: 6.0 * x, 0.2 ** (1.0 / 3.0)),
    ]
    cells = [(0.0, 1.0, f(0.0), f(1.0), df(0.0), df(1.0), d2f(0.0), d2f(1.0)) for f, df, d2f, _ in columns]
    evaluate, points = _recorded(lambda x: (
        np.array([f(v) for (f, *_), v in zip(columns, x)]),
        np.array([df(v) for (_, df, *_), v in zip(columns, x)]),
    ))
    roots, last = _refine(cells, evaluate, _same, [False, False])
    assert np.all(np.abs(roots - [root for *_, root in columns]) <= XTOL)
    assert points[0] == [_hermite_start(*cell) for cell in cells]  # the first pass is at the starts
    assert points[-1] == roots.tolist()  # the last pass was made at the roots
    assert last[0].tolist() == [f(root) for (f, *_), root in zip(columns, roots.tolist())]
    assert len(points) <= 8


def test_newton_bisects_where_a_step_would_leave_the_bracket():
    # f = arctan(10(x - 0.3)) on [0, 0.95]. The cell's curvature at 0 is
    # -100 against f''(0) = 6, which puts the start past 0.6. The cell
    # narrows to [0, start], and from 0, the end with the smaller
    # |f| = arctan(3), where f' = 1, the Newton step lands at 1.25, past
    # the start.
    evaluate, points = _recorded(lambda x: (np.arctan(10.0 * (x - 0.3)), 10.0 / (1.0 + 100.0 * (x - 0.3) ** 2)))
    cell = (0.0, 0.95, math.atan(-3.0), math.atan(6.5), 1.0, 10.0 / 43.25, -100.0, -1300.0 / 43.25 ** 2)
    root, _ = _refine([cell], evaluate, _same, [False])
    assert points[0][0] > 0.6
    assert points[1][0] == 0.5 * points[0][0]
    assert abs(root[0] - 0.3) <= XTOL
    assert len(points) <= 12


def test_newton_steps_onto_the_bracket_end_when_the_root_lies_just_past_it():
    # The cell's values come from another evaluation of g, which puts the
    # root at 0.299; g itself puts it 1e-10 past the cell's end 0.3. The
    # start lies below 0.299, so Newton restarts from the end 0.3 and steps
    # to 0.299. The next step overshoots that end by less than XTOL and is
    # clipped onto it, which collapses the bracket onto the iterate, where
    # bisecting would take more evaluations.
    evaluate, points = _recorded(lambda x: (0.3 + 1e-10 - x, -np.ones_like(x)))
    cell = (0.0, 0.3, 0.3, -1e-3, -1.0, -1.0, 0.0, -10.0)
    root, _ = _refine([cell], evaluate, _same, [False])
    start = _hermite_start(*cell)
    assert start < 0.299
    assert points == [[start], [0.299], [0.3]]
    assert abs(root[0] - (0.3 + 1e-10)) <= XTOL


@pytest.mark.parametrize("settle", [False, True])
def test_newton_stops_on_a_sub_xtol_step(settle):
    # The cell's line puts the root at its start, 0.3; g puts it 4e-9 below.
    # The cell narrows to [0.2, start], and the Newton step from the start,
    # -4e-9, is below XTOL/2: settling takes it and evaluates the point.
    cell = (0.2, 0.4, 0.1, -0.1, -1.0, -1.0, 0.0, 0.0)
    start = _hermite_start(*cell)
    evaluate, points = _recorded(lambda x: (start - 4e-9 - x, -np.ones_like(x)))
    root, _ = _refine([cell], evaluate, _same, [settle])
    assert abs(start - 0.3) <= 1e-15
    if settle:
        assert points == [[start], root.tolist()]
        assert abs(root[0] - (start - 4e-9)) <= 1e-16
    else:
        assert points == [[start]] and root[0] == start


def test_newton_bisects_where_steps_stop_halving():
    # f = sign(x - 0.3) * sqrt(|x - 0.3|): each Newton step lands on the
    # mirror image of its point, so from 0.4 the iterates would swap between
    # 0.2 and 0.4, both inside the bracket, which would never narrow. The
    # third step is not under half the first and bisects instead.
    def f(x):
        root = math.sqrt(abs(x - 0.3))
        return math.copysign(root, x - 0.3), 0.5 / max(root, 1e-300)

    (f_lo, df_lo), (f_hi, df_hi) = f(0.1), f(0.4)
    search = _newton(0.1, 0.4, f_lo, f_hi, df_lo, df_hi, XTOL)
    points = []
    try:
        x = next(search)
        while True:
            assert len(points) < 100, "no convergence in 100 evaluations"
            points.append(x)
            x = search.send(f(x))
    except StopIteration as stop:
        root = stop.value
    assert points[:3] == pytest.approx([0.2, 0.4, 0.3], abs=1e-12)
    assert abs(root - 0.3) <= XTOL


def test_newton_rejects_non_finite_values_and_unbracketed_roots():
    evaluate, _ = _recorded(lambda x: (x * math.nan, np.ones_like(x)))
    with pytest.raises(ValueError):  # at the start
        _refine([(0.0, 1.0, -1.0, 1.0, 2.0, 2.0, 0.0, 0.0)], evaluate, _same, [False])
    # At a Newton point: the start 0.5 gives f = -0.1, and the step from it to 0.4 gives NaN.
    evaluate, points = _recorded(lambda x: ((0.4 - x) * (1.0 if len(points) == 1 else math.nan), -np.ones_like(x)))
    with pytest.raises(ValueError):
        _refine([(0.0, 1.0, 0.5, -0.5, -1.0, -1.0, 0.0, 0.0)], evaluate, _same, [False])
    assert len(points) == 2
    for cell in (
        (0.0, 1.0, math.nan, -0.5, -1.0, -1.0, 0.0, 0.0),
        (0.6, 1.0, -0.1, -0.5, -1.0, -1.0, 0.0, 0.0),
        (1.0, 0.0, -0.5, 0.5, -1.0, -1.0, 0.0, 0.0),
    ):
        with pytest.raises(ValueError):
            next(_column(cell, False))
    # A cell with a zero end starts there, and a start value of the other
    # end's sign leaves a piece without a sign change.
    column = _column((0.0, 1.0, 0.0, -0.5, -1.0, -1.0, 0.0, 0.0), False)
    assert next(column) == 0.0
    with pytest.raises(ValueError):
        column.send((-1e-17, -1.0))


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
    # cell, and the loop that starts there still reaches the root.
    def phi(x):
        return -np.tanh(40.0 * (x - 0.27)), -40.0 / np.cosh(40.0 * (x - 0.27)) ** 2

    lo, hi = 0.2, 0.3
    f_lo, f_hi = phi(np.array([lo, hi]))[0].tolist()
    rng = np.random.default_rng(3)
    for _ in range(200):
        cell = (lo, hi, f_lo, f_hi, *(rng.choice([-1.0, 1.0], 4) * 10.0 ** rng.uniform(-3.0, 6.0, 4)).tolist())
        x0 = _hermite_start(*cell)
        assert lo <= x0 <= hi
        evaluate, points = _recorded(phi)
        root, _ = _refine([cell], evaluate, _same, [False])
        assert points[0] == [x0]
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
    alpha1_hat, alpha2_hat = optimal_pa_asymptotic(RTH1)
    assert abs(near.alpha - alpha1_hat) <= 0.02
    assert abs(far.alpha - alpha2_hat) <= 0.02


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
    assert optimal_pa_asymptotic(RTH1)[0] == pytest.approx(math.sqrt(2.0) - 1.0)
    assert optimal_pa_asymptotic(TargetRates(2.0, 2.0))[0] == pytest.approx(
        -3.0 + math.sqrt(12.0), rel=1e-12
    )
    assert optimal_pa_asymptotic(TargetRates(8.0, 8.0))[0] == pytest.approx(
        ALPHA1_HAT_8_BITS, rel=1e-15, abs=0.0
    )
    assert optimal_pa_asymptotic(TargetRates(0.0, 0.0))[0] == 0.0


def test_closed_form_far_reference_values():
    assert optimal_pa_asymptotic(RTH1)[1] == pytest.approx(2.0 - math.sqrt(2.0))
    assert optimal_pa_asymptotic(TargetRates(8.0, 8.0))[1] == pytest.approx(
        ALPHA2_HAT_8_BITS, rel=1e-15, abs=0.0
    )
    assert optimal_pa_asymptotic(TargetRates(0.0, 0.0))[1] == 1.0


# 2**60 and up: pi - 1 rounds to pi, and pi*(pi - 1) overflows from 2**512.
@pytest.mark.parametrize("pi", [1.1, 1.5, 2.0, 4.0, 8.0, 2.0 ** 60, 2.0 ** 600, 2.0 ** 1023])
def test_closed_forms_are_complementary_for_equal_targets(pi):
    rth = math.log2(pi)
    targets = TargetRates(rth, rth)
    near, far = optimal_pa_asymptotic(targets)
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
    near = _golden_section_minimize(lambda a: asymptotic_sops(STATS_30DB, a, targets)[0])
    far = _golden_section_minimize(lambda a: asymptotic_sops(STATS_30DB, a, targets)[1])
    alpha1_hat, alpha2_hat = optimal_pa_asymptotic(targets)
    assert abs(near - alpha1_hat) <= 1e-6
    assert abs(far - alpha2_hat) <= 1e-6


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
    monkeypatch.setattr(sop, "_survival_integral", lambda *a: per_halving_survival_integral(*a, halvings=6))
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
    # Each Newton iteration, on a minimizer's phi or on a crossing's
    # psi1 - psi2, starts at the root of the quintic Hermite interpolant on
    # its bracket-grid cell, so it usually stops soon after the pass that
    # evaluates that start. Every crossing config takes 3 passes: the grid,
    # the starts and the crossing's settle step; the bound leaves one pass
    # for a crossing whose Newton step from its start is not yet below XTOL.
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
    assert crossing and max(crossing) <= 4


def _box_configs(count=600):
    # Seeded draws over the wider box: lambda2 log-uniform on [1e-6, 1],
    # lambda1 / lambda2 log-uniform on [1, 100], rho_t log-uniform on
    # [1, 1e10], both target rates uniform on [0, 4] bits.
    rng = np.random.default_rng(5)
    lam2 = 10.0 ** rng.uniform(-6.0, 0.0, count)
    lam1 = lam2 * 10.0 ** rng.uniform(0.0, 2.0, count)
    rho_t = 10.0 ** rng.uniform(0.0, 10.0, count)
    rth = rng.uniform(0.0, 4.0, (count, 2))
    for index in range(count):
        yield ChannelStats(lam1[index], lam2[index], rho_t[index]), TargetRates(*rth[index])


def test_box_solves_take_no_more_passes(monkeypatch):
    # The 432-config grid above misses the box's slow solves: a minimizer
    # or crossing in a window-end cell, where psi1 - psi2 and phi have
    # poles, bisects several times before Newton takes over. The bounds are
    # the counts of this solver, mean 3.50 (2098 passes) and max 17, so a
    # change that adds passes anywhere in the box fails here.
    calls = _count_passes(monkeypatch)
    passes = []
    for stats, targets in _box_configs():
        calls.clear()
        minmax_pa(stats, targets)
        passes.append(len(calls))
    assert sum(passes) <= 2098
    assert max(passes) <= 17


def test_box_start_searches_take_few_quintic_evaluations(monkeypatch):
    # The start search on each cell's quintic interpolant has no step cap:
    # _newton stops there by its own rules alone. Over the box's 1026
    # starts it takes 6.3 evaluations per start on average and at most 52,
    # so a broken safeguard fails here, at 100 evaluations, instead of
    # looping.
    newton = optimize._newton
    starts = []

    def counted(lo, hi, f_lo, f_hi, df_lo, df_hi, tol, settle=False):
        search = newton(lo, hi, f_lo, f_hi, df_lo, df_hi, tol, settle)
        if tol != optimize._START_TTOL:
            return (yield from search)
        starts.append(0)
        try:
            x = next(search)
            while True:
                reply = yield x
                starts[-1] += 1
                assert starts[-1] < 100, "no convergence in 100 evaluations"
                x = search.send(reply)
        except StopIteration as stop:
            return stop.value

    monkeypatch.setattr(optimize, "_newton", counted)
    for stats, targets in _box_configs():
        minmax_pa(stats, targets)
    assert starts and max(starts) <= 64


# ROADMAP item 11: from 15 bits at default geometry both SOPs round to 1 at
# every split, so the solver brackets, crosses and selects in
# psi = log(1 - s_o) = -shift/lambda_e + log I. Each case's reference alpha
# is the psi max-min on a 20001-point grid with the 6-halving rule.
@pytest.mark.parametrize("bits,reference", [(15, 0.13325), (16, 0.14440), (20, 0.14990), (30, 0.15025)])
def test_fair_split_at_high_targets_is_the_log_survival_max_min(bits, reference):
    stats, targets = RunConfig().stats(), TargetRates(bits, bits)
    grid = np.linspace(ALPHA_MIN, ALPHA_MAX, 20001)
    users = (
        (targets.pi1, stats.lambda1, stats.lambda2, grid, 1.0 - grid),
        (targets.pi2, stats.lambda2, stats.lambda1, 1.0 - grid, grid),
    )
    psi = []
    for pi, lam, lam_int, own, other in users:
        shift = (pi - 1.0) / (own * stats.rho_t)
        # 21 blocks of about 950 columns keep the 1473-node arrays small.
        integral = np.concatenate([
            per_halving_survival_integral(pi, c, lam, lam_int, np.exp(-s / lam), halvings=6)[0]
            for c, s in zip(np.array_split(other * stats.rho_t, 21), np.array_split(shift, 21))
        ])
        psi.append(-shift / lam + np.log(integral))
    best = float(grid[np.argmax(np.minimum(*psi))])
    assert abs(best - reference) <= 1e-4
    assert abs(minmax_pa(stats, targets).selected - best) <= 2.0 * (grid[1] - grid[0])


def test_fair_split_on_a_flat_sop_set_is_the_log_survival_crossing():
    # ROADMAP item 11's box config: both SOPs lie within 1e-11 of 1, and
    # s_o1 - s_o2 reads 0 over alpha +- 1e-4, so only psi1 - psi2 places the
    # crossing. Selecting by the SOPs picked 0.3404073, 1.07e-4 from it.
    stats, targets = ChannelStats(2.819e-3, 1.167e-3, 139.26), TargetRates(2.416, 2.117)
    selected = minmax_pa(stats, targets).selected
    psi = exact_sops(stats, np.array([selected - XTOL, selected + XTOL]), targets).psi
    gap = psi[0] - psi[1]
    assert gap[0] * gap[1] < 0.0


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
    assert abs(exact.selected - optimal_pa_asymptotic(RTH1)[1]) <= 0.02


def test_selection_breaks_ties_toward_smaller_alpha():
    outcome = _select(
        Candidate(alpha=0.7, so1=0.2, so2=0.1, psi1=math.log(0.8), psi2=math.log(0.9)),
        Candidate(alpha=0.3, so1=0.1, so2=0.2, psi1=math.log(0.9), psi2=math.log(0.8)),
        None,
    )
    assert outcome.selected == 0.3


@pytest.mark.parametrize("field", ["lambda2", "rho_t", "rth1", "rth2"])
def test_a_solve_takes_one_configuration(field):
    # Array fields batch configs as columns of an SOP pass, but each solve
    # refuses them by one rule, whichever field holds the array; 0-d arrays
    # are scalars and solve as floats do.
    stats, targets = RunConfig().stats(), TargetRates(1.0, 1.0)
    if field in ("rth1", "rth2"):
        several = (stats, dataclasses.replace(targets, **{field: np.array([1.0, 2.0])}))
    else:
        several = (dataclasses.replace(stats, **{field: np.array([1.0, 0.5]) * getattr(stats, field)}), targets)
    with pytest.raises(ValueError, match="one configuration"):
        minmax_pa(*several)
    if field in ("rth1", "rth2"):
        with pytest.raises(ValueError, match="one configuration"):
            optimal_pa_asymptotic(several[1])
    scalar = (ChannelStats(*(np.array(v) for v in vars(stats).values())),
              TargetRates(*(np.array(v) for v in vars(targets).values())))
    assert minmax_pa(*scalar) == minmax_pa(stats, targets)
    assert optimal_pa_asymptotic(scalar[1]) == optimal_pa_asymptotic(targets)
