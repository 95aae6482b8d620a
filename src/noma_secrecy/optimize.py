"""Power-split optimization: per-user minima and the min-max fair point.

A user's SOP is least where phi = d/dalpha log(1 - s_o) crosses zero from
above, and sop.exact_sops gives phi and phi' at order 2, and phi'' too at
order 3, from the quadrature pass that takes both users' SOPs. One order-3
pass takes both users on a coarse curve; each user's minimizer lies in the
grid cell beside the argmin of its SOP where phi changes sign. The root of
the quintic Hermite interpolant of phi on that cell, built from phi, phi'
and phi'' at its ends, typically lies within 1e-9 of the minimizer; the
next pass evaluates it. Safeguarded Newton on phi (newton_root) then
refines the minimizers in lockstep from there, one order-2 pass of both
users at both minimizers per step, so the last pass also holds each user's
SOP at the other's minimizer. minmax_pa is the one exact solver: its near
and far candidates are each user's own optimum. Near a minimizer
phi' < 0, so Newton converges quadratically, and its first step from the
interpolant's root is usually already below the tolerance: a solve
usually takes 2 passes (2.21 on average and at most 6 on the
432-configuration test grid). phi' > 0 does occur near the window edges,
and in a low-SNR, high-rate corner the far user's SOP has two local
minima: the integrand's log-concavity in alpha (criterion 04) does not
carry over to the integral. The bracket then follows the grid's lowest
valley, and bisection keeps each step inside it.

Between the two per-user minimizers one SOP rises and the other falls, so
they cross at most once there, and the min-max fair split follows without
any search over the whole window. Each solved split is a Candidate: both
minimizers, plus the crossing between them when each minimizer leaves its
own user the better-off one. The crossing is solved as the minimizers are
(_hermite_newton), on s_o1 - s_o2 over the cell between them: its value,
slope and curvature at both ends follow from the last minimizer pass's
values, phi and phi', so its Newton iteration also starts at an
interpolant's root; a crossing adds 3.1 passes on average and at most 4
on the test grid. _select picks the candidate with the smallest max-SOP,
ties going to the smaller alpha; the closed-form solver selects by the
same rule.

High-SNR counterparts have closed forms; targets at exactly zero rate push
them onto the boundary of the admissible window and are flagged degenerate
rather than clamped.
"""
from __future__ import annotations

import math
from typing import NamedTuple, Optional

import numpy as np

from .channel import ChannelStats
from .rates import ALPHA_MAX, ALPHA_MIN
from .sop import SopValue, TargetRates, asymptotic_sop_far, asymptotic_sop_near, exact_sops

__all__ = [
    "XTOL",
    "newton_root",
    "ClosedFormAlpha",
    "optimal_pa_near_asymptotic",
    "optimal_pa_far_asymptotic",
    "equal_sop_alpha_asymptotic",
    "Candidate",
    "MinMaxOutcome",
    "minmax_pa",
    "minmax_pa_asymptotic",
]

XTOL = 1e-8  # absolute tolerance on every solved power split
# Coarse curve that brackets each minimizer. Any size works for a unimodal
# curve; 33 points keep the Newton brackets short without a costly pass.
_BRACKET_GRID = np.linspace(ALPHA_MIN, ALPHA_MAX, 33)
# The start point's root search: at most this many steps, stopping once a
# step moves less than this fraction of the cell.
_START_STEPS = 12
_START_TTOL = 1e-12


class _Bracket:
    """One column of newton_root: the bracket [lo, hi] on which f changes
    sign, and the last evaluated point x with f and its slope there."""

    def __init__(self, lo, hi, f_lo, f_hi, df_lo, df_hi, settle):
        if not all(map(math.isfinite, (lo, hi, f_lo, f_hi, df_lo, df_hi))):
            raise ValueError("root finder got a non-finite bracket end or value")
        if not lo <= hi:
            raise ValueError("need lower <= upper")
        if f_lo * f_hi > 0.0:
            raise ValueError("f must change sign on every [lower, upper]")
        self.lo, self.hi, self.lo_positive, self.settle = lo, hi, f_lo > 0.0, settle
        self.x, self.f, self.df = (lo, f_lo, df_lo) if abs(f_lo) <= abs(f_hi) else (hi, f_hi, df_hi)
        # The last two step sizes; the first two Newton steps need only stay in the bracket.
        self.last = self.before = 2.0 * (hi - lo)
        self.done = False

    def advance(self) -> bool:
        """Move x to the next point to evaluate; False once the column has stopped."""
        lo, hi = self.lo, self.hi
        if self.done or self.f == 0.0 or hi - lo <= XTOL:
            self.done = True
            return False
        d = -self.f / self.df if self.df != 0.0 else math.inf
        target = self.x + d
        # The end values may come from a pass with other columns, so a target
        # a hair outside the bracket is clipped onto its end.
        if lo - XTOL <= target <= hi + XTOL and abs(d) < 0.5 * self.before:
            if abs(d) <= 0.5 * XTOL:
                self.done = True
                if not self.settle:
                    return False
            step = min(max(target, lo), hi)
            self.last, self.before = abs(d), self.last
        else:
            step = 0.5 * (lo + hi)
            self.last, self.before = 0.5 * (hi - lo), self.last
        if step == self.x:  # a sub-XTOL step blocked by the bracket's end
            self.done = True
            return False
        self.x = step
        return True

    def update(self, f: float, df: float) -> None:
        if not (math.isfinite(f) and math.isfinite(df)):
            raise ValueError(f"root finder got a non-finite value at x={self.x!r}")
        self.f, self.df = f, df
        if (f > 0.0) == self.lo_positive:
            self.lo = self.x
        else:
            self.hi = self.x


def newton_root(evaluate, lower, upper, f_lower, f_upper, df_lower, df_upper, settle=False) -> np.ndarray:
    """Roots of one function per column by safeguarded Newton, to XTOL.

    Column j's function is f_lower[j] at lower[j] and f_upper[j] at upper[j],
    of opposite signs (or one zero), with slopes df_lower/df_upper there.
    evaluate(x) gives (f, df) at one point per column, so the columns move in
    lockstep, one call per step; the bookkeeping is per column, in floats.
    Each column starts from the end with the smaller |f| and keeps the
    bracket on which f changes sign. A Newton step that leaves the bracket,
    or is not under half the step two iterations back, is replaced by
    bisection, so every column converges.

    A column stops at a point whose Newton step is at most XTOL/2, so within
    XTOL of the root. With ``settle`` it first takes that step and evaluates
    it: Newton converges quadratically, so the point it returns then lies
    within rounding of the root, for one more call. It also stops where a
    step is blocked by the bracket's end, or once its bracket is no wider
    than XTOL. Every call to evaluate covers all columns, stopped ones at
    their final point, so the last call was made at the returned points
    unless there was none.
    """
    columns = [
        _Bracket(*map(float, ends), settle) for ends in zip(lower, upper, f_lower, f_upper, df_lower, df_upper)
    ]
    while True:
        moved = [column.advance() for column in columns]
        if not any(moved):
            return np.array([column.x for column in columns])
        f, df = evaluate(np.array([column.x for column in columns]))
        for column, move, f_j, df_j in zip(columns, moved, f.tolist(), df.tolist()):
            if move:
                column.update(f_j, df_j)


def _hermite_start(lo, hi, f_lo, f_hi, df_lo, df_hi, d2f_lo, d2f_hi) -> float:
    """Root in [lo, hi] of the quintic Hermite interpolant of f on that cell.

    The interpolant matches f, f' and f'' at both ends, so where f is smooth
    its root lies O((hi - lo)**6) from f's. f_lo and f_hi have opposite signs
    (or one is zero). A few safeguarded Newton steps from the secant point,
    in cell units t = (x - lo)/(hi - lo), keep the bracket on which the
    interpolant changes sign and bisect it where a step would leave it, so
    the point returned lies in [lo, hi] whatever the derivatives say.
    """
    w = hi - lo
    d0, s0 = w * df_lo, w * w * d2f_lo
    # p(t) = f_lo + d0*t + s0/2*t^2 + c3*t^3 + c4*t^4 + c5*t^5; the value,
    # slope and curvature it must still gain by t = 1 fix c3, c4 and c5.
    a = f_hi - f_lo - d0 - 0.5 * s0
    b = w * df_hi - d0 - s0
    c = w * w * d2f_hi - s0
    c3 = 10.0 * a - 4.0 * b + 0.5 * c
    c4 = -15.0 * a + 7.0 * b - c
    c5 = 6.0 * a - 3.0 * b + 0.5 * c
    c2 = 0.5 * s0
    t_lo, t_hi, lo_positive = 0.0, 1.0, f_lo > 0.0
    t = f_lo / (f_lo - f_hi)
    for _ in range(_START_STEPS):
        p = ((((c5 * t + c4) * t + c3) * t + c2) * t + d0) * t + f_lo
        dp = (((5.0 * c5 * t + 4.0 * c4) * t + 3.0 * c3) * t + 2.0 * c2) * t + d0
        if p == 0.0:
            break
        if (p > 0.0) == lo_positive:
            t_lo = t
        else:
            t_hi = t
        step = t - p / dp if dp != 0.0 else math.inf
        if not t_lo < step < t_hi:
            step = 0.5 * (t_lo + t_hi)
        moved, t = abs(step - t), step
        if moved <= _START_TTOL:
            break
    return min(max(lo + w * t, lo), hi)


def _hermite_newton(cells, evaluate, fields, settle=False):
    """Roots of one function per cell, and the last pass made.

    Each cell is (lo, hi, f_lo, f_hi, df_lo, df_hi, d2f_lo, d2f_hi).
    evaluate(x) makes one pass at one point per cell, and fields(pass) gives
    f and its slope at those points. The first pass takes each cell's
    _hermite_start; the cell narrows to the start on the side where f
    changes sign, and newton_root refines the roots in lockstep from there.
    """
    last = None

    def step(x):
        nonlocal last
        last = evaluate(x)
        return fields(last)

    start = [_hermite_start(*cell) for cell in cells]
    f, df = step(np.array(start))
    brackets = [
        (x, b, fx, fb, dfx, dfb) if (fx > 0.0) == (fa > 0.0) else (a, x, fa, fx, dfa, dfx)
        for (a, b, fa, fb, dfa, dfb, _, _), x, fx, dfx in zip(cells, start, f.tolist(), df.tolist())
    ]
    return newton_root(step, *zip(*brackets), settle=settle), last


def _minima(stats: ChannelStats, targets: TargetRates):
    """Minimizers of both users' SOPs (0 near, 1 far), refined in lockstep.

    One pass takes both users on the bracket grid. Each user's minimizer
    lies beside the grid argmin of its SOP, on the side phi points to, and
    is the root of phi in that cell unless the argmin is a window edge;
    _hermite_newton refines those roots, and Newton usually stops at their
    start points. Each pass after the grid's takes both users at both
    current minimizers, so the last one also holds each user's SOP at the
    other's minimizer. Returns the minimizers and that pass, a SopValue of
    (user, minimizer) arrays.
    """
    grid = _BRACKET_GRID
    on_grid = exact_sops(stats, grid, targets, order=3)
    i = np.argmin(on_grid.value, axis=1)
    points = grid[i]
    alphas = grid.tolist()
    phi, dphi, d2phi = (v.tolist() for v in on_grid[2:])
    cells, refined = [], []  # each refined cell's ends, and its user
    for user, k in enumerate(i.tolist()):
        f = phi[user]
        j = min(max(k + 1 if f[k] > 0.0 else k - 1, 0), grid.size - 1)
        if j != k and f[k] != 0.0 and f[k] * f[j] <= 0.0:
            lo, hi = min(k, j), max(k, j)
            cells.append((alphas[lo], alphas[hi], f[lo], f[hi], dphi[user][lo], dphi[user][hi],
                          d2phi[user][lo], d2phi[user][hi]))
            refined.append(user)
    if not cells:  # no pass after the grid's: every minimizer is a grid node
        return points, SopValue(*(v[:, i] for v in on_grid))

    def evaluate(x):
        points[refined] = x
        return exact_sops(stats, points, targets, order=2)

    points[refined], last = _hermite_newton(
        cells, evaluate, lambda sops: (sops.phi[refined, refined], sops.dphi[refined, refined])
    )
    return points, last


class Candidate(NamedTuple):
    """A solved power split and both users' SOPs there."""

    alpha: float
    so1: float
    so2: float

    @property
    def max_sop(self) -> float:
        return max(self.so1, self.so2)


class ClosedFormAlpha(NamedTuple):
    alpha: float
    degenerate: bool  # True when the formula leaves the admissible open window


def optimal_pa_near_asymptotic(targets: TargetRates) -> ClosedFormAlpha:
    """Closed-form high-SNR minimizer of the near user's SOP.

    Independent of the channel statistics and the SNR; depends on the target
    rate only. A zero target rate collapses it onto alpha = 0.
    """
    pi1 = targets.pi1
    if pi1 == 1.0:
        return ClosedFormAlpha(0.0, True)
    return ClosedFormAlpha(-(pi1 - 1.0) + math.sqrt(pi1 * (pi1 - 1.0)), False)


def optimal_pa_far_asymptotic(targets: TargetRates) -> ClosedFormAlpha:
    """Closed-form high-SNR minimizer of the far user's SOP."""
    pi2 = targets.pi2
    if pi2 == 1.0:
        return ClosedFormAlpha(1.0, True)
    return ClosedFormAlpha(pi2 - math.sqrt(pi2 * (pi2 - 1.0)), False)


def equal_sop_alpha_asymptotic(stats: ChannelStats, targets: TargetRates) -> ClosedFormAlpha:
    """Closed-form high-SNR equal-SOP power split; may land outside (0, 1)."""
    lam1, lam2 = stats.lambda1, stats.lambda2
    alpha3 = (targets.pi2 * lam1 + lam2 * (1.0 - targets.pi1)) / (lam1 + lam2)
    return ClosedFormAlpha(alpha3, not (ALPHA_MIN <= alpha3 <= ALPHA_MAX))


class MinMaxOutcome(NamedTuple):
    """The fair split and its max-SOP, with the candidates it was picked from;
    crossing is None when no crossing was needed or exists."""

    selected: float
    objective: float
    near: Optional[Candidate]
    far: Optional[Candidate]
    crossing: Optional[Candidate]


def _select(near: Optional[Candidate], far: Optional[Candidate], crossing: Optional[Candidate]) -> MinMaxOutcome:
    """The candidate with the smallest max-SOP; ties break toward the smaller
    alpha so reruns are reproducible. None marks a missing candidate."""
    pool = [c for c in (near, far, crossing) if c is not None]
    if not pool:
        raise RuntimeError("no feasible power-split candidate to select from")
    best = min(pool, key=lambda c: (c.max_sop, c.alpha))
    return MinMaxOutcome(best.alpha, best.max_sop, near, far, crossing)


def minmax_pa(stats: ChannelStats, targets: TargetRates) -> MinMaxOutcome:
    """Global min-max fair power split over the exact SOPs.

    If s_o1 >= s_o2 at the near user's minimizer alpha1, the max there is
    the least s_o1 of any split, so no split does better; likewise for the
    far user's minimizer alpha2. Otherwise s_o1 < s_o2 at alpha1 and
    s_o2 < s_o1 at alpha2, and the optimum is the single crossing between
    them; only then is the crossing solved and added to the candidates.
    """
    alpha, at = _minima(stats, targets)
    near, far = (Candidate(a, *sops) for a, sops in zip(alpha.tolist(), at.value.T.tolist()))
    crossing = None
    if near.so1 < near.so2 and far.so2 < far.so1:
        # Between the minimizers s_o1 - s_o2 is monotone. With
        # s_o' = -(1 - s_o)*phi and s_o'' = -(1 - s_o)*(phi^2 + phi'), its
        # slope and curvature follow from each pass's phi and dphi.
        def gap(sops: SopValue):
            (so1, so2), (phi1, phi2), (dphi1, dphi2) = sops.value, sops.phi, sops.dphi
            return (so1 - so2, (1.0 - so2) * phi2 - (1.0 - so1) * phi1,
                    (1.0 - so2) * (phi2 * phi2 + dphi2) - (1.0 - so1) * (phi1 * phi1 + dphi1))

        ends = [0, 1] if near.alpha < far.alpha else [1, 0]
        cell = [float(v) for field in (alpha, *gap(at)) for v in field[ends]]
        # Its objective moves to first order with alpha, so the root is settled.
        root, last = _hermite_newton([cell], lambda x: exact_sops(stats, x, targets, order=2),
                                     lambda sops: gap(sops)[:2], settle=True)
        crossing = Candidate(float(root[0]), *last.value[:, 0].tolist())
    return _select(near, far, crossing)


def minmax_pa_asymptotic(stats: ChannelStats, targets: TargetRates) -> MinMaxOutcome:
    """Min-max fair power split over the high-SNR SOP approximations.

    Degenerate or out-of-window closed forms are dropped before selection;
    with both target rates zero the crossing candidate always survives.
    """
    def admit(form: ClosedFormAlpha) -> Optional[Candidate]:
        if form.degenerate or not (ALPHA_MIN <= form.alpha <= ALPHA_MAX):
            return None
        return Candidate(form.alpha, asymptotic_sop_near(stats, form.alpha, targets),
                         asymptotic_sop_far(stats, form.alpha, targets))

    return _select(
        admit(optimal_pa_near_asymptotic(targets)),
        admit(optimal_pa_far_asymptotic(targets)),
        admit(equal_sop_alpha_asymptotic(stats, targets)),
    )
