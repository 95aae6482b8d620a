"""Power-split optimization: per-user minima and the min-max fair point.

Each user's exact SOP is unimodal in alpha (criterion 04 checks the
log-concavity behind this). A coarse vectorised curve therefore brackets
each minimizer between the grid neighbours of its argmin, and Brent's
minimizer (Brent 1973, "Algorithms for Minimization without Derivatives")
refines it inside that bracket.

Between the two per-user minimizers one SOP rises and the other falls, so
they cross at most once there, and the min-max fair split follows without
any search over the whole window: it is the near user's minimizer when the
near user is the worse-off one there, else the far user's minimizer when
the far user is the worse-off one there, else the unique crossing between
the two, found by the Brent-Dekker root finder.

High-SNR counterparts have closed forms; targets at exactly zero rate push
them onto the boundary of the admissible window and are flagged degenerate
rather than clamped.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional

import numpy as np

from .channel import ChannelStats
from .rates import ALPHA_MAX, ALPHA_MIN
from .sop import (
    TargetRates,
    asymptotic_sop_far,
    asymptotic_sop_near,
    exact_sop_far,
    exact_sop_near,
)

__all__ = [
    "XTOL",
    "Minimum",
    "brent_minimize",
    "brent_root",
    "optimal_pa_near",
    "optimal_pa_far",
    "ClosedFormAlpha",
    "optimal_pa_near_asymptotic",
    "optimal_pa_far_asymptotic",
    "equal_sop_alpha_asymptotic",
    "Candidate",
    "CandidateSet",
    "MinMaxOutcome",
    "minmax_pa",
    "minmax_pa_asymptotic",
]

XTOL = 1e-8  # absolute tolerance on every solved power split
# Coarse curve that brackets each minimizer. Any size works for a unimodal
# curve; 33 points keeps the Brent brackets short without a costly curve.
_BRACKET_GRID = np.linspace(ALPHA_MIN, ALPHA_MAX, 33)
_GOLDEN = 0.5 * (3.0 - math.sqrt(5.0))  # golden-section step, 0.381966...
_SQRT_EPS = math.sqrt(np.finfo(float).eps)
_EPS = float(np.finfo(float).eps)


class Minimum(NamedTuple):
    alpha: float
    value: float


def _finite(objective: Callable[[float], float]) -> Callable[[float], float]:
    def evaluate(x: float) -> float:
        v = float(objective(x))
        if not math.isfinite(v):
            raise ValueError(f"objective returned non-finite value {v!r} at alpha={x:.8g}")
        return v

    return evaluate


def brent_minimize(
    objective: Callable[[float], float],
    lower: float = ALPHA_MIN,
    upper: float = ALPHA_MAX,
) -> Minimum:
    """Minimum of a unimodal objective on [lower, upper] by Brent's method, to XTOL.

    Golden-section steps safeguard parabolic interpolation, so the bracket
    shrinks at least geometrically and superlinearly near a smooth minimum.
    The ends themselves are never evaluated; a minimum on an end is
    approached to within the tolerance.
    """
    if not lower < upper:
        raise ValueError("need lower < upper")
    f = _finite(objective)
    a, b = lower, upper
    x = w = v = a + _GOLDEN * (b - a)
    fx = fw = fv = f(x)
    d = e = 0.0
    while True:
        xm = 0.5 * (a + b)
        tol1 = _SQRT_EPS * abs(x) + XTOL / 3.0
        tol2 = 2.0 * tol1
        if abs(x - xm) <= tol2 - 0.5 * (b - a):
            return Minimum(alpha=x, value=fx)
        golden = True
        if abs(e) > tol1:
            # Parabola through (v, fv), (w, fw), (x, fx); accept its vertex
            # only if it falls inside the bracket and the step shrinks.
            r = (x - w) * (fx - fv)
            q = (x - v) * (fx - fw)
            p = (x - v) * q - (x - w) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            if abs(p) < abs(0.5 * q * e) and q * (a - x) < p < q * (b - x):
                e, d = d, p / q
                u = x + d
                if u - a < tol2 or b - u < tol2:
                    d = math.copysign(tol1, xm - x)
                golden = False
        if golden:
            e = (a - x) if x >= xm else (b - x)
            d = _GOLDEN * e
        u = x + d if abs(d) >= tol1 else x + math.copysign(tol1, d)
        fu = f(u)
        if fu <= fx:
            if u >= x:
                a = x
            else:
                b = x
            v, fv, w, fw, x, fx = w, fw, x, fx, u, fu
        else:
            if u < x:
                a = u
            else:
                b = u
            if fu <= fw or w == x:
                v, fv, w, fw = w, fw, u, fu
            elif fu <= fv or v == x or v == w:
                v, fv = u, fu


def brent_root(
    g: Callable[[float], float],
    lower: float,
    upper: float,
    g_lower: float,
    g_upper: float,
) -> float:
    """Root of g on [lower, upper] by the Brent-Dekker method, to XTOL.

    The caller passes g at both ends, which must differ in sign (or one be
    zero). Inverse quadratic and secant steps are taken while they shrink the
    bracket fast enough, bisection otherwise, so convergence is guaranteed.
    """
    if g_lower * g_upper > 0.0:
        raise ValueError("g must change sign on [lower, upper]")
    f = _finite(g)
    a, fa, b, fb = lower, g_lower, upper, g_upper
    c, fc = a, fa
    d = e = b - a
    while True:
        if fb * fc > 0.0:
            c, fc = a, fa
            d = e = b - a
        if abs(fc) < abs(fb):
            a, b, c = b, c, b
            fa, fb, fc = fb, fc, fb
        tol1 = 2.0 * _EPS * abs(b) + 0.5 * XTOL
        xm = 0.5 * (c - b)
        if abs(xm) <= tol1 or fb == 0.0:
            return b
        if abs(e) >= tol1 and abs(fa) > abs(fb):
            s = fb / fa
            if a == c:
                p = 2.0 * xm * s
                q = 1.0 - s
            else:
                q = fa / fc
                r = fb / fc
                p = s * (2.0 * xm * q * (q - r) - (b - a) * (r - 1.0))
                q = (q - 1.0) * (r - 1.0) * (s - 1.0)
            if p > 0.0:
                q = -q
            p = abs(p)
            if 2.0 * p < min(3.0 * xm * q - abs(tol1 * q), abs(e * q)):
                e, d = d, p / q
            else:
                d = e = xm
        else:
            d = e = xm
        a, fa = b, fb
        b += d if abs(d) > tol1 else math.copysign(tol1, xm)
        fb = f(b)


def _sop_minimum(sop, stats: ChannelStats, targets: TargetRates) -> Minimum:
    """Minimum of a unimodal SOP: grid bracket, then Brent refinement inside it."""
    grid = _BRACKET_GRID
    curve = sop(stats, grid, targets).value
    i = int(np.argmin(curve))
    found = brent_minimize(
        lambda a: sop(stats, a, targets).value,
        float(grid[max(i - 1, 0)]),
        float(grid[min(i + 1, grid.size - 1)]),
    )
    # Brent never evaluates its bracket's ends, so a minimum at the window
    # edge is kept as the grid node itself.
    if curve[i] < found.value:
        return Minimum(alpha=float(grid[i]), value=float(curve[i]))
    return found


def optimal_pa_near(stats: ChannelStats, targets: TargetRates) -> Minimum:
    """Power split minimizing the near user's exact SOP."""
    return _sop_minimum(exact_sop_near, stats, targets)


def optimal_pa_far(stats: ChannelStats, targets: TargetRates) -> Minimum:
    """Power split minimizing the far user's exact SOP."""
    return _sop_minimum(exact_sop_far, stats, targets)


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


def _sop_gap(stats: ChannelStats, targets: TargetRates) -> Callable[[float], float]:
    def g(a: float) -> float:
        return exact_sop_near(stats, a, targets).value - exact_sop_far(stats, a, targets).value

    return g


def equal_sop_alpha_asymptotic(stats: ChannelStats, targets: TargetRates) -> ClosedFormAlpha:
    """Closed-form high-SNR equal-SOP power split; may land outside (0, 1)."""
    lam1, lam2 = stats.lambda1, stats.lambda2
    alpha3 = (targets.pi2 * lam1 + lam2 * (1.0 - targets.pi1)) / (lam1 + lam2)
    return ClosedFormAlpha(alpha3, not (ALPHA_MIN <= alpha3 <= ALPHA_MAX))


@dataclass(frozen=True)
class Candidate:
    alpha: float
    so1: float
    so2: float

    @property
    def max_sop(self) -> float:
        return max(self.so1, self.so2)


@dataclass(frozen=True)
class CandidateSet:
    """Stationary candidates; alpha3 is None when no crossing was needed or exists."""

    alpha1: Optional[Candidate]
    alpha2: Optional[Candidate]
    alpha3: Optional[Candidate]

    def present(self) -> list:
        return [c for c in (self.alpha1, self.alpha2, self.alpha3) if c is not None]


@dataclass(frozen=True)
class MinMaxOutcome:
    candidates: CandidateSet
    selected: float
    objective: float


def _select(candidates: CandidateSet) -> MinMaxOutcome:
    pool = candidates.present()
    if not pool:
        raise RuntimeError("no feasible power-split candidate to select from")
    # Ties break toward the smaller alpha so reruns are reproducible.
    best = min(pool, key=lambda c: (c.max_sop, c.alpha))
    return MinMaxOutcome(candidates=candidates, selected=best.alpha, objective=best.max_sop)


def minmax_pa(stats: ChannelStats, targets: TargetRates) -> MinMaxOutcome:
    """Global min-max fair power split over the exact SOPs.

    If s_o1 >= s_o2 at the near user's minimizer alpha1, the max there is
    the least s_o1 of any split, so no split does better; likewise for the
    far user's minimizer alpha2. Otherwise s_o1 < s_o2 at alpha1 and
    s_o2 < s_o1 at alpha2, and the optimum is the single crossing between
    them. The candidate set records both minimizers, and the crossing only
    when it was needed.
    """
    min1 = optimal_pa_near(stats, targets)
    min2 = optimal_pa_far(stats, targets)
    near = Candidate(min1.alpha, so1=min1.value, so2=exact_sop_far(stats, min1.alpha, targets).value)
    far = Candidate(min2.alpha, so1=exact_sop_near(stats, min2.alpha, targets).value, so2=min2.value)
    crossing = None
    if near.so1 >= near.so2:
        best = near
    elif far.so2 >= far.so1:
        best = far
    else:
        ends = sorted((near, far), key=lambda c: c.alpha)
        root = brent_root(
            _sop_gap(stats, targets),
            ends[0].alpha,
            ends[1].alpha,
            ends[0].so1 - ends[0].so2,
            ends[1].so1 - ends[1].so2,
        )
        crossing = best = Candidate(
            root,
            so1=exact_sop_near(stats, root, targets).value,
            so2=exact_sop_far(stats, root, targets).value,
        )
    return MinMaxOutcome(
        candidates=CandidateSet(alpha1=near, alpha2=far, alpha3=crossing),
        selected=best.alpha,
        objective=best.max_sop,
    )


def minmax_pa_asymptotic(stats: ChannelStats, targets: TargetRates) -> MinMaxOutcome:
    """Min-max fair power split over the high-SNR SOP approximations.

    Degenerate or out-of-window closed forms are dropped before selection;
    with both target rates zero the crossing candidate always survives.
    """
    def evaluate(alpha: float) -> Candidate:
        return Candidate(
            alpha=alpha,
            so1=asymptotic_sop_near(stats, alpha, targets),
            so2=asymptotic_sop_far(stats, alpha, targets),
        )

    def admit(form: ClosedFormAlpha) -> Optional[Candidate]:
        if form.degenerate or not (ALPHA_MIN <= form.alpha <= ALPHA_MAX):
            return None
        return evaluate(form.alpha)

    return _select(
        CandidateSet(
            alpha1=admit(optimal_pa_near_asymptotic(targets)),
            alpha2=admit(optimal_pa_far_asymptotic(targets)),
            alpha3=admit(equal_sop_alpha_asymptotic(stats, targets)),
        ),
    )
