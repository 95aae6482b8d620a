"""Power-split optimization: per-user minima and the min-max fair point.

A user's SOP is least where phi = d/dalpha log(1 - s_o) crosses zero from
above, and sop.exact_sops gives phi and phi' at order 2, and phi'' too at
order 3, from the quadrature pass that takes both users' SOPs. One order-3
pass takes both users on a coarse curve; each user's minimizer lies in the
grid cell beside the argmin of its SOP where phi changes sign. The root of
the quintic Hermite interpolant of phi on that cell, built from phi, phi'
and phi'' at its ends, typically lies within 1e-9 of the minimizer. One
lockstep loop, _refine, evaluates those start points in the next pass,
narrows each cell to its start and refines the minimizers by safeguarded
Newton on phi, one order-2 pass of both users at both minimizers per step,
so the last pass also holds each user's SOP at the other's minimizer.
minmax_pa is the one exact solver: its near and far candidates are each
user's own optimum. Near a minimizer phi' < 0, so Newton converges
quadratically, and its first step from the interpolant's root is usually
already below the tolerance: a solve usually takes 2 passes (2.21 on
average and at most 6 on the 432-configuration test grid). phi' > 0 does
occur near the window edges, and in a low-SNR, high-rate corner the far
user's SOP has two local minima: the integrand's log-concavity in alpha
(criterion 04) does not carry over to the integral. The bracket then
follows the grid's lowest valley, and bisection keeps each step inside it.

Between the two per-user minimizers one SOP rises and the other falls, so
they cross at most once there, and the min-max fair split follows without
any search over the whole window. Each solved split is a Candidate: both
minimizers, plus the crossing between them when each minimizer leaves its
own user the better-off one. The crossing is solved by the same loop, on
s_o1 - s_o2 over the cell between them: its value, slope and curvature at
both ends follow from the last minimizer pass's values, phi and phi', so
its Newton iteration also starts at an interpolant's root; a crossing
adds 3.1 passes on average and at most 4 on the test grid. _select picks
the candidate with the smallest max-SOP, ties going to the smaller alpha.

Each user's high-SNR SOP has a closed-form minimizer that depends on its
target rate only; optimal_pa_asymptotic returns both. They are returned
unclamped: a zero target rate puts them on the window's boundary, 0 for the
near user and 1 for the far user.
"""
from __future__ import annotations

import math
from typing import NamedTuple, Optional

import numpy as np

from .channel import ChannelStats
from .rates import ALPHA_MAX, ALPHA_MIN
from .sop import SopValue, TargetRates, exact_sops

__all__ = [
    "XTOL",
    "optimal_pa_asymptotic",
    "Candidate",
    "MinMaxOutcome",
    "minmax_pa",
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
    """One column of _refine: the bracket [lo, hi] on which f changes sign,
    and the last evaluated point x with f and its slope there. Its first
    point is its cell's _hermite_start; cell is None from then on."""

    def __init__(self, cell, settle):
        self.cell, self.settle, self.done = cell, settle, False
        self._restart(*cell[:6])

    def _restart(self, lo, hi, f_lo, f_hi, df_lo, df_hi):
        """Newton on [lo, hi] from the end with the smaller |f|."""
        if not all(map(math.isfinite, (lo, hi, f_lo, f_hi, df_lo, df_hi))):
            raise ValueError("root finder got a non-finite bracket end or value")
        if not lo <= hi:
            raise ValueError("need lower <= upper")
        if f_lo * f_hi > 0.0:
            raise ValueError("f must change sign on every [lower, upper]")
        self.lo, self.hi, self.lo_positive = lo, hi, f_lo > 0.0
        self.x, self.f, self.df = (lo, f_lo, df_lo) if abs(f_lo) <= abs(f_hi) else (hi, f_hi, df_hi)
        # The last two step sizes; the first two Newton steps need only stay in the bracket.
        self.last = self.before = 2.0 * (hi - lo)

    def advance(self) -> bool:
        """Move x to the next point to evaluate; False once the column has stopped."""
        if self.cell is not None:  # the start is always evaluated
            self.x = _hermite_start(*self.cell)
            return True
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
        if self.cell is not None:  # the start: narrow the cell to it
            lo, hi, f_lo, f_hi, df_lo, df_hi = self.cell[:6]
            self.cell = None
            if (f > 0.0) == self.lo_positive:
                self._restart(self.x, hi, f, f_hi, df, df_hi)
            else:
                self._restart(lo, self.x, f_lo, f, df_lo, df)
            return
        self.f, self.df = f, df
        if (f > 0.0) == self.lo_positive:
            self.lo = self.x
        else:
            self.hi = self.x


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


def _refine(cells, evaluate, fields, settle=False):
    """Roots of one function per cell by safeguarded Newton, to XTOL, and
    the last pass made.

    Each cell is (lo, hi, f_lo, f_hi, df_lo, df_hi, d2f_lo, d2f_hi), with f
    of opposite signs (or one zero) at its ends. evaluate(x) makes one pass
    at one point per cell, so the columns move in lockstep, and fields(pass)
    gives f and its slope there; the bookkeeping is per column, in floats.
    The first pass takes each cell's _hermite_start, and the cell narrows to
    it on the side where f changes sign. Newton then starts from the
    narrowed end with the smaller |f|. A step that leaves the bracket, or is
    not under half the step two iterations back, is replaced by bisection,
    so every column converges.

    A column stops at a point whose Newton step is at most XTOL/2, so within
    XTOL of the root. With ``settle`` it first takes that step and evaluates
    it: Newton converges quadratically, so the point it returns then lies
    within rounding of the root, for one more pass. It also stops where a
    step is blocked by the bracket's end, or once its bracket is no wider
    than XTOL. Every pass covers all columns, stopped ones at their final
    point, so the last pass was made at the returned points.
    """
    columns = [_Bracket(cell, settle) for cell in cells]
    last = None
    while True:
        moved = [column.advance() for column in columns]
        if not any(moved):
            return np.array([column.x for column in columns]), last
        last = evaluate(np.array([column.x for column in columns]))
        f, df = fields(last)
        for column, move, f_j, df_j in zip(columns, moved, f.tolist(), df.tolist()):
            if move:
                column.update(f_j, df_j)


def _minima(stats: ChannelStats, targets: TargetRates):
    """Minimizers of both users' SOPs (0 near, 1 far), refined in lockstep.

    One pass takes both users on the bracket grid. Each user's minimizer
    lies beside the grid argmin of its SOP, on the side phi points to, and
    is the root of phi in that cell unless the argmin is a window edge;
    _refine finds those roots, and Newton usually stops at its start
    points. Each pass after the grid's takes both users at both
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

    points[refined], last = _refine(
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


def optimal_pa_asymptotic(targets: TargetRates) -> tuple:
    """Closed-form high-SNR minimizers (alpha1_hat, alpha2_hat) of the near
    and far users' SOPs.

    Independent of the channel statistics and the SNR; each depends on its
    user's target rate only. The roots sqrt(pi*(pi - 1)) - (pi - 1) and
    pi - sqrt(pi*(pi - 1)) are rationalized to s/(r + s) and r/(r + s), with
    r = sqrt(pi) and s = sqrt(pi - 1), so that they neither cancel nor
    overflow. A zero target rate collapses the near user's onto alpha = 0
    and the far user's onto alpha = 1.
    """
    r1, s1 = math.sqrt(targets.pi1), math.sqrt(targets.pi1 - 1.0)
    r2, s2 = math.sqrt(targets.pi2), math.sqrt(targets.pi2 - 1.0)
    return s1 / (r1 + s1), r2 / (r2 + s2)


class MinMaxOutcome(NamedTuple):
    """The fair split and its max-SOP, with the candidates it was picked from;
    crossing is None when no crossing was needed or exists."""

    selected: float
    objective: float
    near: Candidate
    far: Candidate
    crossing: Optional[Candidate]


def _select(near: Candidate, far: Candidate, crossing: Optional[Candidate]) -> MinMaxOutcome:
    """The candidate with the smallest max-SOP; ties break toward the smaller
    alpha so reruns are reproducible. A crossing of None takes no part."""
    pool = [c for c in (near, far, crossing) if c is not None]
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
        root, last = _refine([cell], lambda x: exact_sops(stats, x, targets, order=2),
                             lambda sops: gap(sops)[:2], settle=True)
        crossing = Candidate(float(root[0]), *last.value[:, 0].tolist())
    return _select(near, far, crossing)
