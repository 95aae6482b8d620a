"""Power-split optimization: per-user minima and the min-max fair point.

Every decision reads psi = log(1 - s_o), which each SOP pass returns, and
its alpha-derivatives phi = psi', phi' and phi'', which the pass's slopes
give at any list of its columns. psi keeps its digits where s_o rounds to
1, as it does from about 15-bit target rates at default geometry. A user's
SOP is least where psi is greatest, where phi crosses zero from above.

minmax_pa is the one exact solver. One pass takes both users on a coarse
grid and gives every cell to refine: each user's minimizer lies in the
cell beside its grid argmax of psi where phi changes sign, and the min-max
crossing in a cell where psi1 - psi2 changes sign. The pass's psi picks
those cells; phi, phi' and phi'' come from moments the pass then takes at
the nodes they can use alone, 6 of its 66 columns at defaults. One
safeguarded Newton, _newton, does every root search. It first finds the
root of the quintic Hermite interpolant of f on each cell, built from f,
f' and f'' at its ends, which typically lies within 1e-9 of f's. One
lockstep loop, _refine, evaluates those start points in the next pass,
narrows each cell to its start and runs _newton again on f itself, one
pass of both users per step with phi and phi' at every column, so the
last pass holds both users' SOPs at every candidate. Near a minimizer
phi' < 0, so Newton converges quadratically, and its first step from the
interpolant's root is usually already below the tolerance; a crossing's
objective moves to first order with alpha, so its root is settled by one
more step. A solve takes 2.13 passes on average and at most 3 on the
432-configuration test grid, and a crossing config 3. phi' > 0 does occur
near the window edges, and in a low-SNR, high-rate corner the far user's
SOP has two local minima: the integrand's log-concavity in alpha
(criterion 04) does not carry over to the integral. The bracket then
follows the grid's best valley, and bisection keeps each step inside it.

Between the two per-user minimizers one psi rises and the other falls, so
psi1 - psi2 is monotone there, and the min-max fair split follows without
any search over the whole window. Each solved split is a Candidate: both
minimizers, plus the root of psi1 - psi2 between them if there is one.
_select picks the candidate with the largest min(psi1, psi2), so the
smallest max-SOP, ties going to the smaller alpha.

Each user's high-SNR SOP has a closed-form minimizer that depends on its
target rate only; optimal_pa_asymptotic returns both. They are returned
unclamped: a zero target rate puts them on the window's boundary, 0 for the
near user and 1 for the far user.
"""
from __future__ import annotations

import math
from typing import NamedTuple, Optional

import numpy as np

from .channel import ChannelStats, _one_config
from .rates import ALPHA_MAX, ALPHA_MIN
from .sop import TargetRates, _sops_and_slopes

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
# The start point's root search stops once a step moves less than this
# fraction of the cell.
_START_TTOL = 1e-12


def _check(lo, hi, f_lo, f_hi, df_lo, df_hi):
    if not all(map(math.isfinite, (lo, hi, f_lo, f_hi, df_lo, df_hi))):
        raise ValueError("root finder got a non-finite bracket end or value")
    if not lo <= hi:
        raise ValueError("need lower <= upper")
    if f_lo * f_hi > 0.0:
        raise ValueError("f must change sign on every [lower, upper]")


def _newton(lo, hi, f_lo, f_hi, df_lo, df_hi, tol, settle=False):
    """Safeguarded Newton (rtsafe) for the root of f on [lo, hi], where f
    changes sign: a generator that yields each point to evaluate, is sent
    (f, f') there, and returns its last point.

    Newton starts from the end with the smaller |f|. The end values may come
    from another evaluation of f, so a target within tol of the bracket is
    clipped onto its end. A step that leaves the bracket, or is not under
    half the step two iterations back, is replaced by bisection, so the
    search converges whatever the slopes say.

    It stops at a point whose Newton step is at most tol/2, so within tol of
    the root. With settle it first takes that step and evaluates it: Newton
    converges quadratically, so the point it returns then lies within
    rounding of the root. It also stops where a step is blocked by the
    bracket's end, or once its bracket is no wider than tol.
    """
    lo_positive = f_lo > 0.0
    x, f, df = (lo, f_lo, df_lo) if abs(f_lo) <= abs(f_hi) else (hi, f_hi, df_hi)
    # The last two step sizes; the first two Newton steps need only stay in the bracket.
    last = before = 2.0 * (hi - lo)
    done = False
    while not done and f != 0.0 and hi - lo > tol:
        d = -f / df if df != 0.0 else math.inf
        target = x + d
        if lo - tol <= target <= hi + tol and abs(d) < 0.5 * before:
            if abs(d) <= 0.5 * tol:
                if not settle:
                    break
                done = True
            step = min(max(target, lo), hi)
            last, before = abs(d), last
        else:
            step = 0.5 * (lo + hi)
            last, before = 0.5 * (hi - lo), last
        if step == x:  # a sub-tol step blocked by the bracket's end
            break
        x = step
        f, df = yield x
        if not (math.isfinite(f) and math.isfinite(df)):
            raise ValueError(f"root finder got a non-finite value at x={x!r}")
        if (f > 0.0) == lo_positive:
            lo = x
        else:
            hi = x
    return x


def _hermite_start(lo, hi, f_lo, f_hi, df_lo, df_hi, d2f_lo, d2f_hi) -> float:
    """Root in [lo, hi] of the quintic Hermite interpolant of f on that cell.

    The interpolant matches f, f' and f'' at both ends, so where f is smooth
    its root lies O((hi - lo)**6) from f's. f_lo and f_hi have opposite signs
    (or one is zero). _newton finds it in cell units t = (x - lo)/(hi - lo),
    to _START_TTOL, so the point returned lies in [lo, hi] whatever the
    derivatives say.
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
    search = _newton(0.0, 1.0, f_lo, f_hi, d0, w * df_hi, _START_TTOL)
    try:
        t = next(search)
        while True:
            p = ((((c5 * t + c4) * t + c3) * t + c2) * t + d0) * t + f_lo
            dp = (((5.0 * c5 * t + 4.0 * c4) * t + 3.0 * c3) * t + 2.0 * c2) * t + d0
            t = search.send((p, dp))
    except StopIteration as stop:
        t = stop.value
    return min(max(lo + w * t, lo), hi)


def _column(cell, settle):
    """One column of _refine, as a generator like _newton: the cell's
    _hermite_start, then _newton to XTOL on the piece of the cell beside it
    where f changes sign."""
    lo, hi, f_lo, f_hi, df_lo, df_hi = cell[:6]
    _check(lo, hi, f_lo, f_hi, df_lo, df_hi)
    x = _hermite_start(*cell)
    f, df = yield x
    if (f > 0.0) == (f_lo > 0.0):
        lo, f_lo, df_lo = x, f, df
    else:
        hi, f_hi, df_hi = x, f, df
    _check(lo, hi, f_lo, f_hi, df_lo, df_hi)
    return (yield from _newton(lo, hi, f_lo, f_hi, df_lo, df_hi, XTOL, settle))


def _refine(cells, evaluate, fields, settle):
    """Roots of one function per cell by _column, to XTOL, and the last
    pass made.

    Each cell is (lo, hi, f_lo, f_hi, df_lo, df_hi, d2f_lo, d2f_hi), with f
    of opposite signs (or one zero) at its ends, and settle holds one flag
    per cell. evaluate(x) makes one pass at the list x of one point per
    cell, so the columns move in lockstep, and fields(pass) gives f and its
    slope there, one value per column; the bookkeeping is per column, in
    floats. The first pass takes each cell's _hermite_start. Every pass
    covers all columns, stopped ones at their final point, so the last pass
    was made at the returned points.
    """
    columns = [_column(cell, flag) for cell, flag in zip(cells, settle)]
    x = [next(column) for column in columns]  # the starts are always evaluated
    moving = dict(enumerate(columns))
    last = None
    while moving:
        last = evaluate(x)
        f, df = fields(last)
        for i, column in list(moving.items()):
            try:
                x[i] = column.send((f[i], df[i]))
            except StopIteration as stop:
                x[i] = stop.value
                del moving[i]
    return np.array(x), last


class Candidate(NamedTuple):
    """A solved power split, and both users' SOPs and psi = log(1 - s_o) there."""

    alpha: float
    so1: float
    so2: float
    psi1: float
    psi2: float

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
    _one_config(targets)
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
    """The candidate with the largest min(psi1, psi2), so the smallest
    max-SOP even where the SOPs round to 1; ties break toward the smaller
    alpha so reruns are reproducible. A crossing of None takes no part."""
    pool = [c for c in (near, far, crossing) if c is not None]
    best = min(pool, key=lambda c: (-min(c.psi1, c.psi2), c.alpha))
    return MinMaxOutcome(best.alpha, best.max_sop, near, far, crossing)


def minmax_pa(stats: ChannelStats, targets: TargetRates) -> MinMaxOutcome:
    """Global min-max fair power split over the exact SOPs.

    If psi1 <= psi2 at the near user's maximizer alpha1 of psi1, the min
    there is the largest psi1 of any split, so no split does better;
    likewise for the far user's alpha2. Otherwise the optimum is the one
    root of psi1 - psi2 between them. The crossing cells span one grid node
    beyond each argmax, so they hold that root; a root outside the
    minimizers is refined too but takes no part.
    """
    _one_config(stats, targets)
    on_grid, slopes = _sops_and_slopes(stats, _BRACKET_GRID, targets, (0, 1))
    alphas = _BRACKET_GRID.tolist()
    n = len(alphas)
    psi = on_grid.psi.tolist()
    best = [row.index(max(row)) for row in psi]  # each user's grid argmax of psi
    psi1, psi2 = psi
    crossing = [i for i in range(max(min(best) - 1, 0), min(max(best) + 1, n - 1))
                if (psi1[i] > psi2[i]) != (psi1[i + 1] > psi2[i + 1])]
    # phi, phi' and phi'' only at the columns, user * n + node, a cell can
    # take: each user's argmax and the nodes beside it, and both users at
    # each crossing cell's ends. at maps each to its (phi, phi', phi'').
    columns = sorted({*(u * n + j for u, k in enumerate(best) for j in range(max(k - 1, 0), min(k + 2, n))),
                      *(u * n + j for i in crossing for j in (i, i + 1) for u in (0, 1))})
    at = dict(zip(columns, zip(*(v.tolist() for v in slopes(columns, 3)))))

    def cell(i, f, df, d2f):  # the cell [alphas[i], alphas[i + 1]]; f, f' and f'' at its ends
        return alphas[i], alphas[i + 1], f[0], f[1], df[0], df[1], d2f[0], d2f[1]

    points = [alphas[k] for k in best]
    cells, users = [], []  # users: the user of each minimizer cell
    for user, k in enumerate(best):
        phi_k = at[user * n + k][0]
        j = min(max(k + 1 if phi_k > 0.0 else k - 1, 0), n - 1)
        if j != k and phi_k != 0.0 and phi_k * at[user * n + j][0] <= 0.0:
            i = min(k, j)
            cells.append(cell(i, *zip(at[user * n + i], at[user * n + i + 1])))
            users.append(user)
    for i in crossing:  # psi1 - psi2 and its two slopes at both ends
        ends = [(psi1[j] - psi2[j], at[j][0] - at[n + j][0], at[j][1] - at[n + j][1]) for j in (i, i + 1)]
        cells.append(cell(i, *zip(*ends)))
    crossings = len(cells) - len(users)
    m = 2 + crossings  # points per refine pass: both minimizers, then each crossing
    if cells:
        def evaluate(x):
            for user, a in zip(users, x):
                points[user] = a
            return _sops_and_slopes(stats, points + x[len(users):], targets, (0, 1))

        def fields(step):  # phi at each minimizer column, psi1 - psi2 at each crossing column
            sops, slopes = step
            psi = sops.psi.tolist()
            phi, dphi = (v.reshape(2, m).tolist() for v in slopes(np.arange(2 * m), 2))
            columns = range(2, m)
            return ([phi[u][u] for u in users] + [psi[0][j] - psi[1][j] for j in columns],
                    [dphi[u][u] for u in users] + [phi[0][j] - phi[1][j] for j in columns])

        roots, (last, _) = _refine(cells, evaluate, fields, [False] * len(users) + [True] * crossings)
        points += roots.tolist()[len(users):]
    else:  # every minimizer is a grid node, with no crossing beside them
        last = on_grid._replace(value=on_grid.value[:, best], psi=on_grid.psi[:, best])
    near, far, *roots = map(Candidate, points, *last.value.tolist(), *last.psi.tolist())
    lo, hi = sorted((near.alpha, far.alpha))
    return _select(near, far, next((c for c in roots if lo <= c.alpha <= hi), None))
