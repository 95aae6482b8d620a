"""Secrecy outage probabilities: exact quadrature and high-SNR closed forms.

The exact SOPs are semi-infinite integrals of the form

    s_o = 1 - exp(-A/lam_e) * E_y[ exp(-Pi*y / ((c*y + 1) * lam_e)) ],

with y exponential of mean lam_i (the other user's gain), c the interfering
power slope, and A the target-rate offset. The integrand has features at
three scales: the exponential weight at y ~ lam_i, the fast initial decay at
y ~ lam_e/Pi, and a bend at y ~ 1/c where the SINR saturates. Across the
admissible parameter box these lie many decades apart, so the expectation is
taken by the double-exponential (exp-sinh) rule of Takahasi & Mori (1974):
with y = lam_i * z and z = exp(pi/2 * sinh(t)), the integrand decays double
exponentially at both ends of t and every scale of z gets its own stretch of
nodes. The trapezoidal rule in t then converges geometrically, and halving
its step reuses every earlier node. The truncation of t to [-4, 1.75] drops
z below 3e-19 and above 80, each worth less than 1e-18 of probability.

Every pass takes the same 185 nodes, those of halvings 0-3 of the step, and
returns the halving-3 estimate; the reported quadrature error is its change
from halving 2. The error falls geometrically with each halving, so this
overstates the error of the returned value. A pass whose error, in
probability, exceeds 1e-9 raises QuadratureError. None does over the
property box or the config domain, where the largest such change is about
3e-11 and halvings 4-6 move no value by more than the reported error.

With s = c*lam_i and kappa = -Pi*lam_i/lam_e, one value per column, the
integrand at node z is exp(kappa/(s + 1/z)), so a pass builds it at all 185
nodes in one array from the stored 1/z: add s, divide kappa by the sum,
take exp.

A pass of 2*_PART_COLUMNS (512) columns or more is cut by _run_parts, the
fork-join the Monte Carlo count shares, into two column halves, or one part
on one CPU; the first half ends at a multiple of 4 columns. The calling
thread builds and sums the first half and a persistent daemon worker of the
pool the second, at once. Each half fills its own array and takes its own
weight products, which round by groups of 4 columns, so every column keeps
the bits of the unsplit pass. Narrower passes, the fair-split solver's and
the scalar ones, run on the calling thread alone without asking for the CPU
count, as every pass does on one CPU.

Every exact SOP goes through one column builder: exact_sop_near and
exact_sop_far take one user per pass, exact_sops both. Every pass also
returns psi = log(1 - s_o) = -A/lam_e + log I, which keeps its digits where
s_o rounds to 1. exact_sops at order 2 or 3 also returns that many
alpha-derivatives of psi: log of the prefactor is closed-form, and the
survival integral's derivatives are moments of the same integrand on the
same nodes and halvings, which need only h = s/(s + 1/z), taken from the sum
before the divide. Every order sums by one rule, two weight-vector products
per term: one over halvings 0-2's 93 nodes, which is halving 2's estimate
before the step, and one over halving 3's own 92 nodes, which halving 3 adds
to it. So a pass's values, psi and quadrature errors do not depend on the
order it takes.

The asymptotic forms drop the "+1" in the SINR denominators, valid once the
received SNR is large. They are upper bounds on the exact SOPs, with an
excess that has a closed-form envelope and vanishes as the SNR grows.
asymptotic_sops takes both users in one call and states the envelope; the
closed-form optimal power splits are optimize.optimal_pa_asymptotic.
"""
from __future__ import annotations

import contextvars
import os
import threading
from _queue import SimpleQueue
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .channel import ChannelStats
from .rates import validated_alpha

__all__ = [
    "QuadratureError",
    "TargetRates",
    "SopValue",
    "exact_sop_near",
    "exact_sop_far",
    "exact_sops",
    "asymptotic_sops",
]

_STEP0 = 0.25        # first trapezoid step in t; each refinement halves it
_T_RANGE = (-16, 7)  # t range [-4, 1.75] in units of _STEP0
_HALVINGS = 3        # halvings 0-3 of the step: 185 nodes
_ACCEPT_TOL = 1e-9   # contract on the reported absolute quadrature error
_MOMENT_FLOOR = 1e-150  # least integrand value in the derivative moments
_MAX_RTH = 1024.0  # 2**rth overflows a double from here on
_PART_COLUMNS = 256  # least columns in each half of a pass split over two CPUs


@dataclass(frozen=True)
class TargetRates:
    """Per-user target secrecy rates (bits/s/Hz) and their exponentials."""

    rth1: float
    rth2: float

    def __post_init__(self) -> None:
        # Also rejects nan and inf, which would reach the kernel as a nan or zero SOP.
        if not (0.0 <= self.rth1 < _MAX_RTH and 0.0 <= self.rth2 < _MAX_RTH):
            raise ValueError(f"target secrecy rates must lie within [0, {_MAX_RTH:g})")

    @property
    def pi1(self) -> float:
        return 2.0 ** self.rth1

    @property
    def pi2(self) -> float:
        return 2.0 ** self.rth2


class QuadratureError(RuntimeError):
    """Raised when an outage quadrature misses its error contract."""


class SopValue(NamedTuple):
    """Exact SOPs, their quadrature error and psi = log(1 - s_o); the
    alpha-derivatives of psi are None unless the call takes them (see
    exact_sops)."""

    value: float | np.ndarray
    quad_error: float | np.ndarray
    psi: Optional[float | np.ndarray] = None  # log(1 - s_o)
    phi: Optional[np.ndarray] = None    # d/dalpha log(1 - s_o)
    dphi: Optional[np.ndarray] = None   # d^2/dalpha^2 log(1 - s_o)
    d2phi: Optional[np.ndarray] = None  # d^3/dalpha^3 log(1 - s_o)


def _de_nodes(level: int):
    """Exp-sinh nodes z and weights first used at halving ``level``.

    Level 0 is the whole step-_STEP0 grid; level L > 0 adds the odd points of
    the step-_STEP0/2**L grid. The weights fold in the Jacobian and the
    exponential density exp(-z), but not the step.
    """
    k = np.arange(_T_RANGE[0] << level, (_T_RANGE[1] << level) + 1)
    if level:
        k = k[k % 2 == 1]
    t = k * (_STEP0 / (1 << level))
    z = np.exp(0.5 * np.pi * np.sinh(t))
    return z, 0.5 * np.pi * np.cosh(t) * z * np.exp(-z)


def _rule():
    """1/z at every node of halvings 0.._HALVINGS as one column in level
    order, then the weights of the nodes before halving _HALVINGS and the
    weights of its own nodes."""
    z, w = zip(*(_de_nodes(level) for level in range(_HALVINGS + 1)))
    return 1.0 / np.concatenate(z)[:, None], np.concatenate(w[:-1]), w[-1]


_INVERSE_NODES, _COARSE_WEIGHTS, _LAST_WEIGHTS = _rule()


def _survival_integral(pi, slope: np.ndarray, lam_exp, lam_int, scale: np.ndarray, moments: int = 0):
    """E_y[exp(-pi*y/((slope*y+1)*lam_exp))] for y ~ Exponential(lam_int).

    Vectorized over slope; pi, lam_exp and lam_int are scalars or one value
    per slope column. Returns the halving-_HALVINGS estimates and their
    differences from halving _HALVINGS - 1. It raises QuadratureError unless
    scale * |difference| is at most _ACCEPT_TOL in every column: the caller
    folds the integral into the outage value with that weight, and the error
    contract applies to the outage value, not the raw integral.

    With ``moments`` = m > 0 it also returns E_y[e * h**k] for k = 2..m as
    an (m - 1, n) array, taken on the same nodes and halvings, where e is the
    integrand and h = slope*y/(slope*y + 1) = s/(s + 1/z) lies in [0, 1).
    _weighted_sums builds and sums the terms.

    A pass of at least 2*_PART_COLUMNS columns sums its two column halves
    at once on two CPUs (see the module docstring); every column keeps the
    bits of the unsplit pass.
    """
    scaled_slope, kappa = np.atleast_1d(slope) * lam_int, -pi * lam_int / lam_exp
    columns = scaled_slope.size
    if columns >= 2 * _PART_COLUMNS:
        def part(start, stop):
            part_kappa = kappa[start:stop] if isinstance(kappa, np.ndarray) else kappa
            return _weighted_sums(scaled_slope[start:stop], part_kappa, moments)

        # Two halves at most, even on more CPUs: the split was timed on two.
        parts = _run_parts(part, columns, columns // 2)
        coarse, last = (np.concatenate(pair, axis=1) for pair in zip(*parts))
    else:
        coarse, last = _weighted_sums(scaled_slope, kappa, moments)
    step = _STEP0 / (1 << _HALVINGS)
    est = (coarse + last) * step
    diff = np.abs(est[0] - coarse[0] * (2.0 * step))
    # initial=0 lets an empty alpha (no columns) pass with empty fields; a nan fails.
    worst = float(np.max(scale * diff, initial=0.0))
    if not worst <= _ACCEPT_TOL:
        raise QuadratureError(
            f"outage quadrature did not converge: error {worst:.3e} "
            f"after {len(_INVERSE_NODES)} nodes (tolerance {_ACCEPT_TOL:g})"
        )
    return (est[0], diff, est[1:]) if moments else (est[0], diff)


def _weighted_sums(scaled_slope: np.ndarray, kappa, moments: int):
    """The two weight products of these columns' terms, each (terms, columns).

    The integrand is exp(kappa/(s + 1/z)) at y = lam_int*z, with
    s = slope*lam_int and kappa = -pi*lam_int/lam_exp, built in place in one
    (nodes, columns) array with the nodes in level order. The rows of the
    halvings before _HALVINGS give halving _HALVINGS - 1's sum, and halving
    _HALVINGS's own rows what it adds. The moments are more rows of the same
    terms array, summed by the same two products, so the estimates and
    differences keep the plain call's bits.
    """
    top = max(moments, 1)  # terms per node: e, then e*h**k for k = 2..moments
    terms = np.empty((top, len(_INVERSE_NODES), scaled_slope.size))
    f = terms[0]
    # 1/z then + s: numpy fills and adds faster than it takes an outer sum
    f[...] = _INVERSE_NODES
    f += scaled_slope
    if moments:
        h = scaled_slope / f
    np.divide(kappa, f, out=f)
    np.exp(f, out=f)
    if moments:
        # Integrand values below _MOMENT_FLOOR are raised to it in the
        # moments: this moves them by a negligible amount and keeps them
        # out of subnormal numbers, which are slow to compute with.
        eh = np.maximum(f, _MOMENT_FLOOR, out=terms[1])
        eh *= h
        for k in range(1, top):
            eh = np.multiply(eh, h, out=terms[k])
    # Halving 2's estimate sums its 93 nodes, halving 3's adds its own 92.
    # Folding the step into the weights, or one 185-node product, would
    # round the sums differently.
    coarse_rows = len(_COARSE_WEIGHTS)
    return _COARSE_WEIGHTS @ terms[:, :coarse_rows], _LAST_WEIGHTS @ terms[:, coarse_rows:]


def _usable_cpus() -> int:
    """Number of CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _run_parts(func, total: int, least: int) -> list:
    """[func(start, stop) for each part of [0, total)], in part order.

    The range is cut into one contiguous part per usable CPU, but never
    into parts shorter than ``least``, and every part starts at a multiple
    of 4: a Monte Carlo slice must start at an even sample (two samples per
    Philox block), and the BLAS weight products of a pass round by groups of
    4 columns. The calling thread runs the first part and the pool's
    workers the others, each in a copy of the caller's context, so
    np.errstate holds in every part. The first error of any part, in part
    order, is raised once every part has ended.
    """
    parts = max(1, min(_usable_cpus(), total // least))
    bounds = [4 * ((total // 4) * index // parts) for index in range(parts)] + [total]
    jobs, done = _pool(parts - 1), SimpleQueue()
    for index in range(1, parts):
        jobs.put((contextvars.copy_context(), func, bounds[index], bounds[index + 1], index, done))
    outcomes = [_attempt(func, bounds[0], bounds[1])] + [None] * (parts - 1)
    for _ in range(1, parts):
        index, outcome = done.get()
        outcomes[index] = outcome
    for _, error in outcomes:
        if error is not None:
            raise error
    return [result for result, _ in outcomes]


def _attempt(func, start: int, stop: int):
    try:
        return func(start, stop), None
    except BaseException as exc:  # raised in the calling thread once every part has ended
        return None, exc


# The pool: one job queue and the persistent daemon workers that serve it,
# started as calls need them. A forked child starts with an empty pool of
# its own, since only the forking thread survives a fork.
def _empty_pool() -> None:
    global _jobs, _workers, _pool_lock
    _jobs, _workers, _pool_lock = SimpleQueue(), 0, threading.Lock()


_empty_pool()
if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_empty_pool)


def _pool(workers: int) -> SimpleQueue:
    """The job queue, once at least ``workers`` workers serve it."""
    global _workers
    while _workers < workers:
        with _pool_lock:
            if _workers < workers:
                threading.Thread(target=_serve, args=(_jobs,), name="noma-secrecy-worker", daemon=True).start()
                _workers += 1
    return _jobs


def _serve(jobs: SimpleQueue) -> None:
    while True:
        context, func, start, stop, index, done = jobs.get()
        done.put((index, context.run(_attempt, func, start, stop)))


_ORDER_MOMENTS = {0: 0, 2: 4, 3: 6}  # derivative order -> highest moment the kernel takes


def _sop_pass(stats: ChannelStats, alpha, targets: TargetRates, users: tuple, order: int = 0) -> SopValue:
    """The listed users' (0 near, 1 far) exact SOPs at each alpha in one kernel pass.

    Every field has shape (len(users),) + alpha's shape. A column's own power
    share sets A = (Pi - 1)/(own*rho_t), the other user's the slope
    c = other*rho_t. exact_sops describes ``order``.
    """
    a = validated_alpha(alpha)
    shape = (len(users),) + a.shape
    flat = a.ravel()
    shares = (flat, 1.0 - flat)  # each user's own power share
    own = np.concatenate([shares[u] for u in users])
    other = np.concatenate([shares[1 - u] for u in users])
    # Each column's Pi, lam_e, lam_i and d(own share)/dalpha, from its user's
    # row. One user's stay scalars: the kernel divides by a scalar kappa
    # about a third faster than by a row of them.
    per_user = ((targets.pi1, stats.lambda1, stats.lambda2, 1.0), (targets.pi2, stats.lambda2, stats.lambda1, -1.0))
    rows = [per_user[u] for u in users]
    pi, lam, lam_int, sign = rows[0] if len(rows) == 1 else np.array(rows).T.repeat(a.size, axis=1)
    slope = other * stats.rho_t
    shift = (pi - 1.0) / (own * stats.rho_t)
    log_prefactor = -shift / lam
    prefactor = np.exp(log_prefactor)
    integral, diff, *moments = _survival_integral(pi, slope, lam, lam_int, prefactor, moments=_ORDER_MOMENTS[order])
    value = np.minimum(np.maximum(1.0 - prefactor * integral, 0.0), 1.0)
    fields = [value, prefactor * diff, log_prefactor + np.log(integral)]
    if order:
        m2, m3, m4, *m56 = moments[0]
        # dc/dalpha = -sign*rho_t; the moments carry (c*g)**k, so kappa/c**k scales them.
        u = pi / (lam * slope)
        q = u / (other * integral)
        r = q * m2                             # -sign * I'/I
        d2i = q * (u * m4 - 2.0 * m3) / other  # I''/I
        dlogp = shift / (own * lam)            # sign * (log P)'
        fields += [sign * (dlogp - r), d2i - r * r - 2.0 * dlogp / own]
        if order == 3:
            m5, m6 = m56
            d3i = q * (u * (u * m6 - 6.0 * m5) + 6.0 * m4) / (other * other)  # -sign * I'''/I
            fields.append(sign * (6.0 * dlogp / (own * own) - d3i + r * (3.0 * d2i - 2.0 * r * r)))
    return SopValue(*(f.reshape(shape) for f in fields))


def _one_user(stats: ChannelStats, alpha, targets: TargetRates, user: int) -> SopValue:
    fields = _sop_pass(stats, alpha, targets, (user,))[:3]
    if fields[0].ndim == 1:  # a scalar alpha
        return SopValue(*(float(f[0]) for f in fields))
    return SopValue(*(f[0] for f in fields))


def exact_sop_near(stats: ChannelStats, alpha, targets: TargetRates) -> SopValue:
    """Near user's exact SOP; alpha may be a scalar or an array (curve mode)."""
    return _one_user(stats, alpha, targets, 0)


def exact_sop_far(stats: ChannelStats, alpha, targets: TargetRates) -> SopValue:
    """Far user's exact SOP; alpha may be a scalar or an array (curve mode)."""
    return _one_user(stats, alpha, targets, 1)


def exact_sops(stats: ChannelStats, alpha, targets: TargetRates, order: int = 0) -> SopValue:
    """Both users' exact SOPs at each alpha in one quadrature pass and, at
    ``order`` 2 or 3, that many alpha-derivatives of log(1 - s_o).

    Each field has shape (2,) + alpha's shape, near user first. Order 0
    gives value, quad_error and psi, as exact_sop_near/far do; order 2 adds
    phi and dphi, and order 3 also d2phi, with the same value, quad_error
    and psi bits. A field the order leaves out is None.

    With 1 - s_o = P * I, where P = exp(-A/lam_e) and I is the survival
    integral, log P is closed-form in alpha. I depends on alpha only through
    the slope c, and dI/dc = kappa*E[e*g^2],
    d2I/dc2 = kappa*E[e*(kappa*g^4 - 2*g^3)],
    d3I/dc3 = kappa*E[e*(kappa^2*g^6 - 6*kappa*g^5 + 6*g^4)], with
    g = y/(c*y + 1) and kappa = Pi/lam_e. Order 2 skips the two moments
    only d2phi needs: a 4-column pass is then about a fifth cheaper.
    """
    if order not in _ORDER_MOMENTS:
        raise ValueError(f"order must be 0, 2 or 3, got {order!r}")
    return _sop_pass(stats, alpha, targets, (0, 1), order)


def asymptotic_sops(stats: ChannelStats, alpha, targets: TargetRates) -> np.ndarray:
    """Both users' high-SNR SOPs in closed form, shaped (2,) + alpha's shape,
    near user first; alpha may be a scalar or an array.

    A user's row is its exact SOP with y/(c*y + 1) in the integrand replaced
    by its limit 1/c, where c = other*rho_t, so it is an upper bound on that
    user's exact SOP. Here own and other are the user's and the other user's
    power shares (alpha and 1 - alpha for the near user), lam_e and lam_i
    the user's and the other user's mean gains, and Pi the user's 2**rth. By
    the mean-value theorem the excess lies between exp(-Pi/(c*lam_e)) * B
    and B, where B = exp(-A/lam_e) * Pi/(c*lam_e) * E[1/(1 + c*Y)],
    A = (Pi - 1)/(own*rho_t), Y ~ Exponential(lam_i), and
    E[1/(1 + c*Y)] = exp(1/m) * E1(1/m) / m with m = c*lam_i. B vanishes as
    rho_t grows.
    """
    a = validated_alpha(alpha)
    scale = a * (a - 1.0) * stats.rho_t
    return 1.0 - np.exp(np.array([(targets.pi1 + a - 1.0) / (scale * stats.lambda1),
                                  (targets.pi2 - a) / (scale * stats.lambda2)]))
