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

Every exact SOP goes through one column builder, _sops_and_slopes:
exact_sop_near and exact_sop_far take one user per pass, exact_sops and
the fair-split bracket (optimize.minmax_pa) both. A field of
ChannelStats or TargetRates may be an array of one value per config, which
broadcasts against alpha: a column per point and config, with the bits of
its own config's call at its own alpha, since _weighted_sums pads every
pass to whole groups of 4 columns, which the BLAS products sum alike.

The package starts no thread; numpy's OpenBLAS may split a wide pass's two
weight products over its own pool, and no column's bits depend on that or
on the other columns of its pass. So a grid or config batch cut across
separate processes, the way to run configs in parallel, gives one call's bits.

Every pass also returns psi = log(1 - s_o) = -A/lam_e + log I, which keeps
its digits where s_o rounds to 1. Its alpha-derivatives come by one route:
log of the prefactor is closed-form, and the survival integral's
derivatives are moments of the integrand the pass built, on the same nodes
and halvings, which need only h = s/(s + 1/z) besides. The pass keeps its
integrand in take, and take builds the moments at a list of its columns,
padded to whole groups of 4 as the pass was, so each column gets the same
bits whichever columns are listed with it; _slopes turns the moments into
phi, phi' and phi''. exact_sops at order 2 or 3 takes them at every column
before the integrand is freed, and the fair-split bracket reads psi from
an order-0 pass of its grid and takes them at the few columns its cells
use. Moments and integrand are summed by one rule, two weight-vector
products per term: one over halvings 0-2's 93 nodes, which is halving 2's
estimate before the step, and one over halving 3's own 92 nodes, which
halving 3 adds to it. A pass's values, psi and quadrature errors are
summed before any moment is taken, so they do not depend on the order.

The asymptotic forms drop the "+1" in the SINR denominators, valid once the
received SNR is large. They are upper bounds on the exact SOPs, with an
excess that has a closed-form envelope and vanishes as the SNR grows.
asymptotic_sops takes both users in one call and states the envelope; the
closed-form optimal power splits are optimize.optimal_pa_asymptotic.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .channel import ChannelStats, _every
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


@dataclass(frozen=True)
class TargetRates:
    """Per-user target secrecy rates (bits/s/Hz), floats or arrays of one value per config, and their exponentials."""

    rth1: float | np.ndarray
    rth2: float | np.ndarray

    def __post_init__(self) -> None:
        # Also rejects nan and inf, which would reach the kernel as a nan or zero SOP.
        if not _every((0.0 <= self.rth1) & (self.rth1 < _MAX_RTH) & (0.0 <= self.rth2) & (self.rth2 < _MAX_RTH)):
            raise ValueError(f"target secrecy rates must lie within [0, {_MAX_RTH:g})")

    @property
    def pi1(self) -> float | np.ndarray:
        return _exp2(self.rth1)

    @property
    def pi2(self) -> float | np.ndarray:
        return _exp2(self.rth2)


def _exp2(rth):  # Python's float ** per element of an array: numpy's ** rounds some rates differently
    return np.asarray(2.0 ** rth.astype(object), dtype=float) if isinstance(rth, np.ndarray) else 2.0 ** rth


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


def _survival_integral(pi, slope: np.ndarray, lam_exp, lam_int, scale: np.ndarray):
    """E_y[exp(-pi*y/((slope*y+1)*lam_exp))] for y ~ Exponential(lam_int).

    Vectorized over slope; pi, lam_exp and lam_int are scalars or one value
    per slope column. Returns the halving-_HALVINGS estimates, their
    differences from halving _HALVINGS - 1, and take. It raises
    QuadratureError unless scale * |difference| is at most _ACCEPT_TOL in
    every column: the caller folds the integral into the outage value with
    that weight, and the error contract applies to the outage value, not the
    raw integral. _weighted_sums builds and sums the integrand.

    take(columns, top) gives the moments E_y[e * h**k], k = 2..top, at a
    list of the pass's columns, a (top - 1, len(columns)) array taken on the
    same nodes and halvings from the integrand e the pass built, where
    h = slope*y/(slope*y + 1) = s/(s + 1/z) lies in [0, 1). It builds h for
    the listed columns alone, padded to whole groups of 4 as the pass was,
    so each column's moments do not depend on the others listed. take holds
    the integrand, so a caller that takes no moments drops it.
    """
    scaled_slope = slope * lam_int
    coarse, last, integrand = _weighted_sums(scaled_slope, -pi * lam_int / lam_exp)
    step = _STEP0 / (1 << _HALVINGS)
    est = (coarse + last) * step
    diff = np.abs(est - coarse * (2.0 * step))
    # initial=0 lets an empty alpha (no columns) pass with empty fields; a nan fails.
    worst = float(np.maximum.reduce(scale * diff, initial=0.0))
    if not worst <= _ACCEPT_TOL:
        raise QuadratureError(
            f"outage quadrature did not converge: error {worst:.3e} "
            f"after {len(_INVERSE_NODES)} nodes (tolerance {_ACCEPT_TOL:g})"
        )

    def take(columns, top):
        index = _padded(columns)
        rows = np.empty((top - 1, len(_INVERSE_NODES), index.size))
        column_slope = scaled_slope[index]
        h = _INVERSE_NODES + column_slope
        _moment_terms(integrand[:, index], np.divide(column_slope, h, out=h), rows)
        moment_coarse, moment_last = _halving_sums(rows)
        return ((moment_coarse + moment_last) * step)[:, :len(columns)]

    return est, diff, take


def _padded(columns: np.ndarray) -> np.ndarray:
    """The columns, then copies of the last one up to a multiple of 4 (see _weighted_sums)."""
    pad = -columns.size % 4
    return columns.take(np.arange(columns.size + pad), mode="clip") if pad else columns


def _weighted_sums(scaled_slope: np.ndarray, kappa):
    """The two weight products of these columns' integrand, each
    (columns,), and the integrand, (nodes, padded columns).

    The integrand is exp(kappa/(s + 1/z)) at y = lam_int*z, with
    s = slope*lam_int and kappa = -pi*lam_int/lam_exp, built in place in one
    (nodes, columns) array with the nodes in level order.

    The BLAS products sum whole groups of 4 columns by one code path and
    the last 1-3 columns by another, which rounds differently. So the
    columns are padded to a multiple of 4 with copies of the last one, and
    the pads dropped from both sums: every column is then summed in a full
    group, and its bits do not depend on the other columns of the pass.
    """
    columns = scaled_slope.size
    scaled_slope = _padded(scaled_slope)
    if isinstance(kappa, np.ndarray):
        kappa = _padded(kappa)
    f = np.empty((len(_INVERSE_NODES), scaled_slope.size))
    # 1/z then + s: numpy fills and adds faster than it takes an outer sum
    f[...] = _INVERSE_NODES
    f += scaled_slope
    np.divide(kappa, f, out=f)
    np.exp(f, out=f)
    coarse, last = _halving_sums(f[None])
    return coarse[0, :columns], last[0, :columns], f


def _moment_terms(e: np.ndarray, h: np.ndarray, rows: np.ndarray) -> None:
    """Fill rows with e*h**k for k = 2..len(rows) + 1, from the integrand e
    and h = s/(s + 1/z), each (nodes, columns).

    Integrand values below _MOMENT_FLOOR are raised to it in the moments:
    this moves them by a negligible amount and keeps them out of subnormal
    numbers, which are slow to compute with.
    """
    eh = np.maximum(e, _MOMENT_FLOOR, out=rows[0])
    eh *= h
    for row in rows:
        eh = np.multiply(eh, h, out=row)


def _halving_sums(terms: np.ndarray):
    """Each (nodes, columns) row of terms summed with the weights of the
    halvings before _HALVINGS, which gives halving _HALVINGS - 1's
    estimate, and with halving _HALVINGS's own, which it adds to that."""
    # Halving 2's estimate sums its 93 nodes, halving 3's adds its own 92.
    # Folding the step into the weights, or one 185-node product, would
    # round the sums differently.
    coarse_rows = len(_COARSE_WEIGHTS)
    return _COARSE_WEIGHTS @ terms[:, :coarse_rows], _LAST_WEIGHTS @ terms[:, coarse_rows:]


_ORDER_MOMENTS = {0: 0, 2: 4, 3: 6}  # derivative order -> highest moment take builds


def _sops_and_slopes(stats: ChannelStats, alpha, targets: TargetRates, users: tuple, order: int = 0, keep: bool = True):
    """The listed users' exact SOPs at each alpha in one kernel pass and,
    with ``keep``, slopes(columns, order) of that pass (else None).

    users is (0,) for the near user, (1,) for the far one or (0, 1). Every
    field has shape (len(users),) + the broadcast shape of alpha and the
    config fields. A column's own power share sets A = (Pi - 1)/(own*rho_t),
    the other user's the slope c = other*rho_t. exact_sops describes
    ``order``: at order 2 or 3 the pass takes every column's moments from
    its integrand. slopes gives phi and dphi, and at order 3 d2phi, at a
    list of the pass's columns, numbered in the fields' flat order, from
    moments taken at those columns alone by the same route: each with the
    bits a pass at that order gives it. Without ``keep`` the pass's
    integrand is freed once its order's moments are taken.
    """
    a = validated_alpha(alpha)
    pi1, pi2, lam1, lam2, rho_t = config = (targets.pi1, targets.pi2, stats.lambda1, stats.lambda2, stats.rho_t)
    batched = np.ndarray in map(type, config)  # any array field
    if batched:  # one column per alpha and config
        a, pi1, pi2, lam1, lam2, rho_t = np.broadcast_arrays(a, *config)
    shape = (len(users),) + a.shape
    flat = a.ravel()
    # Each user's own power share, near, far, then near again: the listed
    # users' own shares are one run of it, their other users' the next run.
    shares, first, last = np.concatenate((flat, 1.0 - flat, flat)), users[0] * a.size, (users[-1] + 1) * a.size
    own, other = shares[first:last], shares[first + a.size:last + a.size]
    # Each column's Pi, lam_e, lam_i, d(own share)/dalpha and rho_t, from its
    # user's row. One user's float config stays scalars: the kernel divides by
    # a scalar kappa about a third faster than by a row of them.
    per_user = ((pi1, lam1, lam2, 1.0, rho_t), (pi2, lam2, lam1, -1.0, rho_t))
    rows = [per_user[u] for u in users]
    if batched:  # each field flat (a sign repeated), user after user
        pi, lam, lam_int, sign, rho_t = (np.concatenate([np.resize(v, a.size) for v in f]) for f in zip(*rows))
    else:
        pi, lam, lam_int, sign, rho_t = rows[0] if len(rows) == 1 else np.array(rows).T.repeat(a.size, axis=1)
    slope = other * rho_t
    shift = (pi - 1.0) / (own * rho_t)
    log_prefactor = -shift / lam
    prefactor = np.exp(log_prefactor)
    integral, diff, take = _survival_integral(pi, slope, lam, lam_int, prefactor)
    per_column = (pi, lam, slope, own, other, sign, shift, integral)

    def slopes(columns, order):
        columns = np.asarray(columns)
        at = (v[columns] if isinstance(v, np.ndarray) else v for v in per_column)
        return _slopes(order, take(columns, _ORDER_MOMENTS[order]), *at)

    derivatives = _slopes(order, take(np.arange(integral.size), _ORDER_MOMENTS[order]), *per_column) if order else []
    if not keep:
        take = None  # the integrand goes before value, quad_error and psi are allocated
    value = np.maximum(1.0 - prefactor * integral, 0.0)  # prefactor * integral >= 0: at most 1
    fields = [value, prefactor * diff, log_prefactor + np.log(integral)] + derivatives
    sops = SopValue(*(f.reshape(shape) for f in fields))
    return sops, slopes if keep else None


def _slopes(order: int, moments, pi, lam, slope, own, other, sign, shift, integral) -> list:
    """phi and dphi, and at order 3 d2phi, of each column from the survival
    integral's moments (see exact_sops) and the column's config."""
    m2, m3, m4, *m56 = moments
    # dc/dalpha = -sign*rho_t; the moments carry (c*g)**k, so kappa/c**k scales them.
    u = pi / (lam * slope)
    q = u / (other * integral)
    r = q * m2                             # -sign * I'/I
    d2i = q * (u * m4 - 2.0 * m3) / other  # I''/I
    dlogp = shift / (own * lam)            # sign * (log P)'
    fields = [sign * (dlogp - r), d2i - r * r - 2.0 * dlogp / own]
    if order == 3:
        m5, m6 = m56
        d3i = q * (u * (u * m6 - 6.0 * m5) + 6.0 * m4) / (other * other)  # -sign * I'''/I
        fields.append(sign * (6.0 * dlogp / (own * own) - d3i + r * (3.0 * d2i - 2.0 * r * r)))
    return fields


def _sop_pass(stats: ChannelStats, alpha, targets: TargetRates, users: tuple, order: int = 0) -> SopValue:
    """The SOPs of _sops_and_slopes's pass, without its integrand."""
    return _sops_and_slopes(stats, alpha, targets, users, order, keep=False)[0]


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

    Each field has shape (2,) + the broadcast shape of alpha and any array
    config fields, near user first. Order 0 gives value, quad_error and psi,
    as exact_sop_near/far do; order 2 adds phi and dphi, and order 3 also
    d2phi, with the same value, quad_error and psi bits. A field the order
    leaves out is None.

    With 1 - s_o = P * I, where P = exp(-A/lam_e) and I is the survival
    integral, log P is closed-form in alpha. I depends on alpha only through
    the slope c, and dI/dc = kappa*E[e*g^2],
    d2I/dc2 = kappa*E[e*(kappa*g^4 - 2*g^3)],
    d3I/dc3 = kappa*E[e*(kappa^2*g^6 - 6*kappa*g^5 + 6*g^4)], with
    g = y/(c*y + 1) and kappa = Pi/lam_e. Order 2 skips the two moments
    only d2phi needs: a 4-column pass is then about a seventh cheaper.
    """
    if order not in _ORDER_MOMENTS:
        raise ValueError(f"order must be 0, 2 or 3, got {order!r}")
    return _sop_pass(stats, alpha, targets, (0, 1), order)


def asymptotic_sops(stats: ChannelStats, alpha, targets: TargetRates) -> np.ndarray:
    """Both users' high-SNR SOPs in closed form, shaped as exact_sops's
    fields, near user first; alpha may be a scalar or an array.

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
    rows = ((targets.pi1 + a - 1.0) / (scale * stats.lambda1), (targets.pi2 - a) / (scale * stats.lambda2))
    return 1.0 - np.exp(np.array(np.broadcast_arrays(*rows)))
