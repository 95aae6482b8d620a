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
z below 3e-19 and above 80, each worth less than 1e-18 of probability. The
reported quadrature error is the last halving's change. The error falls
geometrically with each halving, so this overstates the error of the
returned value; it is at most 1e-9 over the whole power-split window.

With s = c*lam_i and kappa = -Pi*lam_i/lam_e, one value per column, the
integrand at node z is exp(kappa/(s + 1/z)), so a pass builds it in one
array from the stored 1/z: add s, divide kappa by the sum, take exp. Every
evaluation over the admissible box stops by halving 3 (185 nodes), so the
integrand is built at all nodes of halvings 0-3 in one array pass; the
halvings then sum their own row blocks of it with the same stop rule, judged
for all four at once, so they return the same bits as evaluating one
halving at a time. A call that needs halvings 4-6 evaluates each of those on
its own. A call that misses the error contract after halving 6 raises
QuadratureError with the node count it reached.

exact_sop_slopes also takes the first three alpha-derivatives of
log(1 - s_o): log of the prefactor is closed-form, and the survival
integral's derivatives are moments of the same integrand, summed on the same
nodes and halvings; they need only h = s/(s + 1/z), taken from the sum
before the divide. It is the optimizer's one evaluation path.

The asymptotic forms drop the "+1" in the SINR denominators, valid once the
received SNR is large. They are upper bounds on the exact SOPs, with an
excess that has a closed-form envelope and vanishes as the SNR grows (see
asymptotic_sop_near), and they admit closed-form optimal power splits.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .channel import ChannelStats
from .rates import ALPHA_MAX, ALPHA_MIN

__all__ = [
    "QuadratureError",
    "TargetRates",
    "SopValue",
    "exact_sop_near",
    "exact_sop_far",
    "SopSlopes",
    "exact_sop_slopes",
    "asymptotic_sop_near",
    "asymptotic_sop_far",
    "log_integrand_near",
    "log_integrand_far",
]

_STEP0 = 0.25        # first trapezoid step in t; each refinement halves it
_T_RANGE = (-16, 7)  # t range [-4, 1.75] in units of _STEP0
_MAX_HALVINGS = 6    # at most 1473 nodes
_FUSED_HALVINGS = 3  # halvings 0-3 (185 nodes) are evaluated in one pass
_REFINE_TOL = 1e-10  # stop halving once successive estimates agree this well
_ACCEPT_TOL = 1e-9   # contract on the reported absolute quadrature error
_MOMENT_FLOOR = 1e-150  # least integrand value in the derivative moments


@dataclass(frozen=True)
class TargetRates:
    """Per-user target secrecy rates (bits/s/Hz) and their exponentials."""

    rth1: float
    rth2: float

    def __post_init__(self) -> None:
        if self.rth1 < 0.0 or self.rth2 < 0.0:
            raise ValueError("target secrecy rates must be nonnegative")

    @property
    def pi1(self) -> float:
        return 2.0 ** self.rth1

    @property
    def pi2(self) -> float:
        return 2.0 ** self.rth2


class QuadratureError(RuntimeError):
    """Raised when an outage quadrature misses its error contract."""


class SopValue(NamedTuple):
    value: float | np.ndarray
    quad_error: float | np.ndarray


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


_DE_NODES = tuple(_de_nodes(level) for level in range(_MAX_HALVINGS + 1))


class _Group(NamedTuple):
    """Nodes evaluated in one array pass, and the halvings that sum them."""

    inverse_nodes: np.ndarray  # 1/z at each node, as a column
    halvings: tuple     # (weights, rows) of each halving, in order
    first: int          # the first of those halvings
    steps: np.ndarray   # each halving's trapezoid step, shaped (halvings, 1, 1)
    blocks: np.ndarray  # each halving's weights on its own rows, zeros elsewhere


def _groups():
    """Halvings 0.._FUSED_HALVINGS share one group; each later one has its own."""
    fused = _DE_NODES[: _FUSED_HALVINGS + 1]
    ends = np.cumsum([len(z) for z, _ in fused])
    rows = [slice(end - len(z), end) for end, (z, _) in zip(ends, fused)]
    blocks = np.zeros((len(fused), ends[-1]))
    for block, (_, w), r in zip(blocks, fused, rows):
        block[r] = w
    groups = [(np.concatenate([z for z, _ in fused]), [w for _, w in fused], rows, 0, blocks)]
    groups += [(z, [w], [slice(None)], level, w[None, :]) for level, (z, w) in enumerate(_DE_NODES)
               if level > _FUSED_HALVINGS]
    return tuple(
        _Group(1.0 / z[:, None], tuple(zip(w, r)), first, _STEP0 / 2.0 ** np.arange(first, first + len(w))[:, None, None], b)
        for z, w, r, first, b in groups
    )


_GROUPS = _groups()


def _validated_alpha(alpha) -> np.ndarray:
    a = np.asarray(alpha, dtype=float)
    if not ((a >= ALPHA_MIN) & (a <= ALPHA_MAX)).all():
        raise ValueError(f"power split must lie within [{ALPHA_MIN:g}, {ALPHA_MAX:g}]")
    return a


def _moment_sums(e: np.ndarray, h: np.ndarray, blocks: np.ndarray, top: int) -> np.ndarray:
    """Weighted sums of e and e*h^k, k = 2..top, for each halving in blocks.

    Returns a (halvings, top, columns) array. Integrand values below
    _MOMENT_FLOOR are raised to it in the products: this moves the moments
    by a negligible amount and keeps them out of subnormal numbers, which
    are slow to compute with.
    """
    sums = np.empty((blocks.shape[0], top, e.shape[1]))
    np.matmul(blocks, e, out=sums[:, 0])
    eh = np.maximum(e, _MOMENT_FLOOR)
    eh *= h
    for k in range(1, top):
        eh *= h
        np.matmul(blocks, eh, out=sums[:, k])
    return sums


def _survival_integral(pi, slope: np.ndarray, lam_exp, lam_int, scale: np.ndarray, moments: int = 0):
    """E_y[exp(-pi*y/((slope*y+1)*lam_exp))] for y ~ Exponential(lam_int).

    Vectorized over slope; pi, lam_exp and lam_int are scalars or one value
    per slope column. Returns (estimates, last-refinement differences).
    Convergence is judged on scale * |difference|, because the caller folds
    the integral into the outage value with that weight and the error
    contract applies to the outage value, not the raw integral.

    The integrand is exp(kappa/(s + 1/z)) at y = lam_int*z, with
    s = slope*lam_int and kappa = -pi*lam_int/lam_exp, built in place in one
    (nodes, columns) array per group.

    With ``moments`` = m > 0 it also returns E_y[e * h**k] for k = 2..m as
    an (m - 1, n) array, taken on the same nodes and halvings, where e is the
    integrand and h = slope*y/(slope*y + 1) = s/(s + 1/z) lies in [0, 1).
    Only h is added; the integrand is built as in the plain call, and only
    the halvings' sums (one block product) round apart.
    """
    slope = np.atleast_1d(slope)
    total = prev = None
    nodes = 0
    scaled_slope, kappa = slope * lam_int, -pi * lam_int / lam_exp
    for group in _GROUPS:
        # 1/z then + s: numpy fills and adds faster than it takes an outer sum
        f = group.inverse_nodes.repeat(scaled_slope.size, axis=1)
        f += scaled_slope
        if moments:
            h = scaled_slope / f
        np.divide(kappa, f, out=f)
        np.exp(f, out=f)
        nodes += len(group.inverse_nodes)
        # Each halving's sums, added to the ones before it in order, as one
        # halving at a time would add them.
        if moments:
            sums = _moment_sums(f, h, group.blocks, moments)
        else:
            sums = np.stack([w @ f[rows] for w, rows in group.halvings])[:, None]
        if total is not None:
            sums[0] += total
        totals = np.cumsum(sums, axis=0)
        total, est = totals[-1], totals * group.steps
        chain = est[:, 0] if prev is None else np.concatenate((prev[None], est[:, 0]))
        diffs = np.abs(np.diff(chain, axis=0))
        skipped = len(est) - len(diffs)  # halving 0 has no difference to judge
        prev = est[-1, 0]
        for k, worst in enumerate((scale * diffs).max(axis=1).tolist()):
            level = group.first + skipped + k
            if worst < _REFINE_TOL or (level == _MAX_HALVINGS and worst <= _ACCEPT_TOL):
                found = est[skipped + k]
                return (found[0], diffs[k], found[1:]) if moments else (found[0], diffs[k])
    raise QuadratureError(
        f"outage quadrature did not converge: error {worst:.3e} "
        f"after {nodes} nodes (tolerance {_ACCEPT_TOL:g})"
    )


def _exact_sop(pi: float, slope, shift, lam_exp: float, lam_int: float, scalar: bool) -> SopValue:
    prefactor = np.exp(-np.atleast_1d(shift) / lam_exp)
    integral, diff = _survival_integral(pi, slope, lam_exp, lam_int, prefactor)
    value = np.minimum(np.maximum(1.0 - prefactor * integral, 0.0), 1.0)
    quad_error = prefactor * diff
    if scalar:
        return SopValue(float(value[0]), float(quad_error[0]))
    return SopValue(value, quad_error)


def exact_sop_near(stats: ChannelStats, alpha, targets: TargetRates) -> SopValue:
    """Near user's exact SOP; alpha may be a scalar or an array (curve mode)."""
    a = _validated_alpha(alpha)
    pi1 = targets.pi1
    slope = (1.0 - a) * stats.rho_t
    shift = (pi1 - 1.0) / (a * stats.rho_t)
    return _exact_sop(pi1, slope, shift, stats.lambda1, stats.lambda2, scalar=a.ndim == 0)


def exact_sop_far(stats: ChannelStats, alpha, targets: TargetRates) -> SopValue:
    """Far user's exact SOP; alpha may be a scalar or an array (curve mode)."""
    a = _validated_alpha(alpha)
    pi2 = targets.pi2
    slope = a * stats.rho_t
    shift = (pi2 - 1.0) / ((1.0 - a) * stats.rho_t)
    return _exact_sop(pi2, slope, shift, stats.lambda2, stats.lambda1, scalar=a.ndim == 0)


class SopSlopes(NamedTuple):
    value: np.ndarray
    quad_error: np.ndarray
    phi: np.ndarray   # d/dalpha log(1 - s_o)
    dphi: np.ndarray  # d^2/dalpha^2 log(1 - s_o)
    d2phi: Optional[np.ndarray] = None  # d^3/dalpha^3 log(1 - s_o)


_OWN_SHARE_SLOPES = np.array([1.0, -1.0])  # d(own power share)/dalpha: near, far


def exact_sop_slopes(stats: ChannelStats, alpha, targets: TargetRates, d2phi: bool = True) -> SopSlopes:
    """Both users' exact SOPs at each alpha in one quadrature pass, with the
    first three alpha-derivatives of log(1 - s_o).

    Each field has shape (2,) + alpha's shape: the near user's values, then
    the far user's. value and quad_error are those of exact_sop_near/far up
    to the quadrature's error. With 1 - s_o = P * I, where P = exp(-A/lam_e)
    and I is the survival integral, log P is closed-form in alpha. I depends
    on alpha only through the slope c, and dI/dc = kappa*E[e*g^2],
    d2I/dc2 = kappa*E[e*(kappa*g^4 - 2*g^3)],
    d3I/dc3 = kappa*E[e*(kappa^2*g^6 - 6*kappa*g^5 + 6*g^4)], with
    g = y/(c*y + 1) and kappa = Pi/lam_e; the kernel takes these moments on
    the same nodes as I. With ``d2phi`` false that field is None, and the
    two moments only it needs are not taken: a 4-column pass is then about
    a fifth cheaper.
    """
    a = _validated_alpha(alpha)
    shape = (2,) + a.shape
    a = a.ravel()
    b = 1.0 - a
    own = np.concatenate((a, b))    # each user's own power share
    other = np.concatenate((b, a))  # the other user's, so the slope c = other*rho_t
    pi = np.array((targets.pi1, targets.pi2)).repeat(a.size)
    lam = np.array((stats.lambda1, stats.lambda2)).repeat(a.size)
    sign = _OWN_SHARE_SLOPES.repeat(a.size)
    slope = other * stats.rho_t
    shift = (pi - 1.0) / (own * stats.rho_t)
    prefactor = np.exp(-shift / lam)
    integral, diff, moments = _survival_integral(pi, slope, lam, lam[::-1], prefactor, moments=6 if d2phi else 4)
    m2, m3, m4 = moments[:3]
    value = np.minimum(np.maximum(1.0 - prefactor * integral, 0.0), 1.0)
    # dc/dalpha = -sign*rho_t; the moments carry (c*g)**k, so kappa/c**k scales them.
    u = pi / (lam * slope)
    q = u / (other * integral)
    r = q * m2                             # -sign * I'/I
    d2i = q * (u * m4 - 2.0 * m3) / other  # I''/I
    dlogp = shift / (own * lam)            # sign * (log P)'
    phi = sign * (dlogp - r)
    dphi = d2i - r * r - 2.0 * dlogp / own
    slopes = [value, prefactor * diff, phi, dphi]
    if d2phi:
        m5, m6 = moments[3:]
        d3i = q * (u * (u * m6 - 6.0 * m5) + 6.0 * m4) / (other * other)  # -sign * I'''/I
        slopes.append(sign * (6.0 * dlogp / (own * own) - d3i + r * (3.0 * d2i - 2.0 * r * r)))
    return SopSlopes(*(v.reshape(shape) for v in slopes))


def asymptotic_sop_near(stats: ChannelStats, alpha, targets: TargetRates):
    """Near user's high-SNR SOP in closed form; alpha may be a scalar or an array.

    It is the exact SOP with y/(c*y + 1) in the integrand replaced by its limit
    1/c, where c = (1 - alpha)*rho_t, so it is an upper bound on
    exact_sop_near. By the mean-value theorem the excess lies between
    exp(-Pi1/(c*lambda1)) * B and B, where
    B = exp(-A/lambda1) * Pi1/(c*lambda1) * E[1/(1 + c*Y)], A = (Pi1 - 1)/(alpha*rho_t),
    Y ~ Exponential(lambda2), and E[1/(1 + c*Y)] = exp(1/m) * E1(1/m) / m with
    m = c*lambda2. B vanishes as rho_t grows.
    """
    a = _validated_alpha(alpha)
    value = 1.0 - np.exp((targets.pi1 + a - 1.0) / (a * (a - 1.0) * stats.rho_t * stats.lambda1))
    if a.ndim == 0:
        return float(value)
    return value


def asymptotic_sop_far(stats: ChannelStats, alpha, targets: TargetRates):
    """Far user's high-SNR SOP in closed form; alpha may be a scalar or an array.

    The mirror of asymptotic_sop_near, and likewise an upper bound on
    exact_sop_far within the envelope [exp(-Pi2/(c*lambda2)) * B, B], now with
    c = alpha*rho_t, A = (Pi2 - 1)/((1 - alpha)*rho_t),
    B = exp(-A/lambda2) * Pi2/(c*lambda2) * E[1/(1 + c*Y)], Y ~ Exponential(lambda1)
    and m = c*lambda1.
    """
    a = _validated_alpha(alpha)
    value = 1.0 - np.exp((targets.pi2 - a) / (a * (a - 1.0) * stats.rho_t * stats.lambda2))
    if a.ndim == 0:
        return float(value)
    return value


def log_integrand_near(stats: ChannelStats, alpha, targets: TargetRates, y):
    """log of the near user's outage integrand at gain value y.

    Concavity of this function in alpha (at every fixed y) is what makes the
    integral, and hence the SOP, unimodal in alpha.
    """
    a = np.asarray(alpha, dtype=float)
    y = np.asarray(y, dtype=float)
    pi1 = targets.pi1
    return (
        -pi1 * y / (((1.0 - a) * stats.rho_t * y + 1.0) * stats.lambda1)
        - y / stats.lambda2
        - (pi1 - 1.0) / (a * stats.rho_t * stats.lambda1)
    )


def log_integrand_far(stats: ChannelStats, alpha, targets: TargetRates, y):
    """log of the far user's outage integrand at gain value y."""
    a = np.asarray(alpha, dtype=float)
    y = np.asarray(y, dtype=float)
    pi2 = targets.pi2
    return (
        -pi2 * y / ((a * stats.rho_t * y + 1.0) * stats.lambda2)
        - y / stats.lambda1
        - (pi2 - 1.0) / ((1.0 - a) * stats.rho_t * stats.lambda2)
    )
