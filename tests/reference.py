"""Independent model of both decoding orders, which the tests check the library against.

The library counts outages of the proposed order with the log-free ratio
test of `montecarlo._secrecy_ratios`, on unit-mean exponential draws read
chunk by chunk from `channel._unit_draws` and scaled by each entry's mean
SNRs. This module restates that from the definitions: `sample_gains` draws
a window of one Philox stream in one call and applies the exponential
transform itself (with unit mean gains, ChannelStats(1.0, 1.0, 1.0), it
gives the library's unit-mean draws), and the SINRs and signed secrecy
rates of both orders are taken with logarithms.

Conventional order: the far user's signal is decoded first everywhere, so the
near user treats it as known and the far user decodes under interference.
Proposed order: each user decodes the other's signal first, which is what
creates a positive-secrecy window for both users simultaneously.

Secrecy rates are kept signed; outage counting needs negative values to
propagate (clamping at zero would change Pr{R_s < R_th}).

`per_halving_survival_integral` is the reference for the SOP kernel,
`sop._survival_integral`: the same exp-sinh rule and the same two weight
products, over the same columns padded to a multiple of 4, to any number of
halvings; its take gives the moments behind the SOP slopes at a list of
columns, as the kernel's take does.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from noma_secrecy.channel import ChannelStats, _unit_draws
from noma_secrecy.montecarlo import _CHUNK, SimConfig
from noma_secrecy import sop
from noma_secrecy.sop import TargetRates


@dataclass(frozen=True)
class GainSample:
    """Realizations of both channel power gains (scalars or equal-length arrays)."""

    g1: float | np.ndarray
    g2: float | np.ndarray

    def __post_init__(self) -> None:
        if not (np.all(np.asarray(self.g1) >= 0.0) and np.all(np.asarray(self.g2) >= 0.0)):
            raise ValueError("channel power gains must be nonnegative")


def sample_gains(stats: ChannelStats, count: int, seed: int, start: int = 0) -> GainSample:
    """Draw exponential gain pairs from a counter-based stream.

    Two samples per Philox counter block: words (0, 1) of each block give one
    sample and words (2, 3) the next, and each word u becomes lambda * e for
    its user, with e = -log1p(-u) a unit-mean draw. A window (start, count)
    advances by start // 2 blocks and drops one leading sample when start is
    odd, so it always reproduces the corresponding slice of the single-stream
    sequence.
    """
    if count < 1:
        raise ValueError("count must be at least 1")
    bitgen = np.random.Philox(key=seed)
    if start >= 2:
        bitgen = bitgen.advance(start // 2)
    skip = start % 2
    blocks = (skip + count + 1) // 2
    words = np.random.Generator(bitgen).random((blocks, 4))
    draws = -np.log1p(-words.reshape(-1, 2)[skip:skip + count])
    return GainSample(g1=stats.lambda1 * draws[:, 0], g2=stats.lambda2 * draws[:, 1])


def _alpha_value(alpha: float) -> float:
    a = float(alpha)
    if not (0.0 < a < 1.0):
        raise ValueError(f"power split must lie strictly inside (0, 1), got {a!r}")
    return a


@dataclass(frozen=True)
class SinrSet:
    """The four cross SINRs; g_ij is the SINR of user i's signal at user j."""

    g11: float | np.ndarray
    g12: float | np.ndarray
    g21: float | np.ndarray
    g22: float | np.ndarray
    order: str  # "conventional" | "proposed"


@dataclass(frozen=True)
class RateSet:
    r11: float | np.ndarray
    r12: float | np.ndarray
    r21: float | np.ndarray
    r22: float | np.ndarray
    rs1: float | np.ndarray  # r11 - r12, signed
    rs2: float | np.ndarray  # r22 - r21, signed


def sinr_conventional(sample: GainSample, alpha: float, rho_t: float) -> SinrSet:
    """Both users decode the far user's signal first at full interference."""
    a = _alpha_value(alpha)
    g1, g2 = sample.g1, sample.g2
    inv = 1.0 / rho_t
    return SinrSet(
        g11=a * rho_t * g1,
        g12=a * rho_t * g2,
        g21=(1.0 - a) * g1 / (a * g1 + inv),
        g22=(1.0 - a) * g2 / (a * g2 + inv),
        order="conventional",
    )


def sinr_proposed(sample: GainSample, alpha: float, rho_t: float) -> SinrSet:
    """Each user decodes the other's signal first, then its own cleanly."""
    a = _alpha_value(alpha)
    g1, g2 = sample.g1, sample.g2
    inv = 1.0 / rho_t
    return SinrSet(
        g11=a * rho_t * g1,
        g12=a * g2 / ((1.0 - a) * g2 + inv),
        g21=(1.0 - a) * g1 / (a * g1 + inv),
        g22=(1.0 - a) * rho_t * g2,
        order="proposed",
    )


def rates_from_sinrs(sinrs: SinrSet) -> RateSet:
    r11 = np.log2(1.0 + sinrs.g11)
    r12 = np.log2(1.0 + sinrs.g12)
    r21 = np.log2(1.0 + sinrs.g21)
    r22 = np.log2(1.0 + sinrs.g22)
    return RateSet(r11=r11, r12=r12, r21=r21, r22=r22, rs1=r11 - r12, rs2=r22 - r21)


def positive_secrecy_window(sample: GainSample, rho_t: float) -> tuple:
    """Bounds (lower, upper) on alpha for positive secrecy at both users.

    Under the proposed order, rs1 > 0 iff alpha < upper and rs2 > 0 iff
    alpha > lower, with lower = (g1 - g2) / (g1 g2 rho_t). The window can be
    empty (lower >= 1) when the gains are too disparate for the SNR.
    """
    g1 = np.asarray(sample.g1, dtype=float)
    g2 = np.asarray(sample.g2, dtype=float)
    if np.any(g1 < g2):
        raise ValueError("window is defined for g1 >= g2 (near user no weaker)")
    if np.any(g2 <= 0.0):
        raise ValueError("gains must be positive")
    lower = (g1 - g2) / (g1 * g2 * rho_t)
    upper = np.minimum(1.0, 1.0 + lower)
    if lower.ndim == 0:
        return float(lower), float(upper)
    return lower, upper


def conventional_far_secrecy_is_nonpositive(
    sample: GainSample, alpha: float, rho_t: float
) -> bool | np.ndarray:
    """True when the far user's conventional-order secrecy rate is <= 0.

    Holds for every sample with g1 >= g2 and every alpha in (0, 1); the far
    user's eavesdropper sees the stronger channel, so r21 >= r22 always.
    """
    rates = rates_from_sinrs(sinr_conventional(sample, alpha, rho_t))
    result = np.asarray(rates.rs2) <= 0.0
    if result.ndim == 0:
        return bool(result)
    return result


def empirical_conventional_violation_rate(
    stats: ChannelStats, alpha: float, sim: SimConfig, _chunk: int = _CHUNK
) -> float:
    """Fraction of g1 > g2 draws with positive far-user secrecy, conventional order.

    The decoding-order argument says this must be exactly zero: with the far
    user's signal decoded first at both receivers, the near user always sees
    the better copy of it. Under the conventional order g22 > g21 iff
    g2 > g1 for every alpha < 1, so on the g1 > g2 draws kept here the count
    tests that identity, and it can fail only by rounding. It reads the
    library's chunked stream, which the tests compare with one
    `sample_gains` window.
    """
    violations = 0
    ordered = 0
    for e1, e2 in _unit_draws(sim.realizations, sim.seed, _chunk):
        g1, g2 = stats.lambda1 * e1, stats.lambda2 * e2
        mask = g1 > g2
        gains = GainSample(g1=g1[mask], g2=g2[mask])
        # rs2 = log2(1 + g22) - log2(1 + g21) > 0 iff g22 > g21.
        sinrs = sinr_conventional(gains, alpha, stats.rho_t)
        violations += int(np.count_nonzero(sinrs.g22 > sinrs.g21))
        ordered += int(gains.g1.size)
    return violations / ordered if ordered else 0.0


def log_integrand_near(stats: ChannelStats, alpha, targets: TargetRates, y):
    """log of the near user's outage integrand at gain value y.

    Concavity of this function in alpha at every fixed y is evidence for,
    not a proof of, a unimodal SOP in alpha: the SOP integrates the
    integrand over y, and a mixture of log-concave functions need not be
    log-concave. The far user's SOP can indeed have two valleys.
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


def kernel_integrand(pi, slope, lam_exp, lam_int, z):
    """The kernel's build: exp(kappa/(s + 1/z)), kappa = -pi*lam_int/lam_exp, s = slope*lam_int."""
    return np.exp((-pi * lam_int / lam_exp) / np.add.outer(1.0 / z, slope * lam_int))


def kernel_moments(e, slope, lam_int, z, top):
    """The kernel's build of e*h**k for k = 2..top: h = s/(s + 1/z), s = slope*lam_int,
    one power at a time from max(e, sop._MOMENT_FLOOR)*h."""
    s = slope * lam_int
    h = s / np.add.outer(1.0 / z, s)
    eh = np.maximum(e, sop._MOMENT_FLOOR) * h
    terms = []
    for _ in range(2, top + 1):
        eh = eh * h
        terms.append(eh)
    return terms


def written_moments(e, slope, lam_int, z, top):
    """e*h**k for k = 2..top as written, with h = slope*y/(slope*y + 1)."""
    y = lam_int * z[:, None]
    h = slope * y / (slope * y + 1.0)
    return [np.maximum(e, sop._MOMENT_FLOOR) * h ** k for k in range(2, top + 1)]


def written_integrand(pi, slope, lam_exp, lam_int, z):
    """The integrand as the SOP integral writes it, exp(-pi*y/((slope*y + 1)*lam_exp))."""
    y = lam_int * z[:, None]
    return np.exp(-pi * y / ((slope[None, :] * y + 1.0) * lam_exp))


_HALVING_NODES = tuple(sop._de_nodes(level) for level in range(7))  # halvings 0-6: 1473 nodes


def per_halving_survival_integral(pi, slope, lam_exp, lam_int, scale,
                                  integrand=kernel_integrand, halvings=sop._HALVINGS):
    """The exp-sinh rule through halving ``halvings`` (1 to 6), summed in two groups.

    The nodes of the halvings before the last, in level order, give one
    weight product and the last halving's own nodes another, as the kernel
    sums halvings 0-2 and then halving 3. Returns the last halving's
    estimate, its change from the halving before, and take(columns, top):
    the moments E[e*h**k] for k = 2..top at a list of the columns, with
    h = slope*y/(slope*y + 1), summed by the same rule over those columns
    alone. It raises QuadratureError unless scale times that change is at
    most sop._ACCEPT_TOL in every column. At the default ``halvings``, with
    the kernel's integrand, sop._survival_integral and its take must return
    the same bits: so the integrand and the moments are built as the kernel
    builds them (kernel_integrand, kernel_moments) and summed as it sums
    them, over the columns padded to a multiple of 4 with copies of the last
    one, whose sums are then dropped.
    """
    args = (pi, np.atleast_1d(slope), lam_exp, lam_int)
    est, before = _halving_estimates(args, integrand, halvings)
    est, diff = est[0], np.abs(est[0] - before[0])
    worst = float(np.max(scale * diff, initial=0.0))
    if not worst <= sop._ACCEPT_TOL:
        nodes = sum(len(z) for z, _ in _HALVING_NODES[:halvings + 1])
        raise sop.QuadratureError(
            f"outage quadrature did not converge: error {worst:.3e} "
            f"after {nodes} nodes (tolerance {sop._ACCEPT_TOL:g})"
        )

    def take(columns, top):
        subset = tuple(x[columns] if np.ndim(x) else x for x in args)
        return _halving_estimates(subset, integrand, halvings, top)[0]

    return est, diff, take


def _halving_estimates(args, integrand, halvings, top=0):
    """Each term's estimate at halving ``halvings`` and at the halving
    before, one row per term: the integrand e, or with ``top`` the moments
    e*h**k for k = 2..top."""
    pi, slope, lam_exp, lam_int = args
    columns = slope.size
    pad = -columns % 4 if integrand is kernel_integrand else 0
    if pad:
        pi, slope, lam_exp, lam_int = (
            np.concatenate((x, x[-1:].repeat(pad))) if np.ndim(x) else x for x in args
        )
    levels = _HALVING_NODES[:halvings + 1]
    sums = []
    for z, w in [[np.concatenate(col) for col in zip(*levels[:-1])], levels[-1]]:
        terms = [integrand(pi, slope, lam_exp, lam_int, z)]
        if top:
            moments = kernel_moments if integrand is kernel_integrand else written_moments
            terms = moments(terms[0], slope, lam_int, z, top)
        sums.append(np.array([w @ term for term in terms])[:, :columns])
    coarse, last = sums
    step = sop._STEP0 / (1 << halvings)
    return (coarse + last) * step, coarse * (2.0 * step)
