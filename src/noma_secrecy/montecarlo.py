"""Seeded Monte Carlo estimation of both users' secrecy outage probabilities.

The estimator is the empirical oracle every analytical expression is checked
against: draw gain pairs, apply the proposed decoding order, count outages
R_s < R_th (strict; ties are non-outage). The count needs no logarithm:
R_s1 < R_th1 iff (1 + g11) / (1 + g12) < 2**R_th1, and likewise for the far
user. Each stream is one Philox key, two samples per counter block.
`empirical_sops` takes a batch of configs as sop.exact_sops does; its
distinct mean SNRs (rho_t * lambda1, rho_t * lambda2) are the stream's
entries and its distinct target pairs the limits, so validate's 3 x 6 grid
is 3 entries by 6 pairs. It reads the stream in order on the calling
thread, in chunks of whole blocks: 2**15 samples or, for a call with more
than 64 target pairs, as few as keep its flag block within 4 MiB. So the
draws, and hence the totals, do not depend on the chunk size.
Each chunk is screened before any per-sample work. With c = 1 - alpha and
x_i a user's received SNR, the near user's ratio is at least c (1 + alpha x1)
and the far user's at least alpha (1 + c x2), whatever the other draw. So a
sample whose uniforms both lie at or above the levels where these bounds
reach the call's largest limits, at its lowest mean SNRs, is in outage at
no entry and pair, and is dropped; the limits are widened by a relative
1e-9, far above the roundings of log1p and the ratio algebra, so every
count keeps its value. Only the kept samples become unit-mean draws and
take the ratio algebra, so the cost follows the share of samples that can
be in outage: 29.7% of them at `validate`'s 20/30/40 dB grid, where the
count takes about 24 ms against 40 ms unscreened on a shared 2-vCPU x86
box. Where nearly every sample is kept, at low SNR, the screen's compare
and gather make it 11-14% slower (10/20/30 and 0/5/10 dB).
Each chunk is drawn once and counted for every entry and target pair of
a call (common random numbers): per entry, one comparison fills a bool
block of both users and every pair, and the popcounts of its uint64 words
count all its rows at once. The draws depend only on the seed and the
sample index; each entry scales them by its own mean SNRs, so any batch
of configs costs one stream: `noma-secrecy validate` counts its whole grid
on the stream keyed by its seed.
"""
from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .channel import ChannelStats, _uniform_pairs
from .rates import validated_alpha
from .sop import TargetRates

__all__ = [
    "SimConfig",
    "EmpiricalSop",
    "empirical_sops",
]

# 2**15 samples per chunk keep the count's buffers near cache; totals do not depend on it.
_CHUNK = 1 << 15
# The flag block takes 2 bytes per target pair and sample of a chunk;
# with many pairs the chunk shrinks to keep the block within this size.
_FLAG_BYTES = 1 << 22
# Relative widening of the screen's limits: far above the few roundings of
# log1p and the ratio algebra, so a screened-out sample never counts.
_SCREEN_MARGIN = 1e-9


@dataclass(frozen=True)
class SimConfig:
    realizations: int = 10**6
    seed: int = 1

    def __post_init__(self) -> None:
        # The stream is read by sample count, so the count must be a true integer,
        # and Philox truncates a float or bool key to another seed's stream.
        for name in ("realizations", "seed"):
            value = getattr(self, name)
            if isinstance(value, bool) or not hasattr(type(value), "__index__"):
                raise TypeError(f"{name} must be an integer, not {value!r}")
        if operator.index(self.realizations) < 1:
            raise ValueError("need at least one realization")
        if not 0 <= operator.index(self.seed) < 2**128:
            raise ValueError("seed must lie within [0, 2**128), the range of Philox keys")


class EmpiricalSop(NamedTuple):
    """Outage frequencies and their binomial standard errors, near user first."""

    value: np.ndarray
    stderr: np.ndarray


def _secrecy_ratios(
    e1: np.ndarray,
    e2: np.ndarray,
    a: float,
    snr1: float,
    snr2: float,
    out: np.ndarray,
) -> np.ndarray:
    """(1 + g11) / (1 + g12) and (1 + g22) / (1 + g21) under the proposed order.

    User i's received SNR is x_i = e_i * snr_i, a unit-mean draw times its
    mean SNR snr_i = rho_t * lambda_i, and the SINRs give 1 + g11 = 1 + a x1,
    1 + g12 = (1 + x2) / (1 + (1 - a) x2), 1 + g22 = 1 + (1 - a) x2 and
    1 + g21 = (1 + x1) / (1 + a x1), so both ratios share one product.
    `out` is scratch of shape (4,) + e1.shape; the two ratios, near user
    first, are returned as its view out[1::-1].
    """
    x1, x2, product, term = out
    np.multiply(e1, snr1, out=x1)
    np.multiply(e2, snr2, out=x2)
    np.multiply(x1, a, out=product)
    np.add(product, 1.0, out=product)
    np.multiply(x2, 1.0 - a, out=term)
    np.add(term, 1.0, out=term)
    np.multiply(product, term, out=product)
    np.add(x2, 1.0, out=x2)
    np.divide(product, x2, out=x2)
    np.add(x1, 1.0, out=x1)
    np.divide(product, x1, out=x1)
    return out[1::-1]


def empirical_sops(stats: ChannelStats, alpha: float, targets: TargetRates, sim: SimConfig) -> EmpiricalSop:
    """Outage frequencies under the proposed decoding order at one alpha.

    A field of `stats` or `targets` may be an array of one value per
    config, and they broadcast as in sop.exact_sops: each field of the
    result has shape (2,) + the broadcast shape, near user first. Every
    config is counted on the same draws, and each estimate equals what a
    call with that config alone gives.
    """
    a = validated_alpha(alpha)
    if a.ndim:
        raise ValueError("the Monte Carlo oracle takes one power split alpha; "
                         "batch configs in the array fields of ChannelStats and TargetRates")
    fields = np.broadcast_arrays(stats.rho_t * stats.lambda1, stats.rho_t * stats.lambda2, targets.pi1, targets.pi2)
    snr1, snr2, pi1, pi2 = (field.ravel().tolist() for field in fields)
    snrs, pis = {}, {}  # each distinct pair -> its index, in first-seen order
    entry = [snrs.setdefault(snr, len(snrs)) for snr in zip(snr1, snr2)]
    limit = [pis.setdefault(pi, len(pis)) for pi in zip(pi1, pi2)]
    # Whole uint64 words of flags per row; validate's 6 pairs keep the full chunk.
    chunk = min(_CHUNK, max(_FLAG_BYTES // (2 * max(len(pis), 1)) // 8 * 8, 8))
    counts = _count_stream(list(snrs), float(a), list(pis), sim, chunk)
    n = sim.realizations
    value = counts[entry, :, limit].T.reshape((2,) + fields[0].shape) / n  # each config's counts
    return EmpiricalSop(value, np.sqrt(value * (1.0 - value) / n))


def _screen_bound(pi: float, scale: float, slope: float) -> float:
    """The uniform u from which on a user's draw can no longer be in outage.

    The user's ratio is at least scale * (1 + slope * e) for its unit-mean
    draw e: scale = 1 - a and slope = a * snr1 for the near user, and
    scale = a and slope = (1 - a) * snr2 for the far user. So no draw with
    e >= t = (pi / scale - 1) / slope is in outage at limit `pi`. The limit
    is widened by _SCREEN_MARGIN, and since e = -log1p(-u) rises with u, the
    bound is -expm1(-t), one step up to cover the rounding of expm1. A nan
    or infinite t, or a slope that underflows to 0, keeps every sample; a
    t <= 0 keeps none.
    """
    t = (pi * (1.0 + _SCREEN_MARGIN) / scale - 1.0) / slope if slope > 0.0 else math.inf
    if math.isnan(t):
        return 1.0
    return math.nextafter(-math.expm1(-t), 1.0) if t > 0.0 else 0.0


def _count_stream(
    snrs: Sequence[tuple[float, float]],
    a: float,
    pis: Sequence[tuple[float, float]],
    sim: SimConfig,
    chunk: int,
) -> np.ndarray:
    """Outage counts of the whole stream, (entries, 2, pairs).

    counts[i, u, j] is user u + 1's count at the mean SNRs snrs[i] and the
    limits pis[j] = (2**rth1, 2**rth2). With no entries it draws nothing.
    Each chunk is screened first: a sample is kept if either user's uniform
    lies below its `_screen_bound` at that user's largest limit, the
    loosest over the call's entries; no other sample is in outage at any
    entry and pair. The kept samples become unit-mean draws; each entry
    scales them by its own mean SNRs and compares both users' ratios with
    every pair's limits in one (2, pairs, kept) bool block, whose width is
    rounded up to 8 so that its rows are whole uint64 words; each flag byte
    is 0 or 1, so a row's count is the sum of its words' popcounts. The
    count keeps one set of buffers, sized by the first chunk, the largest,
    and clears the flags between a chunk's last kept sample and the end of
    its block.
    """
    limits = np.array(pis, float).reshape(-1, 2).T[:, :, None]  # (2, pairs, 1), also at zero pairs
    counts = np.zeros((len(snrs), 2, len(pis)), np.int64)
    if not snrs:
        return counts
    # The loosest bound of the call, at each user's largest limit: -inf at zero pairs keeps none.
    pi1, pi2 = np.max(limits, axis=(1, 2), initial=-math.inf).tolist()
    bound1 = max(_screen_bound(pi1, 1.0 - a, a * snr1) for snr1, _ in snrs)
    bound2 = max(_screen_bound(pi2, a, (1.0 - a) * snr2) for _, snr2 in snrs)
    screen = kept = draws = scratch = flags = words = None
    for pairs in _uniform_pairs(sim.realizations, sim.seed, chunk):
        if screen is None:  # the first chunk is the largest
            size = len(pairs)
            screen, kept = np.empty((2, size), bool), np.empty((size, 2))
            draws, scratch = np.empty(2 * size), np.empty((4, size))
            flags = np.zeros((2, len(pis), -(-size // 8) * 8), bool)
            words = flags.view(np.uint64)
        near, far = screen[:, :len(pairs)]
        np.less(pairs[:, 0], bound1, out=near)
        np.less(pairs[:, 1], bound2, out=far)
        index = np.flatnonzero(np.logical_or(near, far, out=near))
        count = index.size
        # The indices are in range; mode "raise" would take through a temporary copy.
        np.take(pairs, index, axis=0, out=kept[:count], mode="clip")
        # Contiguous (2, count): numpy 2.4's in-place negative skips a row of
        # a (2, 1) column view of a (2, 8) buffer.
        e1, e2 = e = draws[:2 * count].reshape(2, count)
        np.negative(kept[:count].T, out=e)
        np.log1p(e, out=e)
        np.negative(e, out=e)
        width = -(-count // 8) * 8
        flags[..., count:width] = False  # no stale flag past the kept samples
        for (snr1, snr2), entry in zip(snrs, counts):
            ratios = _secrecy_ratios(e1, e2, a, snr1, snr2, scratch[:, :count])
            np.less(ratios[:, None], limits, out=flags[..., :count])
            entry += np.bitwise_count(words[..., :width // 8]).sum(axis=2, dtype=np.int64)
    return counts
