"""Seeded Monte Carlo estimation of both users' secrecy outage probabilities.

The estimator is the empirical oracle every analytical expression is checked
against: draw gain pairs, apply the proposed decoding order, count outages
R_s < R_th (strict; ties are non-outage). The count needs no logarithm:
R_s1 < R_th1 iff (1 + g11) / (1 + g12) < 2**R_th1, and likewise for the far
user. Each stream is one Philox key, two samples per counter block.
`empirical_sops` reads the stream in order on the calling thread, in chunks
of whole blocks: 2**15 samples or, for a call with more than 64 target
pairs, as few as keep its flag block within 4 MiB. So the draws, and hence
the totals, do not depend on the chunk size.
The count keeps one set of buffers: the uniforms become unit-mean
exponential draws in place, and the ratio algebra runs into reused arrays.
Each chunk is drawn once and counted for every channel entry and target
pair of a call (common random numbers): per entry, one comparison fills a
bool block of both users and every pair, and the popcounts of its uint64
words count all its rows at once. The draws depend only on the seed and
the sample index; each entry scales them by its own mean SNRs
rho_t * lambda1 and rho_t * lambda2, so any set of entries and target rates
costs one stream: `noma-secrecy validate` counts its whole grid on the
stream keyed by its seed.
"""
from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .channel import ChannelStats, _unit_draws
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
    so1_hat: float
    so2_hat: float
    stderr1: float
    stderr2: float


def _estimate(out1: int, out2: int, n: int) -> EmpiricalSop:
    """Outage frequencies of n samples and their binomial standard errors."""
    so1 = out1 / n
    so2 = out2 / n
    return EmpiricalSop(so1, so2, math.sqrt(so1 * (1.0 - so1) / n), math.sqrt(so2 * (1.0 - so2) / n))


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


def empirical_sops(
    stats_seq: Sequence[ChannelStats],
    alpha: float,
    targets_seq: Sequence[TargetRates],
    sim: SimConfig,
) -> tuple[tuple[EmpiricalSop, ...], ...]:
    """Outage frequencies under the proposed decoding order, one row per entry.

    Row i holds one estimate per target pair for `stats_seq[i]`. Every entry
    scales the same unit-mean draws by its own mean SNRs, so every entry and
    every target pair is counted on the same draws, and each estimate equals
    what a separate call with that entry and that pair alone gives.
    """
    stats_seq = tuple(stats_seq)
    a = float(validated_alpha(alpha))
    if not stats_seq:
        return ()
    pis = [(targets.pi1, targets.pi2) for targets in targets_seq]
    total = sim.realizations
    # Whole uint64 words of flags per row; validate's 6 pairs keep the full chunk.
    chunk = min(_CHUNK, max(_FLAG_BYTES // (2 * max(len(pis), 1)) // 8 * 8, 8))
    counts = _count_stream(stats_seq, a, pis, sim, chunk)
    # tolist() makes the counts Python ints.
    return tuple(tuple(_estimate(out1, out2, total) for out1, out2 in zip(*entry)) for entry in counts.tolist())


def _count_stream(
    stats_seq: Sequence[ChannelStats],
    a: float,
    pis: Sequence[tuple[float, float]],
    sim: SimConfig,
    chunk: int,
) -> np.ndarray:
    """Outage counts of the whole stream, (entries, 2, pairs).

    counts[i, u, j] is user u + 1's count for entry i
    and target pair j. Each entry scales the unit-mean draws by its own mean
    SNRs and compares both users' ratios with every pair's limits in one
    (2, pairs, samples) bool block, whose width is rounded up to 8 so that
    its rows are whole uint64 words; each flag byte is 0 or 1, so a row's
    count is the sum of its words' popcounts. The count keeps one set of
    buffers: the first chunk is the largest, later chunks reuse views of
    it, and a shorter chunk clears the flags past its end.
    """
    limits = np.array(pis, float).reshape(-1, 2).T[:, :, None]  # (2, pairs, 1), also at zero pairs
    counts = np.zeros((len(stats_seq), 2, len(pis)), np.int64)
    snrs = [(stats.rho_t * stats.lambda1, stats.rho_t * stats.lambda2) for stats in stats_seq]
    scratch = flags = words = None
    for e1, e2 in _unit_draws(sim.realizations, sim.seed, chunk):
        count = e1.size
        if scratch is None:  # the first chunk is the largest
            scratch, flags = np.empty((4, count)), np.zeros((2, len(pis), -(-count // 8) * 8), bool)
            words = flags.view(np.uint64)
        flags[..., count:] = False  # a shorter last chunk leaves no stale flag
        for (snr1, snr2), entry in zip(snrs, counts):
            ratios = _secrecy_ratios(e1, e2, a, snr1, snr2, scratch[:, :count])
            np.less(ratios[:, None], limits, out=flags[..., :count])
            entry += np.bitwise_count(words).sum(axis=2, dtype=np.int64)
    return counts
