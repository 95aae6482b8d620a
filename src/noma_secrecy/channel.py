"""Channel statistics for the two-user downlink, in linear units.

Channel power gains are exponentially distributed (Rayleigh fading) with
mean lambda_i = d_i**-n at distance d_i meters, and rho_t is the transmit
SNR. A run sets the mean received SNR at the far user, rho_t * lambda2, so
every outage probability depends only on rho_t * lambda1 and rho_t * lambda2:
a path-loss constant or a noise power would cancel out, and neither appears.
So the Monte Carlo stream draws the uniforms of unit-mean exponentials,
whatever the channel, and each entry scales the draws by its own mean SNRs
rho_t * lambda_i.
"""
from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "ChannelStats",
    "mean_gain",
    "rho_t_for_received_snr",
    "with_received_snr",
]


def mean_gain(d: float, n: float = 2.5) -> float:
    """Mean channel power gain d**-n at distance d meters."""
    if d <= 0.0 or n <= 0.0:
        raise ValueError("distance and path-loss exponent must be positive")
    return d ** (-n)


def _every(ok) -> bool:  # a check on floats, or on arrays at every element
    return ok is True or bool(np.all(ok))


def _one_config(*configs) -> None:
    """Each of these ChannelStats and TargetRates is one configuration: every
    field must be a float or a 0-d array, not one value per config."""
    if any(np.ndim(value) for config in configs for value in vars(config).values()):
        raise ValueError("this call takes one configuration per ChannelStats and TargetRates: "
                         "their fields must be scalars, not arrays")


@dataclass(frozen=True)
class ChannelStats:
    """Mean gains of both links and the transmit SNR, all linear: floats, or arrays of one value per config."""

    lambda1: float | np.ndarray
    lambda2: float | np.ndarray
    rho_t: float | np.ndarray

    def __post_init__(self) -> None:
        lam1, lam2, rho_t = self.lambda1, self.lambda2, self.rho_t
        if not _every((abs(lam1) < math.inf) & (abs(lam2) < math.inf) & (abs(rho_t) < math.inf)):
            raise ValueError("mean gains and transmit SNR must be finite")
        # Ties lambda1 == lambda2 are admitted for symmetric diagnostics;
        # RunConfig requires d1 < d2 of every configured geometry.
        if not _every((lam1 >= lam2) & (lam2 > 0.0)):
            raise ValueError("mean gains must satisfy lambda1 >= lambda2 > 0")
        if not _every(rho_t > 0.0):
            raise ValueError("transmit SNR must be positive")


def rho_t_for_received_snr(rho_r_db: float, lambda2: float) -> float:
    """Transmit SNR that yields the given mean received SNR at the far user."""
    if lambda2 <= 0.0:
        raise ValueError("lambda2 must be positive")
    return 10.0 ** (rho_r_db / 10.0) / lambda2


def with_received_snr(stats: ChannelStats, rho_r_db: float) -> ChannelStats:
    return dataclasses.replace(stats, rho_t=rho_t_for_received_snr(rho_r_db, stats.lambda2))


def _uniform_pairs(total: int, seed: int, chunk: int):
    """Yield (count, 2) views of the first `total` uniform pairs of a stream.

    The stream is Generator(Philox(key=seed)) read in order, two samples per
    counter block, into one reused buffer: words (0, 1) of a block are one
    sample's (u1, u2) row and words (2, 3) the next one's. Each uniform u in
    [0, 1) gives the unit-mean exponential draw e = -log1p(-u), which rises
    with u; a user's gain is its mean gain times e. The caller applies that
    transform, so it can skip the samples it has no use for. A chunk is
    rounded up to whole Philox blocks (an even sample count), so the
    generator never holds a partly used block between chunks; the last
    chunk drops its odd sample. The uniforms therefore do not depend on
    `chunk`. Each yielded view is overwritten by the next chunk.
    """
    generator = np.random.Generator(np.random.Philox(key=seed))
    words = np.empty(((min(chunk, total) + 1) // 2, 4))
    while total > 0:
        count = min(2 * len(words), total)
        block = words[:(count + 1) // 2]
        generator.random(out=block)
        yield block.reshape(-1, 2)[:count]
        total -= count
