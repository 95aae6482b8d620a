"""Seeded Monte Carlo estimation of both users' secrecy outage probabilities.

The estimator is the empirical oracle every analytical expression is checked
against: draw gain pairs, apply the proposed decoding order, count outages
R_s < R_th (strict; ties are non-outage). The count needs no logarithm:
R_s1 < R_th1 iff (1 + g11) / (1 + g12) < 2**R_th1, and likewise for the far
user. Samples are generated in chunks from a counter-based stream, two per
Philox block, so the totals are independent of chunk size and of any
partitioning across workers. Each chunk is drawn once and counted against
every target-rate pair of a call (common random numbers), so a sweep over
target rates costs one stream, not one per rate: `noma-secrecy validate`
draws one stream per SNR, seeded `seed + snr_index`.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .channel import ChannelStats, sample_gains
from .rates import _alpha_value, sinr_conventional
from .sop import TargetRates

__all__ = [
    "SimConfig",
    "EmpiricalSop",
    "empirical_sop",
    "empirical_sops",
    "empirical_conventional_violation_rate",
]

# 2**16 samples keep a chunk's temporaries in cache; totals do not depend on it.
_CHUNK = 1 << 16


@dataclass(frozen=True)
class SimConfig:
    realizations: int = 10**6
    seed: int = 1
    condition_on_ordering: bool = False  # keep only draws with g1 > g2

    def __post_init__(self) -> None:
        if self.realizations < 1:
            raise ValueError("need at least one realization")


class EmpiricalSop(NamedTuple):
    so1_hat: float
    so2_hat: float
    stderr1: float
    stderr2: float
    n: int  # samples actually counted (smaller than realizations if conditioned)


def _binomial_stderr(p: float, n: int) -> float:
    if n == 0:
        return 0.0
    return math.sqrt(p * (1.0 - p) / n)


def _chunks(total: int, size: int):
    start = 0
    while start < total:
        count = min(size, total - start)
        yield start, count
        start += count


def _estimate(out1: int, out2: int, kept: int) -> EmpiricalSop:
    so1 = out1 / kept if kept else 0.0
    so2 = out2 / kept if kept else 0.0
    return EmpiricalSop(
        so1_hat=so1,
        so2_hat=so2,
        stderr1=_binomial_stderr(so1, kept),
        stderr2=_binomial_stderr(so2, kept),
        n=kept,
    )


def _secrecy_ratios(
    g1: np.ndarray, g2: np.ndarray, a: float, rho_t: float
) -> tuple[np.ndarray, np.ndarray]:
    """(1 + g11) / (1 + g12) and (1 + g22) / (1 + g21) under the proposed order.

    With x_i = rho_t * g_i the SINRs give 1 + g11 = 1 + a x1,
    1 + g12 = (1 + x2) / (1 + (1 - a) x2), 1 + g22 = 1 + (1 - a) x2 and
    1 + g21 = (1 + x1) / (1 + a x1), so both ratios share one product.
    """
    x1 = rho_t * g1
    x2 = rho_t * g2
    product = (1.0 + a * x1) * (1.0 + (1.0 - a) * x2)
    return product / (1.0 + x2), product / (1.0 + x1)


def empirical_sops(
    stats: ChannelStats,
    alpha: float,
    targets_seq: Sequence[TargetRates],
    sim: SimConfig,
    _chunk: int = _CHUNK,
) -> tuple[EmpiricalSop, ...]:
    """Outage frequencies under the proposed decoding order, one per target pair.

    All target pairs are counted on the same draws, so the estimates share
    one stream and each equals what a separate call with that pair alone gives.
    """
    a = _alpha_value(alpha)
    pis = [(targets.pi1, targets.pi2) for targets in targets_seq]
    out1 = [0] * len(pis)
    out2 = [0] * len(pis)
    kept = 0
    for start, count in _chunks(sim.realizations, _chunk):
        gains = sample_gains(stats, count, sim.seed, start)
        g1, g2 = gains.g1, gains.g2
        if sim.condition_on_ordering:
            mask = g1 > g2
            g1, g2 = g1[mask], g2[mask]
            if g1.size == 0:
                continue
        ratio1, ratio2 = _secrecy_ratios(g1, g2, a, stats.rho_t)
        for index, (pi1, pi2) in enumerate(pis):
            out1[index] += int(np.count_nonzero(ratio1 < pi1))
            out2[index] += int(np.count_nonzero(ratio2 < pi2))
        kept += int(g1.size)
    return tuple(_estimate(o1, o2, kept) for o1, o2 in zip(out1, out2))


def empirical_sop(
    stats: ChannelStats,
    alpha: float,
    targets: TargetRates,
    sim: SimConfig,
    _chunk: int = _CHUNK,
) -> EmpiricalSop:
    """Outage frequencies under the proposed decoding order."""
    return empirical_sops(stats, alpha, (targets,), sim, _chunk)[0]


def empirical_conventional_violation_rate(
    stats: ChannelStats, alpha: float, sim: SimConfig, _chunk: int = _CHUNK
) -> float:
    """Fraction of g1 > g2 draws with positive far-user secrecy, conventional order.

    The decoding-order argument says this must be exactly zero: with the far
    user's signal decoded first at both receivers, the near user always sees
    the better copy of it.
    """
    violations = 0
    ordered = 0
    for start, count in _chunks(sim.realizations, _chunk):
        gains = sample_gains(stats, count, sim.seed, start)
        mask = gains.g1 > gains.g2
        gains = type(gains)(g1=gains.g1[mask], g2=gains.g2[mask])
        if gains.g1.size == 0:
            continue
        # rs2 = log2(1 + g22) - log2(1 + g21) > 0 iff g22 > g21.
        sinrs = sinr_conventional(gains, alpha, stats.rho_t)
        violations += int(np.count_nonzero(sinrs.g22 > sinrs.g21))
        ordered += int(gains.g1.size)
    return violations / ordered if ordered else 0.0

