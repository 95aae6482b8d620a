"""Seeded Monte Carlo estimation of both users' secrecy outage probabilities.

The estimator is the empirical oracle every analytical expression is checked
against: draw gain pairs, apply the proposed decoding order, count outages
R_s < R_th (strict; ties are non-outage). Samples are generated in chunks
from a counter-based stream, so the totals are independent of chunk size and
of any partitioning across workers.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .channel import ChannelStats, sample_gains
from .rates import rates_from_sinrs, sinr_conventional, sinr_proposed
from .sop import TargetRates

__all__ = [
    "SimConfig",
    "EmpiricalSop",
    "empirical_sop",
    "empirical_conventional_violation_rate",
]

_CHUNK = 1 << 18


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


def empirical_sop(
    stats: ChannelStats,
    alpha: float,
    targets: TargetRates,
    sim: SimConfig,
    _chunk: int = _CHUNK,
) -> EmpiricalSop:
    """Outage frequencies under the proposed decoding order."""
    out1 = 0
    out2 = 0
    kept = 0
    for start, count in _chunks(sim.realizations, _chunk):
        gains = sample_gains(stats, count, sim.seed, start)
        if sim.condition_on_ordering:
            mask = gains.g1 > gains.g2
            gains = type(gains)(g1=gains.g1[mask], g2=gains.g2[mask])
            if gains.g1.size == 0:
                continue
        rates = rates_from_sinrs(sinr_proposed(gains, alpha, stats.rho_t))
        out1 += int(np.count_nonzero(rates.rs1 < targets.rth1))
        out2 += int(np.count_nonzero(rates.rs2 < targets.rth2))
        kept += int(np.asarray(rates.rs1).size)
    so1 = out1 / kept if kept else 0.0
    so2 = out2 / kept if kept else 0.0
    return EmpiricalSop(
        so1_hat=so1,
        so2_hat=so2,
        stderr1=_binomial_stderr(so1, kept),
        stderr2=_binomial_stderr(so2, kept),
        n=kept,
    )


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
        rates = rates_from_sinrs(sinr_conventional(gains, alpha, stats.rho_t))
        violations += int(np.count_nonzero(np.asarray(rates.rs2) > 0.0))
        ordered += int(gains.g1.size)
    return violations / ordered if ordered else 0.0

