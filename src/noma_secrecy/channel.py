"""System geometry and channel statistics for the two-user downlink.

Distances and powers enter at the boundary (meters, dBm or Watts); everything
downstream runs in linear units. Channel power gains are exponentially
distributed (Rayleigh fading) with mean lambda_i = Lc * d_i**-n, and the
transmit SNR is rho_t = P_t / sigma^2.
"""
from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

__all__ = [
    "SystemParams",
    "ChannelStats",
    "GainSample",
    "dbm_to_watt",
    "watt_to_dbm",
    "mean_gain",
    "derive_stats",
    "received_snr_far_db",
    "rho_t_for_received_snr",
    "with_received_snr",
    "sample_gains",
]


def dbm_to_watt(p_dbm: float) -> float:
    return 10.0 ** (p_dbm / 10.0) * 1e-3


def watt_to_dbm(p_watt: float) -> float:
    if p_watt <= 0.0:
        raise ValueError("power must be positive")
    return 10.0 * np.log10(p_watt / 1e-3)


def mean_gain(d: float, lc: float = 1.0, n: float = 2.5) -> float:
    """Mean channel power gain lc * d**-n at distance d meters."""
    if d <= 0.0 or lc <= 0.0 or n <= 0.0:
        raise ValueError("distance, path-loss constant and exponent must be positive")
    return lc * d ** (-n)


@dataclass(frozen=True)
class SystemParams:
    """Physical setup: geometry, path loss, power budget, noise floor."""

    d1: float                      # BS to near-user distance, meters
    d2: float                      # BS to far-user distance, meters; d2 > d1
    transmit_power: float          # P_t, Watts
    path_loss_exp: float = 2.5     # n
    path_loss_const: float = 1.0   # Lc
    noise_power: float = 1e-9      # sigma^2, Watts (-60 dBm)

    def __post_init__(self) -> None:
        if self.d1 <= 0.0 or self.d2 <= 0.0:
            raise ValueError("distances must be positive")
        if self.d1 >= self.d2:
            raise ValueError("near user must be strictly closer than far user (d1 < d2)")
        if self.path_loss_exp <= 0.0 or self.path_loss_const <= 0.0:
            raise ValueError("path-loss parameters must be positive")
        if self.noise_power <= 0.0 or self.transmit_power <= 0.0:
            raise ValueError("powers must be positive")

    @classmethod
    def from_dbm(
        cls,
        d1: float,
        d2: float,
        transmit_dbm: float,
        path_loss_exp: float = 2.5,
        path_loss_const: float = 1.0,
        noise_dbm: float = -60.0,
    ) -> "SystemParams":
        return cls(
            d1=d1,
            d2=d2,
            transmit_power=dbm_to_watt(transmit_dbm),
            path_loss_exp=path_loss_exp,
            path_loss_const=path_loss_const,
            noise_power=dbm_to_watt(noise_dbm),
        )


@dataclass(frozen=True)
class ChannelStats:
    """Mean gains of both links and the transmit SNR, all linear."""

    lambda1: float
    lambda2: float
    rho_t: float

    def __post_init__(self) -> None:
        # Ties lambda1 == lambda2 are admitted for symmetric diagnostics;
        # derive_stats enforces the strict ordering implied by d1 < d2.
        if not (self.lambda1 >= self.lambda2 > 0.0):
            raise ValueError("mean gains must satisfy lambda1 >= lambda2 > 0")
        if self.rho_t <= 0.0:
            raise ValueError("transmit SNR must be positive")


def derive_stats(params: SystemParams) -> ChannelStats:
    lam1 = mean_gain(params.d1, params.path_loss_const, params.path_loss_exp)
    lam2 = mean_gain(params.d2, params.path_loss_const, params.path_loss_exp)
    if not lam1 > lam2:
        raise ValueError("derived mean gains violate the near/far ordering")
    return ChannelStats(lambda1=lam1, lambda2=lam2, rho_t=params.transmit_power / params.noise_power)


def received_snr_far_db(stats: ChannelStats) -> float:
    """Mean received SNR at the far user, in dB: 10*log10(rho_t * lambda2)."""
    return float(10.0 * np.log10(stats.rho_t * stats.lambda2))


def rho_t_for_received_snr(rho_r_db: float, lambda2: float) -> float:
    """Transmit SNR that yields the given mean received SNR at the far user."""
    if lambda2 <= 0.0:
        raise ValueError("lambda2 must be positive")
    return 10.0 ** (rho_r_db / 10.0) / lambda2


def with_received_snr(stats: ChannelStats, rho_r_db: float) -> ChannelStats:
    return dataclasses.replace(stats, rho_t=rho_t_for_received_snr(rho_r_db, stats.lambda2))


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
    sample and words (2, 3) the next. A window (start, count) advances by
    start // 2 blocks and drops one leading sample when start is odd, so it
    always reproduces the corresponding slice of the single-stream sequence;
    partitioned generation across workers is exact, not approximate.
    """
    if count < 1:
        raise ValueError("count must be at least 1")
    bitgen = np.random.Philox(key=seed)
    if start >= 2:
        bitgen = bitgen.advance(start // 2)
    skip = start % 2
    blocks = (skip + count + 1) // 2
    pairs = np.random.Generator(bitgen).random((blocks, 4)).reshape(-1, 2)[skip:skip + count]
    # In place, column by user: g = -lambda * log1p(-u).
    np.negative(pairs, out=pairs)
    np.log1p(pairs, out=pairs)
    pairs *= (-stats.lambda1, -stats.lambda2)
    return GainSample(g1=pairs[:, 0], g2=pairs[:, 1])
