"""SINR and rate algebra for both decoding orders.

Conventional order: the far user's signal is decoded first everywhere, so the
near user treats it as known and the far user decodes under interference.
Proposed order: each user decodes the other's signal first, which is what
creates a positive-secrecy window for both users simultaneously.

Secrecy rates are kept signed; outage counting needs negative values to
propagate (clamping at zero would change Pr{R_s < R_th}).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import GainSample

__all__ = [
    "ALPHA_MIN",
    "ALPHA_MAX",
    "SinrSet",
    "RateSet",
    "sinr_conventional",
    "sinr_proposed",
    "rates_from_sinrs",
    "positive_secrecy_window",
    "conventional_far_secrecy_is_nonpositive",
]

# Admissible power-split window; the outage integrals diverge at 0 and 1.
ALPHA_MIN = 1e-6
ALPHA_MAX = 1.0 - 1e-6


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
