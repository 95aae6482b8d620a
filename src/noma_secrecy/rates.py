"""The admissible power-split window and its one validator.

Every library entry point that takes a power split alpha (the near user's
share of the transmit power) checks it here, so the SOP quadratures, the
closed forms and the Monte Carlo oracle accept the same alphas, and so does
the run configuration, which checks its power splits here too; the
optimizers search within the same bounds.
"""
from __future__ import annotations

import numpy as np

__all__ = ["ALPHA_MIN", "ALPHA_MAX"]

# Admissible power-split window; the outage integrals diverge at 0 and 1.
ALPHA_MIN = 1e-6
ALPHA_MAX = 1.0 - 1e-6


def validated_alpha(alpha) -> np.ndarray:
    a = np.asarray(alpha, dtype=float)
    if not ((a >= ALPHA_MIN) & (a <= ALPHA_MAX)).all():
        raise ValueError(f"power split alpha must lie within [{ALPHA_MIN:g}, {ALPHA_MAX:g}]")
    return a
