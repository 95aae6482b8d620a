"""Secrecy outage analysis for a two-user untrusted NOMA downlink.

Exact and high-SNR secrecy outage probabilities under the decoding order in
which each user decodes the other's signal first, the min-max fair power
split (with each user's own optimal split among its candidates), and a
seeded Monte Carlo oracle for validation.
The top level exports the library calls; everything else is reached through
its submodule, each of which `import noma_secrecy` loads.
"""
import os as _os

# The package runs on the calling thread and starts no thread of its own.
# numpy's OpenBLAS reads its thread count once, when it loads, and its
# workers busy-wait; each of the package's BLAS calls is one vector-matrix
# product of 92 or 93 rows, which needs none of them. So unless a BLAS thread
# variable is set, numpy loads here with one thread, and the environment is
# left as it was; numpy imported first keeps its pool.
if not any(v in _os.environ for v in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")):
    _os.environ["OPENBLAS_NUM_THREADS"] = "1"
    try:
        import numpy as _numpy  # noqa: F401
    finally:
        del _os.environ["OPENBLAS_NUM_THREADS"]

from . import channel, config, montecarlo, optimize, rates, sop
from .channel import ChannelStats
from .optimize import minmax_pa
from .sop import QuadratureError, TargetRates, exact_sop_far, exact_sop_near

__all__ = [
    "ChannelStats",
    "TargetRates",
    "QuadratureError",
    "exact_sop_near",
    "exact_sop_far",
    "minmax_pa",
]

__version__ = "0.1.0"
