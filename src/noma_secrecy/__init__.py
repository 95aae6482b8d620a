"""Secrecy outage analysis for a two-user untrusted NOMA downlink.

Exact and high-SNR secrecy outage probabilities under the decoding order in
which each user decodes the other's signal first, the min-max fair power
split (with each user's own optimal split among its candidates), and a
seeded Monte Carlo oracle for validation.
The top level exports the library calls; everything else is reached through
its submodule, each of which `import noma_secrecy` loads.
"""
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
