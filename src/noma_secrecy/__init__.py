"""Secrecy outage analysis for a two-user untrusted NOMA downlink.

Exact and high-SNR secrecy outage probabilities under the decoding order in
which each user decodes the other's signal first, per-user and min-max fair
power-split optimization, and a seeded Monte Carlo oracle for validation.
"""
from .channel import (
    ChannelStats,
    GainSample,
    SystemParams,
    derive_stats,
    mean_gain,
    received_snr_far_db,
    rho_t_for_received_snr,
    sample_gains,
    with_received_snr,
)
from .config import ConfigError, RunConfig, SweepSpec, load_config, parse_config
from .montecarlo import (
    EmpiricalSop,
    SimConfig,
    empirical_conventional_violation_rate,
    empirical_sop,
)
from .optimize import (
    Candidate,
    CandidateSet,
    ClosedFormAlpha,
    MinMaxOutcome,
    equal_sop_alpha,
    equal_sop_alpha_asymptotic,
    minmax_pa,
    minmax_pa_asymptotic,
    optimal_pa_far,
    optimal_pa_far_asymptotic,
    optimal_pa_near,
    optimal_pa_near_asymptotic,
)
from .rates import (
    ALPHA_MAX,
    ALPHA_MIN,
    RateSet,
    SinrSet,
    conventional_far_secrecy_is_nonpositive,
    positive_secrecy_window,
    rates_from_sinrs,
    sinr_conventional,
    sinr_proposed,
)
from .sop import (
    QuadratureError,
    SopValue,
    TargetRates,
    asymptotic_sop_far,
    asymptotic_sop_near,
    exact_sop_far,
    exact_sop_near,
    log_integrand_far,
    log_integrand_near,
)

__version__ = "0.1.0"
