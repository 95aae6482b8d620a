import math

import numpy as np
import pytest
from hypothesis import given, assume, settings
from hypothesis import strategies as st

from reference import (
    GainSample,
    conventional_far_secrecy_is_nonpositive,
    positive_secrecy_window,
    rates_from_sinrs,
    sinr_conventional,
    sinr_proposed,
)

SAMPLE = GainSample(g1=2.0, g2=1.0)


def test_conventional_sinrs_reference_point():
    s = sinr_conventional(SAMPLE, 0.5, rho_t=10.0)
    assert s.g11 == pytest.approx(10.0, rel=1e-12)
    assert s.g12 == pytest.approx(5.0, rel=1e-12)
    assert s.g21 == pytest.approx(1.0 / 1.1, rel=1e-12)
    assert s.g22 == pytest.approx(0.5 / 0.6, rel=1e-12)
    assert s.order == "conventional"


def test_proposed_sinrs_reference_point():
    s = sinr_proposed(SAMPLE, 0.5, rho_t=10.0)
    assert s.g11 == pytest.approx(10.0, rel=1e-12)
    assert s.g12 == pytest.approx(0.5 / 0.6, rel=1e-12)
    assert s.g21 == pytest.approx(1.0 / 1.1, rel=1e-12)
    assert s.g22 == pytest.approx(5.0, rel=1e-12)
    assert s.order == "proposed"


def test_vanishing_near_power_kills_own_signal():
    s = sinr_conventional(SAMPLE, 1e-9, rho_t=10.0)
    assert s.g11 < 1e-6 and s.g12 < 1e-6


def test_vanishing_far_power_kills_far_signal():
    s = sinr_proposed(SAMPLE, 1.0 - 1e-9, rho_t=10.0)
    assert s.g22 < 1e-6


def test_identical_gains_collapse_cross_sinrs():
    sample = GainSample(g1=1.7, g2=1.7)
    s = sinr_conventional(sample, 0.3, rho_t=5.0)
    assert s.g11 == pytest.approx(s.g12, rel=1e-14)
    assert s.g21 == pytest.approx(s.g22, rel=1e-14)


def test_interference_limited_symmetric_limit():
    sample = GainSample(g1=1.0, g2=1.0)
    s = sinr_proposed(sample, 0.5, rho_t=1e12)
    assert s.g12 == pytest.approx(1.0, rel=1e-6)
    assert s.g21 == pytest.approx(1.0, rel=1e-6)


def test_secrecy_rate_reference_point():
    rates = rates_from_sinrs(sinr_proposed(SAMPLE, 0.5, rho_t=10.0))
    # (1 + 10) / (1 + 0.5/0.6) = 6
    assert rates.rs1 == pytest.approx(math.log2(6.0), rel=1e-12)
    assert rates.rs1 == pytest.approx(2.584962500721156, rel=1e-12)


def test_zero_sinrs_give_zero_rates():
    s = sinr_proposed(GainSample(g1=0.0, g2=0.0), 0.5, rho_t=10.0)
    rates = rates_from_sinrs(s)
    assert rates.r11 == rates.r12 == rates.r21 == rates.r22 == 0.0
    assert rates.rs1 == 0.0 and rates.rs2 == 0.0


def test_equal_cross_sinrs_cancel():
    sample = GainSample(g1=1.7, g2=1.7)
    rates = rates_from_sinrs(sinr_conventional(sample, 0.3, rho_t=5.0))
    assert rates.rs1 == pytest.approx(0.0, abs=1e-14)


def test_window_reference_point():
    lower, upper = positive_secrecy_window(SAMPLE, rho_t=10.0)
    assert lower == pytest.approx(0.05, rel=1e-14)
    assert upper == 1.0


def test_window_tied_gains_open_everything():
    lower, upper = positive_secrecy_window(GainSample(g1=1.0, g2=1.0), rho_t=10.0)
    assert lower == 0.0 and upper == 1.0


def test_window_can_be_empty():
    lower, upper = positive_secrecy_window(SAMPLE, rho_t=0.5)
    assert lower == pytest.approx(1.0, rel=1e-14)
    assert lower >= upper - 1e-14  # nothing strictly inside


def test_window_rejects_reversed_gains():
    with pytest.raises(ValueError):
        positive_secrecy_window(GainSample(g1=1.0, g2=2.0), rho_t=10.0)
    with pytest.raises(ValueError):
        positive_secrecy_window(GainSample(g1=1.0, g2=0.0), rho_t=10.0)


def test_conventional_far_secrecy_reference_point():
    assert conventional_far_secrecy_is_nonpositive(SAMPLE, 0.5, rho_t=10.0) is True


def test_conventional_far_secrecy_boundary_tie():
    assert conventional_far_secrecy_is_nonpositive(GainSample(g1=1.0, g2=1.0), 0.5, 10.0) is True


def test_conventional_far_secrecy_bulk_sweep():
    rng = np.random.default_rng(0)
    g2 = rng.exponential(1.0, size=1000)
    g1 = g2 + rng.exponential(1.0, size=1000)
    flags = conventional_far_secrecy_is_nonpositive(GainSample(g1=g1, g2=g2), 0.37, rho_t=250.0)
    assert bool(np.all(flags))


gain_pairs = st.tuples(
    st.floats(min_value=1e-6, max_value=1e3),
    st.floats(min_value=1e-3, max_value=1e3),
).map(lambda pair: (pair[0] * (1.0 + pair[1]), pair[0]))

alphas = st.floats(min_value=1e-6, max_value=1.0 - 1e-6)
snrs = st.floats(min_value=1e-3, max_value=1e9)


@given(pair=gain_pairs, alpha=alphas, rho_t=snrs)
def test_conventional_order_secrecy_signs(pair, alpha, rho_t):
    g1, g2 = pair
    rates = rates_from_sinrs(sinr_conventional(GainSample(g1=g1, g2=g2), alpha, rho_t))
    assert rates.rs1 >= 0.0
    assert rates.rs2 <= 0.0


@given(pair=gain_pairs, alpha=alphas, rho_t=snrs)
def test_proposed_order_signs_agree_with_window(pair, alpha, rho_t):
    g1, g2 = pair
    sample = GainSample(g1=g1, g2=g2)
    lower, upper = positive_secrecy_window(sample, rho_t)
    # stay clear of knife edges where float rounding decides the sign
    assume(abs(alpha - lower) > 1e-9 * max(1.0, lower))
    assume(abs(alpha - upper) > 1e-9)
    rates = rates_from_sinrs(sinr_proposed(sample, alpha, rho_t))
    assume(abs(rates.rs1) > 1e-12 and abs(rates.rs2) > 1e-12)
    assert (rates.rs1 > 0.0) == (alpha < upper)
    assert (rates.rs2 > 0.0) == (alpha > lower)


@given(pair=gain_pairs, alpha=alphas, rho_t=snrs)
def test_own_signal_sinr_identical_across_orders(pair, alpha, rho_t):
    g1, g2 = pair
    sample = GainSample(g1=g1, g2=g2)
    conv = sinr_conventional(sample, alpha, rho_t)
    prop = sinr_proposed(sample, alpha, rho_t)
    assert conv.g11 == prop.g11
    assert conv.g21 == prop.g21  # eavesdropping on the near user is order-independent too


@given(pair=gain_pairs, alpha=alphas, rho_t=snrs, bump=st.floats(min_value=1e-6, max_value=10.0))
def test_proposed_rs1_nondecreasing_in_g1(pair, alpha, rho_t, bump):
    g1, g2 = pair
    low = rates_from_sinrs(sinr_proposed(GainSample(g1=g1, g2=g2), alpha, rho_t))
    high = rates_from_sinrs(sinr_proposed(GainSample(g1=g1 + bump, g2=g2), alpha, rho_t))
    assert high.rs1 >= low.rs1 - 1e-12


@given(pair=gain_pairs, alpha=alphas, rho_t=snrs, bump=st.floats(min_value=1e-6, max_value=10.0))
def test_proposed_rs2_nondecreasing_in_g2(pair, alpha, rho_t, bump):
    g1, g2 = pair
    low = rates_from_sinrs(sinr_proposed(GainSample(g1=g1, g2=g2), alpha, rho_t))
    high = rates_from_sinrs(sinr_proposed(GainSample(g1=g1, g2=g2 + bump), alpha, rho_t))
    assert high.rs2 >= low.rs2 - 1e-12


def test_power_split_validation():
    # The reference SINRs accept any split strictly inside (0, 1); the library
    # takes only [ALPHA_MIN, ALPHA_MAX] (test_sop.py).
    for sinr in (sinr_conventional, sinr_proposed):
        assert sinr(SAMPLE, 1e-9, rho_t=10.0).g11 == pytest.approx(2e-8, rel=1e-12)
        for bad in (0.0, 1.0, -0.2, 1.7, math.nan):
            with pytest.raises(ValueError):
                sinr(SAMPLE, bad, rho_t=10.0)
