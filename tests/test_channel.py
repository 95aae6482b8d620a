import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from noma_secrecy.channel import ChannelStats, _uniform_pairs, mean_gain, rho_t_for_received_snr, with_received_snr
from noma_secrecy.config import RunConfig
from reference import GainSample, sample_gains


def test_mean_gain_unit_distance_returns_constant():
    assert mean_gain(1.0, 2.5) == 1.0


def test_mean_gain_hundred_meters():
    # 100**2.5 = 10**5
    assert mean_gain(100.0, 2.5) == pytest.approx(1.0e-5, rel=1e-14)


def test_mean_gain_fifty_meters():
    # 1 / (2500 * sqrt(50))
    expected = 1.0 / (2500.0 * math.sqrt(50.0))
    assert mean_gain(50.0, 2.5) == pytest.approx(expected, rel=1e-14)
    assert mean_gain(50.0, 2.5) == pytest.approx(5.6569e-5, rel=1e-4)


@pytest.mark.parametrize("d,n", [(0.0, 2.5), (-3.0, 2.5), (10.0, -1.0)])
def test_mean_gain_rejects_nonpositive_inputs(d, n):
    with pytest.raises(ValueError):
        mean_gain(d, n)


def test_derive_stats_reference_geometry():
    # 50 m / 100 m users, transmit SNR of one: mean received SNR at 100 m is 1e-5 = -50 dB
    stats = RunConfig(d1_m=50.0, d2_m=100.0, rho_r_db=-50.0).stats()
    assert stats.lambda1 == pytest.approx(5.6569e-5, rel=1e-4)
    assert stats.lambda2 == pytest.approx(1.0e-5, rel=1e-14)
    assert stats.rho_t == 1.0


@given(
    d_lo=st.floats(min_value=0.1, max_value=1e4),
    bump=st.floats(min_value=1e-3, max_value=1e4),
    n=st.floats(min_value=0.1, max_value=6.0),
)
def test_mean_gain_strictly_decreasing_in_distance(d_lo, bump, n):
    assert mean_gain(d_lo + bump, n) < mean_gain(d_lo, n)


@pytest.mark.parametrize(
    "rho_t,expected_db",
    [(1e5, 0.0), (1e8, 30.0), (1e7, 20.0)],
)
def test_received_snr_far_db(rho_t, expected_db):
    # A far user at 100 m (lambda2 = 1e-5) receives rho_t * 1e-5 on average.
    assert rho_t_for_received_snr(expected_db, 1e-5) == pytest.approx(rho_t, rel=1e-12)


@given(rho_r=st.floats(min_value=-30.0, max_value=60.0))
def test_received_snr_roundtrip(rho_r):
    lam2 = 1e-5
    stats = ChannelStats(lambda1=5.66e-5, lambda2=lam2, rho_t=rho_t_for_received_snr(rho_r, lam2))
    assert 10.0 * math.log10(stats.rho_t * stats.lambda2) == pytest.approx(rho_r, abs=1e-9)


def test_with_received_snr_only_touches_rho_t():
    stats = ChannelStats(lambda1=5.66e-5, lambda2=1e-5, rho_t=1.0)
    bumped = with_received_snr(stats, 30.0)
    assert (bumped.lambda1, bumped.lambda2) == (stats.lambda1, stats.lambda2)
    assert bumped.rho_t == pytest.approx(1e8, rel=1e-12)


def test_channel_stats_validation():
    with pytest.raises(ValueError):
        ChannelStats(lambda1=1e-5, lambda2=5.66e-5, rho_t=1.0)  # reversed ordering
    with pytest.raises(ValueError):
        ChannelStats(lambda1=1e-5, lambda2=1e-6, rho_t=0.0)
    # ties are allowed for symmetric diagnostics
    ChannelStats(lambda1=1e-5, lambda2=1e-5, rho_t=1.0)


@pytest.mark.parametrize("field", ["lambda1", "lambda2", "rho_t"])
@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_channel_stats_rejects_non_finite_fields(field, bad):
    values = {"lambda1": 1e-4, "lambda2": 1e-5, "rho_t": 1e6}
    values[field] = bad
    with pytest.raises(ValueError, match="finite"):
        ChannelStats(**values)


@pytest.mark.parametrize("field,bad", [
    ("lambda1", math.nan), ("lambda2", math.inf), ("rho_t", math.nan),  # not finite
    ("lambda2", 2e-4),  # lambda1 < lambda2
    ("lambda2", 0.0), ("rho_t", 0.0), ("rho_t", -1.0),  # not positive
])
def test_channel_stats_reject_an_array_with_one_bad_element_as_its_float_config(field, bad):
    # An array field holds one config per element; each meets the float rules.
    values = {"lambda1": np.full(3, 1e-4), "lambda2": np.full(3, 1e-5), "rho_t": np.full(3, 1e6)}
    values[field][1] = bad
    with pytest.raises(ValueError) as from_floats:
        ChannelStats(**{key: float(value[1]) for key, value in values.items()})
    with pytest.raises(ValueError) as from_arrays:
        ChannelStats(**values)
    assert str(from_arrays.value) == str(from_floats.value)
    values[field][1] = values[field][0]
    assert ChannelStats(**values).lambda2.shape == (3,)


def test_gain_sample_rejects_negative():
    with pytest.raises(ValueError):
        GainSample(g1=-1.0, g2=1.0)
    GainSample(g1=np.array([0.0, 1.0]), g2=np.array([2.0, 3.0]))


STATS = ChannelStats(lambda1=1.0, lambda2=1e-5, rho_t=1.0)


def test_sample_gains_deterministic():
    a = sample_gains(STATS, 1000, seed=42)
    b = sample_gains(STATS, 1000, seed=42)
    assert np.array_equal(a.g1, b.g1) and np.array_equal(a.g2, b.g2)
    c = sample_gains(STATS, 1000, seed=43)
    assert not np.array_equal(a.g1, c.g1)


def test_sample_gains_partitioning_reproduces_single_stream():
    whole = sample_gains(STATS, 1000, seed=7)
    first = sample_gains(STATS, 300, seed=7, start=0)
    second = sample_gains(STATS, 700, seed=7, start=300)
    assert np.array_equal(whole.g1, np.concatenate([first.g1, second.g1]))
    assert np.array_equal(whole.g2, np.concatenate([first.g2, second.g2]))


@pytest.mark.parametrize(
    "windows",
    [
        ((0, 301), (301, 700)),
        ((0, 1), (1, 1), (2, 999)),
        ((0, 1000), (1000, 1)),
        ((0, 2), (2, 3), (5, 996)),
    ],
)
def test_odd_windows_reproduce_single_stream(windows):
    whole = sample_gains(STATS, 1001, seed=7)
    parts = [sample_gains(STATS, count, seed=7, start=start) for start, count in windows]
    assert np.array_equal(whole.g1, np.concatenate([part.g1 for part in parts]))
    assert np.array_equal(whole.g2, np.concatenate([part.g2 for part in parts]))


def test_two_samples_per_philox_block():
    words = np.random.Generator(np.random.Philox(key=7)).random((2, 4))
    gains = sample_gains(STATS, 4, seed=7)
    assert np.array_equal(gains.g1, -STATS.lambda1 * np.log1p(-words[:, [0, 2]].ravel()))
    assert np.array_equal(gains.g2, -STATS.lambda2 * np.log1p(-words[:, [1, 3]].ravel()))


@pytest.mark.parametrize("start", [0, 2, 1_000, 65_538])
@pytest.mark.parametrize("chunk", [1, 999, 1_000, 1 << 15])
def test_stream_yields_the_unit_mean_draws_of_one_window(start, chunk):
    # The library's stream of uniform pairs, read chunk by chunk from its
    # first sample, gives the reference's unit-mean draws of the window at
    # `start` bit for bit under e = -log1p(-u), apart from any counting,
    # however many chunks lie before the window.
    n, seed = 5_001, 31
    uniforms = np.concatenate([pairs.copy() for pairs in _uniform_pairs(start + n, seed, chunk)])
    draws = -np.log1p(-uniforms[start:])
    expected = sample_gains(ChannelStats(1.0, 1.0, 1.0), n, seed, start)
    assert np.array_equal(draws[:, 0], expected.g1)
    assert np.array_equal(draws[:, 1], expected.g2)


def test_sample_gains_rejects_empty():
    with pytest.raises(ValueError):
        sample_gains(STATS, 0, seed=1)


def test_sample_means_match_parameters():
    n = 10**6
    gains = sample_gains(STATS, n, seed=11)
    # 3 sigma bound for an exponential: 3 * lambda / sqrt(n)
    assert abs(gains.g1.mean() - 1.0) <= 3.0 / math.sqrt(n)
    assert abs(gains.g2.mean() - 1e-5) <= 3.0 * 1e-5 / math.sqrt(n)


def test_sampled_cdf_matches_exponential():
    n = 10**6
    gains = sample_gains(STATS, n, seed=13)
    ordered = np.sort(gains.g1)
    cdf = -np.expm1(-ordered / STATS.lambda1)
    steps = np.arange(n, dtype=float)
    ks = max(np.max(cdf - steps / n), np.max((steps + 1.0) / n - cdf))
    assert ks <= 0.002
