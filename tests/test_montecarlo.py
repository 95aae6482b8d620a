import math
import pathlib
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import reference
from noma_secrecy import montecarlo, sop
from noma_secrecy.channel import ChannelStats, with_received_snr
from noma_secrecy.montecarlo import EmpiricalSop, SimConfig, _count_slice, _secrecy_ratios, empirical_sops
from noma_secrecy.rates import ALPHA_MIN
from noma_secrecy.sop import TargetRates, exact_sop_far, exact_sop_near
from reference import (
    GainSample,
    empirical_conventional_violation_rate,
    rates_from_sinrs,
    sample_gains,
    sinr_conventional,
    sinr_proposed,
)

LAM1 = 50.0 ** -2.5
LAM2 = 100.0 ** -2.5
STATS_30DB = ChannelStats(LAM1, LAM2, 1e8)
RTH1 = TargetRates(1.0, 1.0)
# Every draw is counted (no conditioning on g1 > g2). The constant False
# parameter only keeps these cases' test ids stable; its value is unused.
UNCONDITIONED = pytest.mark.parametrize("conditioned", [False])


def test_runs_are_deterministic():
    sim = SimConfig(realizations=20_000, seed=11)
    first = empirical_sops((STATS_30DB,), 0.5, (RTH1,), sim)[0][0]
    second = empirical_sops((STATS_30DB,), 0.5, (RTH1,), sim)[0][0]
    assert first == second


def test_totals_do_not_depend_on_chunking(monkeypatch):
    sim = SimConfig(realizations=50_000, seed=3)
    default = empirical_sops((STATS_30DB,), 0.4, (RTH1,), sim)[0][0]
    monkeypatch.setattr(montecarlo, "_CHUNK", 1000)
    tiny_chunks = empirical_sops((STATS_30DB,), 0.4, (RTH1,), sim)[0][0]
    monkeypatch.setattr(montecarlo, "_CHUNK", 999)
    odd_chunks = empirical_sops((STATS_30DB,), 0.4, (RTH1,), sim)[0][0]
    assert default == tiny_chunks == odd_chunks


@UNCONDITIONED
def test_many_targets_match_single_target_calls(conditioned):
    sim = SimConfig(realizations=50_001, seed=4)
    targets_seq = [
        TargetRates(0.5, 3.0), TargetRates(1.0, 1.0), TargetRates(3.0, 0.25), TargetRates(0.0, 0.0)
    ]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(montecarlo, "_CHUNK", 10_007)
        together = empirical_sops((STATS_30DB,), 0.4, targets_seq, sim)[0]
    assert len(together) == len(targets_seq)
    for targets, joint in zip(targets_seq, together):
        single = empirical_sops((STATS_30DB,), 0.4, (targets,), sim)[0][0]
        for field in EmpiricalSop._fields:
            assert getattr(joint, field) == getattr(single, field), field
    assert empirical_sops((STATS_30DB,), 0.4, (), sim)[0] == ()


STREAM_TARGETS = (TargetRates(0.5, 3.0), TargetRates(1.0, 1.0), TargetRates(3.0, 0.25))


@settings(max_examples=30, deadline=None)
@given(
    rho_t_exponents=st.lists(st.floats(-2.0, 10.0), min_size=1, max_size=4),
    half=st.integers(0, 3_000),
    chunk=st.integers(1, 2_500),
    workers=st.integers(1, 3),
)
@example(rho_t_exponents=[8.0, 9.0, 10.0], half=3_000, chunk=999, workers=3)
def test_each_entry_counts_like_its_own_call(rho_t_exponents, half, chunk, workers):
    # Entries that differ only in rho_t share one stream; each row must be
    # bit-identical to a call with that entry alone, at any worker count.
    sim = SimConfig(realizations=2 * half + 1, seed=9)
    stats_seq = [ChannelStats(LAM1, LAM2, 10.0**exponent) for exponent in rho_t_exponents]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sop, "_usable_cpus", lambda: workers)
        patch.setattr(montecarlo, "_CHUNK", chunk)
        rows = empirical_sops(stats_seq, 0.4, STREAM_TARGETS, sim)
    assert len(rows) == len(stats_seq)
    for stats, row in zip(stats_seq, rows):
        assert row == empirical_sops((stats,), 0.4, STREAM_TARGETS, sim)[0]


@pytest.mark.parametrize(
    "other",
    [ChannelStats(2 * LAM1, LAM2, 1e8), ChannelStats(LAM1, LAM2 / 2, 1e8)],
    ids=["lambda1-differs", "lambda2-differs"],
)
def test_entries_must_share_mean_gains(monkeypatch, other):
    def no_philox(*args, **kwargs):
        raise AssertionError("a Philox generator was built")

    monkeypatch.setattr(np.random, "Philox", no_philox)
    with pytest.raises(ValueError, match="must share lambda1 and lambda2"):
        empirical_sops((STATS_30DB, other), 0.4, STREAM_TARGETS, SimConfig(realizations=1_000))


def test_no_entries_give_no_rows():
    assert empirical_sops((), 0.4, STREAM_TARGETS, SimConfig(realizations=1_000)) == ()


@pytest.mark.parametrize("chunk", [999, 1000, 10_007, 1 << 16])
@UNCONDITIONED
def test_stream_counts_match_one_sample_gains_window(monkeypatch, chunk, conditioned):
    # The kernel reads one generator chunk by chunk; its counts must be those
    # of the single window sample_gains(stats, n, seed), whatever the chunk.
    n, seed, alpha = 30_001, 21, 0.4
    gains = sample_gains(STATS_30DB, n, seed)
    ratio1, ratio2 = _secrecy_ratios(gains.g1, gains.g2, alpha, STATS_30DB.rho_t, np.empty((4, n)))
    sim = SimConfig(realizations=n, seed=seed)
    monkeypatch.setattr(montecarlo, "_CHUNK", chunk)
    results = empirical_sops((STATS_30DB,), alpha, STREAM_TARGETS, sim)[0]
    for targets, result in zip(STREAM_TARGETS, results):
        assert result.n == n
        assert result.so1_hat == int(np.count_nonzero(ratio1 < targets.pi1)) / n
        assert result.so2_hat == int(np.count_nonzero(ratio2 < targets.pi2)) / n


@pytest.mark.parametrize("chunk", [999, 1000, 10_007, 1 << 16])
@pytest.mark.parametrize("sinr", [sinr_conventional, sinr_proposed])
def test_violation_stream_matches_one_sample_gains_window(monkeypatch, chunk, sinr):
    # With the proposed SINRs standing in, the count is nonzero and pins the draws.
    monkeypatch.setattr(reference, "sinr_conventional", sinr)
    n, seed, alpha = 30_001, 22, 0.5
    gains = sample_gains(STATS_30DB, n, seed)
    mask = gains.g1 > gains.g2
    sinrs = sinr(GainSample(g1=gains.g1[mask], g2=gains.g2[mask]), alpha, STATS_30DB.rho_t)
    expected = int(np.count_nonzero(sinrs.g22 > sinrs.g21)) / int(np.count_nonzero(mask))
    sim = SimConfig(realizations=n, seed=seed)
    assert empirical_conventional_violation_rate(STATS_30DB, alpha, sim, _chunk=chunk) == expected
    assert (expected > 0.0) == (sinr is sinr_proposed)


def _window_counts(n, seed, alpha):
    """Per-pair outage counts of one sample_gains window of n samples."""
    gains = sample_gains(STATS_30DB, n, seed)
    ratio1, ratio2 = _secrecy_ratios(gains.g1, gains.g2, alpha, STATS_30DB.rho_t, np.empty((4, n)))
    out1 = [int(np.count_nonzero(ratio1 < targets.pi1)) for targets in STREAM_TARGETS]
    out2 = [int(np.count_nonzero(ratio2 < targets.pi2)) for targets in STREAM_TARGETS]
    return out1, out2


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(1, 6_001),
    cuts=st.lists(st.integers(1, 3_000), max_size=4),
    chunk=st.integers(1, 2_500),
)
@example(n=6_001, cuts=[1, 1_000], chunk=999)  # a 2-sample slice, odd total
@example(n=6_001, cuts=[1_000, 2_000], chunk=999)
@example(n=6_000, cuts=[1_500], chunk=1 << 15)
def test_even_aligned_slices_count_like_one_sequential_read(n, cuts, chunk):
    # Slices of one stream, cut at even samples and counted apart, must sum
    # to the counts of the whole stream read in order.
    seed, alpha = 23, 0.4
    bounds = sorted({0, n, *(2 * cut for cut in cuts if 2 * cut < n)})
    sim = SimConfig(realizations=n, seed=seed)
    pis = [(targets.pi1, targets.pi2) for targets in STREAM_TARGETS]
    out1, out2 = [0] * len(pis), [0] * len(pis)
    for start, stop in zip(bounds, bounds[1:]):
        slice_out1, slice_out2 = _count_slice((STATS_30DB,), alpha, pis, sim, start, stop, chunk)[0]
        out1 = [total + part for total, part in zip(out1, slice_out1)]
        out2 = [total + part for total, part in zip(out2, slice_out2)]
    assert (out1, out2) == _window_counts(n, seed, alpha)


def test_slices_start_at_even_samples():
    sim = SimConfig(realizations=11, seed=1)
    with pytest.raises(ValueError, match="even"):
        _count_slice((STATS_30DB,), 0.4, [(2.0, 2.0)], sim, 3, 11, 1000)


@UNCONDITIONED
def test_estimates_do_not_depend_on_worker_count(monkeypatch, conditioned):
    sim = SimConfig(realizations=50_001, seed=8)
    starts = []

    def counted_slice(*args):
        starts.append(args[4])
        return _count_slice(*args)

    monkeypatch.setattr(montecarlo, "_count_slice", counted_slice)
    monkeypatch.setattr(montecarlo, "_CHUNK", 1_000)
    results = []
    for workers in (1, 2, 3, 4):
        monkeypatch.setattr(sop, "_usable_cpus", lambda workers=workers: workers)
        starts.clear()
        results.append(empirical_sops((STATS_30DB,), 0.4, STREAM_TARGETS, sim)[0])
        assert len(starts) == workers and all(start % 2 == 0 for start in starts)
    assert results[1:] == results[:1] * 3
    n = sim.realizations
    out1, out2 = _window_counts(n, sim.seed, 0.4)
    assert [result.n for result in results[0]] == [n] * len(STREAM_TARGETS)
    assert [result.so1_hat for result in results[0]] == [count / n for count in out1]
    assert [result.so2_hat for result in results[0]] == [count / n for count in out2]
    # Every slice holds at least one chunk: two chunks of 20_000 leave room for two slices.
    starts.clear()
    monkeypatch.setattr(montecarlo, "_CHUNK", 20_000)
    assert empirical_sops((STATS_30DB,), 0.4, STREAM_TARGETS, sim)[0] == results[0]
    assert len(starts) == 2


@pytest.mark.parametrize("failing", ["worker", "caller"])
def test_slice_errors_reach_the_caller_after_every_thread_ends(failing):
    # In a fresh process, so that no earlier test has started the pool: the
    # error must come once every slice has ended, leave no thread but the
    # pool's daemon workers, and leave the pool counting as before.
    code = """
import sys, threading
sys.path.insert(0, sys.argv[1])
from noma_secrecy import montecarlo, sop
from noma_secrecy.channel import ChannelStats
from noma_secrecy.sop import TargetRates
failing, caller = sys.argv[2], threading.current_thread()
ratios, count_slice, ended = montecarlo._secrecy_ratios, montecarlo._count_slice, []

def failing_ratios(*args):
    if (threading.current_thread() is caller) == (failing == "caller"):
        raise RuntimeError(failing + " slice failed")
    return ratios(*args)

def recorded_slice(*args):
    try:
        return count_slice(*args)
    finally:
        ended.append(args[4])

def count():
    sim = montecarlo.SimConfig(30_001, 5)
    return montecarlo.empirical_sops((ChannelStats(1.0, 0.5, 10.0),), 0.4, (TargetRates(1.0, 1.0),), sim)

montecarlo._CHUNK = 1_000
montecarlo._count_slice = recorded_slice
sop._usable_cpus = lambda: 1
serial = count()
sop._usable_cpus = lambda: 3
montecarlo._secrecy_ratios = failing_ratios
ended.clear()
try:
    count()
except RuntimeError as exc:
    print(exc.args[0].replace(" ", "_"), sorted(ended))
montecarlo._secrecy_ratios = ratios
extra = [thread for thread in threading.enumerate() if thread is not threading.main_thread()]
print(len(extra), all(thread.daemon for thread in extra), count() == serial)
"""
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.run(
        [sys.executable, "-I", "-c", code, str(src), failing], capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == [f"{failing}_slice_failed", "[0,", "10000,", "20000]", "2", "True", "True"]


# EmpiricalSop tuples of three target pairs at alpha = 0.4 and 200_001
# realizations, keyed (seed, rho_r_db), as the
# chunk-by-chunk kernel with one Philox instance per chunk produced them.
FROZEN_SOPS = {
    (1, 20.0): (
        (0.005804970975145124, 0.04038479807600962, 0.00016987119283299172, 0.0004401912788323253, 200001),
        (0.0100199499002505, 0.06314968425157874, 0.00022270497195552724, 0.0005438819073244463, 200001),
        (0.051899740501297496, 0.03166484167579162, 0.0004960136661808747, 0.0003915483761127598, 200001),
    ),
    (2, 30.0): (
        (0.000559997200014, 0.004254978725106375, 5.2899943513483674e-05, 0.00014554814833744507, 200001),
        (0.001039994800026, 0.006604966975165124, 7.207315784332741e-05, 0.00018112576542114603, 200001),
        (0.005409972950135249, 0.003314983425082875, 0.00016402253258962406, 0.00012852972010561118, 200001),
    ),
    (2024, 10.0): (
        (0.04784476077619612, 0.31429342853285736, 0.0004772599494269625, 0.0010380558553227284, 200001),
        (0.08359958200208999, 0.45231773841130796, 0.0006189115802746852, 0.001112935674924591, 200001),
        (0.3827030864845676, 0.25149874250628745, 0.0010868308352234232, 0.0009701705617908756, 200001),
    ),
}


# Test ids key0, key1, key3 are kept stable; key2 was an ordering-conditioned entry.
@pytest.mark.parametrize("key", FROZEN_SOPS, ids=["key0", "key1", "key3"])
def test_estimates_are_bit_identical_to_frozen_values(key):
    seed, rho_r_db = key
    stats = with_received_snr(STATS_30DB, rho_r_db)
    sim = SimConfig(realizations=200_001, seed=seed)
    targets_seq = (TargetRates(0.5, 0.5), TargetRates(1.0, 1.0), TargetRates(3.0, 0.25))
    assert tuple(tuple(r) for r in empirical_sops((stats,), 0.4, targets_seq, sim)[0]) == FROZEN_SOPS[key]


def test_log_free_outage_test_matches_log2_rates():
    gains = sample_gains(STATS_30DB, 100_000, seed=12)
    # Exact ties at rho_t = 1, alpha = 0.5, R_th = 1: (g1, g2) = (2, 0) gives
    # rs1 = 1 and (0, 2) gives rs2 = 1; neither may count as an outage.
    g1 = np.concatenate([gains.g1, [2.0, 0.0]])
    g2 = np.concatenate([gains.g2, [0.0, 2.0]])
    for rho_t in (STATS_30DB.rho_t, 1.0):
        for alpha in (0.1, 0.5, 0.9):
            ratio1, ratio2 = _secrecy_ratios(g1, g2, alpha, rho_t, np.empty((4, g1.size)))
            rates = rates_from_sinrs(sinr_proposed(type(gains)(g1=g1, g2=g2), alpha, rho_t))
            for rth in (0.0, 0.5, 1.0, 3.0):
                assert np.array_equal(ratio1 < 2.0**rth, rates.rs1 < rth)
                assert np.array_equal(ratio2 < 2.0**rth, rates.rs2 < rth)
    ratio1, ratio2 = _secrecy_ratios(g1[-2:], g2[-2:], 0.5, 1.0, np.empty((4, 2)))
    assert (ratio1[0], ratio2[1]) == (2.0, 2.0)
    assert not (ratio1[0] < 2.0 or ratio2[1] < 2.0)


def test_counts_stay_python_ints():
    sim = SimConfig(realizations=2_000, seed=3)
    result = empirical_sops((STATS_30DB,), 0.5, (RTH1,), sim)[0][0]
    assert type(result.n) is int
    assert all(type(value) is float for value in result[:4])


def test_near_outage_is_certain_without_power():
    sim = SimConfig(realizations=100_000, seed=2)
    result = empirical_sops((STATS_30DB,), ALPHA_MIN, (RTH1,), sim)[0][0]
    assert result.so1_hat >= 0.999


def test_matches_analytical_sop_within_three_sigma():
    sim = SimConfig(realizations=1_000_000, seed=7)
    result = empirical_sops((STATS_30DB,), 0.5, (RTH1,), sim)[0][0]
    so1 = exact_sop_near(STATS_30DB, 0.5, RTH1).value
    so2 = exact_sop_far(STATS_30DB, 0.5, RTH1).value
    assert abs(result.so1_hat - so1) <= 3.0 * result.stderr1 + 1e-6
    assert abs(result.so2_hat - so2) <= 3.0 * result.stderr2 + 1e-6


@pytest.mark.parametrize("alpha", [0.1, 0.5, 0.9])
def test_conventional_order_never_gives_far_user_secrecy(alpha):
    sim = SimConfig(realizations=100_000, seed=5)
    assert empirical_conventional_violation_rate(STATS_30DB, alpha, sim) == 0.0


def test_rmse_shrinks_like_root_n():
    grid = [
        (alpha, rho_r, rth)
        for alpha in (0.3, 0.5, 0.7)
        for rho_r in (20.0, 30.0)
        for rth in (0.5, 1.0)
    ]

    def rmse(realizations):
        squared = []
        for index, (alpha, rho_r, rth) in enumerate(grid):
            stats = with_received_snr(STATS_30DB, rho_r)
            targets = TargetRates(rth, rth)
            empirical = empirical_sops((stats,), alpha, (targets,), SimConfig(realizations, seed=5 + index))[0][0]
            squared.append((empirical.so1_hat - exact_sop_near(stats, alpha, targets).value) ** 2)
        return math.sqrt(sum(squared) / len(squared))

    # quadrupling the sample size should roughly halve the error
    assert 0.3 <= rmse(160_000) / rmse(40_000) <= 0.7


def test_stderr_follows_binomial_formula():
    sim = SimConfig(realizations=10_000, seed=6)
    result = empirical_sops((STATS_30DB,), 0.5, (RTH1,), sim)[0][0]
    assert result.stderr1 == pytest.approx(
        math.sqrt(result.so1_hat * (1.0 - result.so1_hat) / result.n), rel=1e-12
    )


def test_sim_config_validation():
    with pytest.raises(ValueError):
        SimConfig(realizations=0)
    # Slicing a stream needs an integer count; floats and bools fail before any draw.
    for realizations in (1e6, 1.0, True, "10"):
        with pytest.raises(TypeError):
            SimConfig(realizations=realizations)
    # Philox would truncate a float or bool key: seed 1.9 and True would draw seed 1's stream.
    for seed in (1.9, 1.0, True, "1"):
        with pytest.raises(TypeError):
            SimConfig(seed=seed)
    for seed in (-1, 2**128):
        with pytest.raises(ValueError, match="seed must lie within"):
            SimConfig(seed=seed)
    assert SimConfig(seed=2**128 - 1).seed == 2**128 - 1
    assert SimConfig(realizations=np.int64(5)).realizations == 5
    assert SimConfig(seed=np.int64(5)).seed == 5
    assert SimConfig().realizations == 10**6
    assert SimConfig().seed == 1


def test_empirical_result_shape():
    result = empirical_sops((STATS_30DB,), 0.5, (RTH1,), SimConfig(realizations=1_000, seed=1))[0][0]
    assert isinstance(result, EmpiricalSop)
    assert 0.0 <= result.so1_hat <= 1.0
    assert 0.0 <= result.so2_hat <= 1.0
    assert np.isfinite(result.stderr1) and np.isfinite(result.stderr2)
