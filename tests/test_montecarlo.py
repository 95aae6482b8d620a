import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import reference
from noma_secrecy import montecarlo
from noma_secrecy.channel import ChannelStats, with_received_snr
from noma_secrecy.montecarlo import EmpiricalSop, SimConfig, _count_stream, _secrecy_ratios, empirical_sops
from noma_secrecy.rates import ALPHA_MAX, ALPHA_MIN
from noma_secrecy.sop import TargetRates, exact_sop_far, exact_sop_near, exact_sops
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
# The library draws unit-mean exponentials and scales them by each user's mean SNR.
UNIT = ChannelStats(1.0, 1.0, 1.0)
SNRS_30DB = (STATS_30DB.rho_t * LAM1, STATS_30DB.rho_t * LAM2)
RTH1 = TargetRates(1.0, 1.0)
# Every draw is counted (no conditioning on g1 > g2). The constant False
# parameter only keeps these cases' test ids stable; its value is unused.
UNCONDITIONED = pytest.mark.parametrize("conditioned", [False])


def rates_row(pairs) -> TargetRates:
    """TargetRates of one (rth1, rth2) pair per config, as a row."""
    rth1, rth2 = np.array(pairs, float).reshape(-1, 2).T
    return TargetRates(rth1, rth2)


def estimates(result: EmpiricalSop) -> list:
    """(so1, so2, stderr1, stderr2) of each config, in the fields' flat order."""
    value, stderr = (field.reshape(2, -1).tolist() for field in result)
    return list(zip(*value, *stderr))


def test_runs_are_deterministic():
    sim = SimConfig(realizations=20_000, seed=11)
    first = empirical_sops(STATS_30DB, 0.5, RTH1, sim)
    second = empirical_sops(STATS_30DB, 0.5, RTH1, sim)
    assert estimates(first) == estimates(second)


def test_totals_do_not_depend_on_chunking(monkeypatch):
    sim = SimConfig(realizations=50_000, seed=3)
    default = estimates(empirical_sops(STATS_30DB, 0.4, RTH1, sim))
    monkeypatch.setattr(montecarlo, "_CHUNK", 1000)
    tiny_chunks = estimates(empirical_sops(STATS_30DB, 0.4, RTH1, sim))
    monkeypatch.setattr(montecarlo, "_CHUNK", 999)
    odd_chunks = estimates(empirical_sops(STATS_30DB, 0.4, RTH1, sim))
    assert default == tiny_chunks == odd_chunks


@UNCONDITIONED
def test_many_targets_match_single_target_calls(conditioned):
    sim = SimConfig(realizations=50_001, seed=4)
    pairs = [(0.5, 3.0), (1.0, 1.0), (3.0, 0.25), (0.0, 0.0)]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(montecarlo, "_CHUNK", 10_007)
        together = estimates(empirical_sops(STATS_30DB, 0.4, rates_row(pairs), sim))
    assert len(together) == len(pairs)
    for pair, joint in zip(pairs, together):
        assert [joint] == estimates(empirical_sops(STATS_30DB, 0.4, TargetRates(*pair), sim))
    assert estimates(empirical_sops(STATS_30DB, 0.4, rates_row([]), sim)) == []


def test_a_thousand_target_pairs_keep_the_flag_block_within_its_budget():
    # A call's comparison flags take 2 bytes per pair and sample of a chunk:
    # a full chunk at 1000 pairs would be 65.5 MB, and 40 MB here, where the
    # whole stream is one chunk. The chunk shrinks so the block stays within
    # _FLAG_BYTES (4 MiB); the draws, ratio scratch, popcounts and the 1000
    # estimates fit in as much again. The counts do not move.
    sim = SimConfig(realizations=20_000, seed=5)
    rth1 = np.linspace(0.0, 3.0, 1000)
    targets = TargetRates(rth1, 3.0 - rth1)
    empirical_sops(STATS_30DB, 0.4, RTH1, sim)  # numpy.random loads outside the trace
    tracemalloc.start()
    try:
        together = empirical_sops(STATS_30DB, 0.4, targets, sim)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * montecarlo._FLAG_BYTES
    assert estimates(together) == [
        estimates(empirical_sops(STATS_30DB, 0.4, TargetRates(rth, 3.0 - rth), sim))[0] for rth in rth1.tolist()
    ]


STREAM_PAIRS = ((0.5, 3.0), (1.0, 1.0), (3.0, 0.25))
STREAM_TARGETS = rates_row(STREAM_PAIRS)


@settings(max_examples=30, deadline=None)
@given(
    rho_t_exponents=st.lists(st.floats(-2.0, 10.0), min_size=1, max_size=4),
    half=st.integers(0, 3_000),
    chunk=st.integers(1, 2_500),
)
@example(rho_t_exponents=[8.0, 9.0, 10.0], half=3_000, chunk=999)
# One kept sample in an 8-sample chunk: its draws fill 2 of the buffer's 16 slots.
@example(rho_t_exponents=[9.0], half=4, chunk=7)
def test_each_entry_counts_like_its_own_call(rho_t_exponents, half, chunk):
    # Every entry is counted on one stream; each row must be bit-identical
    # to a call with that entry alone, at any chunk size.
    sim = SimConfig(realizations=2 * half + 1, seed=9)
    rho_t = [10.0**exponent for exponent in rho_t_exponents]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(montecarlo, "_CHUNK", chunk)
        rows = empirical_sops(ChannelStats(LAM1, LAM2, np.array(rho_t)[:, None]), 0.4, STREAM_TARGETS, sim)
    assert rows.value.shape == rows.stderr.shape == (2, len(rho_t), len(STREAM_PAIRS))
    for index, entry in enumerate(rho_t):
        own = empirical_sops(ChannelStats(LAM1, LAM2, entry), 0.4, STREAM_TARGETS, sim)
        assert estimates(EmpiricalSop(*(field[:, index] for field in rows))) == estimates(own)


# EmpiricalSop rows of STREAM_TARGETS at alpha = 0.4, 200_001 realizations and
# seed 9, each from a call with that entry alone, when every entry's stream
# was drawn with its own mean gains.
FROZEN_MIXED_ROWS = (
    (
        (0.0006199969000154999, 0.031154844225778872, 5.566010266844834e-05, 0.000388484677861955),
        (0.0010749946250268748, 0.006869965650171749, 7.327460823555544e-05, 0.00018469887802124933),
        (0.005404972975135125, 0.0034149829250853746, 0.00016394713116751032, 0.00013044738019959905),
    ),
    (
        (0.00029499852500737496, 0.031184844075779622, 3.839987150548077e-05, 0.0003886656565401448),
        (0.000519997400013, 0.006879965600171999, 5.097668114417411e-05, 0.00018483232280265397),
        (0.0026049869750651247, 0.0034199829000854994, 0.00011397780544879628, 0.00013054251368233922),
    ),
    (
        (0.00060999695001525, 0.061119694401527994, 5.5209682376698826e-05, 0.00053564816082406),
        (0.0010749946250268748, 0.013464932675336624, 7.327460823555544e-05, 0.0002577165288216498),
        (0.005359973200133999, 0.006774966125169374, 0.00016326691690819801, 0.00018342617471356985),
    ),
)


@pytest.mark.parametrize(
    ("other", "frozen_row"),
    [(ChannelStats(2 * LAM1, LAM2, 1e8), 1), (ChannelStats(LAM1, LAM2 / 2, 1e8), 2)],
    ids=["lambda1-differs", "lambda2-differs"],
)
def test_entries_must_share_mean_gains(monkeypatch, other, frozen_row):
    # An entry with another lambda1 or lambda2 shares the one stream of
    # unit-mean draws with STATS_30DB, across chunk boundaries, and both
    # keep their one-entry rows: one batched call, a column of both entries.
    monkeypatch.setattr(montecarlo, "_CHUNK", 10_007)
    column = (np.array([[getattr(STATS_30DB, name)], [getattr(other, name)]]) for name in ("lambda1", "lambda2"))
    stats = ChannelStats(*column, 1e8)
    rows = estimates(empirical_sops(stats, 0.4, STREAM_TARGETS, SimConfig(realizations=200_001, seed=9)))
    expected = (FROZEN_MIXED_ROWS[0], FROZEN_MIXED_ROWS[frozen_row])
    assert (tuple(rows[:3]), tuple(rows[3:])) == expected


def test_no_entries_give_no_rows(monkeypatch):
    # An empty batch gives empty fields and draws no sample.
    monkeypatch.setattr(montecarlo, "_uniform_pairs", None)
    sim = SimConfig(realizations=1_000)
    for stats, targets, shape in [
        (STATS_30DB, rates_row([]), (0,)),
        (ChannelStats(LAM1, LAM2, np.empty((0, 1))), STREAM_TARGETS, (0, 3)),
    ]:
        result = empirical_sops(stats, 0.4, targets, sim)
        assert result.value.shape == result.stderr.shape == (2,) + shape


# Configs of the batch test: (rho_t, lambda1, lambda2) entries, one per row,
# and (rth1, rth2) pairs, one per column.
ENTRY = st.tuples(st.floats(6.0, 10.0), st.floats(1.0, 4.0), st.floats(0.25, 1.0)).map(
    lambda entry: (10.0 ** entry[0], LAM1 * entry[1], LAM2 * entry[2])
)
PAIR = st.tuples(st.sampled_from([0.0, 0.5, 1.0, 3.0]), st.floats(0.0, 4.0))
# 65 distinct target pairs: the flag block's budget shrinks the chunk below 2**15.
MANY_PAIRS = [(rth, 3.0 - rth) for rth in np.linspace(0.0, 3.0, 65).tolist()]


@settings(max_examples=25, deadline=None)
@given(
    entries=st.lists(ENTRY, min_size=1, max_size=3),
    pairs=st.lists(PAIR, max_size=6),
    alpha=st.floats(0.05, 0.95),
)
@example(entries=[(1e8, LAM1, LAM2), (1e9, LAM1, LAM2), (1e10, LAM1, LAM2)], pairs=list(STREAM_PAIRS), alpha=0.5)
@example(entries=[(1e8, LAM1, LAM2), (1e8, 2 * LAM1, LAM2), (1e8, LAM1, LAM2 / 2)], pairs=list(STREAM_PAIRS), alpha=0.4)
@example(entries=[(1e8, LAM1, LAM2)] * 2, pairs=[(1.0, 1.0), (0.5, 3.0), (1.0, 1.0)], alpha=0.4)
@example(entries=[(1e8, LAM1, LAM2), (1e9, 2 * LAM1, LAM2)], pairs=MANY_PAIRS, alpha=0.4)
@example(entries=[(1e8, LAM1, LAM2), (1e9, LAM1, LAM2)], pairs=[], alpha=0.4)
def test_a_batch_equals_its_configs_own_calls(entries, pairs, alpha):
    # A column of entries by a row of target pairs, as `validate` counts
    # them: each config's estimate is bit-identical to a call with that
    # config alone, with entries that differ in any field, a config
    # repeated, more than 64 distinct pairs, which shrink the chunk to
    # 32 256 samples, and no pairs at all. The fields are shaped as the SOP kernel's.
    sim = SimConfig(realizations=40_001, seed=13)
    rho_t, lam1, lam2 = (np.array(column)[:, None] for column in zip(*entries))
    stats, targets = ChannelStats(lam1, lam2, rho_t), rates_row(pairs)
    batch = empirical_sops(stats, alpha, targets, sim)
    assert batch.value.shape == batch.stderr.shape == exact_sops(stats, alpha, targets).value.shape
    expected = [
        estimates(empirical_sops(ChannelStats(entry[1], entry[2], entry[0]), alpha, TargetRates(*pair), sim))[0]
        for entry in entries
        for pair in pairs
    ]
    assert estimates(batch) == expected


@pytest.mark.parametrize("alpha", [[0.5], np.array([0.3, 0.5])], ids=["list", "array"])
def test_one_power_split_per_call(alpha):
    # Configs batch in the array fields; a sequence of alphas is refused by name.
    with pytest.raises(ValueError, match="takes one power split alpha"):
        empirical_sops(STATS_30DB, alpha, RTH1, SimConfig(realizations=1_000))


@pytest.mark.parametrize("chunk", [999, 1000, 10_007, 1 << 16])
@UNCONDITIONED
def test_stream_counts_match_one_sample_gains_window(monkeypatch, chunk, conditioned):
    # The kernel reads one generator chunk by chunk; its counts must be those
    # of the single window sample_gains(UNIT, n, seed), whatever the chunk.
    n, seed, alpha = 30_001, 21, 0.4
    draws = sample_gains(UNIT, n, seed)
    ratio1, ratio2 = _secrecy_ratios(draws.g1, draws.g2, alpha, *SNRS_30DB, np.empty((4, n)))
    sim = SimConfig(realizations=n, seed=seed)
    monkeypatch.setattr(montecarlo, "_CHUNK", chunk)
    so1, so2 = empirical_sops(STATS_30DB, alpha, STREAM_TARGETS, sim).value.tolist()
    assert so1 == [int(np.count_nonzero(ratio1 < pi1)) / n for pi1 in STREAM_TARGETS.pi1]
    assert so2 == [int(np.count_nonzero(ratio2 < pi2)) / n for pi2 in STREAM_TARGETS.pi2]


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


# Limits of target pairs, each from sample indices (i, j) of the window:
# "tie" takes the ratios (R1 of sample i at the first entry, R2 of sample j
# at the last), so the pair holds a tie, which is not an outage; "bound"
# sits exactly on the screen's bounds c (1 + a x1) and a (1 + c x2) of
# samples i and j at the entry of lowest mean SNR, with c = 1 - a; "below"
# lies under c and a, where no sample is in outage.
LIMIT_KINDS = ("tie", "bound", "below")


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(1, 5_001),
    chunk=st.integers(1, 1_500),
    alpha=st.floats(ALPHA_MIN, ALPHA_MAX),
    rho_t_exponents=st.lists(st.floats(-4.0, 16.0), min_size=1, max_size=3),
    limits=st.lists(
        st.tuples(st.sampled_from(LIMIT_KINDS), st.integers(0, 5_000), st.integers(0, 5_000)), max_size=4
    ),
)
@example(n=5_001, chunk=1_001, alpha=0.4, rho_t_exponents=[8.0, 9.0], limits=[])  # no target pairs
@example(n=4_099, chunk=1_203, alpha=0.4, rho_t_exponents=[8.0], limits=[("tie", 0, 4_098), ("tie", 17, 17)])
@example(n=4_099, chunk=1_203, alpha=ALPHA_MIN, rho_t_exponents=[8.0, 9.0], limits=[("tie", 5, 9), ("bound", 5, 9)])
@example(n=4_099, chunk=1_203, alpha=ALPHA_MAX, rho_t_exponents=[8.0, 9.0], limits=[("tie", 5, 9), ("bound", 5, 9)])
@example(n=4_099, chunk=1_203, alpha=0.4, rho_t_exponents=[-4.0, 16.0], limits=[("bound", 3, 4_000), ("tie", 8, 8)])
@example(n=4_099, chunk=1_203, alpha=0.4, rho_t_exponents=[8.0, 16.0], limits=[("below", 4_999, 0)])
# A mean SNR that underflows to 0 leaves the screen no slope; it keeps every sample.
@example(n=4_099, chunk=1_203, alpha=0.4, rho_t_exponents=[-320.0, 8.0], limits=[("tie", 3, 3), ("bound", 3, 3)])
# Samples whose computed ratio rounds below their own bound: they count
# only if the screen's margin keeps them.
@example(n=4_099, chunk=1_203, alpha=ALPHA_MIN, rho_t_exponents=[16.0], limits=[("bound", 14, 14)])
@example(n=4_099, chunk=1_203, alpha=ALPHA_MAX, rho_t_exponents=[16.0], limits=[("bound", 16, 16)])
def test_block_counts_match_per_pair_counts(n, chunk, alpha, rho_t_exponents, limits):
    # The screen drops samples before any ratio is taken; chunks of any
    # length, most not multiples of 8, at any alpha of the window, at mean
    # SNRs where the screen keeps every sample or none, and at limits on
    # the screen's bounds must count like one np.count_nonzero per entry,
    # user and pair over the whole window.
    seed = 24
    snrs = [(10.0**exponent * LAM1, 10.0**exponent * LAM2) for exponent in rho_t_exponents]
    draws = sample_gains(UNIT, n, seed)
    ratios = [_secrecy_ratios(draws.g1, draws.g2, alpha, *pair, np.empty((4, n))) for pair in snrs]
    c = 1.0 - alpha
    low1, low2 = min(snrs)
    limit_of = {
        "tie": lambda i, j: (float(ratios[0][0][i]), float(ratios[-1][1][j])),
        "bound": lambda i, j: (c * (1.0 + alpha * (draws.g1[i] * low1)), alpha * (1.0 + c * (draws.g2[j] * low2))),
        "below": lambda i, j: (c * i / 5_001, alpha * j / 5_001),
    }
    pis = [tuple(map(float, limit_of[kind](i % n, j % n))) for kind, i, j in limits]
    expected = [
        [[int(np.count_nonzero(ratio < pi[user])) for pi in pis] for user, ratio in enumerate(entry)]
        for entry in ratios
    ]
    sim = SimConfig(realizations=n, seed=seed)
    counts = _count_stream(snrs, alpha, pis, sim, chunk)
    assert counts.dtype == np.int64 and counts.shape == (len(snrs), 2, len(pis))
    assert counts.tolist() == expected


# EmpiricalSop tuples of three target pairs at alpha = 0.4 and 200_001
# realizations, keyed (seed, rho_r_db), as the
# chunk-by-chunk kernel with one Philox instance per chunk produced them.
FROZEN_SOPS = {
    (1, 20.0): (
        (0.005804970975145124, 0.04038479807600962, 0.00016987119283299172, 0.0004401912788323253),
        (0.0100199499002505, 0.06314968425157874, 0.00022270497195552724, 0.0005438819073244463),
        (0.051899740501297496, 0.03166484167579162, 0.0004960136661808747, 0.0003915483761127598),
    ),
    (2, 30.0): (
        (0.000559997200014, 0.004254978725106375, 5.2899943513483674e-05, 0.00014554814833744507),
        (0.001039994800026, 0.006604966975165124, 7.207315784332741e-05, 0.00018112576542114603),
        (0.005409972950135249, 0.003314983425082875, 0.00016402253258962406, 0.00012852972010561118),
    ),
    (2024, 10.0): (
        (0.04784476077619612, 0.31429342853285736, 0.0004772599494269625, 0.0010380558553227284),
        (0.08359958200208999, 0.45231773841130796, 0.0006189115802746852, 0.001112935674924591),
        (0.3827030864845676, 0.25149874250628745, 0.0010868308352234232, 0.0009701705617908756),
    ),
}


# Test ids key0, key1, key3 are kept stable; key2 was an ordering-conditioned entry.
@pytest.mark.parametrize("key", FROZEN_SOPS, ids=["key0", "key1", "key3"])
def test_estimates_are_bit_identical_to_frozen_values(key):
    seed, rho_r_db = key
    stats = with_received_snr(STATS_30DB, rho_r_db)
    sim = SimConfig(realizations=200_001, seed=seed)
    targets = rates_row([(0.5, 0.5), (1.0, 1.0), (3.0, 0.25)])
    assert tuple(estimates(empirical_sops(stats, 0.4, targets, sim))) == FROZEN_SOPS[key]


def test_log_free_outage_test_matches_log2_rates():
    gains = sample_gains(STATS_30DB, 100_000, seed=12)
    # Exact ties at rho_t = 1, alpha = 0.5, R_th = 1: (g1, g2) = (2, 0) gives
    # rs1 = 1 and (0, 2) gives rs2 = 1; neither may count as an outage.
    g1 = np.concatenate([gains.g1, [2.0, 0.0]])
    g2 = np.concatenate([gains.g2, [0.0, 2.0]])
    for rho_t in (STATS_30DB.rho_t, 1.0):
        for alpha in (0.1, 0.5, 0.9):
            ratio1, ratio2 = _secrecy_ratios(g1, g2, alpha, rho_t, rho_t, np.empty((4, g1.size)))
            rates = rates_from_sinrs(sinr_proposed(type(gains)(g1=g1, g2=g2), alpha, rho_t))
            for rth in (0.0, 0.5, 1.0, 3.0):
                assert np.array_equal(ratio1 < 2.0**rth, rates.rs1 < rth)
                assert np.array_equal(ratio2 < 2.0**rth, rates.rs2 < rth)
    ratio1, ratio2 = _secrecy_ratios(g1[-2:], g2[-2:], 0.5, 1.0, 1.0, np.empty((4, 2)))
    assert (ratio1[0], ratio2[1]) == (2.0, 2.0)
    assert not (ratio1[0] < 2.0 or ratio2[1] < 2.0)


def test_estimates_are_the_exact_count_arithmetic():
    # The int64 counts give the bits of Python's int arithmetic: count / n
    # and the binomial standard error, each rounded once per operation.
    sim = SimConfig(realizations=2_000, seed=3)
    result = empirical_sops(STATS_30DB, 0.5, rates_row(STREAM_PAIRS), sim)
    assert result.value.dtype == result.stderr.dtype == np.float64
    for so, stderr in zip(result.value.ravel().tolist(), result.stderr.ravel().tolist()):
        count = round(so * sim.realizations)
        assert so == count / sim.realizations
        assert stderr == math.sqrt(so * (1.0 - so) / sim.realizations)


def test_near_outage_is_certain_without_power():
    sim = SimConfig(realizations=100_000, seed=2)
    result = empirical_sops(STATS_30DB, ALPHA_MIN, RTH1, sim)
    assert result.value[0] >= 0.999


def test_matches_analytical_sop_within_three_sigma():
    sim = SimConfig(realizations=1_000_000, seed=7)
    result = empirical_sops(STATS_30DB, 0.5, RTH1, sim)
    so1 = exact_sop_near(STATS_30DB, 0.5, RTH1).value
    so2 = exact_sop_far(STATS_30DB, 0.5, RTH1).value
    assert abs(result.value[0] - so1) <= 3.0 * result.stderr[0] + 1e-6
    assert abs(result.value[1] - so2) <= 3.0 * result.stderr[1] + 1e-6


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
            empirical = empirical_sops(stats, alpha, targets, SimConfig(realizations, seed=5 + index))
            squared.append((empirical.value[0] - exact_sop_near(stats, alpha, targets).value) ** 2)
        return math.sqrt(sum(squared) / len(squared))

    # quadrupling the sample size should roughly halve the error
    assert 0.3 <= rmse(160_000) / rmse(40_000) <= 0.7


def test_stderr_follows_binomial_formula():
    sim = SimConfig(realizations=10_000, seed=6)
    result = empirical_sops(STATS_30DB, 0.5, RTH1, sim)
    so1 = result.value[0]
    assert result.stderr[0] == pytest.approx(math.sqrt(so1 * (1.0 - so1) / sim.realizations), rel=1e-12)


def test_sim_config_validation():
    with pytest.raises(ValueError):
        SimConfig(realizations=0)
    # The stream is read by sample count, an integer; floats and bools fail before any draw.
    for realizations in (1e6, 1.0, True, np.True_, "10"):
        with pytest.raises(TypeError, match=f"^realizations must be an integer, not {re.escape(repr(realizations))}$"):
            SimConfig(realizations=realizations)
    # Philox would truncate a float or bool key: seed 1.9 and True would draw seed 1's stream.
    for seed in (1.9, 1.0, True, np.True_, "1"):
        with pytest.raises(TypeError, match=f"^seed must be an integer, not {re.escape(repr(seed))}$"):
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
    # One config gives both users, near first, as exact_sops does.
    result = empirical_sops(STATS_30DB, 0.5, RTH1, SimConfig(realizations=1_000, seed=1))
    assert isinstance(result, EmpiricalSop)
    assert result.value.shape == result.stderr.shape == (2,)
    assert np.all((0.0 <= result.value) & (result.value <= 1.0))
    assert np.all(np.isfinite(result.stderr))
