"""Seeded Monte Carlo estimation of both users' secrecy outage probabilities.

The estimator is the empirical oracle every analytical expression is checked
against: draw gain pairs, apply the proposed decoding order, count outages
R_s < R_th (strict; ties are non-outage). The count needs no logarithm:
R_s1 < R_th1 iff (1 + g11) / (1 + g12) < 2**R_th1, and likewise for the far
user. Each stream is one Philox key, two samples per counter block, so
sample 2k starts block k and a Philox generator seeded with counter k reads
the stream from there. `empirical_sops` cuts the stream into contiguous
slices, one per CPU this process may run on and each at least one chunk
long, that start at even samples; the calling thread counts the first slice
and a thread each the others, and the integer counts are summed in slice
order. A slice is read in order in chunks of whole blocks. So the draws, and
hence the totals, depend neither on the chunk size nor on the worker or CPU
count. A slice keeps one set of buffers: the uniforms become gains in place,
and the ratio algebra and the comparisons run into reused arrays, building
no array or object per chunk. Each chunk is drawn once and counted for every
channel entry and target-rate pair of a call (common random numbers). The
entries share the mean gains and differ only in the transmit SNR, which
scales the drawn gains, so a sweep over SNRs and target rates costs one
stream: `noma-secrecy validate` counts its whole grid on the stream keyed
by its seed.
"""
from __future__ import annotations

import math
import operator
import os
import threading
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .channel import ChannelStats, _gain_stream
from .rates import validated_alpha
from .sop import TargetRates

__all__ = [
    "SimConfig",
    "EmpiricalSop",
    "empirical_sops",
]

# 2**15 samples per chunk keep a slice's buffers near cache; totals do not depend on it.
_CHUNK = 1 << 15


@dataclass(frozen=True)
class SimConfig:
    realizations: int = 10**6
    seed: int = 1

    def __post_init__(self) -> None:
        # Streams are cut into slices by index, so the count must be a true integer,
        # and Philox truncates a float or bool key to another seed's stream.
        for name in ("realizations", "seed"):
            if isinstance(getattr(self, name), bool):
                raise TypeError(f"{name} must be an integer, not a bool")
        if operator.index(self.realizations) < 1:
            raise ValueError("need at least one realization")
        if not 0 <= operator.index(self.seed) < 2**128:
            raise ValueError("seed must lie within [0, 2**128), the range of Philox keys")


class EmpiricalSop(NamedTuple):
    so1_hat: float
    so2_hat: float
    stderr1: float
    stderr2: float
    n: int  # samples counted, always sim.realizations


def _binomial_stderr(p: float, n: int) -> float:
    return math.sqrt(p * (1.0 - p) / n)


def _estimate(out1: int, out2: int, n: int) -> EmpiricalSop:
    so1 = out1 / n
    so2 = out2 / n
    return EmpiricalSop(
        so1_hat=so1,
        so2_hat=so2,
        stderr1=_binomial_stderr(so1, n),
        stderr2=_binomial_stderr(so2, n),
        n=n,
    )


def _secrecy_ratios(
    g1: np.ndarray,
    g2: np.ndarray,
    a: float,
    rho_t: float,
    out: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """(1 + g11) / (1 + g12) and (1 + g22) / (1 + g21) under the proposed order.

    With x_i = rho_t * g_i the SINRs give 1 + g11 = 1 + a x1,
    1 + g12 = (1 + x2) / (1 + (1 - a) x2), 1 + g22 = 1 + (1 - a) x2 and
    1 + g21 = (1 + x1) / (1 + a x1), so both ratios share one product.
    `out` is scratch of shape (4,) + g1.shape; the ratios are views of it.
    """
    x1, x2, product, term = out
    np.multiply(g1, rho_t, out=x1)
    np.multiply(g2, rho_t, out=x2)
    np.multiply(x1, a, out=product)
    np.add(product, 1.0, out=product)
    np.multiply(x2, 1.0 - a, out=term)
    np.add(term, 1.0, out=term)
    np.multiply(product, term, out=product)
    np.add(x2, 1.0, out=x2)
    np.divide(product, x2, out=x2)
    np.add(x1, 1.0, out=x1)
    np.divide(product, x1, out=x1)
    return x2, x1


def _usable_cpus() -> int:
    """Number of CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def empirical_sops(
    stats_seq: Sequence[ChannelStats],
    alpha: float,
    targets_seq: Sequence[TargetRates],
    sim: SimConfig,
) -> tuple[tuple[EmpiricalSop, ...], ...]:
    """Outage frequencies under the proposed decoding order, one row per entry.

    Row i holds one estimate per target pair for `stats_seq[i]`. The entries
    must share lambda1 and lambda2 and may differ only in rho_t, which
    scales the drawn gains; so every entry and every target pair is counted
    on the same draws, and each estimate equals what a separate call with
    that entry and that pair alone gives.
    The stream is cut into one slice per usable CPU, each at least one chunk
    long and starting at an even sample; the calling thread counts the
    first slice and one thread each the others. An error in any slice is
    raised here once every thread has ended.
    """
    stats_seq = tuple(stats_seq)
    a = float(validated_alpha(alpha))
    if not stats_seq:
        return ()
    first = stats_seq[0]
    for index, stats in enumerate(stats_seq):
        if (stats.lambda1, stats.lambda2) != (first.lambda1, first.lambda2):
            raise ValueError(
                "entries of one stream must share lambda1 and lambda2: entry "
                f"{index} has {(stats.lambda1, stats.lambda2)}, entry 0 {(first.lambda1, first.lambda2)}"
            )
    pis = [(targets.pi1, targets.pi2) for targets in targets_seq]
    total = sim.realizations
    workers = max(1, min(_usable_cpus(), total // _CHUNK))
    bounds = [2 * ((total // 2) * index // workers) for index in range(workers)] + [total]
    counts: list = [None] * workers
    errors: list = [None] * workers

    def run_slice(index: int) -> None:
        try:
            counts[index] = _count_slice(stats_seq, a, pis, sim, bounds[index], bounds[index + 1], _CHUNK)
        except BaseException as exc:  # re-raised in the calling thread
            errors[index] = exc

    threads = [threading.Thread(target=run_slice, args=(index,)) for index in range(1, workers)]
    for thread in threads:
        thread.start()
    run_slice(0)
    for thread in threads:
        thread.join()
    for error in errors:
        if error is not None:
            raise error
    rows = []
    for entry_counts in zip(*counts):  # one entry's (out1, out2) of every slice
        slice_out1, slice_out2 = zip(*entry_counts)
        out1 = [sum(column) for column in zip(*slice_out1)]
        out2 = [sum(column) for column in zip(*slice_out2)]
        rows.append(tuple(_estimate(o1, o2, total) for o1, o2 in zip(out1, out2)))
    return tuple(rows)


def _count_slice(
    stats_seq: Sequence[ChannelStats],
    a: float,
    pis: Sequence[tuple[float, float]],
    sim: SimConfig,
    start: int,
    stop: int,
    chunk: int,
) -> list[tuple[list[int], list[int]]]:
    """Per-entry, per-pair outage counts of samples [start, stop) of one stream.

    `start` must be even. The gains are drawn with the first entry's mean
    gains, which every entry shares, and each entry scales them by its own
    rho_t. The slice keeps its own buffers: its first chunk is its largest,
    and later chunks reuse views of it.
    """
    counts = [([0] * len(pis), [0] * len(pis)) for _ in stats_seq]
    rho_ts = [stats.rho_t for stats in stats_seq]
    scratch = flags = None
    for g1, g2 in _gain_stream(stats_seq[0], stop - start, sim.seed, chunk, start):
        count = g1.size
        if scratch is None:  # the first chunk is the largest
            scratch, flags = np.empty((4, count)), np.empty(count, bool)
        below = flags[:count]
        for rho_t, (out1, out2) in zip(rho_ts, counts):
            ratio1, ratio2 = _secrecy_ratios(g1, g2, a, rho_t, scratch[:, :count])
            for index, (pi1, pi2) in enumerate(pis):
                out1[index] += _count_below(ratio1, pi1, below)
                out2[index] += _count_below(ratio2, pi2, below)
    return counts


def _count_below(values: np.ndarray, limit: float, below: np.ndarray) -> int:
    """Number of values < limit; `below` is bool scratch of the values' shape."""
    np.less(values, limit, out=below)
    return int(np.count_nonzero(below))

