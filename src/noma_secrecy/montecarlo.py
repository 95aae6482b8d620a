"""Seeded Monte Carlo estimation of both users' secrecy outage probabilities.

The estimator is the empirical oracle every analytical expression is checked
against: draw gain pairs, apply the proposed decoding order, count outages
R_s < R_th (strict; ties are non-outage). The count needs no logarithm:
R_s1 < R_th1 iff (1 + g11) / (1 + g12) < 2**R_th1, and likewise for the far
user. Each stream is one Philox key, two samples per counter block, so
sample 2k starts block k and a Philox generator seeded with counter k reads
the stream from there. `empirical_sops` cuts each stream into contiguous
slices, one per CPU this process may run on and each at least one chunk
long, that start at even samples; the calling thread counts the first slice
and a thread each the others, and the integer counts are summed in slice
order. A slice is read in order in chunks of whole blocks. So the draws, and
hence the totals, depend neither on the chunk size nor on the worker or CPU
count. A slice keeps one set of buffers: the uniforms become gains in place,
and the ratio algebra and the comparisons run into reused arrays, building
no array or object per chunk. Each chunk is drawn once and counted against
every target-rate pair of a call (common random numbers), so a sweep over
target rates costs one stream, not one per rate: `noma-secrecy validate`
draws one stream per SNR, seeded `seed + snr_index`.
"""
from __future__ import annotations

import math
import operator
import os
import threading
from dataclasses import dataclass
from typing import NamedTuple, Optional, Sequence

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
    condition_on_ordering: bool = False  # keep only draws with g1 > g2

    def __post_init__(self) -> None:
        # Streams are cut into slices by index, so the count must be a true integer.
        if isinstance(self.realizations, bool):
            raise TypeError("realizations must be an integer, not a bool")
        if operator.index(self.realizations) < 1:
            raise ValueError("need at least one realization")


class EmpiricalSop(NamedTuple):
    so1_hat: float
    so2_hat: float
    stderr1: float
    stderr2: float
    n: int  # samples actually counted (smaller than realizations if conditioned)


def _binomial_stderr(p: float, n: int) -> float:
    if n == 0:
        return 0.0
    return math.sqrt(p * (1.0 - p) / n)


def _estimate(out1: int, out2: int, kept: int) -> EmpiricalSop:
    so1 = out1 / kept if kept else 0.0
    so2 = out2 / kept if kept else 0.0
    return EmpiricalSop(
        so1_hat=so1,
        so2_hat=so2,
        stderr1=_binomial_stderr(so1, kept),
        stderr2=_binomial_stderr(so2, kept),
        n=kept,
    )


def _secrecy_ratios(
    g1: np.ndarray,
    g2: np.ndarray,
    a: float,
    rho_t: float,
    out: Optional[np.ndarray] = None,
) -> tuple[np.ndarray, np.ndarray]:
    """(1 + g11) / (1 + g12) and (1 + g22) / (1 + g21) under the proposed order.

    With x_i = rho_t * g_i the SINRs give 1 + g11 = 1 + a x1,
    1 + g12 = (1 + x2) / (1 + (1 - a) x2), 1 + g22 = 1 + (1 - a) x2 and
    1 + g21 = (1 + x1) / (1 + a x1), so both ratios share one product.
    `out` is scratch of shape (4,) + g1.shape; the ratios are views of it.
    """
    if out is None:
        out = np.empty((4,) + np.shape(g1))
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
    stats: ChannelStats,
    alpha: float,
    targets_seq: Sequence[TargetRates],
    sim: SimConfig,
    _chunk: int = _CHUNK,
) -> tuple[EmpiricalSop, ...]:
    """Outage frequencies under the proposed decoding order, one per target pair.

    All target pairs are counted on the same draws, so the estimates share
    one stream and each equals what a separate call with that pair alone gives.
    Conditioning masks the counts instead of compacting the draws. The
    stream is cut into one slice per usable CPU, each at least one chunk
    long and starting at an even sample; the calling thread counts the
    first slice and one thread each the others. An error in any slice is
    raised here once every thread has ended.
    """
    a = float(validated_alpha(alpha))
    pis = [(targets.pi1, targets.pi2) for targets in targets_seq]
    total = sim.realizations
    workers = max(1, min(_usable_cpus(), total // _chunk))
    bounds = [2 * ((total // 2) * index // workers) for index in range(workers)] + [total]
    counts: list = [None] * workers
    errors: list = [None] * workers

    def run_slice(index: int) -> None:
        try:
            counts[index] = _count_slice(stats, a, pis, sim, bounds[index], bounds[index + 1], _chunk)
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
    slice_kept, slice_out1, slice_out2 = zip(*counts)
    out1 = [sum(column) for column in zip(*slice_out1)]
    out2 = [sum(column) for column in zip(*slice_out2)]
    kept = sum(slice_kept)
    return tuple(_estimate(o1, o2, kept) for o1, o2 in zip(out1, out2))


def _count_slice(
    stats: ChannelStats,
    a: float,
    pis: Sequence[tuple[float, float]],
    sim: SimConfig,
    start: int,
    stop: int,
    chunk: int,
) -> tuple[int, list[int], list[int]]:
    """Kept count and per-pair outage counts of samples [start, stop) of one stream.

    `start` must be even. The slice keeps its own buffers: its first chunk
    is its largest, and later chunks reuse views of it.
    """
    out1 = [0] * len(pis)
    out2 = [0] * len(pis)
    kept = 0
    scratch = flags = None
    for g1, g2 in _gain_stream(stats, stop - start, sim.seed, chunk, start):
        count = g1.size
        if scratch is None:  # the first chunk is the largest
            scratch, flags = np.empty((4, count)), np.empty((2, count), bool)
        ratio1, ratio2 = _secrecy_ratios(g1, g2, a, stats.rho_t, scratch[:, :count])
        below, ordered = flags[:, :count]
        if sim.condition_on_ordering:
            mask = np.greater(g1, g2, out=ordered)
            kept += int(np.count_nonzero(mask))
        else:
            mask = None
            kept += count
        for index, (pi1, pi2) in enumerate(pis):
            out1[index] += _count_below(ratio1, pi1, mask, below)
            out2[index] += _count_below(ratio2, pi2, mask, below)
    return kept, out1, out2


def _count_below(values: np.ndarray, limit: float, mask: Optional[np.ndarray], below: np.ndarray) -> int:
    """Number of values < limit, among the masked ones when a mask is given."""
    np.less(values, limit, out=below)
    if mask is not None:
        np.logical_and(below, mask, out=below)
    return int(np.count_nonzero(below))

