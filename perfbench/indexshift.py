"""index-shift: the paper's mechanism, in process, under a moving hot range.

An ``AdaptiveBPlusTree`` is bulk-loaded cold (every leaf succinct) with
the default manager config.  Sorted batches go to ``lookup_many``,
drawn by Zipf over a hot range of ``hot_fraction`` of the keys; every
``insert_every``-th batch instead inserts fresh keys inside the current
hot range through ``insert_many``.  After ``lookups_pre`` lookups the
hot range moves once to a range that was cold, and ``lookups_post``
more lookups follow, enough for the manager to run an adaptation phase
after the move.  The closed loop is a fixed amount of work, so the
adaptation phases land at the same accesses on every run.  It is timed in chunks of ``CHUNK_BATCHES`` batches; a run
repeats it on fresh trees and reports rates from each chunk's median
time over the repeats, so a slow spell of the host that hits one
repeat does not move the figure.  The traced run adds open-loop latency
phases at the fixed rates, after the shift.
"""

from __future__ import annotations

import gc
import os
import time
from dataclasses import dataclass
from typing import Dict, List

import numpy as np

from common import median, peak_rss_mb
from repro.bptree.hybrid import AdaptiveBPlusTree

import shims
from loadgen import OpenResult, Tally, end_to_end, latency_layers
from workloads import (
    GET, PUT, ZIPF_S, IndexShiftWorkload, ZipfKeys, fresh_keys, hot_ranges, poisson_offsets,
    preload_keys, preload_value,
)

now = time.perf_counter

#: Fewest fresh trees per run; each is bulk-loaded (set-up time) and shifted.
MIN_REPEATS = 3
#: Batches per timed chunk of the closed loop (about 25k keys).
CHUNK_BATCHES = 100
LOW, HIGH = 1, 2


@dataclass
class _Batch:
    """Sorted lookup keys (an int64 array), or sorted fresh pairs to insert."""

    kind: str
    keys: object


@dataclass
class Chunk:
    """Keys touched and seconds taken by consecutive batches of one shift."""

    ops: int
    seconds: float
    post_shift: bool


@dataclass
class ShiftRates:
    """Keys per second over the whole shift, and after the move."""

    throughput: float
    post_shift: float


def shift_rates(shifts: List[List[Chunk]]) -> ShiftRates:
    """Rates of repeated identical shifts, from each chunk's median time."""
    ops = [chunk.ops for chunk in shifts[0]]
    if any([chunk.ops for chunk in shift] != ops for shift in shifts):
        raise RuntimeError("repeated shifts did different work")
    times = [median([shift[i].seconds for shift in shifts]) for i in range(len(ops))]
    post = [chunk.post_shift for chunk in shifts[0]]
    post_ops = sum(n for n, after in zip(ops, post) if after)
    post_s = sum(t for t, after in zip(times, post) if after)
    return ShiftRates(sum(ops) / sum(times), post_ops / post_s)


class IndexShift:
    """One tree plus the seeded batch plan that drives it."""

    def __init__(self, workload: IndexShiftWorkload, seed: int) -> None:
        self.workload = workload
        self.seed = seed
        self.keys = preload_keys(seed, workload.keys)
        self._keys = np.asarray(self.keys, dtype=np.int64)
        self.hot = int(workload.keys * workload.hot_fraction)
        self.ranges = hot_ranges(seed, workload.keys, self.hot)
        self._zipf = ZipfKeys(np.random.default_rng([seed, 2]), self.hot, ZIPF_S)
        self._rng = np.random.default_rng([seed, 6])
        self._taken: set = set()
        self.inserted: Dict[int, int] = {}
        self.tally = Tally()
        self.tree: AdaptiveBPlusTree = None  # type: ignore[assignment]

    def load(self) -> float:
        """Bulk-load a fresh cold tree; returns the seconds it took."""
        self.tree = None  # type: ignore[assignment]
        pairs = [(key, preload_value(key, 0)) for key in self.keys]
        started = now()
        self.tree = AdaptiveBPlusTree.bulk_load_adaptive(pairs)
        return now() - started

    # ------------------------------------------------------------------
    def plan(self, lookups: int, lo: int, number: int) -> List[_Batch]:
        """Batches carrying ``lookups`` lookups in the hot range at ``lo``.

        ``number`` is the running batch count, so inserts keep their
        cadence across calls.
        """
        w = self.workload
        batches: List[_Batch] = []
        planned = 0
        while planned < lookups:
            number += 1
            if number % w.insert_every == 0:
                pairs = fresh_keys(self._rng, self.keys, lo, self.hot, w.insert_batch, self._taken)
                batches.append(_Batch(PUT, pairs))
                continue
            positions = np.sort(lo + self._zipf.sample(self._rng, w.batch))
            batches.append(_Batch(GET, self._keys[positions]))
            planned += w.batch
        return batches

    def run(self, batch: _Batch) -> int:
        """Apply one batch and check it; returns the keys it touched."""
        if batch.kind == GET:
            answer = self.tree.lookup_many(batch.keys.tolist())
            expected = (batch.keys + 1).tolist()
        else:
            answer = self.tree.insert_many(batch.keys)
            expected = [True] * len(batch.keys)
            self.inserted.update(batch.keys)
        self.tally.attempted += len(expected)
        if answer != expected:
            self.tally.failed += sum(a != b for a, b in zip(answer, expected))
        return len(expected)

    def closed(self) -> List[Chunk]:
        """The fixed-work shift: pre-shift batches, the move, post-shift."""
        w = self.workload
        before = self.plan(w.lookups_pre, self.ranges[0], 0)
        after = self.plan(w.lookups_post, self.ranges[1], len(before))
        chunks: List[Chunk] = []
        for batches, post_shift in ((before, False), (after, True)):
            for first in range(0, len(batches), CHUNK_BATCHES):
                ops = 0
                started = now()
                for batch in batches[first : first + CHUNK_BATCHES]:
                    ops += self.run(batch)
                chunks.append(Chunk(ops, now() - started, post_shift))
        return chunks

    def open(self, rate: float, seconds: float, stream_id: int) -> OpenResult:
        """Batches due at Poisson times of ``rate`` keys/s, timed from due."""
        w = self.workload
        offsets = poisson_offsets(self.seed, stream_id, rate / w.batch, seconds)
        batches = self.plan(len(offsets) * w.batch, self.ranges[1], 0)
        result = OpenResult(seconds=seconds)
        begin = now() + 0.005
        for offset, batch in zip(offsets.tolist(), batches):
            due = begin + offset
            delay = due - now()
            if delay > 0:
                time.sleep(delay)
            sent = now()
            self.run(batch)
            result.samples.append((offset, batch.kind, now() - due))
            result.lags.append(sent - due)
        result.attempted = len(result.samples)
        return result

    def readback(self) -> None:
        """Every inserted key must still hold its value."""
        keys = sorted(self.inserted)
        answer = self.tree.lookup_many(keys)
        self.tally.attempted += len(keys)
        self.tally.failed += sum(a != self.inserted[k] for k, a in zip(keys, answer))

    def bytes_per_key(self) -> float:
        return self.tree.total_size_bytes() / self.tree.num_keys


def measure(workload: IndexShiftWorkload, seed: int, seconds: float):
    """End-to-end metrics of index-shift.

    The shift is repeated on freshly loaded trees until ``seconds`` have
    passed (at least ``MIN_REPEATS`` times); medians are reported.  Peak
    RSS is read after the first shift: later repeats can raise it by
    heap fragmentation, and how many fit depends on the host's speed.
    """
    setups, shifts = [], []
    tally = Tally()
    started = now()
    while len(shifts) < MIN_REPEATS or now() - started < seconds:
        bench = None
        gc.collect()  # free the last tree first
        bench = IndexShift(workload, seed)
        setups.append(bench.load())
        shifts.append(bench.closed())
        bench.readback()
        tally.add(bench.tally)
        if len(shifts) == 1:
            rss_mb = peak_rss_mb(os.getpid())
    rates = shift_rates(shifts)
    metrics = end_to_end(median(setups), rates.throughput, rss_mb, bench.bytes_per_key())
    notes = {"shifts": len(shifts), "post-shift keys/s": f"{rates.post_shift:.0f}"}
    return metrics, tally, _errors(tally), notes


def trace(workload: IndexShiftWorkload, seed: int, seconds: float):
    """Per-layer metrics: an untraced shift with its latency phases, then a
    traced shift on a fresh tree."""
    plain = IndexShift(workload, seed)
    plain.load()
    untraced = shift_rates([plain.closed()])
    low = plain.open(workload.rate_low, seconds * 0.25, LOW)
    high = plain.open(workload.rate_high, seconds * 0.25, HIGH)
    plain.readback()
    tally = Tally()
    tally.add(plain.tally)
    plain = None

    traced = IndexShift(workload, seed)
    traced.load()
    recorder = shims.Recorder([traced.tree.manager], [])
    restore = shims.install(recorder)
    try:
        shifted = traced.closed()
        table = recorder.table()
    finally:
        restore()
    traced.readback()
    tally.add(traced.tally)
    table.pop("_attributed_ms_per_request")
    index_s = table.pop("_index_s")
    layers = dict(table)
    layers.update(latency_layers(low, high))
    shifted_s = sum(chunk.seconds for chunk in shifted)
    traced_rates = shift_rates([shifted])
    layers.update({
        "server.cpu_ms_per_kop": 0.0,
        "throughput_ops.post_shift": untraced.post_shift,
        "trace.residual_frac": (shifted_s - index_s) / shifted_s,
        "trace.overhead_frac": 1.0 - traced_rates.throughput / untraced.throughput,
    })
    return layers, tally, _errors(tally), {"latency samples low/high": f"{low.count()}/{high.count()}"}


def _errors(tally: Tally) -> List[str]:
    return [f"{tally.failed} wrong answers from the index"] if tally.failed else []
