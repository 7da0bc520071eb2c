"""Workload definitions and the seeded request generator.

Every input the benchmark feeds the system comes from here and depends
only on the ``--seed``: the preloaded key set, the Zipf hot-key mapping,
the request mix, the written values and the open-loop arrival times.
The server child calls :func:`preload_keys` with the same seed, so both
sides agree on the key set without shipping it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

GET = "get"
PUT = "put"
SCAN = "scan"

#: Keys are spaced at least this far apart, so index-shift can insert
#: fresh keys between preloaded neighbours.
KEY_STRIDE = 16
#: Written values start here; preloaded values (``key + 1 + tenant``)
#: stay below it, so a GET can tell a preload from a generated write.
WRITTEN_VALUE_BASE = 1 << 26
#: Zipf exponent of every workload's key popularity.
ZIPF_S = 1.0
#: Client connections of the served workloads: one per core on a 2-core host.
CONNECTIONS = 2


@dataclass(frozen=True)
class ServedWorkload:
    """A traffic mix against a server child, with its fixed open-loop rates."""

    name: str
    tenants: int
    keys_per_tenant: int
    shards: int
    family: str
    replication_factor: int
    wal: bool
    mix: Tuple[Tuple[str, float], ...]
    scan_count: int
    #: Outstanding requests in the closed loop, spread over the connections.
    window: int
    #: Open-loop arrival rates in requests/s, fixed at about 0.35x and
    #: 0.7x of the seed's closed-loop throughput.
    rate_low: float
    rate_high: float


@dataclass(frozen=True)
class IndexShiftWorkload:
    """In-process adaptive B+-tree under a moving Zipf hot range."""

    name: str
    keys: int
    hot_fraction: float
    batch: int
    #: Every ``insert_every``-th batch inserts ``insert_batch`` fresh keys.
    insert_every: int
    insert_batch: int
    #: Lookups before the hot range moves, and after it.
    lookups_pre: int
    lookups_post: int
    #: Open-loop batch arrival rates, as keys/s (batches/s = rate / batch).
    rate_low: float
    rate_high: float


WORKLOADS: Dict[str, object] = {
    "serve-get": ServedWorkload(
        name="serve-get",
        tenants=4,
        keys_per_tenant=20_000,
        shards=4,
        family="olc",
        replication_factor=1,
        wal=False,
        mix=((GET, 0.95), (PUT, 0.05)),
        scan_count=0,
        window=64,
        rate_low=3200.0,
        rate_high=6400.0,
    ),
    "serve-mixed-durable": ServedWorkload(
        name="serve-mixed-durable",
        tenants=2,
        keys_per_tenant=20_000,
        shards=2,
        family="adaptive",
        replication_factor=3,
        wal=True,
        mix=((GET, 0.55), (PUT, 0.25), (SCAN, 0.20)),
        scan_count=32,
        window=64,
        rate_low=600.0,
        rate_high=1000.0,
    ),
    "index-shift": IndexShiftWorkload(
        name="index-shift",
        keys=200_000,
        hot_fraction=0.10,
        batch=256,
        insert_every=20,
        insert_batch=24,
        lookups_pre=400_000,
        lookups_post=1_200_000,
        rate_low=100_000.0,
        rate_high=150_000.0,
    ),
}


def scaled(workload, scale: float):
    """A copy of ``workload`` with its sizes multiplied by ``scale``.

    Only the self-tests shrink workloads; the benchmark runs at scale 1.
    """
    if scale == 1.0:
        return workload
    fields = dict(workload.__dict__)
    if isinstance(workload, ServedWorkload):
        fields["keys_per_tenant"] = max(256, int(workload.keys_per_tenant * scale))
    else:
        fields["keys"] = max(2048, int(workload.keys * scale))
        fields["lookups_pre"] = max(4096, int(workload.lookups_pre * scale))
        fields["lookups_post"] = max(4096, int(workload.lookups_post * scale))
    return type(workload)(**fields)


def preload_keys(seed: int, count: int) -> List[int]:
    """``count`` sorted distinct int keys, at least ``KEY_STRIDE`` apart."""
    rng = np.random.default_rng([seed, 0])
    slots = np.sort(rng.choice(count * 4, size=count, replace=False))
    return [int(slot) * KEY_STRIDE for slot in slots]


def preload_value(key: int, tenant: int) -> int:
    """The value a tenant's key holds before the load generator writes it."""
    return key + 1 + tenant


def tenant_name(position: int) -> str:
    return f"t{position}"


class ZipfKeys:
    """Zipf(s) ranks over ``n`` items, mapped through a seeded permutation.

    The permutation decides which items are hot.
    """

    def __init__(self, layout: np.random.Generator, n: int, s: float) -> None:
        weights = 1.0 / np.arange(1, n + 1, dtype=np.float64) ** s
        self._cdf = np.cumsum(weights) / weights.sum()
        self.n = n
        self.permutation = layout.permutation(n)

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        ranks = np.searchsorted(self._cdf, rng.random(size))
        return self.permutation[np.minimum(ranks, self.n - 1)]


@dataclass
class Op:
    """One request: kind, tenant position, key, and value or scan count."""

    kind: str
    tenant: int
    key: int
    arg: int = 0


class RequestStream:
    """The deterministic request sequence of one served workload.

    Tenants are chosen round-robin, keys by Zipf over the tenant's key
    set, and each PUT carries a fresh globally unique value, so the
    checker can tell every write apart.  ``stream_id`` separates the
    streams of different phases of one run.
    """

    def __init__(self, workload: ServedWorkload, seed: int, stream_id: int) -> None:
        self.workload = workload
        self.keys = preload_keys(seed, workload.keys_per_tenant)
        self._rng = np.random.default_rng([seed, 1, stream_id])
        self._zipf = ZipfKeys(
            np.random.default_rng([seed, 2]), len(self.keys), ZIPF_S
        )
        kinds = [kind for kind, _ in workload.mix]
        shares = np.cumsum([share for _, share in workload.mix])
        self._kinds = kinds
        self._shares = shares / shares[-1]
        self._buffer: List[Op] = []
        self._position = 0
        self._tenant = 0
        self._next_value = WRITTEN_VALUE_BASE + (stream_id << 22)

    def _refill(self, size: int = 1024) -> None:
        kind_index = np.searchsorted(self._shares, self._rng.random(size))
        key_index = self._zipf.sample(self._rng, size)
        ops: List[Op] = []
        for kind_i, key_i in zip(kind_index.tolist(), key_index.tolist()):
            kind = self._kinds[min(kind_i, len(self._kinds) - 1)]
            tenant = self._tenant
            self._tenant = (tenant + 1) % self.workload.tenants
            key = self.keys[key_i]
            arg = 0
            if kind == PUT:
                arg = self._next_value
                self._next_value += 1
            elif kind == SCAN:
                arg = self.workload.scan_count
            ops.append(Op(kind, tenant, key, arg))
        self._buffer = ops
        self._position = 0

    def next(self) -> Op:
        if self._position >= len(self._buffer):
            self._refill()
        op = self._buffer[self._position]
        self._position += 1
        return op


def poisson_offsets(seed: int, stream_id: int, rate: float, seconds: float) -> np.ndarray:
    """Arrival offsets (s) of a Poisson process at ``rate`` over ``seconds``."""
    rng = np.random.default_rng([seed, 3, stream_id])
    expected = int(rate * seconds * 1.2) + 64
    offsets = np.cumsum(rng.exponential(1.0 / rate, size=expected))
    return offsets[offsets < seconds]


def hot_ranges(seed: int, keys: int, hot: int) -> Tuple[int, int]:
    """Start positions of the hot range before and after the shift.

    The two ranges never overlap, so every leaf that is hot after the
    shift was cold before it.
    """
    rng = np.random.default_rng([seed, 4])
    first = int(rng.integers(0, keys - hot))
    while True:
        second = int(rng.integers(0, keys - hot))
        if abs(second - first) >= hot:
            return first, second


def fresh_keys(
    rng: np.random.Generator, keys: List[int], lo: int, hot: int, count: int,
    taken: set,
) -> List[Tuple[int, int]]:
    """``count`` new sorted pairs between preloaded neighbours in the hot range."""
    pairs: Dict[int, int] = {}
    while len(pairs) < count:
        base = keys[lo + int(rng.integers(0, hot))]
        key = base + int(rng.integers(1, KEY_STRIDE))
        if key not in taken and key not in pairs:
            pairs[key] = preload_value(key, 0)
    taken.update(pairs)
    return sorted(pairs.items())

