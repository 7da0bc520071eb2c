"""Timing shims around the public functions of each layer.

:func:`install` replaces a layer's public function with a wrapper, at
the place its caller looks it up (a module attribute such as
``repro.net.server.decode_request``, or a class attribute such as
``ShardRouter.get_many``); the wrappers feed a :class:`Recorder`, whose
:meth:`~Recorder.table` reduces a window of samples to the metrics.  Nothing under ``src/`` changes; tracing
inside the program is separate work.

Linking calls across threads: a router call runs on a coalescer thread
and its shard calls on the router's pool threads.  A shard call is
attributed to the in-flight call of the router that owns the shard
whose key set holds the shard call's first key, which is unambiguous
unless two concurrent batches of one tenant carry the same key.
"""

from __future__ import annotations

import threading
import time
from collections import Counter
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

import repro.net.server as net_server
from repro.bptree.hybrid import AdaptiveBPlusTree
from repro.bptree.olc import OlcBPlusTree
from repro.core.budget import ResourceArbiter
from repro.core.manager import AdaptationManager
from repro.durability.log import DurableLog
from repro.net.coalescer import Coalescer
from repro.replication.replica_set import ReplicatedShard
from repro.replication.routing import ReplicaRouter
from repro.service.router import ShardRouter
from repro.service.shard import Shard

now = time.perf_counter

#: Replica profiles of the replicated workload, in routing-share order.
PROFILES = ("point", "scan", "squeezed")
#: Nominal user bytes per written pair: an 8-byte key and 8-byte value.
USER_BYTES_PER_PUT = 16

#: Every per-layer metric a traced run reports, with its unit.  A layer
#: a workload does not exercise reports 0.
LAYER_UNITS = {
    "net.protocol.decode_us": "us",
    "net.protocol.encode_us": "us",
    "server.cpu_ms_per_kop": "ms",
    "net.server.admission_us": "us",
    "net.coalescer.batch_size.mean": "count",
    "net.coalescer.overhead_ms.p50": "ms",
    "service.router.self_ms.p50": "ms",
    "service.router.pool_hop_ms.p50": "ms",
    "service.router.scan_fetch_ratio": "ratio",
    "service.shard.scan_ms.p50": "ms",
    "durability.wal.append_ms.p50": "ms",
    "durability.wal.appends_per_kput": "count",
    "durability.wal.bytes_per_user_byte": "ratio",
    "replication.routing.share.point": "frac",
    "replication.routing.share.scan": "frac",
    "replication.routing.share.squeezed": "frac",
    "replication.fanout_ms.p50": "ms",
    "bptree.lookup_us_per_key": "us",
    "core.manager.phases": "count",
    "core.manager.migrations": "count",
    "core.manager.run_ms.total": "ms",
    "core.manager.sampled_frac": "frac",
    "throughput_ops.post_shift": "ops/s",
    "loadgen.lat_p50_ms.low": "ms",
    "loadgen.lat_p99_ms.low": "ms",
    "loadgen.lat_p50_ms.high": "ms",
    "loadgen.lat_p99_ms.high": "ms",
    "loadgen.lat_p50_ms.high.get": "ms",
    "loadgen.lat_p50_ms.high.put": "ms",
    "loadgen.lat_p50_ms.high.scan": "ms",
    "loadgen.send_lag_ms.p99": "ms",
    "trace.residual_frac": "frac",
    "trace.overhead_frac": "frac",
}


class _RouterCall:
    __slots__ = ("kind", "start", "keys", "children")

    def __init__(self, kind: str, start: float, keys: set) -> None:
        self.kind = kind
        self.start = start
        self.keys = keys
        self.children: List[Tuple[float, float]] = []


def _covered(start: float, end: float, spans: List[Tuple[float, float]]) -> float:
    """Length of ``[start, end]`` covered by the union of ``spans``."""
    total = 0.0
    cursor = start
    for lo, hi in sorted(spans):
        lo, hi = max(lo, cursor), min(hi, end)
        if hi > lo:
            total += hi - lo
            cursor = hi
    return total


def _mean(values: List[float]) -> float:
    return float(np.mean(values)) if values else 0.0


def _p50(values: List[float]) -> float:
    return float(np.percentile(values, 50)) if values else 0.0


class Recorder:
    """Per-layer samples for one window, and the table they reduce to."""

    def __init__(self, managers: List[AdaptationManager], logs: List[DurableLog],
                 coalescer: Optional[Coalescer] = None) -> None:
        self._managers = managers
        self._logs = logs
        self._coalescer = coalescer
        self._lock = threading.Lock()
        self._active: Dict[int, List[_RouterCall]] = {}
        self.reset()

    def reset(self) -> None:
        """Start a new window: drop samples, re-read the baselines."""
        self.decode: List[float] = []
        self.encode: List[float] = []
        self.admit: List[float] = []
        self.coalesce_total: List[float] = []
        self.coalesce_overhead: List[float] = []
        self.router_self: List[float] = []
        self.router_hop: List[float] = []
        self.router_scan: List[float] = []
        self.router_scan_pairs: List[int] = []
        self.shard_scan: List[float] = []
        self.shard_scan_pairs: List[int] = []
        self.wal_append: List[float] = []
        self.fanout: List[float] = []
        self.picks: List[str] = []
        self.lookup: List[Tuple[float, int]] = []
        self.insert: List[Tuple[float, int]] = []
        self.adapt: List[Tuple[float, int]] = []
        self.puts = 0
        #: (router id, kind, key) -> (start, end) of the last router call
        #: that carried the key, for the coalescer's overhead.
        self._last_call: Dict[Tuple[int, str, Any], Tuple[float, float]] = {}
        self._wal_bytes = self._wal_size()
        self._manager_counts = self._manager_totals()
        self._coalescer_counts = self._coalescer_totals()

    # ------------------------------------------------------------------
    def _wal_size(self) -> int:
        return sum(log.wal_size_bytes() for log in self._logs)

    def _manager_totals(self) -> Tuple[int, int]:
        return (
            sum(m.counters.sampled for m in self._managers),
            sum(m.counters.accesses for m in self._managers),
        )

    def _coalescer_totals(self) -> Tuple[int, int]:
        if self._coalescer is None:
            return 0, 0
        return self._coalescer.batches_flushed, self._coalescer.requests_coalesced

    # ------------------------------------------------------------------
    # Router/shard linking
    # ------------------------------------------------------------------
    def router_enter(self, router: Any, kind: str, keys: set) -> _RouterCall:
        call = _RouterCall(kind, now(), keys)
        with self._lock:
            self._active.setdefault(id(router), []).append(call)
        return call

    def router_exit(self, router: Any, call: _RouterCall) -> None:
        end = now()
        with self._lock:
            self._active[id(router)].remove(call)
            children = list(call.children)
        duration = end - call.start
        self.router_self.append(duration - _covered(call.start, end, children))
        if children:
            self.router_hop.append(min(lo for lo, _ in children) - call.start)
        if call.kind == "scan":
            self.router_scan.append(duration)
        else:
            rid = id(router)
            for key in call.keys:
                self._last_call[(rid, call.kind, key)] = (call.start, end)

    def shard_done(self, router_id: int, kind: str, key: Any, start: float, end: float) -> None:
        with self._lock:
            for call in self._active.get(router_id, ()):
                if call.kind == kind and key in call.keys and call.start <= start:
                    call.children.append((start, end))
                    return

    def coalesced(self, router_id: int, kind: str, key: Any, enqueued: float) -> None:
        resolved = now()
        total = resolved - enqueued
        self.coalesce_total.append(total)
        call = self._last_call.get((router_id, kind, key))
        if call is not None and call[0] >= enqueued and call[1] <= resolved:
            self.coalesce_overhead.append(total - (call[1] - call[0]))

    # ------------------------------------------------------------------
    def table(self) -> Dict[str, float]:
        """The per-layer metrics of the window since the last reset."""
        ms, us = 1e3, 1e6
        batches, requests = (
            b - a for a, b in zip(self._coalescer_counts, self._coalescer_totals())
        )
        sampled, accesses = (
            b - a for a, b in zip(self._manager_counts, self._manager_totals())
        )
        puts = self.puts
        picks = Counter(self.picks)
        lookup_s = sum(t for t, _ in self.lookup)
        lookup_keys = sum(n for _, n in self.lookup)
        table = {
            "net.protocol.decode_us": _mean(self.decode) * us,
            "net.protocol.encode_us": _mean(self.encode) * us,
            "net.server.admission_us": _mean(self.admit) * us,
            "net.coalescer.batch_size.mean": requests / batches if batches else 0.0,
            "net.coalescer.overhead_ms.p50": _p50(self.coalesce_overhead) * ms,
            "service.router.self_ms.p50": _p50(self.router_self) * ms,
            "service.router.pool_hop_ms.p50": _p50(self.router_hop) * ms,
            "service.router.scan_fetch_ratio": (
                sum(self.shard_scan_pairs) / sum(self.router_scan_pairs)
                if sum(self.router_scan_pairs) else 0.0
            ),
            "service.shard.scan_ms.p50": _p50(self.shard_scan) * ms,
            "durability.wal.append_ms.p50": _p50(self.wal_append) * ms,
            "durability.wal.appends_per_kput": (
                1000.0 * len(self.wal_append) / puts if puts else 0.0
            ),
            "durability.wal.bytes_per_user_byte": (
                (self._wal_size() - self._wal_bytes) / (USER_BYTES_PER_PUT * puts)
                if puts else 0.0
            ),
            "replication.fanout_ms.p50": _p50(self.fanout) * ms,
            "bptree.lookup_us_per_key": lookup_s / lookup_keys * us if lookup_keys else 0.0,
            "core.manager.phases": float(len(self.adapt)),
            "core.manager.migrations": float(sum(n for _, n in self.adapt)),
            "core.manager.run_ms.total": sum(t for t, _ in self.adapt) * ms,
            "core.manager.sampled_frac": sampled / accesses if accesses else 0.0,
        }
        for profile in PROFILES:
            table[f"replication.routing.share.{profile}"] = (
                picks[profile] / len(self.picks) if self.picks else 0.0
            )
        # Server-side time attributed per request, for the residual: wire
        # decode, admission, enqueue-to-resolve (coalesced GET/PUT) or
        # the router call (SCAN), and response encode.
        served = len(self.decode)
        attributed = (
            sum(self.decode) + sum(self.admit) + sum(self.coalesce_total)
            + sum(self.router_scan) + sum(self.encode)
        )
        table["_attributed_ms_per_request"] = attributed / served * ms if served else 0.0
        table["_index_s"] = lookup_s + sum(t for t, _ in self.insert)
        return table


# ----------------------------------------------------------------------
# Installation
# ----------------------------------------------------------------------
class _Patches:
    def __init__(self) -> None:
        self._undo: List[Tuple[Any, str, Any]] = []

    def wrap(self, owner: Any, name: str, make: Callable[[Any], Any]) -> None:
        original = owner.__dict__[name] if isinstance(owner, type) else getattr(owner, name)
        self._undo.append((owner, name, original))
        setattr(owner, name, make(original))

    def restore(self) -> None:
        for owner, name, original in reversed(self._undo):
            setattr(owner, name, original)
        self._undo.clear()


def _timed(samples: Callable[[], List[float]]) -> Callable[[Any], Any]:
    """A wrapper factory that appends each call's duration."""

    def make(original: Any) -> Any:
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            start = now()
            try:
                return original(*args, **kwargs)
            finally:
                samples().append(now() - start)

        return wrapper

    return make


def install(rec: Recorder, routers: Optional[List[ShardRouter]] = None) -> Callable[[], None]:
    """Install every shim, feeding ``rec``; returns a function undoing them.

    ``routers`` are the tenants' shard groups (empty for the in-process
    index workload); a shard is linked to the router that owns it.
    """
    patches = _Patches()
    owner_of: Dict[int, int] = {}
    for router in routers or []:
        for shard in router.table.shards:
            owner_of[id(shard)] = id(router)

    # -- wire protocol and admission ----------------------------------
    patches.wrap(net_server, "decode_request", _timed(lambda: rec.decode))
    patches.wrap(net_server, "encode_response", _timed(lambda: rec.encode))
    patches.wrap(ResourceArbiter, "admit", _timed(lambda: rec.admit))

    # -- coalescer: enqueue to future resolved -------------------------
    def coalesce(kind: str) -> Callable[[Any], Any]:
        def make(original: Any) -> Any:
            def wrapper(self: Coalescer, router: Any, payload: Any, span: Any = None) -> Any:
                enqueued = now()
                future = original(self, router, payload, span)
                key = payload[0] if kind == "put" else payload
                if kind == "put":
                    rec.puts += 1
                future.add_done_callback(
                    lambda _: rec.coalesced(id(router), kind, key, enqueued)
                )
                return future

            return wrapper

        return make

    patches.wrap(Coalescer, "get", coalesce("get"))
    patches.wrap(Coalescer, "put", coalesce("put"))

    # -- router fan-out and the shard calls it makes ---------------------
    def router_call(kind: str, keys_of: Callable[..., set]) -> Callable[[Any], Any]:
        def make(original: Any) -> Any:
            def wrapper(self: ShardRouter, *args: Any) -> Any:
                call = rec.router_enter(self, kind, keys_of(*args))
                try:
                    result = original(self, *args)
                finally:
                    rec.router_exit(self, call)
                if kind == "scan":
                    rec.router_scan_pairs.append(len(result))
                return result

            return wrapper

        return make

    patches.wrap(ShardRouter, "get_many", router_call("get", lambda keys: set(keys)))
    patches.wrap(
        ShardRouter, "put_many", router_call("put", lambda pairs: {k for k, _ in pairs})
    )
    patches.wrap(ShardRouter, "scan", router_call("scan", lambda start, count: {start}))

    def shard_call(kind: str, first_key: Callable[..., Any], fanout: bool = False):
        def make(original: Any) -> Any:
            def wrapper(self: Shard, *args: Any) -> Any:
                router_id = owner_of.get(id(self))
                if router_id is None:
                    # A replica's inner shard, or a shard no router owns.
                    return original(self, *args)
                start = now()
                result = original(self, *args)
                end = now()
                rec.shard_done(router_id, kind, first_key(*args), start, end)
                if kind == "scan":
                    rec.shard_scan.append(end - start)
                    rec.shard_scan_pairs.append(len(result))
                if fanout:
                    rec.fanout.append(end - start)
                return result

            return wrapper

        return make

    for cls in (Shard, ReplicatedShard):
        patches.wrap(cls, "get_many", shard_call("get", lambda keys: keys[0]))
        patches.wrap(
            cls,
            "put_many",
            shard_call("put", lambda pairs: pairs[0][0], fanout=cls is ReplicatedShard),
        )
        patches.wrap(cls, "scan", shard_call("scan", lambda start, count: start))

    # -- replicas, WAL, index, adaptation ---------------------------------
    def pick(original: Any) -> Any:
        def wrapper(self: ReplicaRouter, shard: Any, kind: str) -> Any:
            replica = original(self, shard, kind)
            rec.picks.append(replica.profile.name)
            return replica

        return wrapper

    patches.wrap(ReplicaRouter, "pick", pick)
    patches.wrap(DurableLog, "append_put_many", _timed(lambda: rec.wal_append))
    patches.wrap(DurableLog, "append_put", _timed(lambda: rec.wal_append))

    def per_key(samples: Callable[[], List[Tuple[float, int]]], batched: bool):
        def make(original: Any) -> Any:
            def wrapper(self: Any, arg: Any, *rest: Any) -> Any:
                start = now()
                result = original(self, arg, *rest)
                samples().append((now() - start, len(arg) if batched else 1))
                return result

            return wrapper

        return make

    patches.wrap(OlcBPlusTree, "lookup", per_key(lambda: rec.lookup, batched=False))
    patches.wrap(AdaptiveBPlusTree, "lookup_many", per_key(lambda: rec.lookup, batched=True))
    patches.wrap(AdaptiveBPlusTree, "insert_many", per_key(lambda: rec.insert, batched=True))

    def run_adaptation(original: Any) -> Any:
        def wrapper(self: AdaptationManager) -> Any:
            start = now()
            event = original(self)
            rec.adapt.append((now() - start, event.expansions + event.compactions))
            return event

        return wrapper

    patches.wrap(AdaptationManager, "run_adaptation", run_adaptation)
    return patches.restore


def managers_and_logs(routers: List[ShardRouter]) -> Tuple[List[AdaptationManager], List[DurableLog]]:
    """Every adaptation manager and WAL behind ``routers``."""
    managers: List[AdaptationManager] = []
    logs: List[DurableLog] = []
    for router in routers:
        for shard in router.table.shards:
            inner = [r.shard for r in shard.replicas] if shard.is_replicated else [shard]
            for copy in inner:
                manager = getattr(copy.index, "manager", None)
                if manager is not None:
                    managers.append(manager)
                if copy.durable_log is not None:
                    logs.append(copy.durable_log)
    return managers, logs
