"""Every service shard is a replica set of N >= 1 copies.

The :class:`~repro.service.router.ShardRouter` routes to a
:class:`ReplicatedShard`, gates writes on it, checkpoints it, and
splits or merges it — there is no other shard shape.  Inside, the set
keeps N :class:`Replica` copies of the same key range, each an ordinary
:class:`~repro.service.shard.Shard` wrapping its own index (and, when
durable, its own WAL), built from a named recipe: a plain index family
or a divergence :class:`~repro.replication.profiles.ReplicaProfile`.

**Reads** are steered to one replica by the
:class:`~repro.replication.routing.ReplicaRouter`; a replica that fails
a read is marked down and the batch is rerouted to a survivor without
surfacing the failure.  **Writes** fan out to every live replica in
replica order (under the set's operation lock, so all replica WALs
record the same append order and their LSNs stay comparable).  A
replica whose write fails — a poisoned log, a full disk — is fenced and
marked down while the survivors acknowledge.  Down replicas count the
writes they miss (``behind``), which is both the router's staleness
penalty and recovery's signal for which copy is authoritative.

With one live replica there is nothing to choose between, so a set of
N = 1 behaves as the plain shard it wraps: no scoring, no cost sampling
and no pick metrics, and an error propagates to the caller unchanged
without marking the last live copy down.

Invariant: every *acknowledged* write is applied (and, when durable,
logged) on every replica that is up at acknowledgment time — so any
surviving replica alone can serve the full acked history, and recovery
reconciles stragglers from the copy with the highest WAL LSN.
"""

from __future__ import annotations

import threading
from contextlib import nullcontext
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    ContextManager,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    TypeVar,
)

from repro.obs.runtime import active_registry
from repro.replication.profiles import ReplicaProfile
from repro.replication.routing import ReplicaRouter
from repro.service.partition import Key
from repro.service.shard import Pair, Shard, span_if_traced

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.durability.log import DurableLog

T = TypeVar("T")

#: RA004: span-name literal for replicated shard operations.
_REPLICA_OP_SPAN = "replication.replica_op"

#: RA004: literal instrument names for the replica-set layer.
_COUNTERS = {
    "downs": "replication.replicas_marked_down",
    "fallbacks": "replication.fallbacks",
}
_REPLICAS_UP_GAUGE = "replication.replicas_up"


class ReplicaSetUnavailableError(RuntimeError):
    """Every replica of a shard is down; the operation cannot proceed."""


def _counter_delta(
    before: Mapping[str, int], after: Mapping[str, int]
) -> Dict[str, int]:
    """Structural events that happened between two counter snapshots."""
    delta: Dict[str, int] = {}
    for event, count in after.items():
        changed = count - before.get(event, 0)
        if changed:
            delta[event] = changed
    return delta


class Replica:
    """One copy of a shard: an inner Shard plus recipe and health state."""

    def __init__(self, replica_id: int, profile: Any, shard: Shard) -> None:
        self.replica_id = replica_id
        #: The recipe this copy is built from (a FamilyRecipe or a
        #: ReplicaProfile); split/merge, revive and recovery rebuild it
        #: the same way.
        self.profile = profile
        #: The inner plain shard: owns the index, the op lock, and (when
        #: durable) this replica's private WAL.
        self.shard = shard
        self.down = False
        self.down_reason: Optional[str] = None
        #: Writes fanned out while this replica was down (staleness).
        self.behind = 0
        self.reads_routed = 0
        #: Router state: measured modeled ns/op per read class, and how
        #: many batches of each class were routed here (sampling cadence).
        self.cost_ewma: Dict[str, float] = {}
        self.routed_batches: Dict[str, int] = {}


class ReplicatedShard:
    """N >= 1 replicas presented as one service shard."""

    #: Always true (every router shard is a replica set); the
    #: benchmark's timing shims read it.
    is_replicated = True

    def __init__(
        self,
        shard_id: int,
        replicas: Sequence[Replica],
        router: Optional[ReplicaRouter] = None,
    ) -> None:
        if not replicas:
            raise ValueError("a replica set needs at least one replica")
        #: The position this set was built for.  Purely informational:
        #: the router derives routing positions from the table index.
        self.shard_id = shard_id
        self.replicas: List[Replica] = list(replicas)
        self.router = router or ReplicaRouter()
        #: Orders write batches against split/merge, checkpoint and revive.
        self.write_gate = threading.RLock()
        #: Serializes the write fan-out, so every replica WAL records the
        #: same append order.  Reads never take it.
        self.op_lock = threading.RLock()

    def _guard(self) -> ContextManager[Any]:
        return self.op_lock

    # ------------------------------------------------------------------
    # Per-set properties
    # ------------------------------------------------------------------
    @property
    def recipes(self) -> List[Any]:
        """The recipe of every replica, in replica order."""
        return [replica.profile for replica in self.replicas]

    @property
    def supports_writes(self) -> bool:
        """False for build-once families (the HybridTrie has no insert)."""
        return all(replica.shard.supports_writes for replica in self.replicas)

    def logs(self) -> List["DurableLog"]:
        """Every replica's log, in replica order (empty when not durable)."""
        return [
            replica.shard.durable_log
            for replica in self.replicas
            if replica.shard.durable_log is not None
        ]

    def arbitrated_indexes(self) -> List[Any]:
        """The replica indexes the global BudgetArbiter may rebalance.

        Family-built replicas join the global pool.  Profile-built ones
        never do: their budget is divergence policy, and a global
        rebalance would erase the very asymmetry replication exploits.
        """
        return [
            replica.shard.index
            for replica in self.replicas
            if not isinstance(replica.profile, ReplicaProfile)
        ]

    # ------------------------------------------------------------------
    # Replica health
    # ------------------------------------------------------------------
    def _alive(self) -> List[Replica]:
        return [replica for replica in self.replicas if not replica.down]

    def _authoritative(self) -> Replica:
        """The first live replica: holds the complete acked history."""
        alive = self._alive()
        if not alive:
            raise ReplicaSetUnavailableError(
                f"all {len(self.replicas)} replicas of shard "
                f"{self.shard_id} are down"
            )
        return alive[0]

    def mark_down(self, replica: Replica, reason: str) -> None:
        """Fence ``replica`` out of routing and write fan-out."""
        if replica.down:
            return
        replica.down = True
        replica.down_reason = reason
        registry = active_registry()
        if registry is not None:
            registry.counter(_COUNTERS["downs"]).inc()
            registry.gauge(_REPLICAS_UP_GAUGE).set(len(self._alive()))

    def revive(self, replica_id: int) -> Replica:
        """Rebuild a down replica from a live copy and re-admit it.

        The replacement index is bulk-loaded under the replica's *own*
        recipe (divergence policy survives the outage) from the
        authoritative replica's content, and a fresh snapshot heals its
        log.  A replica whose WAL is poisoned cannot be revived in
        process — only :meth:`~repro.service.router.ShardRouter.recover`
        may reopen a poisoned log.
        """
        replica = self.replicas[replica_id]
        if not replica.down:
            return replica
        log = replica.shard.durable_log
        if log is not None and log.wal.poisoned is not None:
            raise RuntimeError(
                f"replica {replica_id} of shard {self.shard_id} has a "
                "poisoned WAL; it can only return through recovery"
            )
        with self.write_gate, self._guard():
            pairs = self._authoritative().shard.items()
            replica.shard.index = replica.profile.build_index(pairs)
            if log is not None:
                log.checkpoint(pairs)
            replica.down = False
            replica.down_reason = None
            replica.behind = 0
            replica.cost_ewma = {}
        registry = active_registry()
        if registry is not None:
            registry.gauge(_REPLICAS_UP_GAUGE).set(len(self._alive()))
        return replica

    # ------------------------------------------------------------------
    # Routed reads
    # ------------------------------------------------------------------
    def get(self, key: Key) -> Optional[int]:
        """The value under ``key``, served by the cheapest live replica."""
        return self._routed_read("point", "get", 1, lambda replica: replica.shard.get(key))

    def get_many(self, keys: Sequence[Key]) -> List[Optional[int]]:
        """Values aligned with ``keys``; the whole batch rides one replica."""
        if not keys:
            return []
        return self._routed_read(
            "point",
            "get_many",
            len(keys),
            lambda replica: replica.shard.get_many(keys),
        )

    def scan(self, start_key: Key, count: int) -> List[Pair]:
        """Ordered pairs from the replica scoring cheapest for scans."""
        return self._routed_read(
            "scan",
            "scan",
            1,
            lambda replica: replica.shard.scan(start_key, count),
        )

    def _routed_read(
        self,
        kind: str,
        op: str,
        operations: int,
        request: Callable[[Replica], T],
    ) -> T:
        """Route one read batch; fall back to survivors on failure.

        A replica that raises mid-read is marked down and the batch is
        retried on the next-best copy — the caller never sees a single
        replica failure while another copy is live.  With one live copy
        the read goes straight to it and its error propagates as is;
        with none, the router's pick raises
        :class:`ReplicaSetUnavailableError`.
        Measurement is skip-sampled: on sampled batches the replica's
        structural counter delta is priced and folded into its EWMA.
        """
        alive = self._alive()
        if len(alive) == 1:
            return self._read_sole(alive[0], operations, request)
        with span_if_traced(
            _REPLICA_OP_SPAN, op=op, shard_id=self.shard_id, kind=kind
        ):
            while True:
                replica = self.router.pick(self, kind)
                before: Optional[Dict[str, int]] = None
                if self.router.should_measure(replica, kind):
                    before = replica.shard.counter_snapshot()
                try:
                    result = request(replica)
                except Exception as error:
                    self.mark_down(replica, f"{op} failed: {error!r}")
                    self._note_fallback()
                    alive = self._alive()
                    if len(alive) == 1:
                        return self._read_sole(alive[0], operations, request)
                    continue
                replica.reads_routed += operations
                if before is not None:
                    self.router.observe(
                        replica,
                        kind,
                        _counter_delta(before, replica.shard.counter_snapshot()),
                        operations,
                    )
                return result

    @staticmethod
    def _read_sole(
        replica: Replica, operations: int, request: Callable[[Replica], T]
    ) -> T:
        """Serve a read from the only live copy.

        Nothing to choose between: no span, scoring, sampling or pick
        metrics, and an error propagates as is with the copy left up.
        """
        result = request(replica)
        replica.reads_routed += operations
        return result

    def _note_fallback(self) -> None:
        registry = active_registry()
        if registry is not None:
            registry.counter(_COUNTERS["fallbacks"]).inc()

    # ------------------------------------------------------------------
    # Fanned-out writes (caller holds ``write_gate``)
    # ------------------------------------------------------------------
    def put(self, key: Key, value: int) -> None:
        """Upsert one pair on every live replica."""
        self._fanout_write("put", 1, lambda replica: replica.shard.put(key, value))

    def put_many(self, pairs: Sequence[Pair]) -> None:
        """Upsert a batch on every live replica (per-replica group commit)."""
        if not pairs:
            return
        self._fanout_write(
            "put_many", len(pairs), lambda replica: replica.shard.put_many(pairs)
        )

    def delete(self, key: Key) -> bool:
        """Remove ``key`` everywhere; True when any live replica had it."""
        results = self._fanout_write(
            "delete", 1, lambda replica: replica.shard.delete(key)
        )
        return any(bool(result) for result in results)

    def _fanout_write(
        self, op: str, records: int, apply: Callable[[Replica], T]
    ) -> List[T]:
        """Apply one write to every live replica, fencing failures.

        Runs under this set's operation lock so every replica WAL
        records the same append order.  A replica whose apply raises
        (poisoned WAL, injected fault) is marked down and skipped while
        another copy is live, and the write acknowledges as long as one
        replica durably accepted it.  The last live replica's error
        propagates unchanged and leaves it up — the single-copy
        contract — and only a fully-down set raises
        :class:`ReplicaSetUnavailableError`.
        """
        # The set-level span only exists while there is a fan-out to
        # attribute; with one live copy its spans sit under the caller's.
        span: ContextManager[None] = nullcontext()
        if len(self._alive()) > 1:
            span = span_if_traced(
                _REPLICA_OP_SPAN, op=op, shard_id=self.shard_id, records=records
            )
        with span, self._guard():
            results: List[T] = []
            for replica in self.replicas:
                if replica.down:
                    replica.behind += records
                    continue
                try:
                    results.append(apply(replica))
                except Exception as error:
                    if len(self._alive()) == 1:
                        raise
                    self.mark_down(replica, f"{op} failed: {error!r}")
                    replica.behind += records
            if not results:
                raise ReplicaSetUnavailableError(
                    f"no replica of shard {self.shard_id} accepted the {op}"
                )
            return results

    # ------------------------------------------------------------------
    # Snapshots and introspection
    # ------------------------------------------------------------------
    def items(self) -> List[Pair]:
        """The authoritative replica's full content, sorted by key."""
        return self._authoritative().shard.items()

    @property
    def num_keys(self) -> int:
        """Key count of the authoritative copy (replica 0 when all down)."""
        alive = self._alive()
        target = alive[0] if alive else self.replicas[0]
        return target.shard.num_keys

    def size_bytes(self) -> int:
        """Total modeled bytes across *all* replicas — replication is
        honest about its memory cost."""
        return sum(replica.shard.size_bytes() for replica in self.replicas)

    def counter_snapshot(self) -> Dict[str, int]:
        """Structural counter events summed across replicas."""
        merged: Dict[str, int] = {}
        for replica in self.replicas:
            for event, count in replica.shard.counter_snapshot().items():
                merged[event] = merged.get(event, 0) + count
        return merged

    def encoding_census(self) -> Dict[str, Any]:
        """Leaf counts per encoding, summed across replicas."""
        merged: Dict[str, Any] = {}
        for replica in self.replicas:
            for encoding, entry in replica.shard.encoding_census().items():
                count = int(entry.get("count", 0)) if isinstance(entry, dict) else 0
                slot = merged.setdefault(encoding, {"count": 0})
                slot["count"] += count
        return merged

    def wal_lag(self) -> Optional[int]:
        """Worst WAL replay debt across replicas (None when not durable)."""
        lags = [
            lag
            for lag in (replica.shard.wal_lag() for replica in self.replicas)
            if lag is not None
        ]
        return max(lags) if lags else None

    def checkpoint_logs(self) -> List[Dict[str, Any]]:
        """Snapshot every live replica's log (caller holds ``write_gate``).

        Down replicas are skipped: their logs keep the pre-outage state
        for recovery, and reconciliation rebuilds them from the copy
        with the highest LSN.
        """
        entries: List[Dict[str, Any]] = []
        with self._guard():
            for replica in self.replicas:
                log = replica.shard.durable_log
                if log is None or replica.down:
                    continue
                pairs = replica.shard.items()
                lsn = log.checkpoint(pairs)
                entries.append(
                    {
                        "log_id": log.log_id,
                        "lsn": lsn,
                        "num_keys": len(pairs),
                        "wal_bytes": log.wal_size_bytes(),
                        "replica": replica.replica_id,
                    }
                )
        return entries

    def close_logs(self) -> None:
        """Release every replica's log handle (idempotent)."""
        for log in self.logs():
            log.close()

    def stats(self) -> Dict[str, Any]:
        """One JSON-safe summary: the aggregate plus one row per replica."""
        replica_rows: List[Dict[str, Any]] = []
        for replica in self.replicas:
            inner = replica.shard.stats()
            replica_rows.append(
                {
                    "replica": replica.replica_id,
                    "profile": replica.profile.name,
                    "down": replica.down,
                    "down_reason": replica.down_reason,
                    "behind": replica.behind,
                    "reads_routed": replica.reads_routed,
                    "cost_ewma_ns": {
                        kind: round(cost, 1)
                        for kind, cost in replica.cost_ewma.items()
                    },
                    "family": inner["family"],
                    "thread_safe": inner["thread_safe"],
                    "durable": inner["durable"],
                    "num_keys": inner["num_keys"],
                    "size_bytes": inner["size_bytes"],
                    "ops": inner["ops"],
                    "encoding_census": inner["encoding_census"],
                    "wal_lag": inner["wal_lag"],
                    "migrations": inner["migrations"],
                    "adaptation_phases": inner["adaptation_phases"],
                }
            )
        return {
            "shard_id": self.shard_id,
            "family": replica_rows[0]["family"],
            "replication_factor": len(self.replicas),
            "replicas_up": len(self._alive()),
            "wal_lag": self.wal_lag(),
            "num_keys": self.num_keys,
            "size_bytes": self.size_bytes(),
            "ops": sum(row["ops"] for row in replica_rows),
            "encoding_census": self.encoding_census(),
            "adaptation_phases": sum(
                row["adaptation_phases"] for row in replica_rows
            ),
            "migrations": sum(row["migrations"] for row in replica_rows),
            "replicas": replica_rows,
            "routing": self.router.describe(self),
        }

    def verify(self) -> None:
        """Verify every live replica and their mutual consistency.

        Each live replica runs its family's structural checks, and all
        live replicas must agree on content — the acked-write invariant
        made checkable.
        """
        reference: Optional[List[Pair]] = None
        reference_id = -1
        for replica in self._alive():
            replica.shard.verify()
            content = replica.shard.items()
            if reference is None:
                reference = content
                reference_id = replica.replica_id
            elif content != reference:
                from repro.core.invariants import InvariantViolation

                raise InvariantViolation(
                    [
                        f"replica {replica.replica_id} of shard {self.shard_id} "
                        f"diverged in content from replica {reference_id}"
                    ]
                )


def make_replica(
    replica_id: int,
    recipe: Any,
    shard_id: int,
    pairs: Sequence[Pair],
    log: Optional["DurableLog"] = None,
) -> Replica:
    """One copy bulk-loaded from ``pairs`` under ``recipe``."""
    inner = Shard(
        shard_id,
        recipe.build_index(pairs),
        thread_safe=recipe.thread_safe,
        durable_log=log,
    )
    return Replica(replica_id, recipe, inner)


def build_replicated_shard(
    shard_id: int,
    pairs: Sequence[Pair],
    recipes: Sequence[Any],
    durability: Optional[Any] = None,
    epoch: int = 0,
    router: Optional[ReplicaRouter] = None,
) -> ReplicatedShard:
    """Bulk-load one replica set: one index (and log) per recipe.

    With ``durability``, each replica gets a fresh log named for
    ``epoch``, position ``shard_id`` and its replica number.
    """
    group = list(pairs)
    replicas = []
    for replica_id, recipe in enumerate(recipes):
        log = None
        if durability is not None:
            log = durability.create_log(
                durability.log_id(epoch, shard_id, replica_id), group
            )
        replicas.append(make_replica(replica_id, recipe, shard_id, group, log))
    return ReplicatedShard(shard_id, replicas, router=router)
