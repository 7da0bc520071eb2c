"""The sharded index service front end.

A :class:`ShardRouter` owns N shards and a
:class:`~repro.service.partition.Partitioner`, and exposes the familiar
index surface in batched form: ``get_many`` / ``put_many`` split each
request into per-shard sub-batches and run them one after another on
the calling thread, ``scan`` merges ordered results across shards
(concatenation under range partitioning, a k-way heap merge under hash
partitioning).  A served request already runs on the coalescer's
executor thread; a second pool here would buy no parallel shard work
under the GIL, only a thread hop per batch.

Every shard is a :class:`~repro.replication.replica_set.ReplicatedShard`
of N >= 1 replicas, each built from a named recipe (an index family for
a plain store, or a divergence profile), so build, recovery, the
manifest and split/merge each have exactly one path.

Online **shard split/merge** reuses the PR-1 build-aside+swap
discipline: the affected shards are write-frozen (reads keep flowing),
their contents are snapshotted and every replica is rebuilt under its
own recipe *aside*, and one atomic routing-table swap publishes
the new layout.  Every step crosses a :func:`~repro.faults.injector
.fault_point` (``service.split.*`` / ``service.merge.*``), and a fault
anywhere before the swap leaves the old table serving — zero lost keys
by construction, which the fault campaign in
``benchmarks/bench_service.py`` replays at scale.  Writers that block
on a shard's ``write_gate`` while a split/merge holds it revalidate
their route once the gate is acquired: the table may have been swapped
while they waited, and writing into the now-orphaned shard would lose
the pair, so re-routed pairs are retried against the fresh table.

One global :class:`~repro.core.budget.BudgetArbiter` divides the
service-wide memory budget across the family-built replicas' adaptation
managers (each set names them; profile budgets are divergence policy)
and is rebalanced after every split/merge.

With a :class:`~repro.durability.manager.DurabilityManager` attached,
the router is **crash-durable**: every replica carries its own WAL
(appended before acknowledgment — see
:mod:`repro.service.shard`), :meth:`checkpoint` publishes snapshots
and truncates logs, and :meth:`recover` rebuilds the whole service
from disk.  Split/merge then *re-keys* durability too: every replica
of a replacement shard gets a fresh log under the next routing epoch,
the CRC-wrapped manifest is republished as the durable commit point
**before** the in-memory table swap, and an abort at the swap fault
point rolls the manifest back while the write gates are still held — so
the durable and in-memory routing epochs can never diverge across an
acknowledgment.
"""

from __future__ import annotations

import heapq
import itertools
import threading
from bisect import bisect_left
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.core.budget import BudgetArbiter, MemoryBudget
from repro.durability.manager import (
    DurabilityManager,
    Manifest,
    build_partitioner,
    partitioner_spec,
)
from repro.faults.injector import fault_point
from repro.obs.runtime import active_registry
from repro.replication.profiles import (
    FAMILY_RECIPES,
    resolve_profiles,
    resolve_recipes,
)
from repro.replication.replica_set import (
    ReplicatedShard,
    build_replicated_shard,
    make_replica,
)
from repro.replication.routing import ReplicaRouter
from repro.service.partition import (
    HashPartitioner,
    Key,
    Partitioner,
    PartitionError,
    RangePartitioner,
)
from repro.service.shard import Pair, span_if_traced

#: RA004: span-name literal for the fan-out layer.
_ROUTE_SPAN = "service.route"


class ReadOnlyShardError(RuntimeError):
    """A write was routed to a shard whose family has no insert path."""


#: Precomputed ``service.ops.<kind>`` counter names (RA004: telemetry
#: names are literal tables, never formatted on the hot path).
_OPS_COUNTERS = {
    "read": "service.ops.read",
    "write": "service.ops.write",
    "scan": "service.ops.scan",
}


@dataclass(frozen=True)
class _RoutingTable:
    """An immutable (partitioner, shards) snapshot, swapped atomically."""

    partitioner: Partitioner
    shards: Tuple[ReplicatedShard, ...]


class ShardRouter:
    """Routes batched index traffic across partitioned shards."""

    def __init__(
        self,
        shards: Sequence[ReplicatedShard],
        partitioner: Partitioner,
        budget: Optional[MemoryBudget] = None,
        durability: Optional[DurabilityManager] = None,
        epoch: int = 0,
    ) -> None:
        if partitioner.num_shards != len(shards):
            raise PartitionError(
                f"partitioner routes to {partitioner.num_shards} shards "
                f"but {len(shards)} were provided"
            )
        if durability is not None:
            for shard in shards:
                if len(shard.logs()) != len(shard.replicas):
                    raise ValueError(
                        "a durable router requires every replica to carry a DurableLog"
                    )
        self._table = _RoutingTable(partitioner, tuple(shards))
        self._admin_lock = threading.Lock()
        self.splits = 0
        self.merges = 0
        self.checkpoints = 0
        #: Durable backing, when attached; ``_epoch`` tracks the routing
        #: epoch the manifest currently names (bumped by split/merge).
        self._durability = durability
        self._epoch = epoch
        #: Summary of the last :meth:`recover` that produced this router.
        self.last_recovery: Optional[Dict[str, Any]] = None
        self.arbiter = BudgetArbiter(budget or MemoryBudget.unbounded())
        self._register_shards()

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def build(
        cls,
        pairs: Sequence[Pair],
        family: str = "olc",
        num_shards: int = 4,
        partitioning: str = "hash",
        budget: Optional[MemoryBudget] = None,
        durability: Optional[DurabilityManager] = None,
        replication_factor: int = 1,
        replica_profiles: Optional[Sequence[str]] = None,
        replica_routing: str = "cost",
    ) -> "ShardRouter":
        """Bulk-load a router from sorted unique pairs.

        Every shard is a replica set.  By default it holds one replica
        built from ``family``'s recipe; with ``replication_factor > 1``
        (or explicit ``replica_profiles``) it holds N copies built under
        divergent adaptation profiles, reads routed by modeled cost
        (``replica_routing="cost"``, or ``"round_robin"`` for the
        identical-replica baseline).  Profiles require the
        ``"adaptive"`` family — they exist to tune its manager.
        ``partitioning`` is ``"hash"`` or ``"range"`` (range boundaries
        are chosen equi-depth from the loaded keys).  With
        ``durability``, every replica gets a fresh epoch-0 log (base
        snapshot of its loaded pairs) and the routing manifest is
        published before the router is handed out — a crash
        mid-bootstrap leaves either no manifest (re-bootstrap from the
        same pairs) or a complete one.
        """
        if family not in FAMILY_RECIPES:
            raise ValueError(
                f"unknown family {family!r}; expected one of {sorted(FAMILY_RECIPES)}"
            )
        recipes: List[Any] = [FAMILY_RECIPES[family]]
        if replication_factor > 1 or replica_profiles is not None:
            if family != "adaptive":
                raise ValueError(
                    "replication requires the 'adaptive' family — divergence "
                    f"profiles tune its adaptation manager (got {family!r})"
                )
            factor = replication_factor
            if factor == 1 and replica_profiles is not None:
                factor = len(replica_profiles)
            recipes = list(resolve_profiles(factor, replica_profiles))
        pairs = list(pairs)
        keys = [key for key, _ in pairs]
        partitioner: Partitioner
        if partitioning == "hash":
            partitioner = HashPartitioner(num_shards)
        elif partitioning == "range":
            partitioner = RangePartitioner.from_keys(keys, num_shards)
        else:
            raise ValueError(
                f"unknown partitioning {partitioning!r}; expected 'hash' or 'range'"
            )
        groups: List[List[Pair]] = [[] for _ in range(num_shards)]
        for pair in pairs:
            groups[partitioner.shard_of(pair[0])].append(pair)
        shards = [
            build_replicated_shard(
                shard_id,
                group,
                recipes,
                durability=durability,
                router=ReplicaRouter(policy=replica_routing),
            )
            for shard_id, group in enumerate(groups)
        ]
        if durability is not None:
            durability.publish_manifest(cls._manifest(0, partitioner, shards))
        return cls(shards, partitioner, budget=budget, durability=durability)

    @classmethod
    def recover(
        cls,
        durability: DurabilityManager,
        budget: Optional[MemoryBudget] = None,
    ) -> "ShardRouter":
        """Rebuild a durable router from its on-disk state after a crash.

        Reads the routing manifest (the durable commit point), sweeps
        files no epoch reaches, and recovers every replica's log —
        newest valid snapshot plus WAL-tail replay, torn final record
        tolerated.  Each replica is bulk-loaded under the recipe the
        manifest names for it.  Per shard, the replica with the highest
        WAL LSN is authoritative — fan-out appends in replica order, so
        a higher LSN implies a superset of acked writes — and any
        straggler (a replica that was down or fenced when the crash
        hit) is rebuilt from the authoritative content and healed with
        a fresh snapshot.  ``last_recovery`` on the returned router
        summarizes what was replayed, rebuilt, skipped, and swept.
        """
        manifest = durability.read_manifest()
        recipes = resolve_recipes(manifest.recipes)
        partitioner = build_partitioner(manifest.partitioner)
        orphans_removed = durability.cleanup_orphans(manifest)
        summary = {
            "frames_replayed": 0,
            "snapshots_skipped": 0,
            "torn_bytes": 0,
            "replicas_rebuilt": 0,
        }
        shards: List[ReplicatedShard] = []
        for position, log_ids in enumerate(manifest.shards):
            recovered = [durability.recover_log(log_id) for log_id in log_ids]
            newest = max(log.last_lsn for log, _ in recovered)
            authoritative = next(
                result.state for log, result in recovered if log.last_lsn == newest
            )
            replicas = []
            for replica_id, (log, result) in enumerate(recovered):
                summary["frames_replayed"] += result.frames_replayed
                summary["snapshots_skipped"] += result.snapshots_skipped
                summary["torn_bytes"] += result.torn_bytes
                straggler = log.last_lsn < newest
                pairs = sorted((authoritative if straggler else result.state).items())
                if straggler:
                    # Its own log is consistent but behind the acked
                    # history: rebuild from the authoritative copy and
                    # checkpoint so its log is whole again.
                    log.checkpoint(pairs)
                    summary["replicas_rebuilt"] += 1
                replicas.append(
                    make_replica(replica_id, recipes[replica_id], position, pairs, log)
                )
            shards.append(ReplicatedShard(position, replicas))
        router = cls(
            shards,
            partitioner,
            budget=budget,
            durability=durability,
            epoch=manifest.epoch,
        )
        router.last_recovery = {
            "epoch": manifest.epoch,
            "num_shards": len(shards),
            "replication_factor": len(recipes),
            "orphans_removed": orphans_removed,
            **summary,
        }
        return router

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Release log handles (idempotent)."""
        for shard in self._table.shards:
            shard.close_logs()

    def __enter__(self) -> "ShardRouter":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Routing primitives
    # ------------------------------------------------------------------
    @property
    def table(self) -> _RoutingTable:
        """The current routing snapshot (atomic attribute read)."""
        return self._table

    @property
    def num_shards(self) -> int:
        """Number of shards currently serving."""
        return len(self._table.shards)

    def shard_for(self, key: Key) -> ReplicatedShard:
        """The shard currently serving ``key``."""
        table = self._table
        return table.shards[table.partitioner.shard_of(key)]

    @staticmethod
    def _group_positions(
        table: _RoutingTable, keys: Sequence[Key]
    ) -> Dict[int, List[int]]:
        """Input positions grouped by the shard position serving each key.

        Grouping always runs against an explicit ``table`` snapshot so
        that the caller indexes ``table.shards`` with positions computed
        by the *same* partitioner — re-reading ``self._table`` here
        would tear the snapshot under a concurrent split/merge.
        """
        shard_of = table.partitioner.shard_of
        groups: Dict[int, List[int]] = {}
        for position, key in enumerate(keys):
            groups.setdefault(shard_of(key), []).append(position)
        return groups

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------
    def get(self, key: Key) -> Optional[int]:
        """The value under ``key``, or None."""
        with span_if_traced(_ROUTE_SPAN, op="get", fanout=1):
            return self.shard_for(key).get(key)

    def get_many(self, keys: Sequence[Key]) -> List[Optional[int]]:
        """Values aligned with ``keys``; one sub-batch per shard, in turn."""
        keys = list(keys)
        if not keys:
            return []
        table = self._table
        groups = self._group_positions(table, keys)
        results: List[Optional[int]] = [None] * len(keys)
        with span_if_traced(
            _ROUTE_SPAN, op="get_many", count=len(keys), fanout=len(groups)
        ):
            for shard_id, positions in groups.items():
                values = table.shards[shard_id].get_many(
                    [keys[position] for position in positions]
                )
                for position, value in zip(positions, values):
                    results[position] = value
        self._count_ops("read", len(keys))
        return results

    def scan(self, start_key: Key, count: int) -> List[Pair]:
        """Up to ``count`` pairs in key order starting at ``start_key``.

        Range partitions concatenate shard results in shard order; hash
        partitions scan every shard and k-way merge.
        """
        if count <= 0:
            return []
        table = self._table
        if table.partitioner.ordered:
            result: List[Pair] = []
            first = table.partitioner.shard_of(start_key)
            with span_if_traced(
                _ROUTE_SPAN, op="scan", count=count, fanout=len(table.shards) - first
            ):
                for shard in table.shards[first:]:
                    need = count - len(result)
                    if need <= 0:
                        break
                    result.extend(shard.scan(start_key, need))
            self._count_ops("scan", 1)
            return result[:count]
        with span_if_traced(
            _ROUTE_SPAN, op="scan", count=count, fanout=len(table.shards)
        ):
            per_shard = [shard.scan(start_key, count) for shard in table.shards]
        self._count_ops("scan", 1)
        merged = heapq.merge(*per_shard, key=lambda pair: pair[0])
        return list(itertools.islice(merged, count))

    # ------------------------------------------------------------------
    # Writes
    # ------------------------------------------------------------------
    def put(self, key: Key, value: int) -> None:
        """Upsert one pair."""
        with span_if_traced(_ROUTE_SPAN, op="put", fanout=1):
            self._write_group(self.shard_for(key), [(key, value)])
        self._count_ops("write", 1)

    def put_many(self, pairs: Sequence[Pair]) -> None:
        """Upsert a batch; one sub-batch per shard, in turn.

        The first failing sub-batch raises and later shards are not
        written.
        """
        pairs = list(pairs)
        if not pairs:
            return
        table = self._table
        groups = self._group_positions(table, [key for key, _ in pairs])
        with span_if_traced(
            _ROUTE_SPAN, op="put_many", count=len(pairs), fanout=len(groups)
        ):
            for shard_id, positions in groups.items():
                self._write_group(
                    table.shards[shard_id], [pairs[position] for position in positions]
                )
        self._count_ops("write", len(pairs))

    def _write_group(self, shard: ReplicatedShard, group: List[Pair]) -> None:
        """Write ``group`` through ``shard``'s write gate, revalidating
        the route once the gate is held.

        ``shard`` is where a routing snapshot sent these pairs, but a
        concurrent split/merge holds the gate for its whole
        build-aside+swap — a writer that blocked on the gate may wake up
        *after* the table swap, when ``shard`` is an orphaned index no
        table routes to any more.  Writing there would silently lose the
        pairs.  So after acquiring the gate the current table is
        re-read: pairs it still routes to ``shard`` land here, and the
        rest are regrouped against the fresh table and retried.
        """
        worklist: List[Tuple[ReplicatedShard, List[Pair]]] = [(shard, group)]
        while worklist:
            shard, group = worklist.pop()
            self._check_writable(shard)
            moved: List[Pair] = []
            with shard.write_gate:
                current = self._table
                shard_of = current.partitioner.shard_of
                still: List[Pair] = []
                for pair in group:
                    if current.shards[shard_of(pair[0])] is shard:
                        still.append(pair)
                    else:
                        moved.append(pair)
                if still:
                    shard.put_many(still)
            if moved:
                # The swap may have scattered the group across several
                # new shards; retries are rare and small, so re-fan-out
                # serially on this thread.
                table = self._table
                regrouped = self._group_positions(
                    table, [key for key, _ in moved]
                )
                for position, indexes in regrouped.items():
                    worklist.append(
                        (table.shards[position], [moved[i] for i in indexes])
                    )

    def delete(self, key: Key) -> bool:
        """Remove ``key``; False when it was absent."""
        with span_if_traced(_ROUTE_SPAN, op="delete", fanout=1):
            while True:
                shard = self.shard_for(key)
                self._check_writable(shard)
                with shard.write_gate:
                    # Same revalidation as _write_group: a split/merge may
                    # have swapped the table while we waited on the gate.
                    current = self._table
                    if current.shards[current.partitioner.shard_of(key)] is shard:
                        removed = shard.delete(key)
                        break
        self._count_ops("write", 1)
        return removed

    @staticmethod
    def _check_writable(shard: ReplicatedShard) -> None:
        if not shard.supports_writes:
            raise ReadOnlyShardError(
                "shard wraps a read-only family "
                f"({', '.join(recipe.name for recipe in shard.recipes)})"
            )

    # ------------------------------------------------------------------
    # Online split / merge (build-aside + swap)
    # ------------------------------------------------------------------
    def split_shard(self, shard_id: int, at_key: Optional[Key] = None) -> Key:
        """Split one range shard in two at ``at_key`` (default: median).

        Writes to the shard are frozen for the duration; reads keep
        flowing.  Each replica is rebuilt aside under its own recipe,
        with a next-epoch log per replica.  A failure at any
        ``service.split.*`` fault point aborts with the old routing
        table still serving — no key is ever lost.  Returns the split
        key actually used.
        """
        with self._admin_lock:
            table = self._table
            self._check_shard_id(table, shard_id)
            shard = table.shards[shard_id]
            with shard.write_gate, shard._guard():
                fault_point("service.split.collect")
                pairs = shard.items()
                split_key = at_key if at_key is not None else self._median_key(pairs)
                # Validates the key against the shard's range (raises
                # PartitionError on hash partitions or a bad boundary).
                new_partitioner = table.partitioner.split(shard_id, split_key)
                fault_point("service.split.build")
                cut = bisect_left(pairs, (split_key,))
                built = (
                    self._rebuild(shard, shard_id, pairs[:cut]),
                    self._rebuild(shard, shard_id + 1, pairs[cut:]),
                )
                shards = table.shards[:shard_id] + built + table.shards[shard_id + 1 :]
                # Durable commit point: the new manifest (new epoch, new
                # log ids) is published before the in-memory swap, while
                # the gate still blocks every acknowledgment.  A real
                # crash after this line recovers into the new epoch; an
                # in-process abort at the swap fault point below rolls
                # the manifest back before any writer can proceed.  If
                # the publish itself fails the old manifest still rules,
                # so only the freshly built logs need destroying.
                undo = self._publish_epoch(table, new_partitioner, shards, built)
                try:
                    fault_point("service.split.swap")
                    self._install(new_partitioner, shards)
                except BaseException:
                    self._unpublish_epoch(undo, built)
                    raise
                self._delete_logs([shard], seal=True)
            self.splits += 1
            self._publish_admin_metrics("service.splits")
            return split_key

    def merge_shards(self, left_id: int) -> None:
        """Merge range shards ``left_id`` and ``left_id + 1`` into one.

        Same discipline as :meth:`split_shard`: both shards are
        write-frozen, the merged replacement is built aside replica by
        replica, and one table swap publishes it; a fault before the
        swap changes nothing.
        """
        with self._admin_lock:
            table = self._table
            self._check_shard_id(table, left_id)
            # Validates adjacency and raises on hash partitions.
            new_partitioner = table.partitioner.merge(left_id)
            left, right = table.shards[left_id], table.shards[left_id + 1]
            # Gates before op locks on both shards: write_gate ranks above
            # op_lock in the lock hierarchy, and writers acquire gate then
            # op lock per shard, so interleaving gate/op across shards here
            # inverts the order (RA001).
            with left.write_gate, right.write_gate, left._guard(), right._guard():
                fault_point("service.merge.collect")
                pairs = left.items() + right.items()
                fault_point("service.merge.build")
                built = (self._rebuild(left, left_id, pairs),)
                shards = table.shards[:left_id] + built + table.shards[left_id + 2 :]
                # Same durable commit protocol as split_shard: manifest
                # first (gates held), swap second, manifest rollback on
                # an in-process abort at the swap point.
                undo = self._publish_epoch(table, new_partitioner, shards, built)
                try:
                    fault_point("service.merge.swap")
                    self._install(new_partitioner, shards)
                except BaseException:
                    self._unpublish_epoch(undo, built)
                    raise
                self._delete_logs([left, right], seal=True)
            self.merges += 1
            self._publish_admin_metrics("service.merges")

    def _rebuild(
        self, shard: ReplicatedShard, position: int, pairs: List[Pair]
    ) -> ReplicatedShard:
        """A replacement for ``shard`` at ``position`` holding ``pairs``.

        Every replica is bulk-loaded under ``shard``'s recipe for it,
        and on a durable router gets a fresh log under the next epoch,
        born with a base snapshot of its pairs so the new epoch is
        self-contained the instant its manifest publishes.
        """
        return build_replicated_shard(
            position,
            pairs,
            shard.recipes,
            durability=self._durability,
            epoch=self._epoch + 1,
            router=ReplicaRouter(policy=shard.router.policy),
        )

    # ------------------------------------------------------------------
    # Durability admin (checkpointing + epoch re-keying)
    # ------------------------------------------------------------------
    def checkpoint(self) -> Dict[str, Any]:
        """Snapshot every replica log and truncate its WAL.

        Runs under ``_admin_lock`` (serialized with split/merge); each
        shard is frozen just long enough to collect its pairs at a
        known LSN — shards are checkpointed one at a time, so writers
        on other shards keep flowing.  Returns a per-log summary.
        """
        if self._durability is None:
            raise RuntimeError("checkpoint() requires a durable router")
        summaries: List[Dict[str, Any]] = []
        with self._admin_lock:
            table = self._table
            for position, shard in enumerate(table.shards):
                with shard.write_gate:
                    entries = shard.checkpoint_logs()
                for entry in entries:
                    summaries.append({"position": position, **entry})
            self.checkpoints += 1
            self._publish_admin_metrics("service.checkpoints")
        return {"epoch": self._epoch, "shards": summaries}

    @staticmethod
    def _manifest(
        epoch: int, partitioner: Partitioner, shards: Sequence[ReplicatedShard]
    ) -> Manifest:
        return Manifest(
            epoch=epoch,
            partitioner=partitioner_spec(partitioner),
            recipes=[recipe.name for recipe in shards[0].recipes],
            shards=[[log.log_id for log in shard.logs()] for shard in shards],
        )

    def _publish_epoch(
        self,
        table: _RoutingTable,
        new_partitioner: Partitioner,
        new_shards: Sequence[ReplicatedShard],
        built: Sequence[ReplicatedShard],
    ) -> Optional[Manifest]:
        """Durably commit the next routing epoch; returns the undo manifest.

        Callers hold the affected write gates, so no acknowledgment can
        land between this publish and either the in-memory swap or the
        rollback in :meth:`_unpublish_epoch`.  When the publish itself
        fails, the old manifest still rules and the logs of the
        ``built`` replacements are destroyed before the error propagates.
        """
        if self._durability is None:
            return None
        undo = self._manifest(self._epoch, table.partitioner, table.shards)
        try:
            self._durability.publish_manifest(
                self._manifest(self._epoch + 1, new_partitioner, new_shards)
            )
        except BaseException:
            self._delete_logs(built)
            raise
        self._epoch += 1
        return undo

    def _unpublish_epoch(
        self, undo: Optional[Manifest], built: Sequence[ReplicatedShard]
    ) -> None:
        """Roll the durable epoch back after an aborted swap.

        The undo republish runs with fault injection disabled: the
        abort path must not itself be killable by the injector, or the
        manifest and the (still-old) in-memory table would diverge.
        """
        if self._durability is None or undo is None:
            return
        self._durability.publish_manifest(undo, allow_fault=False)
        self._epoch = undo.epoch
        self._delete_logs(built)

    @staticmethod
    def _delete_logs(shards: Sequence[ReplicatedShard], seal: bool = False) -> None:
        """Destroy every replica log of ``shards``.

        Logs of shards a committed swap replaced are sealed first;
        next-epoch logs that no published manifest reaches are not.
        """
        for shard in shards:
            for log in shard.logs():
                if seal:
                    log.seal()
                log.delete_files()

    def _install(
        self, partitioner: Partitioner, shards: Tuple[ReplicatedShard, ...]
    ) -> None:
        # Never mutate shard objects here: they are shared with the
        # still-published old table, so renumbering them in place would
        # let concurrent stats()/arbiter readers observe torn ids.
        # Routing positions are derived from the table index instead.
        self._table = _RoutingTable(partitioner, shards)
        self._register_shards()

    @staticmethod
    def _check_shard_id(table: _RoutingTable, shard_id: int) -> None:
        if not 0 <= shard_id < len(table.shards):
            raise PartitionError(
                f"shard id {shard_id} outside [0, {len(table.shards)})"
            )

    @staticmethod
    def _median_key(pairs: List[Pair]) -> Key:
        """The first key of the upper half — a valid right-shard start."""
        if len(pairs) < 2:
            raise PartitionError("cannot split a shard with fewer than two keys")
        candidate = pairs[len(pairs) // 2][0]
        if candidate == pairs[0][0]:  # pragma: no cover - duplicate guard
            raise PartitionError("no interior split key exists")
        return candidate

    # ------------------------------------------------------------------
    # Budget arbitration
    # ------------------------------------------------------------------
    def _register_shards(self) -> None:
        self.arbiter.clear()
        for position, shard in enumerate(self._table.shards):
            # Family recipes are only ever built as a single copy, so a
            # set names at most one index here.
            for index in shard.arbitrated_indexes():
                self.arbiter.register(f"shard-{position}", index)
        self.arbiter.rebalance()

    # ------------------------------------------------------------------
    # Introspection and metrics
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return sum(shard.num_keys for shard in self._table.shards)

    def imbalance(self) -> float:
        """Largest shard's key count over the mean (1.0 = balanced)."""
        counts = [shard.num_keys for shard in self._table.shards]
        mean = sum(counts) / len(counts)
        if mean == 0:
            return 0.0
        return max(counts) / mean

    def counter_snapshots(self) -> Dict[int, Dict[str, int]]:
        """Per-shard structural counter events (for the cost model),
        keyed by the shard's position in the current routing table."""
        return {
            position: shard.counter_snapshot()
            for position, shard in enumerate(self._table.shards)
        }

    def stats(self) -> Dict[str, Any]:
        """One JSON-safe summary of the whole service."""
        table = self._table
        return {
            "partitioner": table.partitioner.describe(),
            "num_shards": len(table.shards),
            "num_keys": len(self),
            "size_bytes": sum(shard.size_bytes() for shard in table.shards),
            "imbalance": round(self.imbalance(), 4),
            "splits": self.splits,
            "merges": self.merges,
            "durable": self._durability is not None,
            "epoch": self._epoch,
            "checkpoints": self.checkpoints,
            "budget": self.arbiter.describe(),
            "shards": [
                {**shard.stats(), "shard_id": position}
                for position, shard in enumerate(table.shards)
            ],
        }

    def verify(self) -> None:
        """Verify every shard and the routing discipline itself.

        Each shard's structural self-verification runs, and every key is
        checked to live on the shard the partitioner routes it to.
        """
        table = self._table
        for position, shard in enumerate(table.shards):
            shard.verify()
            for key, _ in shard.items():
                routed = table.partitioner.shard_of(key)
                if routed != position:
                    from repro.core.invariants import InvariantViolation

                    raise InvariantViolation(
                        f"key {key!r} lives on shard {position} but "
                        f"routes to shard {routed}"
                    )

    def _count_ops(self, kind: str, amount: int) -> None:
        registry = active_registry()
        if registry is None:
            return
        registry.counter(_OPS_COUNTERS[kind]).inc(amount)
        registry.gauge("service.shards").set(self.num_shards)
        registry.gauge("service.imbalance").set(self.imbalance())

    def _publish_admin_metrics(self, counter_name: str) -> None:
        registry = active_registry()
        if registry is None:
            return
        registry.counter(counter_name).inc()
        registry.gauge("service.shards").set(self.num_shards)
        registry.gauge("service.imbalance").set(self.imbalance())
