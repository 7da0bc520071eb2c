"""Divergent per-replica adaptation: replica sets and cost-based routing.

Every :mod:`repro.service` shard is a replica set of **N >= 1
replicas**, each built from a named recipe: a plain index family, or —
the point of N > 1 — a :class:`~repro.replication.profiles.ReplicaProfile`
under which that replica's :class:`~repro.core.manager.AdaptationManager`
diverges (point-tuned, scan-tuned, memory-squeezed).  Reads are steered
by a :class:`~repro.replication.routing.ReplicaRouter` that scores every
replica from its measured modeled cost, its encoding census, and its
staleness; writes fan out to every live replica through the existing
``write_gate`` discipline and per-replica WALs, so durability semantics
are unchanged.

This is the "divergent index design" idea (per-replica index selection
for replicated databases) transplanted onto the paper's adaptive
*encodings*: instead of choosing different secondary indexes per
replica, each copy of the same B+-tree migrates its leaves differently
because the router only shows it the slice of the workload it is best
at.  See ``docs/replication.md`` for the full design.
"""

from repro.replication.profiles import (
    FAMILY_RECIPES,
    REPLICA_PROFILES,
    ReplicaProfile,
    resolve_profiles,
)
from repro.replication.replica_set import (
    Replica,
    ReplicaSetUnavailableError,
    ReplicatedShard,
    build_replicated_shard,
)
from repro.replication.routing import ReplicaRouter

__all__ = [
    "FAMILY_RECIPES",
    "REPLICA_PROFILES",
    "Replica",
    "ReplicaProfile",
    "ReplicaRouter",
    "ReplicaSetUnavailableError",
    "ReplicatedShard",
    "build_replicated_shard",
    "resolve_profiles",
]
