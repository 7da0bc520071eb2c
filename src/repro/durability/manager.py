"""Durability root: directory layout, routing manifest, orphan sweeping.

The :class:`DurabilityManager` owns one directory tree::

    root/
      MANIFEST.json      -- the durable routing epoch (CRC-wrapped JSON)
      wal/<log_id>.wal   -- one WAL per live shard log
      snap/<log_id>.<lsn>.snap

``MANIFEST.json`` is the *commit point* of the whole store.  It names
the current epoch, the partitioner, the recipe each replica is built
from, and per routing position the ordered log ids of that shard's
replicas; it is rewritten — build-aside, ``os.replace``, directory
fsync, behind the ``durability.manifest.swap`` fault point — exactly
when shard topology changes (bootstrap, split, merge).  Recovery trusts
only logs the manifest names: a crash mid-split leaves either the old
manifest (new half-built logs are swept as orphans) or the new one (old
sealed logs are swept), so there is no torn routing state to reason
about.

Every shard is a replica set of N >= 1 copies with one log per copy, so
there is one log-id scheme: ``e00000017-p0003-r01`` = epoch 17,
position 3, replica 1.  Encoding the routing epoch is what lets
split/merge *re-key* shards: retiring a shard seals its logs under the
old ids and builds successors under fresh ids, so a stale writer can
never durably append to a log that the manifest no longer reaches.
"""

from __future__ import annotations

import json
import random
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.core.atomicio import discard_aside, publish_aside, write_aside
from repro.durability.codec import Key
from repro.durability.log import DurableLog, RecoveryResult
from repro.faults.injector import fault_point
from repro.fst.serialize import CorruptSerializationError
from repro.obs.runtime import active_registry

MANIFEST_FORMAT = 2

#: RA004: literal instrument names.
_COUNTERS = {
    "publishes": "durability.manifest.publishes",
    "orphans": "durability.manifest.orphans_removed",
}

Pair = Tuple[Key, int]


@dataclass(frozen=True)
class Manifest:
    """The durable routing epoch: which logs exist and how keys route.

    ``recipes`` names how each replica is built — an index family
    (``"olc"``, ``"adaptive"``, ...) or a divergence profile
    (``"point"``, ``"scan"``, ...) — so recovery rebuilds every copy the
    way it was built before the crash.  ``shards`` lists, per routing
    position, one log id per replica in recipe order.
    """

    epoch: int
    partitioner: Dict[str, Any]
    recipes: List[str]
    shards: List[List[str]]


def partitioner_spec(partitioner: Any) -> Dict[str, Any]:
    """JSON-safe description of a service partitioner."""
    from repro.service.partition import HashPartitioner, RangePartitioner

    if isinstance(partitioner, HashPartitioner):
        return {"kind": "hash", "num_shards": partitioner.num_shards}
    if isinstance(partitioner, RangePartitioner):
        boundaries = []
        for boundary in partitioner.boundaries:
            if isinstance(boundary, int):
                boundaries.append({"t": "int", "v": str(boundary)})
            else:
                boundaries.append({"t": "bytes", "v": bytes(boundary).hex()})
        return {"kind": "range", "boundaries": boundaries}
    raise TypeError(f"cannot persist partitioner {type(partitioner).__name__}")


def build_partitioner(spec: Dict[str, Any]) -> Any:
    """Rebuild a partitioner from its manifest spec."""
    from repro.service.partition import HashPartitioner, RangePartitioner

    kind = spec.get("kind")
    if kind == "hash":
        return HashPartitioner(int(spec["num_shards"]))
    if kind == "range":
        boundaries: List[Any] = []
        for boundary in spec["boundaries"]:
            if boundary["t"] == "int":
                boundaries.append(int(boundary["v"]))
            elif boundary["t"] == "bytes":
                boundaries.append(bytes.fromhex(boundary["v"]))
            else:
                raise CorruptSerializationError(f"unknown boundary type {boundary['t']!r}")
        return RangePartitioner(boundaries)
    raise CorruptSerializationError(f"unknown partitioner kind {kind!r}")


class DurabilityManager:
    """Owns a durability root directory and the logs living under it."""

    def __init__(
        self,
        root: Path,
        sync: str = "batch",
        retain: int = 2,
        tear_rng: Optional[random.Random] = None,
    ) -> None:
        self.root = Path(root)
        self.sync = sync
        self.retain = retain
        self.tear_rng = tear_rng
        self.wal_dir = self.root / "wal"
        self.snap_dir = self.root / "snap"
        self.root.mkdir(parents=True, exist_ok=True)
        self.wal_dir.mkdir(exist_ok=True)
        self.snap_dir.mkdir(exist_ok=True)

    @property
    def manifest_path(self) -> Path:
        return self.root / "MANIFEST.json"

    @staticmethod
    def log_id(epoch: int, position: int, replica: int) -> str:
        """The durable name of one replica's log at ``position`` in ``epoch``."""
        return f"e{epoch:08d}-p{position:04d}-r{replica:02d}"

    # ------------------------------------------------------------------
    # Manifest (the commit point)
    # ------------------------------------------------------------------
    def publish_manifest(self, manifest: Manifest, allow_fault: bool = True) -> None:
        """Durably publish ``manifest`` as the new routing epoch.

        The JSON payload is CRC-wrapped and swapped in atomically
        behind the ``durability.manifest.swap`` fault point.  Rollback
        paths (re-publishing the *old* epoch after an aborted split)
        pass ``allow_fault=False`` so the undo cannot itself be killed
        by the injector mid-abort.
        """
        payload = {
            "format": MANIFEST_FORMAT,
            "epoch": manifest.epoch,
            "partitioner": manifest.partitioner,
            "recipes": list(manifest.recipes),
            "shards": [list(log_ids) for log_ids in manifest.shards],
        }
        encoded = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        crc = zlib.crc32(encoded.encode("utf-8")) & 0xFFFFFFFF
        blob = json.dumps({"crc": crc, "payload": payload}, sort_keys=True).encode("utf-8")
        tmp = write_aside(self.manifest_path, blob)
        try:
            if allow_fault:
                fault_point("durability.manifest.swap")
            publish_aside(tmp, self.manifest_path)
        except BaseException:
            discard_aside(tmp)
            raise
        registry = active_registry()
        if registry is not None:
            registry.counter(_COUNTERS["publishes"]).inc()

    def read_manifest(self) -> Manifest:
        """The current routing epoch; raises if absent or corrupt."""
        try:
            wrapper = json.loads(self.manifest_path.read_bytes().decode("utf-8"))
        except FileNotFoundError:
            raise
        except (OSError, ValueError) as error:
            raise CorruptSerializationError(f"unreadable manifest: {error}") from error
        if not isinstance(wrapper, dict) or "crc" not in wrapper or "payload" not in wrapper:
            raise CorruptSerializationError("manifest is missing its crc/payload wrapper")
        payload = wrapper["payload"]
        encoded = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        if zlib.crc32(encoded.encode("utf-8")) & 0xFFFFFFFF != wrapper["crc"]:
            raise CorruptSerializationError("manifest checksum mismatch")
        if payload.get("format") != MANIFEST_FORMAT:
            raise CorruptSerializationError(f"unsupported manifest format {payload.get('format')}")
        recipes, shards = payload.get("recipes"), payload.get("shards")
        if not isinstance(recipes, list) or not all(isinstance(r, str) for r in recipes):
            raise CorruptSerializationError("manifest recipe list is malformed")
        if not isinstance(shards, list) or not all(
            isinstance(ids, list)
            and len(ids) == len(recipes)
            and all(isinstance(i, str) for i in ids)
            for ids in shards
        ):
            raise CorruptSerializationError("manifest shard log lists are malformed")
        return Manifest(
            epoch=int(payload["epoch"]),
            partitioner=dict(payload["partitioner"]),
            recipes=list(recipes),
            shards=[list(ids) for ids in shards],
        )

    def has_manifest(self) -> bool:
        """True when a manifest file exists (store was bootstrapped)."""
        return self.manifest_path.exists()

    # ------------------------------------------------------------------
    # Log lifecycle
    # ------------------------------------------------------------------
    def create_log(self, log_id: str, pairs: Sequence[Pair]) -> DurableLog:
        """Fresh log (base snapshot + empty WAL) under ``log_id``."""
        return DurableLog.create(
            log_id,
            self.wal_dir,
            self.snap_dir,
            pairs,
            sync=self.sync,
            retain=self.retain,
            tear_rng=self.tear_rng,
        )

    def recover_log(self, log_id: str) -> Tuple[DurableLog, RecoveryResult]:
        """Reopen ``log_id`` and rebuild its state from disk."""
        return DurableLog.recover(
            log_id,
            self.wal_dir,
            self.snap_dir,
            sync=self.sync,
            retain=self.retain,
            tear_rng=self.tear_rng,
        )

    # ------------------------------------------------------------------
    # Orphan sweeping
    # ------------------------------------------------------------------
    def cleanup_orphans(self, manifest: Manifest) -> int:
        """Remove files no epoch reaches; returns how many were removed.

        Run at recovery, after the manifest is read: WALs and snapshots
        whose log id the manifest does not name (the debris of a crash
        mid-split/merge) and unpublished ``*.tmp`` aside files are all
        unreachable by construction, so deleting them is safe.
        """
        referenced = {log_id for log_ids in manifest.shards for log_id in log_ids}
        removed = 0
        for path in self.wal_dir.iterdir():
            if path.suffix == ".tmp" or (
                path.suffix == ".wal" and path.stem not in referenced
            ):
                try:
                    path.unlink()
                    removed += 1
                except OSError:
                    continue
        for path in self.snap_dir.iterdir():
            if path.suffix == ".tmp":
                try:
                    path.unlink()
                    removed += 1
                except OSError:
                    continue
                continue
            if path.suffix == ".snap":
                log_id = path.name.split(".", 1)[0]
                if log_id not in referenced:
                    try:
                        path.unlink()
                        removed += 1
                    except OSError:
                        continue
        for path in self.root.iterdir():
            if path.suffix == ".tmp":
                try:
                    path.unlink()
                    removed += 1
                except OSError:
                    continue
        registry = active_registry()
        if registry is not None and removed:
            registry.counter(_COUNTERS["orphans"]).inc(removed)
        return removed
