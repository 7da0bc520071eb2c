"""Durable replicated groups: manifest, recovery, and reconciliation."""

import pytest

from repro.durability.manager import DurabilityManager, Manifest
from repro.faults.injector import FaultInjector
from repro.service.router import ShardRouter


def build_router(tmp_path, num_keys=400, num_shards=2, factor=3):
    durability = DurabilityManager(tmp_path)
    pairs = [(key, key + 1) for key in range(0, num_keys * 2, 2)]
    router = ShardRouter.build(
        pairs,
        family="adaptive",
        num_shards=num_shards,
        replication_factor=factor,
        durability=durability,
    )
    return durability, router, dict(pairs)


class TestManifest:
    def test_build_publishes_replica_block(self, tmp_path):
        durability, router, _ = build_router(tmp_path)
        router.close()
        manifest = durability.read_manifest()
        assert len(manifest.recipes) == 3
        assert manifest.recipes == ["point", "scan", "squeezed"]
        assert len(manifest.shards) == 2
        for log_ids in manifest.shards:
            assert len(log_ids) == 3

    def test_orphan_sweep_keeps_replica_logs(self, tmp_path):
        durability, router, expected = build_router(tmp_path)
        router.close()
        stray = durability.wal_dir / "e00000099-p0000.wal"
        stray.write_bytes(b"debris")
        recovered = ShardRouter.recover(durability)
        try:
            assert not stray.exists()
            assert recovered.last_recovery["orphans_removed"] >= 1
            items = sorted(expected.items())
            assert recovered.scan(-1, len(items) + 10) == items
        finally:
            recovered.close()

    def test_unknown_profile_in_manifest_rejected(self, tmp_path):
        durability, router, _ = build_router(tmp_path)
        router.close()
        manifest = durability.read_manifest()
        durability.publish_manifest(
            Manifest(
                epoch=manifest.epoch,
                partitioner=manifest.partitioner,
                recipes=["mystery"] + manifest.recipes[1:],
                shards=manifest.shards,
            )
        )
        with pytest.raises(ValueError, match="mystery"):
            ShardRouter.recover(durability)


class TestRecovery:
    def test_each_replica_recovers_from_its_own_snapshot_and_tail(self, tmp_path):
        durability, router, expected = build_router(tmp_path)
        # Checkpoint gives every replica its own snapshot...
        router.put_many([(odd, odd * 3) for odd in range(1, 41, 2)])
        summaries = router.checkpoint()
        assert len(summaries["shards"]) == 6  # 2 shards x 3 replica logs
        # ...and the post-checkpoint writes are each replica's WAL tail.
        router.put_many([(odd, odd * 7) for odd in range(41, 81, 2)])
        expected.update({odd: odd * 3 for odd in range(1, 41, 2)})
        expected.update({odd: odd * 7 for odd in range(41, 81, 2)})
        router.close()

        recovered = ShardRouter.recover(durability)
        try:
            info = recovered.last_recovery
            assert info["replication_factor"] == 3
            # Every log was equally fresh: nothing needed rebuilding —
            # each divergent replica came from its own snapshot + tail.
            assert info["replicas_rebuilt"] == 0
            assert info["frames_replayed"] >= 1
            profiles = [
                replica.profile.name
                for replica in recovered.table.shards[0].replicas
            ]
            assert profiles == ["point", "scan", "squeezed"]
            items = sorted(expected.items())
            assert recovered.scan(-1, len(items) + 10) == items
            recovered.verify()
        finally:
            recovered.close()

    def test_fenced_straggler_is_rebuilt_from_authoritative(self, tmp_path):
        durability, router, expected = build_router(tmp_path, num_shards=1)
        with FaultInjector(
            site="durability.wal.append", fail_at=2, max_failures=1
        ) as injector:
            router.put_many([(1, 100), (3, 300)])
        assert injector.failures_injected == 1
        expected.update({1: 100, 3: 300})
        # The fenced replica misses these entirely.
        router.put_many([(5, 500), (7, 700)])
        expected.update({5: 500, 7: 700})
        router.close()

        recovered = ShardRouter.recover(durability)
        try:
            assert recovered.last_recovery["replicas_rebuilt"] >= 1
            items = sorted(expected.items())
            assert recovered.scan(-1, len(items) + 10) == items
            recovered.verify()  # live replicas agree on content again
        finally:
            recovered.close()

    def test_recovered_router_keeps_serving_and_adapting(self, tmp_path):
        durability, router, expected = build_router(tmp_path, num_keys=200)
        router.close()
        recovered = ShardRouter.recover(durability)
        try:
            keys = sorted(expected)[:50]
            assert recovered.get_many(keys) == [expected[key] for key in keys]
            recovered.put_many([(9991, 1), (9993, 2)])
            assert recovered.get(9991) == 1
            stats = recovered.stats()["shards"][0]
            assert stats["replication_factor"] == 3
        finally:
            recovered.close()
