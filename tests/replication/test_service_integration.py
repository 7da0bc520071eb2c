"""Replication through the service, tenancy, and network layers."""

import asyncio

import pytest

from repro.net import NetClient, NetServer
from repro.net.tenancy import TenantDirectory, TenantSpec
from repro.service.router import ShardRouter


def make_pairs(num_keys=300):
    return [(key, key + 1) for key in range(0, num_keys * 2, 2)]


class TestRouterWiring:
    def test_replication_requires_adaptive_family(self):
        with pytest.raises(ValueError, match="adaptive"):
            ShardRouter.build(make_pairs(), family="olc", replication_factor=3)

    def test_factor_inferred_from_profiles(self):
        router = ShardRouter.build(
            make_pairs(), family="adaptive", replica_profiles=["point", "scan"]
        )
        assert router.table.shards[0].stats()["replication_factor"] == 2
        router.close()

    def test_round_robin_policy_plumbs_through(self):
        router = ShardRouter.build(
            make_pairs(),
            family="adaptive",
            replication_factor=2,
            replica_routing="round_robin",
        )
        assert router.table.shards[0].router.policy == "round_robin"
        router.close()

    def test_split_and_merge_rebuild_replicas(self):
        pairs = make_pairs()
        router = ShardRouter.build(
            pairs,
            family="adaptive",
            num_shards=2,
            partitioning="range",
            replication_factor=2,
            replica_routing="round_robin",
        )
        router.split_shard(0)
        assert router.num_shards == 3
        router.merge_shards(1)
        assert router.num_shards == 2
        for shard in router.table.shards:
            assert [replica.profile.name for replica in shard.replicas] == [
                "point",
                "scan",
            ]
            assert shard.router.policy == "round_robin"
        assert router.scan(-1, len(pairs) + 1) == pairs
        router.verify()
        router.close()

    def test_routed_reads_serve_through_replicas(self):
        router = ShardRouter.build(
            make_pairs(400), family="adaptive", num_shards=2, replication_factor=3
        )
        keys = list(range(0, 200, 2))
        assert router.get_many(keys) == [key + 1 for key in keys]
        routed = sum(
            row["reads_routed"]
            for shard in router.stats()["shards"]
            for row in shard["replicas"]
        )
        assert routed == len(keys)
        router.close()


class TestTenancy:
    def test_replicated_tenant_group(self):
        directory = TenantDirectory(
            [
                TenantSpec(
                    name="acme",
                    num_shards=2,
                    family="adaptive",
                    pairs=make_pairs(),
                    replication_factor=3,
                ),
                TenantSpec(name="smol", num_shards=1, pairs=make_pairs(50)),
            ]
        )
        try:
            router = directory.router_for("acme")
            assert router.get(10) == 11
            stats = router.stats()["shards"][0]
            assert stats["replication_factor"] == 3
            # Replicated shards stay out of the global memory arbiter:
            # their budgets are divergence policy, not rebalancing pool.
            # Only smol's single plain shard registers as a member.
            assert directory.arbiter.describe()["memory"]["members"] == 1
        finally:
            directory.close()

    def test_bad_replication_factor_rejected(self):
        with pytest.raises(ValueError, match="replication_factor"):
            TenantSpec(name="acme", replication_factor=0)


class TestStatsOpcode:
    def test_stats_exposes_replica_state_over_the_wire(self):
        async def scenario():
            directory = TenantDirectory(
                [
                    TenantSpec(
                        name="acme",
                        num_shards=1,
                        family="adaptive",
                        pairs=make_pairs(),
                        replication_factor=3,
                    )
                ]
            )
            try:
                async with (
                    NetServer(directory) as server,
                    await NetClient.connect("127.0.0.1", server.port) as client,
                ):
                    assert await client.get("acme", 10) == 11
                    stats = await client.stats()
                    (shard,) = stats["shards"]["acme"]
                    assert shard["replication_factor"] == 3
                    profiles = [row["profile"] for row in shard["replicas"]]
                    assert profiles == ["point", "scan", "squeezed"]
                    for row in shard["replicas"]:
                        assert "encoding_census" in row
                        assert "reads_routed" in row
                    assert len(shard["routing"]) == 3
            finally:
                directory.close()

        asyncio.run(scenario())
