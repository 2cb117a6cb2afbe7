"""Tests for checkpointing, rollback, and node-failure recovery (§III.G)."""

import pytest

from repro.core.config import PaconConfig
from repro.core.failure import fail_node, recover_node
from repro.dfs.errors import FileNotFound
from tests.core.conftest import make_world


class TestCheckpoint:
    def test_checkpoint_captures_committed_subtree(self, world):
        world.run(world.client.mkdir("/app/d"))
        world.run(world.client.create("/app/d/f"))
        world.quiesce()
        ckpt = world.deployment.checkpointer(world.region)
        cp = world.run(ckpt.checkpoint())
        assert cp.entries == 2
        assert cp.workspace == "/app"

    def test_checkpoint_scope_is_workspace_only(self, world):
        world.dfs.namespace.mkdir("/other")
        world.run(world.client.create("/app/f"))
        world.quiesce()
        ckpt = world.deployment.checkpointer(world.region)
        cp = world.run(ckpt.checkpoint())
        assert "other" not in cp.snapshot["tree"].get("children", {})

    def test_keep_limit(self, world):
        ckpt = world.deployment.checkpointer(world.region, keep=2)
        for _ in range(5):
            world.run(ckpt.checkpoint())
        assert len(ckpt.checkpoints) == 2
        assert ckpt.taken == 5

    def test_restore_without_checkpoint_rejected(self, world):
        ckpt = world.deployment.checkpointer(world.region)
        with pytest.raises(RuntimeError):
            world.run(ckpt.restore())

    def test_periodic_loop(self, world):
        ckpt = world.deployment.checkpointer(world.region)
        world.cluster.env.process(ckpt.run(interval=5e-3))
        world.cluster.env.run(until=26e-3)
        assert ckpt.taken == 5


class TestRollback:
    def test_rollback_removes_post_checkpoint_work(self, world):
        world.run(world.client.create("/app/before"))
        world.quiesce()
        ckpt = world.deployment.checkpointer(world.region)
        world.run(ckpt.checkpoint())
        world.run(world.client.create("/app/after"))
        world.quiesce()
        world.run(ckpt.restore())
        assert world.dfs.namespace.exists("/app/before")
        assert not world.dfs.namespace.exists("/app/after")

    def test_rollback_rebuilds_cache(self, world):
        world.run(world.client.create("/app/f"))
        world.quiesce()
        ckpt = world.deployment.checkpointer(world.region)
        world.run(ckpt.checkpoint())
        world.run(ckpt.restore())
        record = world.region.cache.peek("/app/f")
        assert record is not None
        assert record["committed"] is True

    def test_rollback_does_not_touch_other_subtrees(self, world):
        world.dfs.namespace.mkdir("/other")
        world.dfs.namespace.create("/other/x")
        ckpt = world.deployment.checkpointer(world.region)
        world.run(ckpt.checkpoint())
        world.run(ckpt.restore())
        assert world.dfs.namespace.exists("/other/x")


class TestNodeFailure:
    def test_failure_loses_shard_and_queue(self, world):
        for i in range(20):
            world.run(world.client.create(f"/app/f{i}"))
        victim = world.nodes[1]
        report = fail_node(world.region, victim)
        assert report.node_name == victim.name
        assert report.lost_cache > 0
        assert not victim.alive

    def test_failure_isolated_to_one_region(self):
        from repro.core.deploy import PaconDeployment
        from repro.dfs.beegfs import BeeGFS
        from repro.sim.network import Cluster
        from repro.sim.core import run_sync

        cluster = Cluster(seed=3)
        dfs = BeeGFS(cluster)
        nodes_a = [cluster.add_node(f"a{i}") for i in range(2)]
        nodes_b = [cluster.add_node(f"b{i}") for i in range(2)]
        dep = PaconDeployment(cluster, dfs)
        ra = dep.create_region(PaconConfig(workspace="/A"), nodes_a)
        rb = dep.create_region(PaconConfig(workspace="/B"), nodes_b)
        ca = dep.client(ra, nodes_a[0])
        cb = dep.client(rb, nodes_b[0])
        run_sync(cluster.env, ca.create("/A/f"))
        run_sync(cluster.env, cb.create("/B/g"))
        fail_node(ra, nodes_a[1])
        # Region B is untouched: cache intact, ops proceed.
        assert rb.cache.total_items() > 0
        run_sync(cluster.env, cb.create("/B/h"))
        dep.quiesce_sync(rb)
        assert dfs.namespace.exists("/B/h")

    def test_fail_foreign_node_rejected(self, world):
        foreign = world.cluster.add_node("outsider")
        with pytest.raises(ValueError):
            fail_node(world.region, foreign)

    def test_recovery_via_checkpoint(self, world):
        # Establish committed state and checkpoint it.
        world.run(world.client.create("/app/stable"))
        world.quiesce()
        ckpt = world.deployment.checkpointer(world.region)
        world.run(ckpt.checkpoint())
        # New work queued on the node that is about to die.
        victim = world.nodes[1]
        victim_client = world.new_client(node_index=1)
        world.run(victim_client.create("/app/doomed"))
        report = fail_node(world.region, victim)
        assert report.lost_queued_ops >= 1 or \
            world.dfs.namespace.exists("/app/doomed")
        # Recover: node back, roll back to checkpoint, rebuild cache.
        recover_node(world.region, victim)
        world.run(ckpt.restore())
        assert world.dfs.namespace.exists("/app/stable")
        assert not world.dfs.namespace.exists("/app/doomed")
        inode = world.run(world.client.getattr("/app/stable"))
        assert inode.is_file
        # The region keeps working after recovery.
        world.run(world.client.create("/app/newlife"))
        world.quiesce()
        assert world.dfs.namespace.exists("/app/newlife")

    def test_without_checkpoint_committed_state_survives(self, world):
        """§III.G: checkpointing is optional — the DFS already guarantees
        crash consistency of committed operations."""
        world.run(world.client.create("/app/committed"))
        world.quiesce()
        world.run(world.client.create("/app/inflight"))
        victim = world.nodes[0]
        fail_node(world.region, victim)
        assert world.dfs.namespace.exists("/app/committed")
