#!/usr/bin/env python3
"""Failure recovery with region checkpoints (§III.G).

A client node crashes mid-run, destroying its cache shard and its queued
(uncommitted) operations.  The region recovers by rolling its workspace
subtree on the DFS back to the latest checkpoint and rebuilding the
distributed cache from it — nothing outside the region is touched.

Run:  python examples/checkpoint_recovery.py
"""

from repro.core import PaconConfig, PaconDeployment
from repro.core.failure import fail_node, recover_node
from repro.dfs import BeeGFS
from repro.sim import Cluster, run_sync


def main() -> None:
    cluster = Cluster(seed=7)
    dfs = BeeGFS(cluster)
    nodes = [cluster.add_node(f"node{i}") for i in range(4)]
    pacon = PaconDeployment(cluster, dfs)
    region = pacon.create_region(PaconConfig(workspace="/sim"), nodes)
    client = pacon.client(region, nodes[0])

    # Phase 1: stable work, committed and checkpointed.
    run_sync(cluster.env, client.mkdir("/sim/epoch-0"))
    for i in range(20):
        run_sync(cluster.env, client.create(f"/sim/epoch-0/state.{i}"))
    pacon.quiesce_sync(region)
    checkpointer = pacon.checkpointer(region)
    cp = run_sync(cluster.env, checkpointer.checkpoint())
    print(f"checkpoint taken at t={cp.taken_at * 1e3:.2f} ms"
          f" covering {cp.entries} entries")

    # Phase 2: new work queued on the node that is about to die.
    doomed_client = pacon.client(region, nodes[2])
    run_sync(cluster.env, doomed_client.mkdir("/sim/epoch-1"))
    for i in range(10):
        run_sync(cluster.env, doomed_client.create(f"/sim/epoch-1/x.{i}"))

    report = fail_node(region, nodes[2])
    print(f"node {report.node_name} crashed: lost"
          f" {report.lost_cache} cached records and"
          f" {report.lost_queued_ops} queued ops")

    # Phase 3: recover — bring the node back, roll back, rebuild.
    recover_node(region, nodes[2])
    restored = run_sync(cluster.env, checkpointer.restore())
    print(f"rolled back to checkpoint: {restored} entries restored")

    assert dfs.namespace.exists("/sim/epoch-0/state.0")
    assert not dfs.namespace.exists("/sim/epoch-1")
    print("epoch-0 state intact; partially-committed epoch-1 rolled back")

    # The region is fully operational again.
    survivor = pacon.client(region, nodes[2])
    run_sync(cluster.env, survivor.create("/sim/epoch-0/after-recovery"))
    pacon.quiesce_sync(region)
    assert dfs.namespace.exists("/sim/epoch-0/after-recovery")
    print("post-recovery writes commit normally;"
          f" simulated time {cluster.env.now * 1e3:.2f} ms")


if __name__ == "__main__":
    main()
