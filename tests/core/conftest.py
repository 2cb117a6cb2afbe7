"""Shared fixtures for Pacon core tests."""

from dataclasses import dataclass
from typing import List

import pytest

from repro.core.client import PaconClient
from repro.core.config import PaconConfig
from repro.core.deploy import PaconDeployment
from repro.core.region import ConsistentRegion
from repro.dfs.beegfs import BeeGFS
from repro.sim.core import run_sync
from repro.sim.network import Cluster, Node


@dataclass
class World:
    """One assembled Pacon world for a test."""

    cluster: Cluster
    dfs: BeeGFS
    deployment: PaconDeployment
    region: ConsistentRegion
    nodes: List[Node]
    client: PaconClient

    def run(self, gen, label: str = "test"):
        return run_sync(self.cluster.env, gen, label=label)

    def quiesce(self):
        self.deployment.quiesce_sync(self.region)

    def new_client(self, node_index: int = 0):
        return self.deployment.client(self.region, self.nodes[node_index])


def make_world(workspace: str = "/app", n_nodes: int = 4,
               config: PaconConfig = None, seed: int = 7,
               n_mds: int = 1) -> World:
    cluster = Cluster(seed=seed)
    dfs = BeeGFS(cluster, n_mds=n_mds)
    nodes = [cluster.add_node(f"client{i}") for i in range(n_nodes)]
    deployment = PaconDeployment(cluster, dfs)
    if config is None:
        config = PaconConfig(workspace=workspace)
    region = deployment.create_region(config, nodes)
    client = deployment.client(region, nodes[0])
    return World(cluster=cluster, dfs=dfs, deployment=deployment,
                 region=region, nodes=nodes, client=client)


@pytest.fixture
def world() -> World:
    return make_world()
