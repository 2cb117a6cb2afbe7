"""Fig. 1 (motivation): client scalability of BeeGFS and IndexFS.

The paper ran file creation with growing client counts on a 16-node
cluster (BeeGFS with a single MDS; IndexFS on all client nodes over
BeeGFS) and reported the throughput *multiple* relative to the one-client
case — showing both flatten long before client counts stop growing.
"""

from __future__ import annotations

from typing import Dict

from repro.bench.report import ExperimentResult
from repro.bench.systems import DEFAULT_SEED, make_testbed
from repro.workloads.mdtest import MdtestConfig, run_mdtest

__all__ = ["run", "SCALES"]

# (nodes, clients_per_node) sweep points; first point is the baseline.
SCALES: Dict[str, Dict] = {
    "smoke": {"points": [(1, 1), (1, 4), (2, 4)], "items": 15},
    "ci": {"points": [(1, 1), (1, 4), (2, 8), (4, 10)], "items": 25},
    "paper": {"points": [(1, 1), (1, 20), (2, 20), (4, 20), (8, 20),
                         (16, 20)], "items": 100},
}


def _creation_throughput(system: str, nodes: int, cpn: int,
                         items: int, seed: int = DEFAULT_SEED) -> float:
    bed = make_testbed(system, n_apps=1, nodes_per_app=nodes,
                       clients_per_node=cpn, seed=seed)
    config = MdtestConfig(workdir="/app", items_per_client=items,
                          phases=("create",))
    result = run_mdtest(bed.env, bed.clients, config)
    return result.ops("create")


def run(scale: str = "ci", seed: int = DEFAULT_SEED) -> ExperimentResult:
    params = SCALES[scale]
    out = ExperimentResult(
        experiment="fig01",
        title="Client scalability (creation throughput multiple vs 1 client)",
        scale=scale, seed=seed, params=dict(params))
    base: Dict[str, float] = {}
    for system in ("beegfs", "indexfs"):
        for nodes, cpn in params["points"]:
            ops = _creation_throughput(system, nodes, cpn, params["items"],
                                       seed=seed)
            clients = nodes * cpn
            if clients == 1:
                base[system] = ops
            out.add(system=system, clients=clients, nodes=nodes,
                    ops_per_sec=round(ops),
                    multiple=round(ops / base[system], 2))
    max_clients = max(n * c for n, c in params["points"])
    for system in ("beegfs", "indexfs"):
        peak = max(r["multiple"] for r in out.where(system=system))
        out.derive(f"{system}_peak_multiple", peak)
        out.note(f"{system}: peak speedup {peak}x at up to {max_clients}"
                 f" clients — far from linear (paper Fig. 1 shape)")
    return out
