"""Fig. 11: metadata scalability (file creation, normalized).

Client count grows 20 per node as nodes are added (IndexFS servers and
Pacon cache/commit services grow with the client nodes; BeeGFS keeps its
single MDS).  Results are normalized by each system's single-client
throughput.  Paper: Pacon scales ~16.5× better than BeeGFS and ~2.8×
better than IndexFS at 320 clients, and exceeds 1 M creates/s.
"""

from __future__ import annotations

from typing import Dict

from repro.bench.report import ExperimentResult, fmt_ops
from repro.bench.systems import DEFAULT_SEED, SYSTEMS, make_testbed
from repro.workloads.mdtest import MdtestConfig, run_mdtest

__all__ = ["run", "run_aggregate", "SCALES", "AGGREGATE_SCALES",
           "creation_throughput"]

SCALES: Dict[str, Dict] = {
    "smoke": {"points": [(1, 1), (2, 5)], "items": 15},
    "ci": {"points": [(1, 1), (1, 10), (2, 10), (4, 10)], "items": 25},
    "paper": {"points": [(1, 1), (1, 20), (2, 20), (4, 20), (8, 20),
                         (16, 20)], "items": 100},
}

#: Aggregate-scalability points: ``(nodes, clients_per_node,
#: aggregate_multiplier)``.  Logical clients = nodes × cpn × multiplier —
#: 20–100× past the per-scale maximum of the faithful sweep above at a
#: similar event-heap footprint.
AGGREGATE_SCALES: Dict[str, Dict] = {
    "smoke": {"points": [(2, 5, 20)], "items": 15},
    "ci": {"points": [(2, 10, 20), (4, 10, 50)], "items": 25},
    "paper": {"points": [(8, 20, 50), (16, 20, 100)], "items": 100},
}


def creation_throughput(system: str, nodes: int, cpn: int,
                        items: int, seed: int = DEFAULT_SEED) -> float:
    bed = make_testbed(system, n_apps=1, nodes_per_app=nodes,
                       clients_per_node=cpn, seed=seed)
    config = MdtestConfig(workdir="/app", items_per_client=items,
                          phases=("create",))
    return run_mdtest(bed.env, bed.clients, config).ops("create")


def run(scale: str = "ci", seed: int = DEFAULT_SEED) -> ExperimentResult:
    params = SCALES[scale]
    out = ExperimentResult(
        experiment="fig11",
        title="Creation scalability (normalized to 1 client)",
        scale=scale, seed=seed, params=dict(params))
    base: Dict[str, float] = {}
    for system in SYSTEMS:
        for nodes, cpn in params["points"]:
            ops = creation_throughput(system, nodes, cpn, params["items"],
                                      seed=seed)
            clients = nodes * cpn
            if clients == 1:
                base[system] = ops
            out.add(system=system, clients=clients,
                    ops_per_sec=round(ops),
                    normalized=round(ops / base[system], 2))
    max_clients = max(n * c for n, c in params["points"])
    big = {s: out.where(system=s, clients=max_clients)[0] for s in SYSTEMS}
    out.derive("scaling_vs_beegfs", round(
        big["pacon"]["normalized"] / big["beegfs"]["normalized"], 3))
    out.derive("scaling_vs_indexfs", round(
        big["pacon"]["normalized"] / big["indexfs"]["normalized"], 3))
    out.derive("pacon_peak_ops_per_sec", big["pacon"]["ops_per_sec"])
    out.note(f"at {max_clients} clients: Pacon scaling is"
             f" {big['pacon']['normalized'] / big['beegfs']['normalized']:.1f}x"
             f" BeeGFS's and"
             f" {big['pacon']['normalized'] / big['indexfs']['normalized']:.1f}x"
             f" IndexFS's (paper: ~16.5x / ~2.8x at 320 clients)")
    out.note(f"Pacon absolute throughput at {max_clients} clients:"
             f" {fmt_ops(big['pacon']['ops_per_sec'])} OPS"
             " (paper: >1M OPS at 320 clients)")
    return out


def run_aggregate(scale: str = "ci",
                  seed: int = DEFAULT_SEED) -> ExperimentResult:
    """Fig. 11 extension: hierarchical aggregate-client scalability.

    Each Pacon client object stands in for ``multiplier`` statistically
    identical ranks (``config.aggregate_multiplier``; see
    :class:`repro.core.client.AggregateClient`), so the sweep reaches
    logical client counts 20–100× past the faithful sweep's maximum at a
    similar wall-clock.  Logical throughput = physical × multiplier — a
    documented approximation valid while per-op service times stay
    load-independent; the faithful figures are untouched.
    """
    params = AGGREGATE_SCALES[scale]
    out = ExperimentResult(
        experiment="fig11_aggregate",
        title="Creation scalability, hierarchical aggregate clients",
        scale=scale, seed=seed, params=dict(params))
    faithful_max = max(n * c for n, c in SCALES[scale]["points"])
    max_logical = 0
    for nodes, cpn, multiplier in params["points"]:
        bed = make_testbed("pacon", n_apps=1, nodes_per_app=nodes,
                           clients_per_node=cpn, seed=seed,
                           aggregate_multiplier=multiplier)
        config = MdtestConfig(workdir="/app",
                              items_per_client=params["items"],
                              phases=("create",))
        ops = run_mdtest(bed.env, bed.clients, config).ops("create")
        physical = nodes * cpn
        logical = physical * multiplier
        max_logical = max(max_logical, logical)
        out.add(system="pacon", physical_clients=physical,
                multiplier=multiplier, logical_clients=logical,
                ops_per_sec=round(ops),
                logical_ops_per_sec=round(ops * multiplier))
    out.derive("max_logical_clients", max_logical)
    out.derive("scaleup_vs_faithful_sweep",
               round(max_logical / faithful_max, 2))
    out.note(f"{max_logical} logical clients"
             f" ({max_logical // faithful_max}x the faithful {scale} sweep's"
             f" {faithful_max}); logical ops/sec = physical x multiplier"
             " (assumes load-independent per-op service times)")
    return out
