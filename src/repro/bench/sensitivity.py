"""Extension: robustness of the paper's conclusions to the cost model.

The reproduction's absolute numbers depend on calibrated constants; the
*conclusions* should not.  This driver perturbs the two most influential
constants — per-message network overhead and MDS service time — by
substantial factors and re-measures the headline comparison (creation
throughput, Pacon vs BeeGFS vs IndexFS).  The orderings the paper's
abstract rests on must survive every perturbation.
"""

from __future__ import annotations

from typing import Dict

from repro.bench.report import ExperimentResult
from repro.bench.systems import DEFAULT_SEED, make_testbed
from repro.sim.costs import CostModel
from repro.workloads.mdtest import MdtestConfig, run_mdtest

__all__ = ["run", "SCALES"]

SCALES: Dict[str, Dict] = {
    "smoke": {"nodes": 2, "cpn": 4, "items": 15,
              "factors": [0.5, 1.0, 2.0]},
    "ci": {"nodes": 2, "cpn": 8, "items": 25,
           "factors": [0.5, 1.0, 2.0]},
    "paper": {"nodes": 8, "cpn": 20, "items": 60,
              "factors": [0.25, 0.5, 1.0, 2.0, 4.0]},
}

PERTURBATIONS = {
    "network": lambda c, f: c.with_overrides(
        net_msg_overhead=c.net_msg_overhead * f,
        net_latency=c.net_latency * f,
        local_loopback=c.local_loopback * f),
    "mds": lambda c, f: c.with_overrides(
        mds_op_service=c.mds_op_service * f,
        mds_read_service=c.mds_read_service * f,
        mds_lookup_service=c.mds_lookup_service * f),
}


def _creation(system: str, costs: CostModel, nodes: int, cpn: int,
              items: int, seed: int = DEFAULT_SEED) -> float:
    bed = make_testbed(system, n_apps=1, nodes_per_app=nodes,
                       clients_per_node=cpn, costs=costs, seed=seed)
    config = MdtestConfig(workdir="/app", items_per_client=items,
                          phases=("create",))
    return run_mdtest(bed.env, bed.clients, config).ops("create")


def run(scale: str = "ci", seed: int = DEFAULT_SEED) -> ExperimentResult:
    params = SCALES[scale]
    out = ExperimentResult(
        experiment="sensitivity",
        title="Conclusion robustness under cost-model perturbation",
        scale=scale, seed=seed, params=dict(params))
    base = CostModel.tianhe2_like()
    orderings_hold = True
    for knob, perturb in PERTURBATIONS.items():
        for factor in params["factors"]:
            costs = perturb(base, factor)
            ops = {system: _creation(system, costs, params["nodes"],
                                     params["cpn"], params["items"],
                                     seed=seed)
                   for system in ("beegfs", "indexfs", "pacon")}
            # The paper's core claim: Pacon beats both baselines.  (The
            # IndexFS-vs-BeeGFS ordering is scale-dependent: IndexFS only
            # overtakes once GIGA+ splitting spreads the hot directory,
            # which needs paper scale entry counts.)
            ordering_ok = (ops["pacon"] > ops["indexfs"]
                           and ops["pacon"] > ops["beegfs"])
            orderings_hold = orderings_hold and ordering_ok
            out.add(knob=knob, factor=factor,
                    beegfs=round(ops["beegfs"]),
                    indexfs=round(ops["indexfs"]),
                    pacon=round(ops["pacon"]),
                    pacon_vs_beegfs=round(ops["pacon"] / ops["beegfs"], 1),
                    pacon_wins="yes" if ordering_ok else "NO")
    out.derive("orderings_hold", 1.0 if orderings_hold else 0.0)
    out.derive("min_pacon_vs_beegfs",
               min(row["pacon_vs_beegfs"] for row in out.rows))
    out.note("the core claim (Pacon > both baselines on creation)"
             + (" holds under every perturbation tested"
                if orderings_hold else " is VIOLATED somewhere — see rows"))
    return out
