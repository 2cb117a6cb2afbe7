"""Fig. 9: path traversal analysis — now including Pacon.

Same methodology as Fig. 2 (random stat of directories in a fanout-5 tree
of growing depth) with Pacon added.  Paper: BeeGFS −63 %, IndexFS −47 % at
depth 6, while depth has "only a slight impact" on Pacon thanks to batch
permission management + full-path cache keys.
"""

from __future__ import annotations

from typing import Dict

from repro.bench.fig02 import stat_throughput_at_depth
from repro.bench.report import ExperimentResult
from repro.bench.systems import DEFAULT_SEED

__all__ = ["run", "SCALES"]

SCALES: Dict[str, Dict] = {
    "smoke": {"depths": [3, 5], "fanout": 3, "nodes": 2, "cpn": 3,
              "stats_per_client": 30},
    "ci": {"depths": [3, 4, 5, 6], "fanout": 3, "nodes": 2, "cpn": 5,
           "stats_per_client": 40},
    "paper": {"depths": [3, 4, 5, 6], "fanout": 5, "nodes": 16, "cpn": 20,
              "stats_per_client": 250},
}


def run(scale: str = "ci", seed: int = DEFAULT_SEED) -> ExperimentResult:
    params = SCALES[scale]
    out = ExperimentResult(
        experiment="fig09",
        title="Path traversal with batch permissions (stat vs depth)",
        scale=scale, seed=seed, params=dict(params))
    base: Dict[str, float] = {}
    for system in ("beegfs", "indexfs", "pacon"):
        for depth in params["depths"]:
            ops = stat_throughput_at_depth(
                system, depth, params["fanout"], params["nodes"],
                params["cpn"], params["stats_per_client"], seed=seed)
            base.setdefault(system, ops)
            out.add(system=system, depth=depth, ops_per_sec=round(ops),
                    loss_vs_shallowest_pct=round(
                        (1 - ops / base[system]) * 100, 1))
    for system in ("beegfs", "indexfs", "pacon"):
        deepest = out.where(system=system)[-1]
        target = {"beegfs": "~63%", "indexfs": "~47%",
                  "pacon": "slight"}[system]
        out.derive(f"{system}_loss_pct_deepest",
                   deepest["loss_vs_shallowest_pct"])
        out.note(f"{system}: {deepest['loss_vs_shallowest_pct']}% loss at"
                 f" depth {deepest['depth']} (paper: {target})")
    return out
