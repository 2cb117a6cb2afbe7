"""Chaos-scenario bench driver: fault injection as a tracked experiment.

Runs every packaged :mod:`repro.chaos.scenarios` scenario at a named
scale and reports, per scenario, what the invariant checker proved: the
convergence verdict, faults injected, ops lost to crashes, MDS replays
absorbed by commit-token dedup, and messages dropped by the
delivery-time network semantics.  All of these are **simulated metrics**
— two same-seed runs produce byte-identical rows — so its record in
``benchmarks/baseline_tiny.json`` gates fault-handling semantics in the
CI perf gate (``pacon-bench all --scale smoke``).  ``pacon-bench chaos``
runs the same scenarios with a per-scenario metrics export.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from repro.bench.report import ExperimentResult
from repro.bench.systems import DEFAULT_SEED
from repro.chaos.scenarios import SCENARIOS, run_scenario

__all__ = ["SCALES", "run"]

#: Workload shape per scale.  ``smoke`` is the CI chaos gate — small
#: enough for seconds, large enough that every fault window overlaps
#: live client traffic.  ``paper`` stretches the span so Poisson
#: node-crash schedules draw several faults.
SCALES: Dict[str, Dict[str, Any]] = {
    "smoke": {"items": 24, "pacing": 200e-6, "n_nodes": 3,
              "clients_per_node": 2},
    "ci": {"items": 40, "pacing": 200e-6, "n_nodes": 3,
           "clients_per_node": 2},
    "paper": {"items": 96, "pacing": 200e-6, "n_nodes": 4,
              "clients_per_node": 3},
}


def run(scale: str = "smoke", seed: int = DEFAULT_SEED,
        hub: Optional[Any] = None) -> ExperimentResult:
    """Run all chaos scenarios at ``scale``; one row per scenario."""
    params = SCALES[scale]
    out = ExperimentResult(
        experiment="chaos",
        title="Fault injection: post-recovery convergence",
        scale=scale, seed=seed, params=dict(params))
    scenarios_ok = 0
    total_faults = total_lost = total_replays = total_dropped = 0
    for name in SCENARIOS:
        # The hub (if any) observes the last scenario only — each
        # scenario builds a fresh world, and attaching every one would
        # pile five worlds' counters into a single export.
        result = run_scenario(
            name, seed=seed,
            hub=hub if name == SCENARIOS[-1] else None, **params)
        scenarios_ok += int(result.ok)
        total_faults += len(result.fault_records)
        total_lost += result.lost_ops
        total_replays += result.replays
        total_dropped += result.dropped
        out.add(scenario=name, ok=int(result.ok),
                faults=len(result.fault_records),
                lost_ops=result.lost_ops, replays=result.replays,
                net_dropped=result.dropped,
                entries=int(result.report.checks.get("entries", 0)),
                problems=len(result.report.problems))
        if result.report.problems:
            for problem in result.report.problems:
                out.note(f"{name}: INVARIANT VIOLATION: {problem}")
    out.derive("scenarios_ok", scenarios_ok)
    out.derive("scenarios_total", len(SCENARIOS))
    out.derive("total_faults", total_faults)
    out.derive("total_lost_ops", total_lost)
    out.derive("total_replays", total_replays)
    out.derive("total_net_dropped", total_dropped)
    out.note(f"{scenarios_ok}/{len(SCENARIOS)} scenarios converged"
             f" ({total_faults} faults, {total_lost} ops lost,"
             f" {total_replays} replays deduplicated,"
             f" {total_dropped} messages dropped)")
    return out
