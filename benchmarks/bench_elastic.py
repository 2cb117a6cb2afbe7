"""Elasticity smoke test: the flash-crowd autoscaling claim.

Not a paper figure.  Asserts the acceptance claim of
``repro.bench.elastic`` — once adapted, the autoscaled run beats
static_min on steady-state flash p99 while costing fewer node-seconds
than static_peak.  Per-mode tail latencies, node-second costs and
scaling action counts are pinned by the ``elastic`` record of
``benchmarks/baseline_tiny.json``, which the CI perf gate compares
against ``pacon-bench all --scale smoke``.
"""

from __future__ import annotations


def test_elastic_smoke_autoscale_beats_static_provisioning():
    from repro.bench import elastic

    result = elastic.run("smoke")
    auto = result.where(mode="autoscale")[0]
    assert auto["scale_ups"] > 0  # the controller really acted
    assert auto["scale_downs"] > 0  # ... and shrank back after the burst
    # Acceptance axis: steady-state flash p99 beats static_min at a
    # node-second cost below static_peak.
    assert result.derived["steady_p99_speedup_vs_static_min"] > 1.0
    assert result.derived["cost_ratio_vs_static_peak"] < 1.0

