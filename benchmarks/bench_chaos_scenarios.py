"""Chaos-scenario smoke test: the headline fault scenario converges.

Not a paper figure.  The outcome of every packaged fault scenario
(convergence verdict, faults injected, ops lost, replays deduplicated,
messages dropped) is pinned by the ``chaos`` record of
``benchmarks/baseline_tiny.json``, which the CI perf gate compares
against ``pacon-bench all --scale smoke``.
"""

from __future__ import annotations


def test_chaos_smoke_mds_crash_converges():
    from repro.chaos.scenarios import run_scenario

    result = run_scenario("mds_crash")
    assert result.ok, result.report.problems
    assert result.replays > 0  # the crash really hit in-flight commits

