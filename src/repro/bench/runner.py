"""Run every experiment and write the consolidated report + snapshot.

``pacon-bench all [--scale ci|smoke|paper] [--seed N] [--out report.md]
[--metrics-out metrics.json] [--bench-out snap.json]`` drives
:func:`run_all`; ``pacon-bench figure NAME`` runs one driver.

Besides the human-readable markdown report, the runner collects every
driver's structured record into a versioned, schema-validated
``BENCH_<git-sha-or-label>.json`` snapshot (see ``repro.bench.snapshot``)
that ``pacon-bench compare``/``history`` and the CI perf gate consume.
"""

from __future__ import annotations

import inspect
import time
from typing import List, Optional

from repro.bench import ablations, chaos, elastic, fig01, fig02, fig07, \
    fig08, fig09, fig10, fig11, fig12, latency, sensitivity, staleness, \
    table1
from repro.bench.report import ExperimentResult
from repro.bench.systems import DEFAULT_SEED

__all__ = ["run_all", "write_snapshot_file", "DEFAULT_SEED"]

DRIVERS = [fig01, fig02, table1, fig07, fig08, fig09, fig10, fig11, fig12,
           latency, sensitivity, staleness, chaos, elastic]

#: Simulated seconds between observability gauge samples when a bench run
#: collects metrics.
METRICS_SAMPLE_INTERVAL = 200e-6


def _accepts(run_fn, name: str) -> bool:
    return name in inspect.signature(run_fn).parameters


def run_all(scale: str = "ci", verbose: bool = True,
            include_ablations: bool = True,
            metrics_path: Optional[str] = None,
            seed: int = DEFAULT_SEED) -> List[ExperimentResult]:
    hub = None
    if metrics_path is not None:
        from repro.obs.hub import MetricsHub
        hub = MetricsHub(sample_interval=METRICS_SAMPLE_INTERVAL)
    results: List[ExperimentResult] = []

    def finish(result: ExperimentResult, t0: float) -> None:
        # perf_counter, not time.time: harness phase timings must be
        # monotonic so they survive wall-clock adjustments (NTP steps).
        result.host.setdefault("wall_clock_s",
                               round(time.perf_counter() - t0, 3))
        if result.seed is None:
            result.seed = seed
        results.append(result)
        if verbose:
            print(result.render())
            print(f"  [{result.host['wall_clock_s']:.1f}s]\n")

    for driver in DRIVERS:
        t0 = time.perf_counter()
        kwargs = {}
        # The elastic rows read their own hub (its getattr latency
        # sketch and sampling cadence), so a shared hub would change
        # them; `pacon-bench elastic --metrics-out` exports that hub.
        if hub is not None and driver is not elastic \
                and _accepts(driver.run, "hub"):
            kwargs["hub"] = hub
        if _accepts(driver.run, "seed"):
            kwargs["seed"] = seed
        finish(driver.run(scale, **kwargs), t0)
    if include_ablations:
        for result in ablations.run_all(scale, seed=seed):
            # ablations.run_all stamps per-result wall clocks itself.
            finish(result, time.perf_counter())
    if hub is not None and metrics_path is not None:
        with open(metrics_path, "w") as fh:
            fh.write(hub.to_json(indent=2))
        if verbose:
            print(f"metrics written to {metrics_path}")
    return results


def write_snapshot_file(results: List[ExperimentResult], *, scale: str,
                        seed: int, path: Optional[str] = None,
                        label: Optional[str] = None,
                        wall_clock_s: Optional[float] = None) -> str:
    """Build, validate, and write one ``BENCH_*.json`` snapshot.

    With no explicit ``path``, writes ``BENCH_<label>.json`` in the
    current directory, defaulting the label to the short git SHA.
    """
    from repro.bench import snapshot as snap

    label = label or snap.default_label()
    path = path or snap.snapshot_path(label)
    doc = snap.build_snapshot(results, label=label, scale=scale, seed=seed,
                              wall_clock_s=wall_clock_s)
    return snap.write_snapshot(doc, path)

