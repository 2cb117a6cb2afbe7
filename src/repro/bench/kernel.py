"""DES-kernel throughput: how fast the substrate itself runs.

Not a paper figure: it tracks the simulator's own event rate across
timer, resource, interrupt and condition scenarios, which bounds the
wall-clock of every experiment.  ``pacon-bench figure kernel`` runs it
alone and ``pacon-bench all`` with every other driver.  Event counts
are simulated metrics (a kernel change that moves them changed
semantics), gated exactly against ``benchmarks/baseline_tiny.json``;
host ns per processed event are host metrics (lower is better).
"""

from __future__ import annotations

import time
from typing import Dict, Tuple

from repro.bench.report import ExperimentResult
from repro.sim.core import AllOf, AnyOf, Environment, Interrupt
from repro.sim.resources import Resource

__all__ = ["SCALES", "SCENARIOS", "run", "timeout_storm", "resource_churn",
           "interrupt_storm", "condition_fanin"]

_LARGE = {"timeout_storm": (400, 150), "resource_churn": (250, 120),
          "interrupt_storm": (120, 40), "condition_fanin": (120, 60)}
#: (processes, hops) per scenario per scale.  ``smoke`` is the CI gate;
#: ``ci``/``paper`` are large enough for stable host timings.
SCALES: Dict[str, Dict[str, Tuple[int, int]]] = {
    "smoke": {"timeout_storm": (60, 20), "resource_churn": (40, 15),
              "interrupt_storm": (24, 8), "condition_fanin": (20, 10)},
    "ci": _LARGE, "paper": _LARGE,
}


def timeout_storm(n_processes: int, hops: int) -> int:
    """Pure timer churn: the create/schedule/fire/resume cycle."""
    env = Environment()

    def proc(i):
        for h in range(hops):
            yield env.timeout(1e-6 * ((i + h) % 7 + 1))

    for i in range(n_processes):
        env.process(proc(i))
    env.run()
    return env.processed_events


def resource_churn(n_processes: int, hops: int) -> int:
    """Contended acquire/release: grant handoff and wait accounting."""
    env = Environment()
    res = Resource(env, capacity=4)

    def proc(i):
        for _ in range(hops):
            yield from res.use(1e-6)

    for i in range(n_processes):
        env.process(proc(i))
    env.run()
    return env.processed_events


def interrupt_storm(n_processes: int, hops: int) -> int:
    """Chaos-style detach pressure: every victim is interrupted out of a
    long wait ``hops`` times, leaving its original timeout to fire into
    nothing — the path that used to cost a linear ``callbacks.remove``
    per detach."""
    env = Environment()

    def victim(i):
        for _ in range(hops):
            try:
                yield env.timeout(1000.0)
            except Interrupt:
                pass

    victims = [env.process(victim(i)) for i in range(n_processes)]

    def killer():
        for h in range(hops):
            yield env.timeout(1e-3)
            for v in victims:
                if v.is_alive:
                    v.interrupt(h)

    env.process(killer())
    env.run()
    return env.processed_events


def condition_fanin(n_processes: int, hops: int) -> int:
    """AnyOf/AllOf composition: one fast winner racing slow losers, then
    a small AllOf join — exercises loser-callback detach."""
    env = Environment()

    def proc(i):
        for h in range(hops):
            winner = env.timeout(1e-6, value=i)
            losers = [env.timeout(1e-3 * (k + 1)) for k in range(3)]
            idx, value = yield AnyOf(env, [winner] + losers)
            assert idx == 0 and value == i
            yield AllOf(env, [env.timeout(1e-6), env.timeout(2e-6)])

    for i in range(n_processes):
        env.process(proc(i))
    env.run()
    return env.processed_events


SCENARIOS = {
    "timeout_storm": timeout_storm,
    "resource_churn": resource_churn,
    "interrupt_storm": interrupt_storm,
    "condition_fanin": condition_fanin,
}


def run(scale: str = "ci", rounds: int = 3) -> ExperimentResult:
    """Run every scenario at ``scale``.

    Event counts land in ``rows`` (simulated — byte-identical run to
    run); per-scenario best-of-``rounds`` host ns per event land in the
    experiment's ``host`` section, with their maximum as the headline.
    """
    params = SCALES[scale]
    out = ExperimentResult(
        experiment="kernel",
        title="DES kernel event throughput",
        scale=scale,
        params={name: list(args) for name, args in params.items()})
    total_events = 0
    ns_per_event = []
    for name, (n, hops) in params.items():
        fn = SCENARIOS[name]
        events = 0
        best = float("inf")
        for _ in range(rounds):
            t0 = time.perf_counter()
            events = fn(n, hops)
            best = min(best, time.perf_counter() - t0)
        total_events += events
        out.add(scenario=name, processes=n, hops=hops, events=events)
        ns_per_event.append(round(best / events * 1e9, 1))
        out.host[f"{name}_ns_per_event"] = ns_per_event[-1]
    out.derive("total_events", total_events)
    out.host["ns_per_event_max"] = max(ns_per_event)
    out.note(f"{total_events} events across {len(params)} scenarios"
             " (counts are simulated metrics; ns/event are host metrics)")
    return out
