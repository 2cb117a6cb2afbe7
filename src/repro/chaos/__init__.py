"""repro.chaos — DES-native fault injection and convergence invariants.

Faults are scheduled as simulation events during a live run (not between
runs), so the recovery machinery is exercised while the commit pipeline,
barrier epochs, and DHT ring are in motion — exactly where
partial-consistency bugs live.

* :class:`~repro.chaos.engine.ChaosSchedule` — declarative fault spec
  (explicit or Poisson MTTF/MTTR off the seeded RNG).
* :class:`~repro.chaos.engine.ChaosEngine` — injects each fault at its
  simulated instant and drives the matching recovery.
* :mod:`~repro.chaos.invariants` — post-recovery convergence checks:
  committed namespace identical to a fault-free same-seed run, no stuck
  commit processes or leaked waiters, exact lost-op accounting.
* :mod:`~repro.chaos.scenarios` — packaged crash-mid-commit /
  crash-during-barrier / partition-heal / cache-churn scenarios used by
  the tests, the chaos benchmark, and ``pacon-bench chaos``.
"""

from repro.chaos.engine import ChaosEngine, ChaosSchedule, Fault
from repro.chaos.invariants import (
    InvariantReport,
    check_convergence,
    namespace_digest,
    namespace_entries,
)

__all__ = [
    "ChaosEngine",
    "ChaosSchedule",
    "Fault",
    "InvariantReport",
    "check_convergence",
    "namespace_digest",
    "namespace_entries",
]
