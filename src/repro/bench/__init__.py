"""Benchmark harness: one driver per table/figure of the paper.

Every experiment in §IV (and the two motivation experiments in §II) has a
module here that rebuilds the workload, runs all systems under the same
simulated cluster model, and prints the rows/series the paper reports.

================  ==========================================  ==========
module            paper content                               scale knob
================  ==========================================  ==========
``fig01``         client scalability of BeeGFS/IndexFS        Fig. 1
``fig02``         path traversal cost (motivation)            Fig. 2
``table1``        operation semantics conformance             Table I
``fig07``         single-application mkdir/create/stat        Fig. 7
``fig08``         multi-application throughput                Fig. 8
``fig09``         path traversal with Pacon                   Fig. 9
``fig10``         Pacon overhead vs raw in-memory KV          Fig. 10
``fig11``         file-creation scalability to 320 clients    Fig. 11
``fig12``         MADbench2 runtime breakdown                 Fig. 12
``ablations``     commit-strategy / batch-permission /        extension
                  related-work trade-off studies
``chaos``         fault injection: post-recovery convergence  extension
``elastic``       flash crowd: autoscaled vs static           extension
``kernel``        DES kernel event throughput                 substrate
================  ==========================================  ==========

Each driver exposes ``run(scale=\"ci\") -> ExperimentResult``;
``pacon-bench figure NAME --scale paper`` regenerates one figure,
``pacon-bench all --scale paper`` regenerates everything.
"""

from repro.bench.report import ExperimentResult, format_table, write_markdown
from repro.bench.systems import AppHandle, TestBed, make_testbed

__all__ = [
    "AppHandle",
    "ExperimentResult",
    "TestBed",
    "format_table",
    "make_testbed",
    "write_markdown",
]
