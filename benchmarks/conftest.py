"""pytest-benchmark configuration for the figure-regeneration benches.

Each ``bench_*`` file regenerates one table/figure of the paper at smoke
scale (CI-friendly), asserts the paper's qualitative claims (who wins, by
roughly what factor, where crossovers fall), and registers the headline
metric with pytest-benchmark so regressions in the *simulator's own*
performance are tracked too.

Run with::

    pytest benchmarks/ --benchmark-only

Run them without timing (as CI does) with::

    PYTHONPATH=src python -m pytest benchmarks --benchmark-disable

Full paper scale regeneration: ``pacon-bench all --scale paper``.
"""

import pytest


@pytest.fixture(scope="session")
def scale() -> str:
    return "smoke"
