"""DES-kernel throughput in the pytest-benchmark history.

The scenarios live in :mod:`repro.bench.kernel`, which ``pacon-bench
figure kernel`` and ``pacon-bench all`` run and gate; these tests keep
them in the perf history of every benchmark run.
"""

from repro.bench.kernel import (
    condition_fanin,
    interrupt_storm,
    resource_churn,
    timeout_storm,
)


def test_kernel_timeout_throughput(benchmark):
    events = benchmark.pedantic(timeout_storm, args=(200, 50),
                                iterations=1, rounds=3)
    assert events >= 200 * 50


def test_kernel_resource_throughput(benchmark):
    events = benchmark.pedantic(resource_churn, args=(100, 50),
                                iterations=1, rounds=3)
    assert events >= 100 * 50


def test_kernel_interrupt_throughput(benchmark):
    events = benchmark.pedantic(interrupt_storm, args=(40, 10),
                                iterations=1, rounds=3)
    assert events >= 40 * 10


def test_kernel_condition_throughput(benchmark):
    events = benchmark.pedantic(condition_fanin, args=(40, 20),
                                iterations=1, rounds=3)
    assert events >= 40 * 20
