"""Unit tests for stats, RNG streams, and the cost model."""

import pytest

from repro.sim.costs import CostModel
from repro.sim.rng import RngStreams
from repro.sim.stats import Counter, StatsRegistry


class TestCounter:
    def test_inc_default(self):
        c = Counter("ops")
        c.inc()
        c.inc(4)
        assert int(c) == 5

    def test_registry_reuses(self):
        reg = StatsRegistry()
        assert reg.counter("x") is reg.counter("x")

    def test_registry_snapshot(self):
        reg = StatsRegistry()
        reg.counter("b").inc(2)
        reg.counter("a").inc(1)
        assert reg.counters() == {"a": 1, "b": 2}


class TestRngStreams:
    def test_same_name_same_stream_object(self):
        rng = RngStreams(seed=1)
        assert rng.stream("a") is rng.stream("a")

    def test_reproducible_across_instances(self):
        a = RngStreams(seed=7).stream("workload").integers(0, 1000, size=10)
        b = RngStreams(seed=7).stream("workload").integers(0, 1000, size=10)
        assert list(a) == list(b)

    def test_streams_independent_of_creation_order(self):
        r1 = RngStreams(seed=7)
        r1.stream("first")
        x1 = r1.stream("target").integers(0, 1 << 30)
        r2 = RngStreams(seed=7)
        x2 = r2.stream("target").integers(0, 1 << 30)
        assert x1 == x2

    def test_different_names_differ(self):
        rng = RngStreams(seed=7)
        a = rng.stream("a").integers(0, 1 << 30, size=8)
        b = rng.stream("b").integers(0, 1 << 30, size=8)
        assert list(a) != list(b)

    def test_different_seeds_differ(self):
        a = RngStreams(seed=1).stream("x").integers(0, 1 << 30, size=8)
        b = RngStreams(seed=2).stream("x").integers(0, 1 << 30, size=8)
        assert list(a) != list(b)

    def test_child_namespace_reproducible(self):
        a = RngStreams(seed=3).child("app1").stream("ops").integers(0, 99, 5)
        b = RngStreams(seed=3).child("app1").stream("ops").integers(0, 99, 5)
        assert list(a) == list(b)


class TestCostModel:
    def test_zero_preset_nulls_floats_only(self):
        z = CostModel.zero()
        assert z.net_latency == 0.0
        assert z.mds_op_service == 0.0
        assert z.mds_workers == CostModel().mds_workers

    def test_with_overrides_is_copy(self):
        base = CostModel()
        tweaked = base.with_overrides(mds_op_service=1.0)
        assert tweaked.mds_op_service == 1.0
        assert base.mds_op_service != 1.0

    def test_slow_network_scales(self):
        slow = CostModel.slow_network(factor=10)
        assert slow.net_latency == pytest.approx(CostModel().net_latency * 10)

    def test_transfer_time(self):
        c = CostModel()
        assert c.transfer_time(int(c.net_bandwidth)) == pytest.approx(1.0)

    def test_disk_transfer_time(self):
        c = CostModel()
        assert c.disk_transfer_time(int(c.disk_bandwidth)) == pytest.approx(1.0)
