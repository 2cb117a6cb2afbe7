"""Tests for the control-plane timeline (repro.obs.timeline)."""

import pytest

from repro.chaos.engine import ChaosEngine, ChaosSchedule
from repro.core.autoscale import Autoscaler
from repro.core.config import PaconConfig
from repro.obs.hub import MetricsHub
from repro.obs.timeline import (CONTROL_METRICS, JOINED, NULL_TIMELINE,
                                ControlEvent, Timeline)
from tests.core.conftest import make_world


class TestTimeline:
    def test_record_returns_monotonic_seq(self):
        tl = Timeline()
        seq_a = tl.record(0.1, "chaos", "fault.injected",
                          "mds_crash[0]").seq
        seq_b = tl.record(0.2, "chaos", "fault.recovered", "mds_crash[0]",
                          ref=seq_a).seq
        assert seq_b > seq_a > 0
        assert len(tl) == 2

    def test_events_sorted_by_time_then_seq(self):
        tl = Timeline()
        tl.record(0.5, "autoscale", "scale.grow", "late")
        tl.record(0.1, "commit", "backpressure.stall", "early",
                  duration=0.02)
        tl.record(0.1, "membership", "node.joined", "tie")
        keys = [(ev.time, ev.seq) for ev in tl.events()]
        assert keys == sorted(keys)
        assert [ev.label for ev in tl.events()] == ["early", "tie", "late"]

    def test_export_shape_and_event_fields(self):
        tl = Timeline()
        event = tl.record(0.1, "chaos", "fault.injected", "partition[0]",
                          detail="cut#1")
        doc = tl.export()
        assert doc["count"] == 1
        assert doc["dropped"] == 0
        (ev,) = doc["events"]
        assert ev == event.to_doc()
        assert ev == {"seq": event.seq, "t": 0.1, "source": "chaos",
                      "kind": "fault.injected", "label": "partition[0]",
                      "detail": "cut#1", "duration": 0.0, "ref": -1}

    def test_capacity_drops_and_counts(self):
        tl = Timeline(capacity=2)
        assert tl.record(0.1, "chaos", "fault.injected", "a").seq > 0
        assert tl.record(0.2, "chaos", "fault.injected", "b").seq > 0
        dropped = tl.record(0.3, "chaos", "fault.injected", "c")
        assert dropped.seq == -1 and dropped.label == "c"
        assert len(tl) == 2
        assert tl.dropped == 1
        assert tl.export()["dropped"] == 1

    def test_clear_keeps_seq_monotonic(self):
        tl = Timeline()
        first = tl.record(0.1, "chaos", "fault.injected", "a").seq
        tl.clear()
        assert len(tl) == 0
        assert tl.export()["events"] == []
        # seq keeps climbing across clear: pairs recorded before a clear
        # can never alias pairs recorded after it.
        assert tl.record(0.2, "chaos", "fault.injected", "b").seq > first

    def test_control_event_is_immutable(self):
        ev = ControlEvent(seq=1, time=0.1, source="chaos",
                          kind="fault.injected", label="x")
        with pytest.raises(AttributeError):
            ev.time = 0.5


class TestNullTimeline:
    def test_record_is_a_discarding_noop(self):
        event = NULL_TIMELINE.record(0.1, "chaos", "fault.injected", "x")
        assert event == ControlEvent(seq=-1, time=0.1, source="chaos",
                                     kind="fault.injected", label="x")
        assert len(NULL_TIMELINE) == 0
        assert NULL_TIMELINE.events() == []
        assert NULL_TIMELINE.export() == {"count": 0, "dropped": 0,
                                          "events": []}


@pytest.fixture(scope="module")
def control_world():
    """A hub-instrumented world that emits every control-plane kind.

    A chaos fault, an autoscale grow + retire + reject, a grow onto a
    dead node (fails after joining: the kept-node edge case), a failed
    retire, and backpressure stalls from a bounded commit queue.
    """
    config = PaconConfig(workspace="/app", commit_batch_size=4,
                         commit_queue_capacity=4, autoscale_min_nodes=2,
                         autoscale_max_nodes=6)
    w = make_world(n_nodes=2, config=config)
    hub = MetricsHub(sample_interval=None)
    hub.attach_region(w.region)

    def burst():
        for i in range(40):
            yield from w.client.create(f"/app/f{i}")

    w.run(burst())
    w.quiesce()
    engine = ChaosEngine(w.deployment, w.region, ChaosSchedule().add(
        "mds_crash", at=1e-3, duration=2e-3))
    engine.start()
    w.run(engine.wait_done(), label="chaos-wait")
    scaler = Autoscaler(w.deployment, w.region)
    w.run(scaler._scale_up("util"))
    w.run(scaler._scale_down(scaler._added[-1], "idle"))
    scaler._reject("grow", "max_nodes reached")
    doomed = w.cluster.add_node("doomed")
    doomed.fail()
    scaler.node_factory = lambda: doomed
    w.run(scaler._scale_up("util"))
    outsider = w.cluster.add_node("outsider")
    w.run(scaler._scale_down(outsider, "idle"))
    return hub.export(), hub.timeline.events()


@pytest.mark.parametrize("kind", sorted(CONTROL_METRICS))
def test_control_metrics_count_timeline_events(control_world, kind):
    """Every counter a kind feeds counts its events, every sketch
    observes once per feeding event: the table is the only record."""
    doc, events = control_world
    of_kind = [ev for ev in events if ev.kind == kind]
    assert of_kind, f"the world never emitted {kind}"
    counters, sketch = CONTROL_METRICS[kind]
    for template in counters:
        prefix = template.split("{", 1)[0]
        total = sum(value for name, value in doc["counters"].items()
                    if name == template or ("{" in template
                                            and name.startswith(prefix)))
        expected = len(of_kind)
        if template == "autoscale.scale_up":
            # A failed grow whose node joined anyway is a scale-up too.
            expected += sum(1 for ev in events if ev.kind == "scale.failed"
                            and JOINED in ev.detail.split())
        assert total == expected, template
    if sketch:
        feeding = [ev for ev in events
                   if CONTROL_METRICS[ev.kind][1] == sketch]
        summary = doc["histograms"][sketch]
        assert summary["count"] == len(feeding)
        # A closing event (ref) observes the time since its opening one.
        opened = {ev.seq: ev.time for ev in events}
        values = [ev.time - opened[ev.ref] if ev.ref >= 0 else ev.duration
                  for ev in feeding]
        assert summary["max"] == pytest.approx(max(values))
