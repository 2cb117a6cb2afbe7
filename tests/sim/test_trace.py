"""Tests for the structured tracer and its commit-machinery integration."""

import pytest

from repro.sim.trace import NULL_TRACER, TraceEvent, Tracer
from tests.core.conftest import make_world


class TestTracer:
    def test_emit_and_filter(self):
        t = Tracer()
        op = t.root_context()
        t.span_start(1.0, "a", op, "op", "create /x")
        t.emit(2.0, "b", "commit", "create /x")
        t.span_end(3.0, op)
        assert len(t) == 3
        assert len(list(t.events(actor="a"))) == 2
        assert len(list(t.events(kind="commit"))) == 1
        assert len(list(t.events(since=1.5, until=2.5))) == 1
        assert len(list(t.events(op_id=1))) == 2

    def test_spans_pairing(self):
        t = Tracer()
        op_a = t.root_context()
        op_b = t.root_context()
        a, b = op_a.op_id, op_b.op_id
        t.span_start(1.0, "c", op_a, "op", "create")
        t.span_start(1.5, "c", op_b, "op", "mkdir")
        t.span_end(2.0, op_a)
        spans = t.spans()
        # b never ended: reported as an open-ended entry, not dropped.
        assert spans == {a: (1.0, 2.0, "create"), b: (1.5, None, "mkdir")}

    def test_render_reports_open_spans(self):
        t = Tracer()
        op = t.root_context()
        t.span_start(1.0, "c", op, "op", "create")
        assert "1 spans still open" in t.render()
        t.span_end(2.0, op)
        assert "still open" not in t.render()

    def test_child_linked_when_it_opens(self):
        t = Tracer()
        op = t.root_context()
        t.span_start(1.0, "c", op, "op", "create /x")
        child = t.child_context(op)
        t.span_start(1.5, "net", child, "network", "a->b")
        assert t.span_tree(op.op_id) is op
        assert op.children == [child]
        assert child.parent_id == op.span_id and child.end is None
        t.span_end(1.75, child)
        assert child.duration == 0.25

    def test_span_closed_twice_keeps_first_close(self):
        t = Tracer()
        op = t.root_context()
        t.span_start(1.0, "c", op, "op", "create")
        t.span_end(2.0, op, "create [ok]")
        t.span_end(3.0, op, "create [again]")
        assert t.spans() == {op.op_id: (1.0, 2.0, "create")}
        assert t.open_span_count() == 0
        assert [(ev.time, ev.kind, ev.detail) for ev in t.events()] == [
            (1.0, "op.start", "create"), (2.0, "op.end", "create [ok]"),
            (3.0, "op.end", "create [again]")]

    def test_capacity_drops(self):
        t = Tracer(capacity=2)
        for i in range(5):
            t.emit(float(i), "x", "k")
        assert len(t) == 2
        assert t.dropped == 3

    def test_disabled_tracer_ignores(self):
        t = Tracer()
        t.enabled = False
        t.emit(1.0, "x", "k")
        assert len(t) == 0

    def test_render_clips(self):
        t = Tracer()
        for i in range(10):
            t.emit(float(i), "x", "k", f"e{i}")
        text = t.render(limit=3)
        assert "e0" in text and "e9" not in text
        assert "7 more events" in text

    def test_null_tracer_is_inert(self):
        NULL_TRACER.emit(1.0, "x", "k")
        assert len(NULL_TRACER) == 0

    def test_clear(self):
        t = Tracer()
        t.emit(1.0, "x", "k")
        t.clear()
        assert len(t) == 0

    def test_event_render(self):
        ev = TraceEvent(1e-3, "commit:n0", "commit", "create /a", op_id=7)
        text = ev.render()
        assert "commit:n0" in text and "#7" in text and "create /a" in text


class TestCommitIntegration:
    def test_commit_events_recorded(self):
        world = make_world()
        tracer = Tracer()
        world.region.tracer = tracer
        world.run(world.client.create("/app/f"))
        world.quiesce()
        commits = list(tracer.events(kind="commit"))
        assert len(commits) == 1
        assert "create /app/f" in commits[0].detail

    def test_barrier_events_recorded(self):
        world = make_world()
        tracer = Tracer()
        world.region.tracer = tracer
        world.run(world.client.readdir("/app"))
        barriers = list(tracer.events(kind="barrier"))
        assert len(barriers) == len(world.region.nodes)
        assert all("epoch 0 done" in ev.detail for ev in barriers)

    def test_traces_are_deterministic(self):
        def run_once():
            w = make_world(seed=55)
            tracer = Tracer()
            w.region.tracer = tracer
            w.run(w.client.mkdir("/app/d"))
            for i in range(5):
                w.run(w.client.create(f"/app/d/f{i}"))
            w.run(w.client.readdir("/app/d"))
            w.quiesce()
            return [ev.render() for ev in tracer.events()]

        assert run_once() == run_once()
