"""Exactness of the linked span records against paired-event reassembly.

The tracer links each :class:`~repro.sim.trace.Span` record under its
parent as it opens and derives the flat event view from the records.
Before that, every span was logged as a ``span.start``/``span.end`` (or
``op.start``/``op.end``) event pair and the trees were rebuilt from the
log at query time.  The oracles below are verbatim copies of that
reassembly (``_assemble_span_trees``, the pairing ``spans()``, the
``Span`` tree node, ``_attribute`` and ``render``); every emission
sequence must give the same trees, attributions, spans, counts and
rendered flat view under both.

Two differences are intended and left out of the generated sequences:
a span closed twice keeps its first close (the reassembly kept the
last), and a span whose name ends in whitespace keeps it (the encoded
``span.start`` detail was right-stripped).
"""

from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, Iterator, List, Optional, Tuple

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.sim.trace import ATTRIBUTION_BUCKETS, TraceEvent, Tracer


@dataclass
class OracleSpan:
    """One reassembled span; ``end`` is None while the span is open."""

    op_id: int
    span_id: int
    parent_id: Optional[int]
    actor: str
    category: str
    name: str
    start: float
    end: Optional[float] = None
    children: List["OracleSpan"] = field(default_factory=list)

    def walk(self) -> Iterator["OracleSpan"]:
        yield self
        for child in self.children:
            yield from child.walk()


def oracle_attribute(root: OracleSpan) -> Dict[str, Any]:
    """Bucket a completed root span's wall time (see Tracer.attribution)."""
    t0, t1 = root.start, root.end
    buckets = {name: 0.0 for name in ATTRIBUTION_BUCKETS}
    for span in root.walk():
        if span is root or span.category not in buckets:
            continue
        end = t1 if span.end is None else span.end
        overlap = min(end, t1) - max(span.start, t0)
        if overlap > 0:
            buckets[span.category] += overlap
    duration = t1 - t0
    residual = duration - sum(buckets.values())
    return {
        "op": root.name.split(" ", 1)[0] if root.name else "",
        "detail": root.name,
        "actor": root.actor,
        "start": t0,
        "duration": duration,
        "buckets": buckets,
        "residual": residual,
    }


def oracle_assemble(events: Iterable[TraceEvent]) -> Dict[int, OracleSpan]:
    """Build ``{op_id: root Span}`` from op and span events.

    Children attach to their ``parent_id`` span, or to the op's root when
    the parent is unknown; ops without an ``op.start`` have no tree.
    """
    roots: Dict[int, OracleSpan] = {}
    spans: Dict[int, Dict[int, OracleSpan]] = {}
    for ev in events:
        if ev.op_id is None:
            continue
        per_op = spans.setdefault(ev.op_id, {})
        if ev.kind == "op.start":
            root = OracleSpan(op_id=ev.op_id, span_id=ev.span_id or 0,
                              parent_id=None, actor=ev.actor, category="op",
                              name=ev.detail, start=ev.time)
            roots[ev.op_id] = root
            if ev.span_id is not None:
                per_op[ev.span_id] = root
        elif ev.kind == "op.end":
            root = roots.get(ev.op_id)
            if root is not None:
                root.end = ev.time
        elif ev.kind == "span.start" and ev.span_id is not None:
            parts = ev.detail.split(" ", 1)
            per_op[ev.span_id] = OracleSpan(
                op_id=ev.op_id, span_id=ev.span_id,
                parent_id=ev.parent_id, actor=ev.actor,
                category=parts[0] if parts else "",
                name=parts[1] if len(parts) > 1 else "",
                start=ev.time)
        elif ev.kind == "span.end" and ev.span_id in per_op:
            per_op[ev.span_id].end = ev.time
    for op_id, root in roots.items():
        per_op = spans.get(op_id, {})
        for span in per_op.values():
            if span is root:
                continue
            parent = (per_op.get(span.parent_id)
                      if span.parent_id is not None else None)
            (parent if parent is not None else root).children.append(span)
    return roots


class OracleTracer:
    """The paired-event log: emission, pairing, queries and render."""

    def __init__(self, capacity: int):
        self.capacity = capacity
        self._events: List[TraceEvent] = []
        self.dropped = 0
        self.enabled = True

    def emit(self, time: float, actor: str, kind: str, detail: str = "",
             op_id: Optional[int] = None, span_id: Optional[int] = None,
             parent_id: Optional[int] = None) -> None:
        if not self.enabled:
            return
        if len(self._events) >= self.capacity:
            self.dropped += 1
            return
        self._events.append(TraceEvent(time, actor, kind, detail, op_id,
                                       span_id, parent_id))

    def events(self, actor: Optional[str] = None,
               kind: Optional[str] = None,
               op_id: Optional[int] = None,
               since: float = 0.0,
               until: float = float("inf")) -> Iterator[TraceEvent]:
        for ev in self._events:
            if actor is not None and ev.actor != actor:
                continue
            if kind is not None and ev.kind != kind:
                continue
            if op_id is not None and ev.op_id != op_id:
                continue
            if not (since <= ev.time <= until):
                continue
            yield ev

    def spans(self) -> Dict[int, Tuple[float, Optional[float], str]]:
        starts: Dict[int, TraceEvent] = {}
        out: Dict[int, Tuple[float, Optional[float], str]] = {}
        for ev in self._events:
            if ev.op_id is None:
                continue
            if ev.kind == "op.start":
                starts[ev.op_id] = ev
            elif ev.kind == "op.end" and ev.op_id in starts:
                begin = starts.pop(ev.op_id)
                out[ev.op_id] = (begin.time, ev.time, begin.detail)
        for op_id, begin in starts.items():
            out[op_id] = (begin.time, None, begin.detail)
        return out

    def open_span_count(self) -> int:
        return sum(1 for _s, end, _d in self.spans().values() if end is None)

    def span_trees(self) -> Dict[int, OracleSpan]:
        return oracle_assemble(self._events)

    def span_tree(self, op_id: int) -> Optional[OracleSpan]:
        return oracle_assemble(
            ev for ev in self._events if ev.op_id == op_id).get(op_id)

    def attributions(self) -> Dict[int, Dict[str, Any]]:
        out: Dict[int, Dict[str, Any]] = {}
        for op_id, root in self.span_trees().items():
            if root.end is None:
                continue
            out[op_id] = oracle_attribute(root)
        return out

    def render(self, limit: int = 200, **filters: Any) -> str:
        lines = [ev.render() for ev in self.events(**filters)]
        clipped = len(lines) - limit
        lines = lines[:limit]
        if clipped > 0:
            lines.append(f"... {clipped} more events")
        open_spans = self.open_span_count()
        if open_spans > 0:
            lines.append(f"... {open_spans} spans still open")
        if self.dropped > 0:
            lines.append(f"... {self.dropped} events dropped"
                         f" (capacity {self.capacity})")
        return "\n".join(lines)

    def clear(self) -> None:
        self._events.clear()
        self.dropped = 0


CATEGORIES = ATTRIBUTION_BUCKETS + ("commit_queue", "svc_queue",
                                    "svc_service")
ACTORS = ("client:/app#0", "client:/app#1", "commitq:/app", "net", "mds0")
POINT_KINDS = ("commit", "barrier", "coalesce", "discard")

#: One emission step: (action, index, time step, actor, category, text).
#: ``index`` picks among the spans the action can apply to.
steps = st.lists(
    st.tuples(
        st.sampled_from(["root", "child", "child", "child", "close",
                         "close", "point", "toggle", "clear"]),
        st.integers(min_value=0, max_value=63),
        st.sampled_from([0.0, 0.0, 1e-6, 2.5e-6, 1e-5]),
        st.sampled_from(ACTORS),
        st.sampled_from(CATEGORIES),
        st.text(alphabet="ab /->0", max_size=6).map(str.rstrip),
    ),
    max_size=80)
capacities = st.one_of(st.integers(min_value=0, max_value=60),
                       st.just(1_000_000))


def _replay(program, capacity: int) -> Tuple[Tracer, OracleTracer]:
    """Drive both tracers through ``program``.

    The record tracer is driven through the span API; the oracle gets
    the event pairs the paired-event instrumentation emitted for the
    same calls (a root as ``op.start``/``op.end``, a child as
    ``span.start``/``span.end``).
    """
    tracer, oracle = Tracer(capacity=capacity), OracleTracer(capacity)
    now = 0.0
    opened = []   # spans whose start was emitted (logged or not)
    live = []     # of those, the ones not yet closed
    for action, index, step, actor, category, text in program:
        now += step
        if action == "root":
            span = tracer.root_context()
            tracer.span_start(now, actor, span, "op", text)
            oracle.emit(now, actor, "op.start", text, span.op_id,
                        span_id=span.span_id)
            opened.append(span)
            live.append(span)
        elif action == "child" and live:
            parent = live[index % len(live)]
            span = tracer.child_context(parent)
            tracer.span_start(now, actor, span, category, text)
            oracle.emit(now, actor, "span.start",
                        f"{category} {text}".rstrip(), span.op_id,
                        span.span_id, parent.span_id)
            opened.append(span)
            live.append(span)
        elif action == "close" and live:
            span = live.pop(index % len(live))
            if span.parent is None:
                tracer.span_end(now, span, text)
                oracle.emit(now, span.actor, "op.end", text, span.op_id,
                            span_id=span.span_id)
            else:
                tracer.span_end(now, span)
                oracle.emit(now, span.actor, "span.end", "", span.op_id,
                            span.span_id, span.parent.span_id)
        elif action == "point":
            op_id = opened[index % len(opened)].op_id if opened else None
            kind = POINT_KINDS[index % len(POINT_KINDS)]
            tracer.emit(now, actor, kind, text, op_id=op_id)
            oracle.emit(now, actor, kind, text, op_id=op_id)
        elif action == "toggle":
            tracer.enabled = oracle.enabled = not tracer.enabled
        elif action == "clear" and index % 4 == 0:
            tracer.clear()
            oracle.clear()
    return tracer, oracle


def _shape(span) -> Tuple:
    return (span.op_id, span.span_id, span.parent_id, span.actor,
            span.category, span.name, span.start, span.end,
            tuple(_shape(child) for child in span.children))


def _step(action: str, index: int = 0, actor: str = "net",
          category: str = "network", text: str = "") -> Tuple:
    return (action, index, 1e-6, actor, category, text)


#: A commit_queue span that outlives its op and gains a child from the
#: commit process after the op ended.
COMMIT_QUEUE_OUTLIVES_OP = [
    _step("root", actor="client:/app#0", text="create /a"),
    _step("child", 0, "commitq:/app", "commit_queue", "create /a"),
    _step("child", 0, "client:/app#0", "cache", "put"),
    _step("close", 2),
    _step("close", 0, text="create /a [ok]"),
    _step("child", 0, "mds0", "mds_service", "create"),
    _step("close", 1),
    _step("close", 0),
]
#: A middle span opened while the tracer was off: its child, opened with
#: the tracer back on, hangs on the op's root.
MIDDLE_SPAN_UNLOGGED = [
    _step("root", text="mkdir /d"),
    _step("toggle"),
    _step("child", 0, category="queue_wait"),
    _step("toggle"),
    _step("child", 1, category="cache"),
    _step("close", 2),
    _step("close", 0),
]


@settings(max_examples=500, deadline=None)
@given(steps, capacities)
@example(COMMIT_QUEUE_OUTLIVES_OP, 1_000_000)
@example(COMMIT_QUEUE_OUTLIVES_OP, 5)
@example(MIDDLE_SPAN_UNLOGGED, 1_000_000)
@example(MIDDLE_SPAN_UNLOGGED + [_step("clear")] + COMMIT_QUEUE_OUTLIVES_OP,
         9)
def test_linked_records_match_paired_event_reassembly(program, capacity):
    tracer, oracle = _replay(program, capacity)

    trees, expected = tracer.span_trees(), oracle.span_trees()
    assert list(trees) == list(expected)
    assert ({op: _shape(root) for op, root in trees.items()}
            == {op: _shape(root) for op, root in expected.items()})
    for op_id in expected:
        assert _shape(tracer.span_tree(op_id)) == _shape(
            oracle.span_tree(op_id))
        assert tracer.attribution(op_id) == (
            oracle.attributions().get(op_id))
    assert tracer.attributions() == oracle.attributions()
    assert tracer.spans() == oracle.spans()
    assert tracer.open_span_count() == oracle.open_span_count()
    assert len(tracer) == len(oracle._events)
    assert tracer.dropped == oracle.dropped

    assert list(tracer.events()) == list(oracle.events())
    assert tracer.render(limit=10**9) == oracle.render(limit=10**9)
    for limit in (0, 3, 200):
        assert tracer.render(limit=limit) == oracle.render(limit=limit)
    assert (tracer.render(limit=2, kind="span.end")
            == oracle.render(limit=2, kind="span.end"))
    assert (tracer.render(actor="net", since=1e-6, until=2e-5)
            == oracle.render(actor="net", since=1e-6, until=2e-5))
    some_op = next(iter(expected), None)
    assert (list(tracer.events(op_id=some_op))
            == list(oracle.events(op_id=some_op)))
