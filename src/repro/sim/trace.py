"""Structured operation tracing for experiment debugging.

A :class:`Tracer` collects timestamped, typed events from any actor that
chooses to emit them (clients, commit processes, servers).  It is *off* by
default — nothing in the hot path touches it unless a tracer is installed
— and exists for the workflows a reproduction keeps needing:

* "why did this op take 3 ms?" → dump the span tree for one op id
  (``pacon-bench profile`` and :meth:`Tracer.span_tree`),
* "what did the commit process do between the barrier and the rmdir?" →
  filter by actor and time window (``pacon-bench trace --since --until``),
* regression diffing: two runs with the same seed produce identical traces,
  so ``diff`` localizes a behavior change to the first divergent event.

Beyond flat events, the tracer understands **causal spans**: every client
operation opens a root span, and each child stage it exercises — cache KV
service, network transfers, service worker queues, barrier rendezvous,
commit-queue residency — opens a child span under it.  Each span is one
:class:`Span` record, also the context its children are made from, linked
under its parent as it opens: the trees need no reassembly.  The log holds
the records (at open and at close) among plain :class:`TraceEvent` point
events, and :meth:`Tracer.events` derives the flat ``op.*``/``span.*``
view from them.  :meth:`Tracer.attribution` walks the client critical
path, bucketing the op's wall time into the :data:`ATTRIBUTION_BUCKETS`
with an explicit residual.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import islice
from typing import Any, Dict, Iterator, List, Optional, Tuple

__all__ = ["TraceEvent", "Tracer", "NULL_TRACER", "Span",
           "ATTRIBUTION_BUCKETS"]

#: Latency-attribution buckets for one client operation's wall time.
#: Anything not covered (client CPU charges, permission checks, DFS data
#: I/O, ...) lands in the reported residual — never silently hidden.
ATTRIBUTION_BUCKETS = ("cache", "network", "queue_wait", "barrier",
                       "publish_stall", "mds_service", "mds_queue")


@dataclass(frozen=True)
class TraceEvent:
    """One timestamped event."""

    time: float
    actor: str
    kind: str          # e.g. "op.start", "op.end", "span.start", "commit"
    detail: str = ""
    op_id: Optional[int] = None
    span_id: Optional[int] = None
    parent_id: Optional[int] = None

    def render(self) -> str:
        tag = f"#{self.op_id}" if self.op_id is not None else ""
        return (f"{self.time * 1e6:12.2f}us {self.actor:<24}"
                f" {self.kind:<12} {tag:<8} {self.detail}")


class Span:
    """One span: its causal identity and its node in the op's tree.

    :meth:`Tracer.span_start` fills it in and appends it to its parent's
    ``children`` (a root has no ``parent``); :meth:`Tracer.span_end` sets
    ``end`` (None while open) and the close ``detail``.  ``seq`` is the
    absolute log position of the start, -1 until it is logged.
    """

    __slots__ = ("op_id", "span_id", "parent", "actor", "category", "name",
                 "start", "end", "detail", "seq", "children")

    def __init__(self, op_id: int, span_id: int,
                 parent: Optional["Span"] = None):
        self.op_id = op_id
        self.span_id = span_id
        self.parent = parent
        self.actor = self.category = self.name = self.detail = ""
        self.start = 0.0
        self.end: Optional[float] = None
        self.seq = -1
        #: In start order; an empty tuple until the first child opens.
        self.children: Any = ()

    @property
    def parent_id(self) -> Optional[int]:
        return None if self.parent is None else self.parent.span_id

    @property
    def duration(self) -> Optional[float]:
        return None if self.end is None else self.end - self.start

    def walk(self) -> Iterator["Span"]:
        """This span and its descendants, depth first in start order."""
        stack = [self]
        while stack:
            span = stack.pop()
            yield span
            stack.extend(reversed(span.children))

    def render(self, indent: int = 0) -> str:
        dur = ("open" if self.end is None
               else f"{(self.end - self.start) * 1e6:.2f}us")
        lines = [f"{'  ' * indent}{self.category}:{self.name}"
                 f" [{dur}] ({self.actor})"]
        for child in self.children:
            lines.append(child.render(indent + 1))
        return "\n".join(lines)

    def event(self, opening: bool) -> TraceEvent:
        """The flat start (``opening``) or end event: ``op.*`` on a root."""
        kind = "op" if self.parent is None else "span"
        if not opening:
            return TraceEvent(self.end, self.actor, f"{kind}.end",
                              self.detail, self.op_id, self.span_id,
                              self.parent_id)
        detail = (self.name if self.parent is None
                  else f"{self.category} {self.name}".rstrip())
        return TraceEvent(self.start, self.actor, f"{kind}.start", detail,
                          self.op_id, self.span_id, self.parent_id)


class Tracer:
    """Append-only, filterable event log of point events and span records."""

    def __init__(self, capacity: int = 1_000_000):
        self.capacity = capacity
        #: Emission order: a :class:`Span` at its open and its close,
        #: point events as :class:`TraceEvent`.
        self._log: List[Any] = []
        self.dropped = 0
        #: Events cleared before ``_log[0]`` (see :attr:`Span.seq`).
        self._base = 0
        #: Roots whose start is logged, by op_id, and how many are open.
        self._roots: Dict[int, Span] = {}
        self._open_ops = 0
        self._next_op_id = 0
        self._next_span_id = 0
        self.enabled = True
        #: Per-process stacks of in-flight spans.  Child stages running
        #: inside the same DES process (cache RPCs, network transfers)
        #: look their parent up here; cross-process stages (commit
        #: drain) carry the span on their messages instead.
        self._ctx: Dict[Any, List[Span]] = {}

    # -- emission ----------------------------------------------------------
    def emit(self, time: float, actor: str, kind: str, detail: str = "",
             op_id: Optional[int] = None, span_id: Optional[int] = None,
             parent_id: Optional[int] = None) -> None:
        """Log one point event (spans go through :meth:`span_start`)."""
        if not self.enabled:
            return
        if len(self._log) >= self.capacity:
            self.dropped += 1
            return
        self._log.append(TraceEvent(time, actor, kind, detail, op_id,
                                    span_id, parent_id))

    # -- spans -------------------------------------------------------------
    def root_context(self) -> Span:
        """A fresh root span for one client operation."""
        self._next_op_id += 1
        self._next_span_id += 1
        return Span(self._next_op_id, self._next_span_id)

    def child_context(self, parent: Span) -> Span:
        """A fresh span under ``parent`` (opened by :meth:`span_start`)."""
        self._next_span_id += 1
        return Span(parent.op_id, self._next_span_id, parent)

    def push_context(self, process: Any, span: Span) -> None:
        self._ctx.setdefault(process, []).append(span)

    def pop_context(self, process: Any, span: Span) -> None:
        stack = self._ctx.get(process)
        if stack and stack[-1] is span:
            stack.pop()
        if not stack:
            self._ctx.pop(process, None)

    def current_context(self, process: Any) -> Optional[Span]:
        stack = self._ctx.get(process)
        return stack[-1] if stack else None

    def span_start(self, time: float, actor: str, span: Span,
                   category: str, name: str = "") -> None:
        """Open ``span`` and link it under its parent (a root: the op)."""
        if not self.enabled:
            return
        log = self._log
        if len(log) >= self.capacity:
            self.dropped += 1
            return
        span.actor = actor
        span.category = category
        span.name = name
        span.start = time
        span.seq = self._base + len(log)
        log.append(span)
        parent = span.parent
        if parent is None:
            self._roots[span.op_id] = span
            self._open_ops += 1
            return
        if parent.seq < self._base:
            # The parent's start is not in the log (tracer switched off
            # or cleared meanwhile): hang the span on its op's root.
            while parent.parent is not None:
                parent = parent.parent
        if parent.children:
            parent.children.append(span)
        else:
            parent.children = [span]

    def span_end(self, time: float, span: Span, detail: str = "") -> None:
        """Close ``span``; a root's ``detail`` tags its ``op.end``."""
        if not self.enabled:
            return
        log = self._log
        if len(log) >= self.capacity:
            self.dropped += 1
            return
        if span.end is not None:  # the record keeps its first close
            log.append(replace(span.event(False), time=time, detail=detail))
            return
        span.end = time
        span.detail = detail
        log.append(span)
        if span.parent is None and span.seq >= self._base:
            self._open_ops -= 1

    # -- queries --------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._log)

    def events(self, actor: Optional[str] = None,
               kind: Optional[str] = None,
               op_id: Optional[int] = None,
               since: float = 0.0,
               until: float = float("inf")) -> Iterator[TraceEvent]:
        """The flat event view, in emission order, built as it is read."""
        seq = self._base
        for entry in self._log:
            ev = (entry if isinstance(entry, TraceEvent)
                  else entry.event(entry.seq == seq))
            seq += 1
            if actor is not None and ev.actor != actor:
                continue
            if kind is not None and ev.kind != kind:
                continue
            if op_id is not None and ev.op_id != op_id:
                continue
            if not (since <= ev.time <= until):
                continue
            yield ev

    def point_events(self) -> Iterator[TraceEvent]:
        """The logged plain events (not span opens/closes), in order."""
        return (entry for entry in self._log
                if isinstance(entry, TraceEvent))

    def spans(self) -> Dict[int, Tuple[float, Optional[float], str]]:
        """op_id -> (start, end, detail) for every op; ``end`` is None
        while it is open (hung or in flight), not silently dropped."""
        return {op_id: (root.start, root.end, root.name)
                for op_id, root in self._roots.items()}

    def open_span_count(self) -> int:
        """Number of op spans started but not yet ended (hung ops)."""
        return self._open_ops

    # -- span trees and latency attribution ------------------------------------
    def span_trees(self) -> Dict[int, Span]:
        """``{op_id: root Span}``; a root is open (``end is None``) until
        its op completes, and a span dropped at capacity is in no tree."""
        return dict(self._roots)

    def attributions(self) -> Dict[int, Dict[str, Any]]:
        """Latency attribution for every *completed* op, keyed by op_id."""
        return {op_id: _attribute(root)
                for op_id, root in self._roots.items()
                if root.end is not None}

    def span_tree(self, op_id: int) -> Optional[Span]:
        """The op's root :class:`Span`, or None if its start is not logged."""
        return self._roots.get(op_id)

    def attribution(self, op_id: int) -> Optional[Dict[str, Any]]:
        """Critical-path wall-time decomposition for one completed op.

        Walks the op's span tree, clips every stage span to the client
        span's ``[start, end]`` window (stages that resolved after the op
        returned — e.g. the asynchronous commit — contribute nothing to
        the *client-visible* latency), and sums the in-window time per
        :data:`ATTRIBUTION_BUCKETS` category.  The residual
        (``duration - sum(buckets)``: client CPU charges, permission
        checks, uncategorized stages) is reported explicitly, never
        hidden.  Returns None for ops that never completed.
        """
        root = self._roots.get(op_id)
        if root is None or root.end is None:
            return None
        return _attribute(root)

    def render(self, limit: int = 200, **filters: Any) -> str:
        """The first ``limit`` matching events; the rest are only counted."""
        matched = self.events(**filters)
        lines = [ev.render() for ev in islice(matched, max(limit, 0))]
        clipped = sum(1 for _ev in matched)
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
        self._base += len(self._log)
        self._log.clear()
        self._roots.clear()
        self._open_ops = 0
        self.dropped = 0
        self._ctx.clear()


def _attribute(root: Span) -> Dict[str, Any]:
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


class _NullTracer(Tracer):
    """Shared no-op tracer: disabled, so it discards everything."""

    def __init__(self):
        super().__init__(capacity=0)
        self.enabled = False


NULL_TRACER = _NullTracer()
