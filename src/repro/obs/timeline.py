"""The control-plane timeline: one sim-time-ordered event log per run.

Pacon's partial-consistency design makes *explaining* a degradation
window as important as detecting it: a staleness or backlog breach is
almost always downstream of some control-plane action — a chaos fault,
an autoscale grow/retire (or its failure), a membership change, a
backpressure stall.  Those layers each kept private records
(``FaultRecord``, ``AutoscaleAction``, ``membership_log``) and disjoint
``chaos.*``/``autoscale.*`` counters; nothing lined them up on one time
axis.

A :class:`Timeline` is that axis: an append-only, capacity-bounded log
of :class:`ControlEvent` records fed by the chaos engine, the
autoscaler, region membership, and the client publish path.  The
disabled hub discards every event and never allocates a Timeline (it
holds the shared :data:`NULL_TIMELINE`), so the zero-cost-when-off
guarantee of the rest of ``repro.obs`` holds here too (the tests prove
it by monkeypatching allocation to raise).

Events are recorded *when their outcome is known* but stamped with
their *start* time (a scale-up is recorded after the migration lands,
timestamped at the decision; a backpressure stall is recorded when it
drains, timestamped at its onset), so :meth:`Timeline.export` sorts by
``(time, seq)`` to restore simulation order.  Everything downstream —
the v4 ``timeline`` export section, the incident blame attributor
(:mod:`repro.obs.incidents`), the Perfetto control-plane tracks — reads
that sorted order, and same-seed runs produce byte-identical sections.

Event vocabulary (``source`` / ``kind``):

========== ==================== =========================================
source     kind                 meaning
========== ==================== =========================================
chaos      fault.injected       a scheduled fault fired (``ref`` pairs
                                the matching recovery)
chaos      fault.recovered      the fault's recovery completed
autoscale  scale.grow           controller grew the region (ok)
autoscale  scale.retire         controller retired a node (ok)
autoscale  scale.failed         a grow/retire raised; error in detail
autoscale  scale.rejected       decision suppressed (bounds, candidates)
membership node.joined          region membership grew (any path)
membership node.departed        region membership shrank (any path)
commit     backpressure.stall   a bounded commit queue stalled a client
========== ==================== =========================================

Every event is recorded through one call,
:meth:`repro.obs.hub.MetricsHub.control`, which appends it here and
applies :data:`CONTROL_METRICS`: the counters and the sketch each kind
feeds.  That table is the only place a control-plane metric is named.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

__all__ = ["ControlEvent", "Timeline", "NULL_TIMELINE", "CONTROL_METRICS",
           "control_metrics"]

#: kind -> (counter name templates, sketch name or "").  Templates take
#: ``{fault}``, the fault kind (the label before ``[``), and ``{cause}``,
#: the first word of the detail (``<grow|retire>:<ExcType>`` for a
#: failed scaling action).  Each counter counts one per event; the
#: sketch observes the event's ``duration``, or, for an event that
#: closes an earlier one (``ref``), the time since that event.
CONTROL_METRICS: Dict[str, Tuple[Tuple[str, ...], str]] = {
    "fault.injected": (("chaos.injected", "chaos.fault.{fault}"), ""),
    "fault.recovered": (("chaos.recovered",), "chaos.downtime"),
    "scale.grow": (("autoscale.scale_up",), "autoscale.action_latency"),
    "scale.retire": (("autoscale.scale_down",),
                     "autoscale.action_latency"),
    "scale.failed": (("autoscale.action_failed",
                      "autoscale.action_failed[{cause}]"),
                     "autoscale.action_latency"),
    "scale.rejected": (("autoscale.rejected",), ""),
    "backpressure.stall": (("commit.publish_stalls",),
                           "commit.publish_stall"),
    "node.joined": ((), ""),
    "node.departed": ((), ""),
}

#: Detail word of a failed grow whose node joined before the error: the
#: node is kept, so the event also counts as a scale-up.
JOINED = "joined"


def control_metrics(kind: str, label: str,
                    detail: str = "") -> Tuple[List[str], str]:
    """Counter names and sketch name one event of ``kind`` feeds."""
    counters, sketch = CONTROL_METRICS[kind]
    words = detail.split(" error=", 1)[0].split()
    fields = {"fault": label.split("[", 1)[0],
              "cause": words[0] if words else ""}
    names = [template.format(**fields) for template in counters]
    if kind == "scale.failed" and JOINED in words:
        names.append("autoscale.scale_up")
    return names, sketch


@dataclass(frozen=True)
class ControlEvent:
    """One control-plane event.

    ``duration`` is the event's own extent where it has one (a stall's
    length, a scaling action's latency); interval faults instead pair a
    point ``fault.injected`` with a ``fault.recovered`` whose ``ref``
    names the injection's ``seq``.
    """

    seq: int
    time: float
    source: str        # chaos | autoscale | membership | commit
    kind: str          # see module docstring vocabulary
    label: str         # target label, e.g. "mds_crash[0]" or a node name
    detail: str = ""
    duration: float = 0.0
    ref: int = -1      # seq of the paired opening event; -1 = none

    def to_doc(self) -> Dict[str, Any]:
        return {
            "seq": self.seq,
            "t": self.time,
            "source": self.source,
            "kind": self.kind,
            "label": self.label,
            "detail": self.detail,
            "duration": self.duration,
            "ref": self.ref,
        }


class Timeline:
    """Append-only control-plane event log with a capacity backstop."""

    def __init__(self, capacity: int = 100_000):
        self.capacity = capacity
        self._events: List[ControlEvent] = []
        self.dropped = 0
        self._next_seq = 0

    # -- recording (through MetricsHub.control) ----------------------------
    def record(self, time: float, source: str, kind: str, label: str,
               detail: str = "", duration: float = 0.0,
               ref: int = -1) -> int:
        """Append one event; returns its ``seq`` (for pairing), -1 if
        dropped at capacity."""
        if len(self._events) >= self.capacity:
            self.dropped += 1
            return -1
        self._next_seq += 1
        self._events.append(ControlEvent(
            seq=self._next_seq, time=time, source=source, kind=kind,
            label=label, detail=detail, duration=duration, ref=ref))
        return self._next_seq

    # -- queries -----------------------------------------------------------
    def time_of(self, seq: int) -> Optional[float]:
        """Time of held event ``seq``; None once dropped or cleared.

        Held events carry consecutive seqs, so this is an index lookup.
        """
        if self._events:
            idx = seq - self._events[0].seq
            if 0 <= idx < len(self._events):
                return self._events[idx].time
        return None

    def __len__(self) -> int:
        return len(self._events)

    def events(self) -> List[ControlEvent]:
        """All events in simulation order (``(time, seq)``-sorted)."""
        return sorted(self._events, key=lambda ev: (ev.time, ev.seq))

    def export(self) -> Dict[str, Any]:
        """The v4 ``timeline`` section: stable-ordered event dicts."""
        return {
            "count": len(self._events),
            "dropped": self.dropped,
            "events": [ev.to_doc() for ev in self.events()],
        }

    def clear(self) -> None:
        self._events.clear()
        self.dropped = 0


class _NullTimeline(Timeline):
    """Shared disabled timeline; ``record`` discards everything."""

    def __init__(self):
        super().__init__(capacity=0)

    def record(self, *a, **kw) -> int:  # pragma: no cover - trivial
        return -1


NULL_TIMELINE = _NullTimeline()
