"""FIFO pub/sub queues with close semantics and a per-node group.

Semantics mirrored from ZeroMQ push/pull sockets as Pacon uses them:

* publishes never block (unbounded buffering),
* a single subscriber drains in FIFO order,
* closing wakes blocked subscribers with :class:`QueueClosed` so commit
  processes can shut down cleanly at the end of an application run.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Dict, Iterable, List

from repro.sim.core import Environment, Event
from repro.sim.resources import Store

__all__ = ["MessageQueue", "QueueGroup", "QueueClosed"]


class QueueClosed(Exception):
    """Raised from a pending or subsequent ``get`` once the queue closes."""


class MessageQueue(Store):
    """A single-subscriber FIFO message channel.

    A :class:`~repro.sim.resources.Store` with close semantics and
    delivery accounting.  A message counts as delivered when it is handed
    to a subscriber: at ``get``/``get_batch`` time when buffered, or at
    publish time when a subscriber is already blocked waiting for it.
    """

    def __init__(self, env: Environment, name: str = ""):
        super().__init__(env, name=name)
        self._closed = False
        self.published = 0
        self.delivered = 0
        #: High-water mark of the backlog; updated on publish so the
        #: observability export can report worst-case queueing without a
        #: sampler catching the exact instant.
        self.peak_depth = 0
        #: Aggregate publish→delivery residency (simulated seconds) over
        #: all delivered messages; FIFO order lets one stamp deque pair
        #: deliveries with the publish instants of buffered messages.
        self.total_wait_time = 0.0
        self._publish_times: Deque[float] = deque()

    @property
    def closed(self) -> bool:
        return self._closed

    def publish(self, message: Any) -> None:
        if self._closed:
            raise QueueClosed(f"publish on closed queue {self.name!r}")
        self.published += 1
        if self._getters:
            # Handed straight to the blocked subscriber: zero residency.
            self.delivered += 1
        else:
            self._publish_times.append(self.env.now)
        self.put(message)
        depth = len(self._items)
        if depth > self.peak_depth:
            self.peak_depth = depth

    def _note_delivered(self, count: int = 1) -> None:
        self.delivered += count
        now = self.env.now
        for _ in range(count):
            self.total_wait_time += now - self._publish_times.popleft()

    def get(self) -> Event:
        """Event that fires with the next message (or fails QueueClosed)."""
        if self._closed and not self._items:
            ev = self.env.event(name=f"get-closed:{self.name}")
            ev.fail(QueueClosed(self.name))
            return ev
        ev = super().get()
        if ev.triggered:
            self._note_delivered()
        return ev

    @property
    def waiting_getters(self) -> int:
        """Number of subscribers currently blocked in :meth:`get`."""
        return len(self._getters)

    def _cancel_get(self, ev: Event) -> bool:
        """Cancel hook (see :func:`repro.sim.core.cancel_wait`).

        Either unregisters a blocked getter, or — when the message was
        already handed to the event but the getter will never resume —
        pushes it back to the head of the queue so it is redelivered
        instead of silently lost.  The pushed-back message is no longer
        delivered and gets a fresh publish stamp at the cancel instant,
        keeping the stamp deque paired one-to-one with buffered messages
        (wait-time accounting treats the redelivery as a new publish).
        A get handed its message by a publish is cancelled at that
        publish instant, so its stamp is its publish stamp.
        """
        if not super()._cancel_get(ev):
            return False
        if ev.triggered:
            self._publish_times.appendleft(self.env.now)
            self.delivered -= 1
        return True

    def get_batch(self, max_items: int) -> List[Any]:
        """Take up to ``max_items`` already-buffered messages, non-blocking.

        Complements :meth:`get`: a batch consumer blocks on ``get`` for the
        first message, then drains the rest of its batch in one step with
        no further event round trips.  Returns an empty list when nothing
        is buffered (including on a closed queue — close keeps buffered
        messages readable, and there is nothing to fail here).
        """
        out = super().get_batch(max_items)
        self._note_delivered(len(out))
        return out

    #: The oldest undelivered message without removing it, or None.
    peek_head = Store.peek
    #: Snapshot of undelivered messages (inspection only).
    backlog = Store.peek_all

    def close(self) -> None:
        """Close the queue; buffered messages remain readable."""
        if self._closed:
            return
        self._closed = True
        getters = list(self._getters)
        self._getters.clear()
        for ev in getters:
            ev.fail(QueueClosed(self.name))

    def drain(self) -> List[Any]:
        """Remove and return all undelivered messages (failure injection)."""
        self._publish_times.clear()
        return super().drain()


class QueueGroup:
    """One queue per node, plus region-wide broadcast.

    ``route(node)`` gives the queue a client on ``node`` publishes to (its
    local commit process's queue).  ``broadcast`` pushes a control message
    — e.g. the barrier messages of §III.E — to every queue in the group.
    """

    def __init__(self, env: Environment, name: str = ""):
        self.env = env
        self.name = name
        self._queues: Dict[Any, MessageQueue] = {}

    def add_node(self, node_key: Any) -> MessageQueue:
        if node_key in self._queues:
            raise ValueError(f"queue already exists for {node_key!r}")
        q = MessageQueue(self.env, name=f"{self.name}[{node_key}]")
        self._queues[node_key] = q
        return q

    def remove_node(self, node_key: Any) -> MessageQueue:
        """Detach and return the queue for ``node_key``.

        The queue is removed from the group *before* the caller closes it
        so a region-wide broadcast never trips over a closed member.
        """
        try:
            return self._queues.pop(node_key)
        except KeyError:
            raise KeyError(f"no queue for node {node_key!r}") from None

    def route(self, node_key: Any) -> MessageQueue:
        try:
            return self._queues[node_key]
        except KeyError:
            raise KeyError(f"no queue for node {node_key!r}") from None

    def queues(self) -> Iterable[MessageQueue]:
        return self._queues.values()

    def __len__(self) -> int:
        return len(self._queues)

    def broadcast(self, message: Any) -> int:
        """Publish ``message`` to every queue; returns the fan-out count.

        All-or-nothing: closure is checked up front so a queue closed
        mid-group can never absorb a *partial* broadcast.  A half-delivered
        control message (e.g. a §III.E barrier) would leave some commit
        processes waiting for a region-wide rendezvous that can never
        complete; raising before anything is published keeps the group
        consistent.
        """
        closed = [q.name for q in self._queues.values() if q.closed]
        if closed:
            raise QueueClosed(
                f"broadcast into closed queue(s) {closed!r};"
                " nothing was published")
        for q in self._queues.values():
            q.publish(message)
        return len(self._queues)

    def close_all(self) -> None:
        for q in self._queues.values():
            q.close()

    def total_backlog(self) -> int:
        return sum(len(q) for q in self._queues.values())

    def depths(self) -> Dict[Any, int]:
        """Current backlog per node key (observability snapshot)."""
        return {key: len(q) for key, q in self._queues.items()}
