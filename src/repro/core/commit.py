"""Metadata operation commit (§III.D.1, §III.E).

Every metadata update in Pacon is two sub-operations: apply to the
distributed cache (done by the client), then apply to the DFS — done here.
Each region node runs one :class:`CommitProcess` (the subscriber of the
paper's Fig. 5) that drains its node's commit queue and applies operations
through an ordinary DFS client.

Commit disciplines:

* **Independent commit** — create/mkdir/rm need no temporal order, only the
  namespace conventions, which the DFS itself enforces by rejecting
  violations.  A rejected operation (e.g. parent not created yet because
  its creation sits in another node's queue) is simply *resubmitted* until
  it succeeds.  The §III.E proof that any such interleaving converges to
  the same namespace is exercised by
  ``tests/properties/test_commit_equivalence.py``.
* **Barrier commit** — rmdir/readdir must see all earlier operations
  committed.  Clients stamp every operation with a barrier epoch; a
  dependent operation broadcasts one barrier message per client into every
  node's queue and bumps the epoch.  A commit process that has drained all
  its local epoch-``e`` work arrives at a region-wide barrier; when the
  last process arrives, epoch ``e`` is globally committed and the waiting
  client proceeds.

One special rule from the paper: creations inside a directory removed by a
committed rmdir are *discarded*, not retried (they can never satisfy the
namespace conventions again).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Any, Deque, Dict, Generator, List, Optional, Tuple

from repro.dfs.errors import (
    FileExists,
    FileNotFound,
    NotADirectory,
)
from repro.dfs.namespace import parent_of
from repro.mq.queue import QueueClosed
from repro.sim.core import Event, cancel_wait
from repro.sim.network import NodeDownError
from repro.sim.trace import Span

__all__ = ["OpMessage", "BarrierMessage", "CommitProcess", "CommitStalled"]

#: Operations committed independently (non-dependent type).
INDEPENDENT_OPS = ("create", "mkdir", "rm")


class CommitStalled(RuntimeError):
    """An operation exceeded the resubmission cap — indicates a logic bug,
    since under the namespace conventions every operation eventually
    becomes committable."""


@dataclass
class OpMessage:
    """One queued metadata mutation (paper: path + op info + timestamp)."""

    op: str                      # create | mkdir | rm
    path: str
    mode: int = 0o644
    uid: int = 1000
    gid: int = 1000
    timestamp: float = 0.0
    epoch: int = 0
    client_id: int = -1
    retries: int = 0
    #: Times this op was re-queued after a transient transport failure
    #: (MDS down mid-commit); distinct from ``retries`` which counts
    #: namespace-convention rejections.
    replays: int = 0
    #: Generation tag: the provisional ino of the cache record this
    #: operation belongs to.  A name can be created, removed, and
    #: recreated; post-commit cache bookkeeping must only touch its own
    #: generation, or a late rm commit would delete the *new* file's
    #: record (and a late create commit would mark it committed).
    gen_ino: int = -1
    #: The ``commit_queue`` span carried across the queue (observability
    #: only): the client opens it at publish; the commit process closes
    #: it at commit/discard/coalesce and parents its own DFS/MDS spans
    #: under it.  None when tracing is off.
    span: Optional[Span] = None
    #: Logical operations this message stands for (the publishing
    #: client's ``multiplier``); consistency metrics weight by it so
    #: aggregate and faithful runs agree at matched logical scale.
    weight: int = 1

    @property
    def op_id(self) -> Optional[int]:
        """The traced op's id (tags commit/discard events); None if off."""
        return None if self.span is None else self.span.op_id

    def __post_init__(self) -> None:
        if self.op not in INDEPENDENT_OPS:
            raise ValueError(f"only independent ops ride the queue, got"
                             f" {self.op!r}")


@dataclass
class BarrierMessage:
    """Barrier marker: 'everything this client did in `epoch` is queued'."""

    epoch: int
    node_id: int
    #: Publish instant.  Stamped like OpMessage.timestamp so a queue's
    #: head message always lower-bounds the age of its whole backlog
    #: (publish stamps are monotone) — the removed-subtree pruner keys
    #: off that bound.
    timestamp: float = 0.0


class CommitProcess:
    """Per-node subscriber that applies queued operations to the DFS."""

    MAX_RETRIES = 10_000

    def __init__(self, region, node, dfs_client):
        self.region = region
        self.node = node
        self.env = region.env
        self.costs = region.cluster.costs
        self.queue = region.queues.route(node.node_id)
        self.dfs_client = dfs_client
        # Join at the region's current epoch: a process added by elastic
        # growth (after quiesce) must not wait for barrier epochs that
        # completed before it existed.
        self.current_epoch = region.client_epoch
        self._barrier_counts: Dict[int, int] = {}
        self._pending: Deque[OpMessage] = deque()      # current-epoch retries
        self._future: Dict[int, List[Any]] = {}        # epoch -> held msgs
        # Batched draining (§III.E stays intact: barrier messages cut
        # batches, resubmission and the discard rule are per-op).
        self.batch_size = max(1, region.config.commit_batch_size)
        self.coalesce_enabled = region.config.commit_coalesce
        # stats
        self.committed = 0
        self.discarded = 0
        self.resubmissions = 0
        self.coalesced = 0
        self.barriers_passed = 0
        self.replays = 0
        self.aborts = 0
        self._process = None
        #: The drain record: every op taken from the queue (or from
        #: ``_pending``/``_future``) in the current wakeup, keyed by
        #: ``id(op)`` and marked open (True) until it is committed,
        #: discarded or coalesced.  Ops handed on to ``_pending`` or
        #: ``_future`` leave it early — those are scanned anyway.  The
        #: record is cleared when the drain ends; ``idle``, the prune
        #: cutoff and the crash-time loss count all read it.
        self._drained: Dict[int, Tuple[OpMessage, bool]] = {}
        #: Set by failure injection; the interrupt that actually stops the
        #: loop is delivered on the next simulation step, so recovery code
        #: keys off this flag rather than the process's alive state.
        self.killed = False
        self.region.commit_processes.append(self)

    # -- lifecycle ---------------------------------------------------------
    def start(self):
        """Spawn the commit loop as a DES process; returns the Process."""
        self._process = self.env.process(
            self.run(), label=f"commit:{self.region.name}:{self.node.name}")
        return self._process

    @property
    def idle(self) -> bool:
        """No queued, held, retrying, or in-flight work."""
        return (len(self.queue) == 0 and not self._pending
                and not any(self._future.values())
                and not self._drained)

    @property
    def alive(self) -> bool:
        """True while the commit loop's DES process is running."""
        return self._process is not None and self._process.is_alive

    @property
    def dead(self) -> bool:
        """Crashed and not (yet) restarted.

        A dead process will never drain its queue again — messages that
        land there after the crash (barrier broadcasts, racing publishes)
        sit until :func:`repro.core.failure.recover_node` restarts the
        loop.  Quiescing must skip such processes or it waits forever on
        work that recovery, not draining, is responsible for.  A loop
        that exited *cleanly* (queue closed and drained) is not dead —
        it is simply finished, and trivially idle.
        """
        if self.killed:
            return True
        return (self._process is not None and not self._process.is_alive
                and not self.queue.closed)

    def abort(self, reason: str = "abort") -> Dict[str, int]:
        """Drop all unresolved work and stop the loop; return loss counts.

        This is the crash path (§III.G): in-flight, retrying, and
        held-for-future-epoch operations are destroyed, the commit loop
        is interrupted, and the counts of what was lost are returned so
        failure injection can account for them exactly.  The loop's wait
        (queue get, barrier arrival, MDS worker slot, ...) is cancelled
        first so no waiter registration or granted-but-unconsumed
        resource slot leaks past the crash.
        """
        counts = self._drop_unresolved()
        self.aborts += 1
        if self.region.hub.enabled:
            self.region.hub.count("commit.aborts")
        proc = self._process
        if proc is not None and proc.is_alive:
            self.killed = True
            cancel_wait(proc.waiting_on)
            proc.interrupt(reason)
        return counts

    def _drop_unresolved(self) -> Dict[str, int]:
        """Forget every unresolved op and return the loss counts.

        Only *open* ops of the current drain are lost in flight: one that
        was already committed, discarded or coalesced is accounted for,
        and one handed on to ``_pending``/``_future`` is counted there.
        With a hub attached the version-lag ledger is reconciled exactly
        once per lost op, or post-fault staleness never drains.
        """
        in_flight = [op for op, open_ in self._drained.values() if open_]
        future = [op for held in self._future.values() for op in held]
        if self.region.hub.enabled:
            for op in in_flight + list(self._pending) + future:
                self.region.note_op_resolved(op.path)
        counts = {"in_flight": len(in_flight),
                  "pending": len(self._pending),
                  "future": len(future)}
        counts["total"] = sum(counts.values())
        self._drained.clear()
        self._pending.clear()
        self._future.clear()
        self._barrier_counts.clear()
        return counts

    def oldest_outstanding_timestamp(self) -> Optional[float]:
        """Oldest publish timestamp among this process's unresolved ops
        (retrying, held for a future epoch, or in the current drain —
        resolved ones included until the drain ends); None if none."""
        stamps = [op.timestamp for op, _ in self._drained.values()]
        stamps.extend(op.timestamp for op in self._pending)
        for held in self._future.values():
            stamps.extend(op.timestamp for op in held)
        return min(stamps) if stamps else None

    def _resolve(self, op: OpMessage) -> None:
        """The op left the pipeline (committed, discarded or coalesced)."""
        self._drained[id(op)] = (op, False)
        if self.region.hub.enabled:
            self.region.note_op_resolved(op.path)

    # -- main loop -----------------------------------------------------------
    def run(self) -> Generator[Event, Any, None]:
        """Commit loop; dies cleanly (dropping state) on node failure."""
        from repro.sim.core import Interrupt

        try:
            yield from self._loop()
        except Interrupt:
            # Node crash (§III.G): whatever was queued or in flight here is
            # lost; isolation means only this region is affected.  After an
            # abort() there is nothing left to drop, so the ledger
            # reconciliation cannot double-resolve.
            self._drop_unresolved()

    def _loop(self) -> Generator[Event, Any, None]:
        from repro.sim.core import Interrupt

        closing = False
        while True:
            # Backstop for a swallowed kill: if abort() flagged this loop
            # dead but its Interrupt got absorbed downstream (e.g. caught
            # mid-RPC and replaced by a network error), stop here rather
            # than run on as a zombie corrupting in-flight accounting.
            if self.killed:
                raise Interrupt("aborted")
            # Barrier: local epoch fully drained -> rendezvous region-wide.
            if (self._barrier_counts.get(self.current_epoch, 0)
                    >= self.region.expected_barrier_messages(
                        self.node.node_id)
                    and not self._pending):
                epoch = self.current_epoch
                wait_started = self.env.now
                gen = yield self.region.commit_barrier.arrive()
                # All commit processes have drained this epoch.
                self.region.signal_barrier_complete(gen)
                self._barrier_counts.pop(epoch, None)
                self.current_epoch += 1
                self.barriers_passed += 1
                self.region.tracer.emit(self.env.now,
                                        f"commit:{self.node.name}",
                                        "barrier", f"epoch {epoch} done")
                hub = self.region.hub
                if hub.enabled:
                    # Stall between local drain and region-wide release.
                    hub.observe("commit.barrier_wait",
                                self.env.now - wait_started)
                    hub.count("commit.barriers_passed")
                # An epoch boundary is a natural low-water mark: every op
                # older than the epoch has committed region-wide, so stale
                # removed-subtree entries can go.
                self.region.prune_removed_subtrees()
                # Release operations held for the new epoch, one drain
                # each.  They stay in ``_future`` until drained, so a
                # crash mid-release still counts the rest as lost.
                released = self.current_epoch
                while self._future.get(released):
                    yield from self._drain([self._future[released].pop(0)])
                self._future.pop(released, None)
                continue

            if len(self.queue) > 0 or (not self._pending and not closing):
                try:
                    msg = yield self.queue.get()
                except QueueClosed:
                    closing = True
                    continue
                msgs = [msg]
                msgs.extend(self.queue.get_batch(self.batch_size - 1))
                yield from self._drain(msgs, batched=self.batch_size > 1)
            elif self._pending:
                # Nothing new; give blocked dependencies a beat, then retry.
                yield self.env.timeout(
                    self.region.config.commit_retry_delay)
                yield from self._drain([self._pending.popleft()])
            else:
                # closing and fully drained
                return

    def _drain(self, msgs: List[Any],
               batched: bool = False) -> Generator[Event, Any, None]:
        """Resolve one wakeup's worth of drained messages.

        A batched drain (the main loop at ``commit_batch_size > 1``) pays
        the queue-pop overhead once for the whole drain — that is the
        amortization batching buys on the queue side.  Any other drain
        holds one message (batch size 1, a retry, or an op released at an
        epoch boundary) and pays the pop only if that message is an op
        committed now: a barrier marker or a future-epoch op is free.
        Barrier messages cut the drain into segments: operations on
        either side of a barrier marker never share a coalescing window
        or an MDS batch, preserving the §III.E epoch discipline.

        Every drained op sits in the drain record from the moment it
        leaves the queue until the drain ends — ``Region.quiesce`` must
        never observe a lull while drained work sits in a local variable
        here.
        """
        drained = self._drained
        for msg in msgs:
            if isinstance(msg, OpMessage):
                drained[id(msg)] = (msg, True)
        pop = self.costs.commit_queue_pop
        try:
            if batched:
                if pop > 0:
                    yield self.env.timeout(pop)
                if self.region.hub.enabled:
                    self.region.hub.observe("commit.batch_size", len(msgs))
            segment: List[OpMessage] = []
            for msg in msgs:
                if isinstance(msg, BarrierMessage):
                    yield from self._commit_segment(segment)
                    segment = []
                    self._barrier_counts[msg.epoch] = \
                        self._barrier_counts.get(msg.epoch, 0) + 1
                elif msg.epoch > self.current_epoch:
                    self._future.setdefault(msg.epoch, []).append(msg)
                    drained.pop(id(msg), None)
                else:
                    segment.append(msg)
            if segment and not batched and pop > 0:
                yield self.env.timeout(pop)
            yield from self._commit_segment(segment)
        finally:
            drained.clear()

    def _commit_segment(self, ops: List[OpMessage]) -> Generator[Event, Any,
                                                                 None]:
        """Commit one barrier-free run of ops (already in the drain record)."""
        if not ops:
            return
        if self.coalesce_enabled and len(ops) > 1:
            ops = yield from self._coalesce(ops)
            if not ops:
                return
        if len(ops) == 1:
            op = ops[0]
            # Paper §III.D.1: discard creations inside removed directories.
            # Only ops older than the removal are discarded; later
            # re-creations of the same names are legitimate work.
            if self.region.inside_removed_subtree(op.path, op.timestamp):
                self._discard(op)
                return
            yield from self._attempt_single(op, self._committed_mode(op))
        else:
            yield from self._commit_batched(ops)

    def _coalesce(self, ops: List[OpMessage]) -> Generator[Event, Any,
                                                           List[OpMessage]]:
        """Cancel (create|mkdir, same-generation rm) pairs inside a batch.

        Neither side of a cancelled pair ever reaches the MDS; the rm's
        post-commit cache bookkeeping (dropping this generation's
        tombstone record) still runs, exactly as its commit would have.
        Generation tags make this safe: a pair only cancels when the cache
        still holds *this* generation uncommitted — if the create already
        materialized out of band (small-file threshold crossing) the DFS
        holds the file and the rm must really run.
        """
        alive: List[Optional[OpMessage]] = list(ops)
        creations: Dict[Tuple[str, int], int] = {}
        for i, op in enumerate(ops):
            if op.op in ("create", "mkdir"):
                creations[(op.path, op.gen_ino)] = i
            elif op.op == "rm":
                j = creations.get((op.path, op.gen_ino))
                if j is None or alive[j] is None:
                    continue
                record = self.region.cache.peek(op.path)
                if record is None or record.get("ino") != op.gen_ino \
                        or record.get("committed"):
                    continue
                self._close_queue_span(ops[j])
                self._close_queue_span(op)
                alive[i] = None
                alive[j] = None
                del creations[(op.path, op.gen_ino)]
                self.coalesced += 2
                self._resolve(ops[j])
                self._resolve(op)
                self.region.tracer.emit(
                    self.env.now, f"commit:{self.node.name}", "coalesce",
                    f"create+rm {op.path}")
                if self.region.hub.enabled:
                    self.region.hub.count("commit.coalesced", 2)
                try:
                    yield from self.region.cache.delete_if_ino(
                        self.node, op.path, op.gen_ino)
                except NodeDownError:
                    if self.region.hub.enabled:
                        self.region.hub.count("commit.postcommit_skipped")
        return [op for op in alive if op is not None]

    def _commit_batched(self, ops: List[OpMessage]) -> Generator[Event, Any,
                                                                 None]:
        """Commit a segment, sharing MDS round trips per parent directory.

        The §III.D.1 discard rule is applied per-op first; survivors are
        grouped by parent so N same-directory operations pay one ancestor
        traversal and one (discounted) MDS request.  Each op's outcome is
        resolved independently — rejected ops resubmit, exactly as they
        would op-at-a-time.
        """
        groups: Dict[str, List[Tuple[OpMessage, int]]] = {}
        for op in ops:
            if self.region.inside_removed_subtree(op.path, op.timestamp):
                self._discard(op)
                continue
            groups.setdefault(parent_of(op.path), []).append(
                (op, self._committed_mode(op)))
        for group in groups.values():
            if len(group) == 1:
                op, mode = group[0]
                yield from self._attempt_single(op, mode)
                continue
            payload = []
            for op, mode in group:
                kwargs: Dict[str, Any] = (
                    {} if op.op == "rm" else {"mode": mode})
                token = self._commit_token(op)
                if token is not None:
                    kwargs["token"] = token
                payload.append(
                    ("unlink" if op.op == "rm" else op.op, op.path, kwargs))
            try:
                results = yield from self.dfs_client.commit_batch(payload)
            except NodeDownError:
                for op, mode in group:
                    self._replay(op)
                continue
            except (FileNotFound, NotADirectory) as exc:
                # The shared ancestor traversal failed (parent creation
                # pending in some queue, or subtree removed): every op in
                # the group fails the same way it would have op-at-a-time.
                for op, mode in group:
                    yield from self._handle_commit_failure(op, mode, exc)
                continue
            for (op, mode), (status, detail) in zip(group, results):
                if status == "ok":
                    yield from self._commit_success(op, mode)
                else:
                    yield from self._handle_commit_failure(op, mode, detail)

    # -- committing one operation ------------------------------------------------
    def _commit_token(self, op: OpMessage) -> Optional[Tuple]:
        """Idempotency key for this op's MDS mutation (None when untagged).

        ``(region, gen_ino, op)`` uniquely names one generation's mutation:
        replaying it after a lost response must not re-apply.  Ops without
        a generation tag stay untagged (no dedup — they also never ride
        the replay path, which is the only at-least-once producer).
        """
        if op.gen_ino == -1:
            return None
        return (self.region.name, op.gen_ino, op.op)

    def _replay(self, op: OpMessage) -> None:
        """Re-queue an op whose MDS round trip failed in transport.

        Transport loss (MDS crash mid-commit, partition) is transient and
        unbounded — exempt from the MAX_RETRIES resubmission cap, which
        exists to catch namespace-convention livelocks.  The op's commit
        token makes the retry idempotent if the lost RPC actually applied.
        """
        op.replays += 1
        self.replays += 1
        self._drained.pop(id(op), None)  # handed on to _pending
        if self.region.hub.enabled:
            self.region.hub.count("commit.replays")
        self._pending.append(op)

    def _committed_mode(self, op: OpMessage) -> int:
        """The mode this op should commit with.

        The mode may have changed since the op was queued (chmod on a
        not-yet-committed entry); the cache record of this generation is
        authoritative.
        """
        mode = op.mode
        if op.op in ("mkdir", "create"):
            record = self.region.cache.peek(op.path)
            if record is not None and record.get("ino") == op.gen_ino:
                mode = record.get("mode", mode)
        return mode

    def _attempt_single(self, op: OpMessage,
                        mode: int) -> Generator[Event, Any, None]:
        tracer = self.region.tracer
        ctx = proc = None
        if tracer.enabled and op.span is not None:
            # Push the op's commit_queue span so the DFS/MDS spans this
            # attempt generates nest under it in the op's span tree.
            ctx = op.span
            proc = self.env.active_process
            tracer.push_context(proc, ctx)
        try:
            token = self._commit_token(op)
            try:
                if op.op == "mkdir":
                    yield from self.dfs_client.mkdir(op.path, mode=mode,
                                                     token=token)
                elif op.op == "create":
                    yield from self.dfs_client.create(op.path, mode=mode,
                                                      token=token)
                elif op.op == "rm":
                    yield from self.dfs_client.unlink(op.path, token=token)
                else:  # pragma: no cover - OpMessage validates op names
                    raise ValueError(op.op)
            except (FileExists, FileNotFound, NotADirectory) as exc:
                yield from self._handle_commit_failure(op, mode, exc)
                return
            except NodeDownError:
                # MDS (or the wire to it) went down mid-commit: the op may
                # or may not have applied.  Replay with the same token —
                # the MDS dedup memory resolves the ambiguity.
                self._replay(op)
                return
            yield from self._commit_success(op, mode)
        finally:
            if ctx is not None:
                tracer.pop_context(proc, ctx)

    def _handle_commit_failure(self, op: OpMessage, mode: int,
                               exc: Exception) -> Generator[Event, Any, None]:
        """Resolve a DFS rejection: committed-elsewhere, orphan, or retry."""
        if isinstance(exc, FileExists):
            # The name is occupied.  Either *this generation* was
            # materialized out of band (small-file threshold crossing
            # creates directly and flips the committed flag — check the
            # cache, matching on the generation tag), or an older same-name
            # file awaits a pending rm in another queue — resubmit until
            # that rm lands (plain EEXIST-as-success would commit the
            # recreate *before* the remove and converge to the wrong
            # namespace).
            record = self.region.cache.peek(op.path)
            if (record is not None and record.get("committed")
                    and record.get("ino") == op.gen_ino):
                # this generation is on the DFS; count it committed
                yield from self._commit_success(op, mode)
            else:
                yield from self._resubmit(op)
            return
        if isinstance(exc, (FileNotFound, NotADirectory)):
            # Namespace conventions not yet satisfied — usually the parent
            # creation is pending in some queue: resubmit (§III.E).  But a
            # creation under a removed subtree whose parent has no cache
            # record is an orphan: nothing queued anywhere can ever create
            # its parent, so retrying is a livelock — discard it (the
            # §III.D.1 discard rule extended to post-removal stragglers).
            if (op.op in ("create", "mkdir")
                    and self.region.inside_removed_subtree(op.path)
                    and self.region.cache.peek(parent_of(op.path)) is None):
                self._discard(op, orphan=True)
                return
            yield from self._resubmit(op)
            return
        raise exc  # not a namespace-convention rejection: a real bug

    def _close_queue_span(self, op: OpMessage) -> None:
        """Close the op's commit_queue span (opened at client publish)."""
        if op.span is not None:
            self.region.tracer.span_end(self.env.now, op.span)

    def _commit_success(self, op: OpMessage,
                        mode: int) -> Generator[Event, Any, None]:
        self.committed += 1
        self.region.ops_committed += 1
        self._close_queue_span(op)
        self.region.tracer.emit(self.env.now, f"commit:{self.node.name}",
                                "commit", f"{op.op} {op.path}",
                                op_id=op.op_id)
        hub = self.region.hub
        # From here a crash must not count the op as lost: it is on the DFS.
        self._resolve(op)
        if hub.enabled:
            # Publish→commit latency: OpMessage.timestamp is stamped when
            # the client pushes the message into its commit queue.
            hub.observe_commit(op.op, self.env.now - op.timestamp)
            hub.observe_visibility("committed", op.op,
                                   self.env.now - op.timestamp,
                                   weight=op.weight)
            if op.retries > 0:
                hub.observe("commit.retries_to_commit", op.retries)
        try:
            yield from self._after_commit(op, committed_mode=mode)
        except NodeDownError:
            # The op is committed on the DFS; only the cache-side
            # bookkeeping RPC was lost (cache node down or partitioned).
            # Replaying would double-count the commit via token dedup, so
            # just note the skip — the record reconverges via eviction or
            # the next mutation of the name.
            if hub.enabled:
                hub.count("commit.postcommit_skipped")
        else:
            # Globally visible: the primary (cache) copy now agrees with
            # the committed DFS copy — later reads anywhere see the commit.
            if hub.enabled:
                hub.observe_visibility("global", op.op,
                                       self.env.now - op.timestamp,
                                       weight=op.weight)

    def _discard(self, op: OpMessage, orphan: bool = False) -> None:
        self.discarded += 1
        self._resolve(op)
        self._close_queue_span(op)
        label = f"{op.op} {op.path}"
        self.region.tracer.emit(self.env.now, f"commit:{self.node.name}",
                                "discard",
                                f"orphan {label}" if orphan else label,
                                op_id=op.op_id)
        if self.region.hub.enabled:
            self.region.hub.count("commit.discarded")

    def _resubmit(self, op: OpMessage) -> Generator[Event, Any, None]:
        op.retries += 1
        self.resubmissions += 1
        self._drained.pop(id(op), None)  # handed on to _pending
        if self.region.hub.enabled:
            self.region.hub.count("commit.resubmissions")
        if op.retries > self.MAX_RETRIES:
            raise CommitStalled(f"{op.op} {op.path} exceeded"
                                f" {self.MAX_RETRIES} resubmissions")
        self._pending.append(op)
        return
        yield  # pragma: no cover - generator marker

    def _after_commit(self, op: OpMessage,
                      committed_mode: int = -1) -> Generator[Event, Any,
                                                             None]:
        """Post-commit bookkeeping on the cached (primary) copy.

        All updates are generation-guarded: if the cache record now
        belongs to a newer generation of the same name (the application
        removed and recreated it while this commit was in flight), leave
        it alone — the newer generation's own operations manage it.
        """
        cache = self.region.cache
        if op.op == "rm":
            # "removed files are marked and their cached metadata are
            # deleted after the operations are committed."  Conditional on
            # the generation: never delete a recreated entry's record.
            yield from cache.delete_if_ino(self.node, op.path, op.gen_ino)
            return
        # create/mkdir: flip the committed flag; write back fsynced inline
        # data that had been parked in a cache file (§III.D.2); reconcile a
        # mode changed by chmod while the create was in flight.
        shadow_size = 0
        mode_drift = None

        def mark_committed(record):
            nonlocal shadow_size, mode_drift
            if record.get("ino") != op.gen_ino:
                return None  # newer generation owns this record now
            record["committed"] = True
            if record.get("shadow") and record.get("inline_data") is not None:
                shadow_size = record["size"]
                record["shadow"] = False
            if committed_mode >= 0 and record["mode"] != committed_mode:
                mode_drift = record["mode"]
            return record

        updated = yield from cache.update(self.node, op.path, mark_committed)
        if updated is not None and shadow_size > 0:
            yield from self.dfs_client.write(op.path, 0, shadow_size)
        if updated is not None and mode_drift is not None:
            yield from self.dfs_client.setattr(op.path, mode=mode_drift)
