"""Load-driven elasticity: the region autoscaling control loop.

The paper fixes region membership at initialization (§III.B); λFS-style
elastic metadata serving shows the alternative — provision for the load
you have, not the load you fear.  :class:`Autoscaler` is a DES-native
controller that watches two signals every tick:

* **utilization** — windowed busy-fraction of the hottest region
  resource (node CPU, node NIC, or cache-shard worker pool), the same
  busy-time deltas the observability sampler exports as
  ``resource.util[*]``.  The *max* across resources (not the mean)
  governs: tail latency is set by the hottest node, and a freshly grown
  empty shard must not dilute the signal into premature shrink;
* **commit backlog** — queued commit messages per region node
  (``queue.backlog`` divided by membership).

and drives :meth:`PaconDeployment.grow_region_async` /
:meth:`retire_node_async` with three dampers so membership does not
flap:

* **hysteresis** — separate high/low watermarks per signal plus a
  required streak of consecutive over/under ticks
  (``autoscale_up_consecutive`` / ``autoscale_down_consecutive``);
* **cooldown** — a minimum gap between scaling actions, covering the
  migration settle time;
* **bounds** — the pool never leaves
  ``[autoscale_min_nodes, autoscale_max_nodes]``.

An optional SLO hook (``autoscale_burn_threshold``) evaluates a
burn-rate objective over the region's ``consistency.pending_age`` gauge
series and forces a scale-up when the error budget is burning on every
window, regardless of the utilization streak (still cooldown- and
max-bounded).  Every action is recorded as an :class:`AutoscaleAction`
for tests and the bench driver, and as one ``scale.*`` control-plane
event through :meth:`repro.obs.hub.MetricsHub.control`, which feeds the
``autoscale.*`` counters; the control loop samples ``autoscale.*``
gauge series.

The controller composes with the chaos engine: a grow that races a node
crash either completes (crashed peers are skipped by the migration) or
fails with the node partially joined — both outcomes are recorded, never
raised out of the control loop.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Generator, List, Optional

from repro.core.deploy import PaconDeployment
from repro.core.region import ConsistentRegion
from repro.obs.timeline import JOINED
from repro.sim.core import Event, Interrupt
from repro.sim.network import Node, NodeDownError

__all__ = ["Autoscaler", "AutoscaleAction"]


@dataclass
class AutoscaleAction:
    """One attempted scaling action, successful or not."""

    time: float
    kind: str            # "grow" | "retire"
    node: str            # node name
    reason: str          # "util" | "backlog" | "burn_rate" | ...
    ok: bool
    latency: float = 0.0
    moved: int = 0       # records migrated (grow/retire)
    error: str = ""


class Autoscaler:
    """Elastic membership controller for one consistent region."""

    def __init__(self, deployment: PaconDeployment,
                 region: ConsistentRegion,
                 node_factory: Optional[Callable[[], Node]] = None):
        self.deployment = deployment
        self.region = region
        self.env = region.env
        self.config = region.config
        #: Called to provision a fresh node for each scale-up.  The
        #: default asks the cluster for one; benches hand in a factory
        #: that pops from a pre-built warm pool so every provisioning
        #: mode shares an identical cluster topology.
        self.node_factory = node_factory or self._default_factory
        self.actions: List[AutoscaleAction] = []
        self.rejected = 0
        self._added: List[Node] = []     # retirement candidates, LIFO
        self._up_streak = 0
        self._down_streak = 0
        self._last_action_at: Optional[float] = None
        self._next_node_seq = 0
        # Windowed-utilization state per resource: id -> [busy, t].
        self._util_state: Dict[int, List[float]] = {}
        self._process = None

    # -- wiring ------------------------------------------------------------
    def _default_factory(self) -> Node:
        safe = self.region.name.strip("/").replace("/", "_") or "region"
        name = f"{safe}.as{self._next_node_seq}"
        self._next_node_seq += 1
        return self.deployment.cluster.add_node(name)

    @property
    def hub(self):
        return self.region.hub

    @property
    def scale_ups(self) -> int:
        return sum(1 for a in self.actions if a.kind == "grow" and a.ok)

    @property
    def scale_downs(self) -> int:
        return sum(1 for a in self.actions if a.kind == "retire" and a.ok)

    @property
    def failed(self) -> int:
        return sum(1 for a in self.actions if a.error)

    # -- lifecycle ---------------------------------------------------------
    def start(self):
        """Spawn the control loop; returns the Process (idempotent)."""
        if self._process is not None and self._process.is_alive:
            return self._process
        self._process = self.env.process(
            self.run(), label=f"autoscale:{self.region.name}")
        return self._process

    def stop(self) -> None:
        if self._process is not None and self._process.is_alive:
            self._process.interrupt("autoscaler stopped")

    def run(self) -> Generator[Event, Any, None]:
        """The control loop: sense, decide, (maybe) act, sleep.

        Exits on its own once the region's commit queues close (end of
        run), mirroring the gauge sampler, so a drained event heap stays
        drainable.
        """
        try:
            while True:
                queues = self.region.queues.queues()
                if queues and all(q.closed for q in queues):
                    return
                yield from self._tick()
                yield self.env.timeout(self.config.autoscale_interval)
        except Interrupt:
            return

    # -- sensing -----------------------------------------------------------
    def _sense_utilization(self) -> float:
        """Max windowed busy-fraction across the region's resources.

        First sight of a resource seeds its window from the current busy
        time and reports it as 0.0 — a node that worked before joining
        must not fake a spike.
        """
        t = self.env.now
        peak = 0.0
        for resource in self._resources():
            state = self._util_state.get(id(resource))
            busy = resource.busy_time()
            if state is None:
                self._util_state[id(resource)] = [busy, t]
                continue
            prev_busy, prev_t = state
            window = t - prev_t
            if window > 0:
                util = (busy - prev_busy) / (window * resource.capacity)
                if util > peak:
                    peak = util
            state[0] = busy
            state[1] = t
        return peak

    def _resources(self):
        for node in self.region.nodes:
            yield node.cpu
            yield node.nic
        for shard in self.region.shards:
            yield shard.workers

    def _burn_rate_breached(self) -> bool:
        """SLO hook: is the staleness error budget burning everywhere?"""
        threshold = self.config.autoscale_burn_threshold
        hub = self.hub
        if threshold is None or not hub.enabled:
            return False
        series = hub.stats.series(
            f"consistency.pending_age[{self.region.name}]")
        if len(series) < 4:
            return False  # not enough signal to window over yet
        from repro.obs.slo import BurnRateObjective
        objective = BurnRateObjective(
            "autoscale-burn", "consistency.pending_age",
            threshold=threshold, budget=self.config.autoscale_burn_budget)
        doc = {"series": {series.name: series.export()}}
        return not objective.evaluate(doc).ok

    # -- deciding ----------------------------------------------------------
    def _tick(self) -> Generator[Event, Any, None]:
        cfg = self.config
        region = self.region
        t = self.env.now
        util = self._sense_utilization()
        n_nodes = len(region.nodes)
        backlog = region.queues.total_backlog() / max(1, n_nodes)
        hub = self.hub
        if hub.enabled:
            hub.record_sample(f"autoscale.nodes[{region.name}]", t,
                              float(n_nodes))
            hub.record_sample(f"autoscale.util[{region.name}]", t, util)
            hub.record_sample(f"autoscale.backlog[{region.name}]", t,
                              backlog)
        overloaded = (util >= cfg.autoscale_util_high
                      or backlog >= cfg.autoscale_backlog_high)
        underloaded = (util <= cfg.autoscale_util_low
                       and backlog <= cfg.autoscale_backlog_low)
        self._up_streak = self._up_streak + 1 if overloaded else 0
        self._down_streak = self._down_streak + 1 if underloaded else 0
        burning = self._burn_rate_breached()
        if self._last_action_at is not None and \
                t - self._last_action_at < cfg.autoscale_cooldown:
            return
        if burning or self._up_streak >= cfg.autoscale_up_consecutive:
            reason = ("burn_rate" if burning
                      else ("util" if util >= cfg.autoscale_util_high
                            else "backlog"))
            self._up_streak = 0
            if len(region.nodes) >= cfg.autoscale_max_nodes:
                self._reject("grow", reason)
                return
            yield from self._scale_up(reason)
        elif self._down_streak >= cfg.autoscale_down_consecutive:
            self._down_streak = 0
            if len(region.nodes) <= cfg.autoscale_min_nodes:
                return  # idle at the floor is steady state, not a fault
            candidate = self._retire_candidate()
            if candidate is None:
                self._reject("retire", "no_candidate")
                return
            yield from self._scale_down(candidate, "idle")

    def _retire_candidate(self) -> Optional[Node]:
        """Newest autoscaler-added node that can leave right now.

        Only nodes this controller added are ever retired — base nodes
        host clients and belong to the operator.  LIFO keeps churn on
        the youngest (emptiest) shard.
        """
        for node in reversed(self._added):
            if node in self.region.nodes and node.alive \
                    and self.region.clients_on_node.get(node.node_id,
                                                        0) == 0:
                return node
        return None

    def _reject(self, kind: str, reason: str) -> None:
        self.rejected += 1
        self.hub.control(self.env.now, "autoscale", "scale.rejected", kind,
                         detail=reason)

    # -- acting ------------------------------------------------------------
    def _scale_up(self, reason: str) -> Generator[Event, Any, None]:
        region = self.region
        node = self.node_factory()
        action = yield from self._act(
            "grow", node, reason,
            self.deployment.grow_region_async(region, node), NodeDownError)
        if action.ok:
            self._added.append(node)
            hub = self.hub
            if hub.enabled:
                # New node + shard join the contention snapshot and the
                # running sampler's resource.util[*] series.
                hub.track_resource(region, node.cpu)
                hub.track_resource(region, node.nic)
                shard = next((s for s in region.shards if s.node is node),
                             None)
                if shard is not None:
                    hub.track_resource(region, shard.workers,
                                       name=shard.name)

    def _scale_down(self, node: Node,
                    reason: str) -> Generator[Event, Any, None]:
        action = yield from self._act(
            "retire", node, reason,
            self.deployment.retire_node_async(self.region, node),
            (NodeDownError, ValueError, RuntimeError))
        if action.ok and node in self._added:
            self._added.remove(node)

    def _act(self, kind: str, node: Node, reason: str, migration,
             errors) -> Generator[Event, Any, AutoscaleAction]:
        """Drive one grow/retire migration; record its action and event.

        A failure is recorded, never raised: it costs time too, so its
        ``scale.failed`` event carries the latency and a structured
        ``<kind>:<ExcType>`` cause that incident blame can rank.
        """
        t0 = self.env.now
        action = AutoscaleAction(time=t0, kind=kind, node=node.name,
                                 reason=reason, ok=False)
        self.actions.append(action)
        self._last_action_at = t0
        try:
            action.moved = yield from migration
        except errors as exc:
            action.error = str(exc) or type(exc).__name__
            # A grow whose node joined before a racing crash keeps the
            # node (its partially migrated shard refills from the DFS on
            # demand), which also counts as a scale-up.
            action.ok = kind == "grow" and node in self.region.nodes
            event = "scale.failed"
            kept = f" {JOINED}" if action.ok else ""
            detail = (f"{kind}:{type(exc).__name__} reason={reason}{kept}"
                      f" error={action.error}")
        else:
            action.ok = True
            event = f"scale.{kind}"
            detail = f"reason={reason} moved={action.moved}"
        action.latency = self.env.now - t0
        self.hub.control(t0, "autoscale", event, node.name, detail=detail,
                         duration=action.latency)
        return action
