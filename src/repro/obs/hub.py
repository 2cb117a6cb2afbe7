"""The MetricsHub: region-wide metric aggregation and stable JSON export.

One hub serves a whole experiment.  Regions and clients are *attached* to
it (attaching a region also installs the hub and its tracer onto the
region, which is what turns the client/commit hot-path instrumentation
on); at export time the hub combines

* its own :class:`~repro.sim.stats.StatsRegistry` (latency histograms,
  commit counters, sampled gauge series), and
* a snapshot of every attached region (cache, queue, commit-process, and
  barrier state) and client (op/hit/miss/redirect counts)

into one JSON document with fully sorted keys, so two same-seed runs
produce byte-identical exports and ``diff`` localizes any divergence.

The shared :data:`NULL_HUB` is the disabled instance every region starts
with; its ``enabled`` flag is the only thing hot paths ever read from it.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Optional, Tuple

from repro.obs.sampler import GaugeSampler
from repro.obs.timeline import NULL_TIMELINE, Timeline, control_metrics
from repro.sim.stats import StatsRegistry
from repro.sim.trace import NULL_TRACER, Tracer

__all__ = ["MetricsHub", "NULL_HUB", "attribution_rollup"]

SCHEMA = "pacon.metrics/v4"


class MetricsHub:
    """Aggregates client + commit + cache + queue statistics region-wide."""

    def __init__(self, tracer: Optional[Tracer] = None,
                 sample_interval: Optional[float] = None,
                 enabled: bool = True):
        self.enabled = enabled
        self.stats = StatsRegistry()
        #: Tracer shared with every attached region; NULL_TRACER unless the
        #: caller wants span/commit events collected too.
        self.tracer = tracer if tracer is not None else NULL_TRACER
        #: Simulated-seconds between gauge samples; None disables sampling.
        self.sample_interval = sample_interval
        #: Control-plane event log (chaos faults, scaling actions,
        #: membership changes, backpressure stalls).  Only allocated when
        #: the hub is live — the NULL path shares one no-op timeline, and
        #: the zero-cost tests monkeypatch Timeline.__init__ to prove no
        #: disabled run ever constructs one.
        self.timeline = Timeline() if enabled else NULL_TIMELINE
        self._regions: List[Any] = []
        self._clients: List[Any] = []
        self._samplers: List[GaugeSampler] = []
        #: Registered contention resources, dedup'd by identity so shared
        #: infrastructure (one DFS under many regions) is profiled once.
        self._resources: List[Tuple[str, Any]] = []
        self._resource_ids: set = set()
        self._resource_names: set = set()
        #: Running hub-wide failed-op total (weight-summed).  Samplers
        #: poll it per tick to derive the ``client.error_rate[*]``
        #: series without scanning the counter registry on the hot path.
        self.error_count = 0

    # -- recording (hot paths guard on .enabled before calling) ------------
    def observe_op(self, op: str, latency: float, ok: bool = True,
                   weight: int = 1) -> None:
        """One completed client operation with its simulated latency.

        ``weight`` is the number of logical clients the observation stands
        for (``AggregateClient.multiplier``), so op counters and latency
        distributions agree between faithful and aggregate runs at
        matched scale.
        """
        self.stats.sketch(f"client.op.{op}.latency").observe(latency,
                                                             weight)
        self.stats.counter("client.ops").inc(weight)
        if not ok:
            self.stats.counter(f"client.op.{op}.errors").inc(weight)
            self.error_count += weight

    def observe_commit(self, op: str, latency: float) -> None:
        """One committed operation; latency is publish→commit."""
        self.stats.sketch("commit.latency").observe(latency)
        self.stats.sketch(f"commit.op.{op}.latency").observe(latency)
        self.stats.counter("commit.committed").inc()

    def observe(self, name: str, value: float, weight: int = 1) -> None:
        self.stats.sketch(name).observe(value, weight)

    def observe_staleness(self, tier: str, op: str, age: float, lag: int,
                          weight: int = 1) -> None:
        """One metadata read served from ``tier`` with its staleness.

        ``age`` is sim-time since the served value last changed while the
        authoritative MDS copy still lags it; ``lag`` is the number of
        pending (published, not yet committed) mutations for the path.
        Reads served by the MDS itself are authoritative by definition
        (age 0, lag 0) and still recorded, so tier distributions compare.
        """
        self.stats.counter(f"consistency.reads[{tier}]").inc(weight)
        self.stats.sketch(
            f"consistency.staleness.age[{tier}:{op}]").observe(age, weight)
        self.stats.sketch(
            f"consistency.staleness.lag[{tier}:{op}]").observe(
                float(lag), weight)

    def observe_visibility(self, stage: str, op: str, latency: float,
                           weight: int = 1) -> None:
        """Submit-to-``stage`` visibility latency of one committed op.

        ``stage`` is ``committed`` (MDS applied the mutation) or
        ``global`` (the cached copy flipped to committed too, i.e. both
        copies converged and every tier serves fresh metadata).
        ``weight`` is the logical-op weight the message was published
        with (:attr:`OpMessage.weight`).
        """
        self.stats.sketch(
            f"consistency.visibility.{stage}[{op}]").observe(latency,
                                                             weight)

    def count(self, name: str, n: int = 1) -> None:
        self.stats.counter(name).inc(n)

    def control(self, time: float, source: str, kind: str, label: str,
                detail: str = "", duration: float = 0.0,
                ref: int = -1) -> int:
        """Record one control-plane event; returns its timeline ``seq``.

        Appends the :class:`~repro.obs.timeline.Timeline` event and
        feeds the counters and sketch its kind names in
        :data:`~repro.obs.timeline.CONTROL_METRICS`.  An event closing
        an earlier one (``ref``) observes the time since that event,
        every other event its own ``duration``.
        """
        counters, sketch = control_metrics(kind, label, detail)
        for name in counters:
            self.stats.counter(name).inc()
        if sketch:
            value: Optional[float] = duration
            if ref >= 0:
                opened = self.timeline.time_of(ref)
                value = None if opened is None else time - opened
            if value is not None:
                self.stats.sketch(sketch).observe(value)
        return self.timeline.record(time, source, kind, label,
                                    detail=detail, duration=duration,
                                    ref=ref)

    def record_sample(self, name: str, time: float, value: float) -> None:
        self.stats.series(name).append(time, value)

    def series_recorder(self, name: str) -> Any:
        """Bound ``append`` for one gauge series.

        Samplers resolve each gauge's recorder once and skip the
        per-sample registry lookup and key formatting on every wakeup.
        """
        return self.stats.series(name).append

    # -- wiring ------------------------------------------------------------
    def register_resource(self, resource, name: str = "") -> Optional[str]:
        """Track a :class:`~repro.sim.resources.Resource` for profiling.

        Installs the wait-time observer (feeding the
        ``resource.wait[<name>]`` histogram) and includes the resource in
        the export's ``resources`` section.  Identity-deduplicated:
        re-registering returns None so shared infrastructure sampled by
        one region's sampler is not sampled again by another's.
        """
        if id(resource) in self._resource_ids:
            return None
        label = name or resource.name or f"resource{len(self._resources)}"
        if label in self._resource_names:
            label = f"{label}#{len(self._resources)}"
        self._resource_ids.add(id(resource))
        self._resource_names.add(label)
        self._resources.append((label, resource))
        if self.enabled:
            resource._wait_observe = (
                lambda waited, _n=label:
                self.observe(f"resource.wait[{_n}]", waited))
        return label

    def attach_region(self, region, start_sampler: bool = True):
        """Install this hub (and its tracer) on ``region``.

        Installs the tracer on the region's cluster and network too (span
        propagation into services and transfers), registers the region's
        contention resources — node CPUs/NICs, cache-shard worker pools,
        and the DFS's MDS/data-server pools and nodes — and starts a
        :class:`GaugeSampler` for the region when the hub has a
        ``sample_interval`` and ``start_sampler`` is left on.  The sampler
        covers only the resources first registered here, so shared DFS
        resources produce one utilization series, not one per region.
        """
        region.hub = self
        region.tracer = self.tracer
        region.cluster.tracer = self.tracer
        region.cluster.network.tracer = self.tracer
        # The network counts delivery-time drops (`net.dropped`) here.
        region.cluster.network.hub = self
        self._regions.append(region)
        # Per-shard read attribution for the consistency lens (zero-cost
        # until enabled; the ring counts owner lookups from then on).
        ring = getattr(region.cache, "ring", None)
        if ring is not None:
            ring.enable_lookup_stats()
        fresh: List[Tuple[str, Any]] = []

        def reg(resource, name: str = "") -> None:
            if resource is None:
                return
            label = self.register_resource(resource, name)
            if label is not None:
                fresh.append((label, resource))

        for node in region.nodes:
            reg(node.cpu)
            reg(node.nic)
        for shard in region.shards:
            reg(shard.workers)
        dfs = region.dfs
        for server in (list(getattr(dfs, "mds_servers", []) or []) +
                       list(getattr(dfs, "data_servers", []) or [])):
            reg(server.workers)
            node = getattr(server, "node", None)
            if node is not None:
                reg(node.cpu)
                reg(node.nic)
        if start_sampler and self.sample_interval:
            sampler = GaugeSampler(self, region, self.sample_interval,
                                   resources=fresh)
            sampler.start()
            self._samplers.append(sampler)
        return region

    def track_resource(self, region, resource, name: str = "") -> None:
        """Register a resource that joined ``region`` after attachment.

        Elastic growth adds nodes (CPU/NIC) and cache shards mid-run;
        this registers them for the contention snapshot and, when the
        region has a running sampler, extends that sampler so the new
        resources get ``resource.util[*]`` series from now on.  Identity
        deduplication applies as usual, so re-growing onto a previously
        retired node does not double-sample it.
        """
        label = self.register_resource(resource, name)
        if label is None:
            return
        for sampler in self._samplers:
            if sampler.region is region:
                sampler.track(label, resource)

    def attach_client(self, client) -> None:
        self._clients.append(client)

    @property
    def samplers(self) -> List[GaugeSampler]:
        return list(self._samplers)

    def stop_samplers(self) -> None:
        for sampler in self._samplers:
            sampler.stop()

    # -- export ------------------------------------------------------------
    def consistency_snapshot(self) -> Dict[str, Any]:
        """Cross-tier staleness/visibility rollup (``consistency``).

        Merges the per-``tier:op`` staleness sketches into headline
        distributions (sketch buckets add exactly, so the merge is
        lossless at sketch resolution) and attributes reads to cache
        shards via the hash ring's lookup counters.
        """
        from repro.obs.sketch import QuantileSketch

        sketches = self.stats.sketches()

        def merged(prefix: str, label: str) -> "QuantileSketch":
            out = QuantileSketch(label)
            for name in sorted(sketches):
                if name.startswith(prefix):
                    out.merge(sketches[name])
            return out

        counters = self.stats.counters()
        reads = {name[len("consistency.reads["):-1]: value
                 for name, value in counters.items()
                 if name.startswith("consistency.reads[")}
        age = merged("consistency.staleness.age[",
                     "consistency.staleness.age")
        lag = merged("consistency.staleness.lag[",
                     "consistency.staleness.lag")
        visibility = {
            stage: merged(f"consistency.visibility.{stage}[",
                          f"consistency.visibility.{stage}").summary()
            for stage in ("committed", "global")}
        shard_reads: Dict[str, int] = {}
        pending = 0
        for region in self._regions:
            pending += region.total_pending_mutations()
            ring = getattr(region.cache, "ring", None)
            counts = ring.lookup_counts() if ring is not None else None
            if counts:
                for member, n in counts.items():
                    shard_reads[member] = shard_reads.get(member, 0) + n
        return {
            "reads": reads,
            "orphan_reads": counters.get("consistency.orphan_reads", 0),
            "staleness": {"age": age.summary(), "lag": lag.summary()},
            "staleness_p99": age.percentile(99),
            "visibility": visibility,
            "pending_mutations": pending,
            "shard_reads": {k: shard_reads[k] for k in sorted(shard_reads)},
            "sketches": {name: sk.export()
                         for name, sk in sorted(sketches.items())
                         if name.startswith("consistency.")},
        }

    def export(self) -> Dict[str, Any]:
        """One aggregated document; keys sort stably for run-to-run diffs."""
        regions: Dict[str, Any] = {}
        for idx, region in enumerate(self._regions):
            regions[f"{idx:02d}:{region.name}"] = _region_snapshot(region)
        doc = {
            "schema": SCHEMA,
            "enabled": self.enabled,
            "counters": self.stats.counters(),
            "histograms": self.stats.histograms(),
            "series": self.stats.series_export(),
            "regions": regions,
            "clients": _client_snapshot(self._clients),
            "attribution": attribution_rollup(self.tracer),
            "resources": self.resource_snapshot(),
            "consistency": self.consistency_snapshot(),
            "trace": {"events": len(self.tracer),
                      "dropped": self.tracer.dropped,
                      "open_spans": self.tracer.open_span_count()},
        }
        # Lazy: the SLO engine evaluates finished documents, so it lives
        # above the hub and must not be imported at module init.
        from repro.obs.slo import default_policy
        doc["slo"] = default_policy().evaluate(doc).to_doc()
        doc["timeline"] = self.timeline.export()
        # Incident detection reads the finished document (series +
        # timeline), so it runs last and stays lazily imported too.
        from repro.obs.incidents import detect_incidents
        doc["incidents"] = detect_incidents(doc)
        return doc

    def resource_snapshot(self) -> Dict[str, Any]:
        """Lifetime contention figures for every registered resource."""
        out: Dict[str, Any] = {}
        for name, res in self._resources:
            out[name] = {
                "capacity": res.capacity,
                "utilization": res.utilization(),
                "busy_time": res.busy_time(),
                "total_acquires": res.total_acquires,
                "total_wait_time": res.total_wait_time,
                "peak_queue": res.peak_queue,
            }
        return out

    def to_json(self, indent: Optional[int] = None,
                doc: Optional[Dict[str, Any]] = None) -> str:
        """Serialize ``doc`` (or a fresh :meth:`export`) deterministically.

        Passing an already-exported document avoids re-running the SLO
        and incident passes when the caller needs both the dict and the
        JSON (the CLI does).
        """
        if doc is None:
            doc = self.export()
        return json.dumps(doc, sort_keys=True, indent=indent)


def attribution_rollup(tracer) -> Dict[str, Any]:
    """Aggregate per-op latency attributions by op class.

    For each op class (mkdir, create, getattr, ...): completed-op count,
    mean end-to-end latency, mean time per attribution bucket, and the
    mean residual — ``mean_latency == sum(buckets) + residual`` exactly,
    by construction, so the decomposition can never silently lose time.
    """
    from repro.sim.trace import ATTRIBUTION_BUCKETS

    per_class: Dict[str, Dict[str, Any]] = {}
    attributions = tracer.attributions() if tracer.enabled else {}
    for op_id in sorted(attributions):
        att = attributions[op_id]
        agg = per_class.setdefault(att["op"] or "?", {
            "count": 0,
            "total_latency": 0.0,
            "buckets": {name: 0.0 for name in ATTRIBUTION_BUCKETS},
            "residual": 0.0,
        })
        agg["count"] += 1
        agg["total_latency"] += att["duration"]
        for name, value in att["buckets"].items():
            agg["buckets"][name] += value
        agg["residual"] += att["residual"]
    ops: Dict[str, Any] = {}
    for op_class, agg in per_class.items():
        n = agg["count"]
        ops[op_class] = {
            "count": n,
            "mean_latency": agg["total_latency"] / n,
            "buckets": {name: total / n
                        for name, total in agg["buckets"].items()},
            "residual": agg["residual"] / n,
        }
    return {"ops": ops, "total_ops": len(attributions),
            "buckets": list(ATTRIBUTION_BUCKETS)}


def _region_snapshot(region) -> Dict[str, Any]:
    commit = {"committed": 0, "discarded": 0, "resubmissions": 0,
              "coalesced": 0, "barriers_passed": 0, "replays": 0,
              "aborts": 0}
    for cp in region.commit_processes:
        commit["committed"] += cp.committed
        commit["discarded"] += cp.discarded
        commit["resubmissions"] += cp.resubmissions
        commit["coalesced"] += cp.coalesced
        commit["barriers_passed"] += cp.barriers_passed
        commit["replays"] += cp.replays
        commit["aborts"] += cp.aborts
    queues = {}
    for queue in region.queues.queues():
        queues[queue.name] = {"depth": len(queue),
                              "peak_depth": queue.peak_depth,
                              "published": queue.published,
                              "delivered": queue.delivered,
                              "wait_time": queue.total_wait_time}
    hits, misses = region.cache.hit_miss_counts()
    return {
        "workspace": region.workspace,
        "nodes": len(region.nodes),
        "clients": region.total_clients(),
        "ops_submitted": region.ops_submitted,
        "ops_committed": region.ops_committed,
        "barrier_epochs_completed": region.barrier_epochs_completed,
        "cache": {
            "items": region.cache.total_items(),
            "used_bytes": region.cache.used_bytes(),
            "hits": hits,
            "misses": misses,
            "hit_rate": region.cache.hit_rate(),
            "cas_retries": region.cache.cas_retries,
        },
        "queues": queues,
        "commit": commit,
    }


def _client_snapshot(clients) -> Dict[str, int]:
    snap = {"count": len(clients), "ops": 0, "cache_hits": 0,
            "cache_misses": 0, "redirects": 0}
    for client in clients:
        snap["ops"] += client.ops
        snap["cache_hits"] += client.cache_hits
        snap["cache_misses"] += client.cache_misses
        snap["redirects"] += client.redirects
    return snap


class _NullHub(MetricsHub):
    """Shared disabled hub; recording methods discard everything."""

    def __init__(self):
        super().__init__(enabled=False)

    def observe_op(self, *a, **kw) -> None:  # pragma: no cover - trivial
        return

    def observe_commit(self, *a, **kw) -> None:  # pragma: no cover
        return

    def observe(self, *a, **kw) -> None:  # pragma: no cover - trivial
        return

    def observe_staleness(self, *a, **kw) -> None:  # pragma: no cover
        return

    def observe_visibility(self, *a, **kw) -> None:  # pragma: no cover
        return

    def count(self, *a, **kw) -> None:  # pragma: no cover - trivial
        return

    def control(self, *a, **kw) -> int:  # pragma: no cover - trivial
        return -1

    def record_sample(self, *a, **kw) -> None:  # pragma: no cover
        return

    def series_recorder(self, name: str) -> Any:  # pragma: no cover
        return lambda time, value: None

    def attach_region(self, region, start_sampler: bool = True):
        raise RuntimeError("NULL_HUB is shared and read-only; create a"
                           " MetricsHub() to attach regions")


NULL_HUB = _NullHub()
