"""The layer table the traced run wraps, and the per-layer metrics.

Each entry names a layer, a ``module:Class`` (its public plain functions)
or ``module:function`` target, and wrapper options.  Per-event primitives
(``Resource.acquire/release/use``, ``Event``, the kernel loop) are not
wrapped: a wrapper costs more than their bodies.  Their cost lands in the
residual or in the self time of the layer that calls them, and is read
together with the program's own counters.

Per-layer metrics mix two sources: host self time and call counts from
the wrappers (with the calibrated wrapper cost removed), and simulated
counters the program keeps anyway (resource waits, messages, commits).
"""

from __future__ import annotations

from typing import Any, Dict, List, Tuple

from layertrace import LayerTracer, wrapper_ns

__all__ = ["table", "PER_LAYER", "layer_metrics", "breakdown"]

_NAMESPACE_FUNCTIONS = ("normalize_path", "split_path", "parent_of",
                        "basename", "is_within")


def table(tracer: LayerTracer, barrier_waits: List[float],
          ) -> List[Tuple[str, str, Dict[str, Any]]]:
    """(layer, target, options) for :meth:`LayerTracer.install`."""

    def note_barrier(result) -> None:
        # trigger_barrier returns (epoch, done); time until done fires.
        env = tracer.env
        started = env.now
        result[1].add_callback(
            lambda _ev: barrier_waits.append(env.now - started))

    rows = [
        ("bench", "workloads:OpLog", {"only": ("run",)}),
        ("core.client", "repro.core.client:PaconClient", {}),
        ("core.permissions", "repro.core.permissions:RegionPermissions", {}),
        ("core.permissions", "repro.core.permissions:PermissionSpec", {}),
        ("kvstore.dht", "repro.kvstore.dht:ConsistentHashRing", {}),
        ("kvstore.dht", "repro.kvstore.dht:stable_hash64", {}),
        ("core.cache", "repro.core.cache:DistributedCache", {}),
        ("core.cache", "repro.core.cache:CacheShard", {}),
        ("core.cache", "repro.core.cache:new_record", {}),
        ("kvstore.memkv", "repro.kvstore.memkv:MemKV", {}),
        ("core.commit", "repro.core.commit:CommitProcess",
         {"per_name": {"run": {"loop": True}}}),
        ("mq.queue", "repro.mq.queue:MessageQueue", {}),
        ("mq.queue", "repro.mq.queue:QueueGroup", {}),
        ("core.region", "repro.core.region:ConsistentRegion",
         {"per_name": {"trigger_barrier": {"after": note_barrier}}}),
        ("sim.network", "repro.sim.network:Service",
         {"only": ("request",)}),
        ("sim.network", "repro.sim.network:Network",
         {"only": ("transfer",)}),
        ("dfs.client", "repro.dfs.client:DFSClient", {}),
        ("dfs.mds", "repro.dfs.mds:MetadataServer", {}),
        ("dfs.namespace", "repro.dfs.namespace:Namespace", {}),
    ]
    rows += [("dfs.namespace", f"repro.dfs.namespace:{name}", {})
             for name in _NAMESPACE_FUNCTIONS]
    rows += [
        ("obs", "repro.obs.hub:MetricsHub", {"guard": True}),
        ("obs", "repro.obs.hub:attribution_rollup", {}),
        ("obs", "repro.sim.trace:Tracer", {"guard": True}),
        ("obs", "repro.obs.sampler:GaugeSampler",
         {"guard": True, "per_name": {"run": {"loop": True}}}),
        ("obs", "repro.obs.timeline:Timeline", {"guard": True}),
    ]
    return rows


#: Every per-layer metric, in report order, with its unit.
PER_LAYER: List[Tuple[str, str]] = [
    ("sim.core.events_per_op", "count"),
    ("sim.core.host_ns_per_event", "ns"),
    ("sim.resources.acquires_per_op", "count"),
    ("sim.resources.sim_wait_us_per_op", "us"),
    ("sim.resources.max_busy_frac", "ratio"),
    ("sim.network.msgs_per_op", "count"),
    ("sim.network.bytes_per_op", "B"),
    ("sim.network.host_self_us_per_op", "us"),
    ("sim.network.dropped", "count"),
    ("core.client.calls_per_op", "count"),
    ("core.client.host_self_us_per_op", "us"),
    ("core.permissions.calls_per_op", "count"),
    ("core.permissions.host_self_us_per_op", "us"),
    ("kvstore.dht.calls_per_op", "count"),
    ("kvstore.dht.host_self_us_per_op", "us"),
    ("core.cache.calls_per_op", "count"),
    ("core.cache.host_self_us_per_op", "us"),
    ("core.cache.hit_ratio", "ratio"),
    ("core.cache.cas_retry_ratio", "ratio"),
    ("kvstore.memkv.calls_per_op", "count"),
    ("kvstore.memkv.host_self_us_per_op", "us"),
    ("core.commit.ops_per_rpc", "count"),
    ("core.commit.coalesced_frac", "ratio"),
    ("core.commit.resubmit_ratio", "ratio"),
    ("core.commit.host_self_us_per_op", "us"),
    ("mq.queue.publishes_per_op", "count"),
    ("mq.queue.host_self_us_per_op", "us"),
    ("core.region.barriers_per_op", "count"),
    ("core.region.sim_barrier_wait_us", "us"),
    ("core.region.host_self_us_per_op", "us"),
    ("dfs.client.rpcs_per_op", "count"),
    ("dfs.client.host_self_us_per_op", "us"),
    ("dfs.mds.host_self_us_per_op", "us"),
    ("dfs.mds.sim_queue_us_per_rpc", "us"),
    ("dfs.mds.busy_frac", "ratio"),
    ("dfs.namespace.calls_per_op", "count"),
    ("dfs.namespace.host_self_us_per_op", "us"),
    ("obs.host_self_us_per_op", "us"),
    ("obs.export_s", "s"),
    ("bench.host_self_us_per_op", "us"),
    ("bench.trace_overhead_frac", "ratio"),
    ("bench.wrapper_cost_us_per_op", "us"),
    ("bench.unexplained_overhead_frac", "ratio"),
]

#: Layers whose host self time and call counts come from the wrappers.
WRAPPED = ("bench", "core.client", "core.permissions", "kvstore.dht",
           "core.cache", "kvstore.memkv", "core.commit", "mq.queue",
           "core.region", "sim.network", "dfs.client", "dfs.mds",
           "dfs.namespace", "obs")


def breakdown(functions: Dict[str, Dict[str, int]],
              cost: Dict[str, float]) -> Dict[str, Dict[str, float]]:
    """Per layer: calls, raw self time and self time net of the
    calibrated wrapper cost (ns); the residual is a row too."""
    out = {layer: {"calls": 0, "self_ns": 0.0, "raw_self_ns": 0}
           for layer in WRAPPED + ("residual",)}
    for key, stats in functions.items():
        row = out[key.partition(":")[0]]
        row["calls"] += stats["calls"]
        row["self_ns"] += stats["self_ns"] - wrapper_ns(stats, cost)
        row["raw_self_ns"] += stats["self_ns"]
    return out


def _resources(bed) -> List[Any]:
    cluster, region, dfs = bed.cluster, bed.app.region, bed.dfs
    found = [r for node in cluster.nodes for r in (node.cpu, node.nic)]
    found += [shard.workers for shard in region.shards]
    found += [server.workers
              for server in list(dfs.mds_servers) + list(dfs.data_servers)]
    return found


def layer_metrics(bed, ops: int, layers: Dict[str, Dict[str, float]],
                  calls: Dict[str, int], barrier_waits: List[float],
                  untraced_cpu_s: float, traced_cpu_s: float,
                  export_s: float) -> Dict[str, float]:
    """Every metric of :data:`PER_LAYER` for one traced repetition."""
    env, region, dfs = bed.env, bed.app.region, bed.dfs
    network = bed.cluster.network
    events = env.processed_events
    m: Dict[str, float] = {}

    def per_op_us(layer: str) -> float:
        return layers[layer]["self_ns"] / ops / 1e3

    m["sim.core.events_per_op"] = events / ops
    m["sim.core.host_ns_per_event"] = layers["residual"]["self_ns"] / events
    resources = _resources(bed)
    m["sim.resources.acquires_per_op"] = sum(
        r.total_acquires for r in resources) / ops
    m["sim.resources.sim_wait_us_per_op"] = sum(
        r.total_wait_time for r in resources) / ops * 1e6
    m["sim.resources.max_busy_frac"] = max(
        r.utilization() for r in resources)
    m["sim.network.msgs_per_op"] = network.messages_sent / ops
    m["sim.network.bytes_per_op"] = network.bytes_sent / ops
    m["sim.network.host_self_us_per_op"] = per_op_us("sim.network")
    m["sim.network.dropped"] = float(network.dropped)
    for layer in ("core.client", "core.permissions", "kvstore.dht",
                  "core.cache", "kvstore.memkv", "dfs.namespace"):
        m[f"{layer}.calls_per_op"] = layers[layer]["calls"] / ops
        m[f"{layer}.host_self_us_per_op"] = per_op_us(layer)
    hits, misses = region.cache.hit_miss_counts()
    m["core.cache.hit_ratio"] = hits / (hits + misses) if hits + misses \
        else 0.0
    cas_calls = calls.get("core.cache:DistributedCache.cas", 0)
    m["core.cache.cas_retry_ratio"] = (
        region.cache.cas_retries / cas_calls if cas_calls else 0.0)

    procs = region.commit_processes
    submitted = region.ops_submitted
    mds = list(dfs.mds_servers)
    # Mutations reach the MDS only from commit processes: a Pacon client
    # sends them itself only for paths outside every region.
    commit_rpcs = sum(server.requests_by_method.get(method, 0)
                      for server in mds
                      for method in ("commit_batch", "mkdir", "create",
                                     "unlink"))
    committed = sum(cp.committed for cp in procs)
    m["core.commit.ops_per_rpc"] = committed / commit_rpcs if commit_rpcs \
        else 0.0
    m["core.commit.coalesced_frac"] = sum(
        cp.coalesced for cp in procs) / submitted if submitted else 0.0
    m["core.commit.resubmit_ratio"] = sum(
        cp.resubmissions for cp in procs) / submitted if submitted else 0.0
    m["core.commit.host_self_us_per_op"] = per_op_us("core.commit")
    m["mq.queue.publishes_per_op"] = calls.get(
        "mq.queue:MessageQueue.publish", 0) / ops
    m["mq.queue.host_self_us_per_op"] = per_op_us("mq.queue")
    m["core.region.barriers_per_op"] = region.client_epoch / ops
    m["core.region.sim_barrier_wait_us"] = (
        sum(barrier_waits) / len(barrier_waits) * 1e6
        if barrier_waits else 0.0)
    m["core.region.host_self_us_per_op"] = per_op_us("core.region")

    dfs_clients = [client.dfs_client for app in bed.apps
                   for client in app.clients]
    dfs_clients += [cp.dfs_client for cp in procs]
    m["dfs.client.rpcs_per_op"] = sum(
        c.rpcs_sent for c in dfs_clients) / ops
    m["dfs.client.host_self_us_per_op"] = per_op_us("dfs.client")
    m["dfs.mds.host_self_us_per_op"] = per_op_us("dfs.mds")
    served = sum(server.requests_served for server in mds)
    m["dfs.mds.sim_queue_us_per_rpc"] = sum(
        server.workers.total_wait_time for server in mds) / served * 1e6 \
        if served else 0.0
    m["dfs.mds.busy_frac"] = max(server.workers.utilization()
                                 for server in mds)
    m["obs.host_self_us_per_op"] = per_op_us("obs")
    m["obs.export_s"] = export_s
    m["bench.host_self_us_per_op"] = per_op_us("bench")

    overhead_s = traced_cpu_s - untraced_cpu_s
    calibrated_s = sum(row["raw_self_ns"] - row["self_ns"]
                       for row in layers.values()) / 1e9
    m["bench.trace_overhead_frac"] = overhead_s / untraced_cpu_s
    m["bench.wrapper_cost_us_per_op"] = calibrated_s / ops * 1e6
    m["bench.unexplained_overhead_frac"] = (
        overhead_s - calibrated_s) / untraced_cpu_s
    return m
