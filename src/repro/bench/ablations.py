"""Ablation studies for the design choices DESIGN.md calls out.

* **Ablation A — commit discipline**: how often a dependent (barrier)
  operation appears determines how much of partial consistency's async
  win survives.  Sweeping a barrier every K creates interpolates between
  Pacon's independent commit (K=∞) and commit-everything-synchronously.
* **Ablation B — batch permissions**: Pacon with the traditional
  layer-by-layer check executed inside the distributed cache (one KV get
  per level) vs batch permission management, across namespace depths.
* **Ablation C — related-work trade-offs**: ShardFS and LocoFS remove
  traversal RPCs too; this measures what each pays for it (ShardFS:
  N×-replicated mkdir; LocoFS: the single DMS ceiling).
* **Ablation D — MDS scaling vs client scaling**: §II.B argues that adding
  metadata servers cannot keep up with client growth; this sweeps BeeGFS
  MDS counts against a fixed 320-client load and compares with Pacon on
  the same clients.
* **Ablation E — the BatchFS/DeltaFS approximation**: the paper treats the
  private-namespace systems as "IndexFS co-located with clients using bulk
  insertion"; this measures IndexFS with bulk insertion on/off against
  Pacon on an N-N create workload — bulk insertion narrows the gap but
  gives up the shared consistent view Pacon keeps.
"""

from __future__ import annotations

import time
from typing import Any, Dict, Generator, List

from repro.baselines.locofs import LocoFS
from repro.baselines.shardfs import ShardFS
from repro.bench.report import ExperimentResult
from repro.bench.systems import DEFAULT_SEED, make_testbed
from repro.sim.network import Cluster
from repro.workloads.mdtest import build_tree, run_random_stat

__all__ = ["run_commit_ablation", "run_permission_ablation",
           "run_related_ablation", "run_mds_scaling_ablation",
           "run_bulk_insertion_ablation", "run_all", "SCALES"]

SCALES: Dict[str, Dict] = {
    "smoke": {"nodes": 2, "cpn": 4, "items": 20, "barrier_every": [0, 5],
              "depths": [3, 5], "fanout": 3, "stats": 30, "servers": 3,
              "mds_counts": [1, 2]},
    "ci": {"nodes": 2, "cpn": 8, "items": 30, "barrier_every": [0, 20, 5, 1],
           "depths": [3, 4, 5, 6], "fanout": 3, "stats": 40, "servers": 4,
           "mds_counts": [1, 2, 4]},
    "paper": {"nodes": 8, "cpn": 20, "items": 100,
              "barrier_every": [0, 50, 10, 1], "depths": [3, 4, 5, 6],
              "fanout": 5, "stats": 100, "servers": 16,
              "mds_counts": [1, 2, 4, 8]},
}


# --------------------------------------------------------------- Ablation A
def _create_with_barriers(bed, items: int, barrier_every: int) -> float:
    """Each client creates ``items`` files; a barrier op every K creates."""
    env = bed.env
    from repro.sim.resources import Barrier

    sync = Barrier(env, parties=len(bed.clients), name="abl")
    t_state = {"start": None, "end": 0.0}

    def proc(rank: int, client) -> Generator[Any, Any, None]:
        yield sync.arrive()
        if t_state["start"] is None:
            t_state["start"] = env.now
        for i in range(items):
            yield from client.create(f"/app/f.{rank}.{i}")
            if barrier_every and (i + 1) % barrier_every == 0:
                # A dependent operation: readdir barriers the region.
                yield from client.readdir("/app")
        yield sync.arrive()
        t_state["end"] = max(t_state["end"], env.now)

    procs = [env.process(proc(rank, cl), label=f"abl:{rank}")
             for rank, cl in enumerate(bed.clients)]
    for p in procs:
        env.run(until=p)
    elapsed = t_state["end"] - t_state["start"]
    total = items * len(bed.clients)
    return total / elapsed if elapsed > 0 else 0.0


def run_commit_ablation(scale: str = "ci",
                        seed: int = DEFAULT_SEED) -> ExperimentResult:
    params = SCALES[scale]
    out = ExperimentResult(
        experiment="ablA",
        title="Commit discipline: barrier frequency vs create throughput",
        scale=scale, seed=seed, params=dict(params))
    base = None
    for barrier_every in params["barrier_every"]:
        bed = make_testbed("pacon", n_apps=1,
                           nodes_per_app=params["nodes"],
                           clients_per_node=params["cpn"], seed=seed)
        ops = _create_with_barriers(bed, params["items"], barrier_every)
        if base is None:
            base = ops
        out.add(barrier_every_k_creates=barrier_every or "never",
                create_ops_per_sec=round(ops),
                fraction_of_async=round(ops / base, 3))
    out.derive("min_fraction_of_async",
               min(row["fraction_of_async"] for row in out.rows))
    out.note("barriers per op collapse throughput toward synchronous"
             " commit — why Table I reserves them for rmdir/readdir")
    return out


# --------------------------------------------------------------- Ablation B
def run_permission_ablation(scale: str = "ci",
                            seed: int = DEFAULT_SEED) -> ExperimentResult:
    params = SCALES[scale]
    out = ExperimentResult(
        experiment="ablB",
        title="Batch permissions vs per-level checks in the cache",
        scale=scale, seed=seed, params=dict(params))
    for mode in ("batch", "hierarchical"):
        base = None
        for depth in params["depths"]:
            bed = make_testbed("pacon", n_apps=1,
                               nodes_per_app=params["nodes"],
                               clients_per_node=params["cpn"], seed=seed)
            for client in bed.clients:
                client.hierarchical_permissions = (mode == "hierarchical")
            leaves = build_tree(bed.env, bed.clients[0], "/app",
                                fanout=params["fanout"], depth=depth)
            ops = run_random_stat(bed.env, bed.clients, leaves,
                                  params["stats"])
            if base is None:
                base = ops
            out.add(mode=mode, depth=depth, stat_ops_per_sec=round(ops),
                    loss_pct=round((1 - ops / base) * 100, 1))
    deep = params["depths"][-1]
    batch_loss = out.value("loss_pct", mode="batch", depth=deep)
    hier_loss = out.value("loss_pct", mode="hierarchical", depth=deep)
    out.derive("batch_loss_pct_deepest", batch_loss)
    out.derive("hierarchical_loss_pct_deepest", hier_loss)
    out.note(f"at depth {deep}: batch check loses {batch_loss}% vs"
             f" {hier_loss}% for per-level checks — batch permission"
             " management removes the depth dependence (Motivation 2)")
    return out


# --------------------------------------------------------------- Ablation C
def run_related_ablation(scale: str = "ci",
                         seed: int = DEFAULT_SEED) -> ExperimentResult:
    params = SCALES[scale]
    out = ExperimentResult(
        experiment="ablC",
        title="ShardFS/LocoFS trade-offs (related work §II.C)",
        scale=scale, seed=seed, params=dict(params))

    # The two worlds get distinct-but-derived streams so the one --seed
    # still states everything the run depended on.
    def shard_world(n_servers):
        cluster = Cluster(seed=seed)
        servers = [cluster.add_node(f"s{i}") for i in range(n_servers)]
        client = cluster.add_node("client")
        return cluster, ShardFS(cluster, servers), client

    def loco_world(n_fms):
        cluster = Cluster(seed=seed + 1)
        dms = cluster.add_node("dms")
        fms = [cluster.add_node(f"f{i}") for i in range(n_fms)]
        client = cluster.add_node("client")
        return cluster, LocoFS(cluster, dms, fms), client

    from repro.sim.core import run_sync

    # (1) stat depth-insensitivity for both.
    for name, make_world in (("shardfs", shard_world),
                             ("locofs", loco_world)):
        for depth in (params["depths"][0], params["depths"][-1]):
            cluster, fs, client = make_world(params["servers"])

            def scenario(depth=depth, fs=fs, client=client,
                         cluster=cluster):
                path = ""
                for i in range(depth):
                    path += f"/d{i}"
                    yield from fs.mkdir(client, path)
                yield from fs.create(client, path + "/leaf")
                t0 = cluster.env.now
                for _ in range(50):
                    yield from fs.getattr(client, path + "/leaf")
                return 50 / (cluster.env.now - t0)

            ops = run_sync(cluster.env, scenario())
            out.add(system=name, metric=f"stat@depth{depth}",
                    value=round(ops))

    # (2) ShardFS mkdir replication cost vs server count.
    for n in (1, params["servers"]):
        cluster, fs, client = shard_world(n)

        def scenario(fs=fs, client=client, cluster=cluster):
            t0 = cluster.env.now
            for i in range(20):
                yield from fs.mkdir(client, f"/d{i}")
            return 20 / (cluster.env.now - t0)

        ops = run_sync(cluster.env, scenario())
        out.add(system="shardfs", metric=f"mkdir@{n}servers",
                value=round(ops))

    # (3) LocoFS DMS ceiling: directory ops only touch the single DMS, so
    # adding file metadata servers cannot speed them up.
    for n in (1, params["servers"]):
        cluster, fs, client_node = loco_world(n)
        done = {"count": 0}

        def dir_maker(i, fs=fs, client=client_node):
            yield from fs.mkdir(client, f"/d{i}")
            done["count"] += 1

        t0 = cluster.env.now
        procs = [cluster.env.process(dir_maker(i)) for i in range(200)]
        for p in procs:
            cluster.env.run(until=p)
        ops = 200 / (cluster.env.now - t0)
        out.add(system="locofs", metric=f"mkdir@{n}fms", value=round(ops))

    out.derive("shardfs_mkdir_replication_slowdown", round(
        out.value("value", system="shardfs", metric="mkdir@1servers")
        / out.value("value", system="shardfs",
                    metric=f"mkdir@{params['servers']}servers"), 3))
    out.derive("locofs_fms_mkdir_gain", round(
        out.value("value", system="locofs",
                  metric=f"mkdir@{params['servers']}fms")
        / out.value("value", system="locofs", metric="mkdir@1fms"), 3))
    out.note("ShardFS: flat stats but mkdir pays per-server replication;"
             " LocoFS: flat stats but directory ops bottleneck on the"
             " single DMS regardless of FMS count — the trade-offs Pacon"
             " avoids")
    return out


# --------------------------------------------------------------- Ablation D
def run_mds_scaling_ablation(scale: str = "ci",
                             seed: int = DEFAULT_SEED) -> ExperimentResult:
    """§II.B: scaling the MDS cluster vs scaling with the clients.

    BeeGFS creation throughput grows (sub-linearly: one shared parent
    directory is owned by one MDS; per-rank directories spread) with MDS
    count, but Pacon on the *same* client nodes — zero extra hardware —
    stays far ahead because the clients themselves absorb the load.
    """
    params = SCALES[scale]
    out = ExperimentResult(
        experiment="ablD",
        title="MDS-cluster scaling vs client-side absorption",
        scale=scale, seed=seed, params=dict(params))

    # mkdir builds per-rank directories (owned by the /app MDS); the
    # measured create phase then spreads across MDSes by directory hash —
    # the friendliest possible case for multi-MDS BeeGFS.
    def create_in_own_dirs(bed):
        env = bed.env
        from repro.sim.resources import Barrier

        sync = Barrier(env, parties=len(bed.clients), name="ablD")
        t = {"start": None, "end": 0.0}
        items = params["items"]

        def proc(rank, client):
            yield from client.mkdir(f"/app/rank{rank}")
            yield sync.arrive()
            if t["start"] is None:
                t["start"] = env.now
            for i in range(items):
                yield from client.create(f"/app/rank{rank}/f{i}")
            yield sync.arrive()
            t["end"] = max(t["end"], env.now)

        procs = [env.process(proc(rank, cl))
                 for rank, cl in enumerate(bed.clients)]
        for p in procs:
            env.run(until=p)
        return items * len(bed.clients) / (t["end"] - t["start"])

    for n_mds in params["mds_counts"]:
        bed = make_testbed("beegfs", n_apps=1, nodes_per_app=params["nodes"],
                           clients_per_node=params["cpn"], n_mds=n_mds,
                           seed=seed)
        ops = create_in_own_dirs(bed)
        out.add(system=f"beegfs-{n_mds}mds", mds=n_mds,
                create_ops_per_sec=round(ops))
    bed = make_testbed("pacon", n_apps=1, nodes_per_app=params["nodes"],
                       clients_per_node=params["cpn"], seed=seed)
    ops = create_in_own_dirs(bed)
    out.add(system="pacon-0-extra-mds", mds=0, create_ops_per_sec=round(ops))
    best_beegfs = max(r["create_ops_per_sec"] for r in out.rows
                      if r["mds"] > 0)
    out.derive("pacon_vs_best_beegfs", round(ops / best_beegfs, 3))
    out.note(f"Pacon with zero added hardware beats BeeGFS with"
             f" {params['mds_counts'][-1]} MDSes by"
             f" {ops / best_beegfs:.1f}x — static MDS scaling cannot keep"
             " up with client counts (paper §II.B)")
    return out


# --------------------------------------------------------------- Ablation E
def run_bulk_insertion_ablation(scale: str = "ci",
                                seed: int = DEFAULT_SEED
                                ) -> ExperimentResult:
    """The BatchFS/DeltaFS approximation: IndexFS + bulk insertion.

    N-N creation (each rank its own directory — the private-namespace
    sweet spot).  Bulk insertion buffers creates client-side and ships
    batches, closing much of the gap to Pacon, but the buffered entries
    are invisible to other clients until flushed — the consistency cost
    §II.B calls out.
    """
    params = SCALES[scale]
    out = ExperimentResult(
        experiment="ablE",
        title="IndexFS bulk insertion (BatchFS/DeltaFS proxy) vs Pacon",
        scale=scale, seed=seed, params=dict(params))
    from repro.sim.core import run_sync
    from repro.sim.resources import Barrier

    def nn_create(bed, clients, items, bulk):
        env = bed.env
        sync = Barrier(env, parties=len(clients), name="nn")
        t = {"start": None, "end": 0.0}

        def proc(rank, client):
            yield from client.mkdir(f"/app/rank{rank}")
            if bulk:
                client.bulk_mode = True
                client.bulk_batch_size = 64
            yield sync.arrive()
            if t["start"] is None:
                t["start"] = env.now
            for i in range(items):
                yield from client.create(f"/app/rank{rank}/f{i}")
            if bulk:
                yield from client.flush_bulk()
            yield sync.arrive()
            t["end"] = max(t["end"], env.now)

        procs = [env.process(proc(rank, cl))
                 for rank, cl in enumerate(clients)]
        for p in procs:
            env.run(until=p)
        return items * len(clients) / (t["end"] - t["start"])

    for label, bulk in (("indexfs", False), ("indexfs+bulk", True)):
        bed = make_testbed("indexfs", n_apps=1,
                           nodes_per_app=params["nodes"],
                           clients_per_node=params["cpn"], seed=seed)
        ops = nn_create(bed, bed.clients, params["items"], bulk)
        out.add(system=label, create_ops_per_sec=round(ops))

    bed = make_testbed("pacon", n_apps=1, nodes_per_app=params["nodes"],
                       clients_per_node=params["cpn"], seed=seed)
    ops = nn_create(bed, bed.clients, params["items"], bulk=False)
    out.add(system="pacon", create_ops_per_sec=round(ops))

    plain = out.value("create_ops_per_sec", system="indexfs")
    bulked = out.value("create_ops_per_sec", system="indexfs+bulk")
    pacon = out.value("create_ops_per_sec", system="pacon")
    out.derive("bulk_insertion_gain", round(bulked / plain, 3))
    out.derive("pacon_vs_bulk", round(pacon / bulked, 3))
    out.note(f"bulk insertion buys IndexFS {bulked / plain:.1f}x on N-N"
             f" creates (Pacon/bulk = {pacon / bulked:.2f}x) — the"
             " BatchFS/DeltaFS trade: raw batch throughput in exchange for"
             " deferred visibility and no shared consistent view, which is"
             " why the paper excludes them as general-purpose systems")
    return out


def run_all(scale: str = "ci",
            seed: int = DEFAULT_SEED) -> List[ExperimentResult]:
    results = []
    for ablation in (run_commit_ablation, run_permission_ablation,
                     run_related_ablation, run_mds_scaling_ablation,
                     run_bulk_insertion_ablation):
        t0 = time.perf_counter()
        result = ablation(scale, seed=seed)
        result.host.setdefault("wall_clock_s",
                               round(time.perf_counter() - t0, 3))
        results.append(result)
    return results
