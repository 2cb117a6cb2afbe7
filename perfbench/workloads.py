"""The benchmark's workloads: world build, closed-loop ranks, output checks.

Every workload runs Pacon with one consistent region on 4 client nodes x
20 clients (mdtest ranks) over a 1-MDS / 3-data BeeGFS cluster.  Each
rank is a closed loop: it issues its next metadata op only when the
previous one has returned.  The benchmark times every op in simulated
time (``env.now`` around the client call) and checks the program's
outputs; it calls the program only through its public API.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Generator, List, Optional

from repro.bench.systems import make_testbed
from repro.obs import MetricsHub
from repro.sim.resources import Barrier
from repro.sim.rng import RngStreams
from repro.sim.trace import Tracer
from repro.workloads.mdtest import MdtestConfig, run_mdtest

__all__ = ["WORKLOADS", "OpLog", "Rep", "run_rep"]

WORKLOADS = ("mdtest_shared", "dir_barrier", "mdtest_traced")

NODES = 4
CLIENTS_PER_NODE = 20
WORKDIR = "/app"
#: mdtest -n: items per rank per phase.  80 ranks x 3 phases x 50 items =
#: 12,000 ops per repetition (half the ROADMAP fig07 point, so a run can
#: repeat the workload and report medians).
MDTEST_ITEMS = 50
MDTEST_PHASES = ("mkdir", "create", "stat")
#: dir_barrier: rounds per rank and files per round.  Each rank does
#: 1 + ROUNDS x (3 + 2.5 x FILES) + 1 = 168 ops, so 13,440 in all.
BARRIER_ROUNDS = 2
BARRIER_FILES = 32
#: Gauge sample interval of the hub attached in mdtest_traced.
SAMPLE_INTERVAL = 200e-6


class OpLog:
    """Per-op simulated latency and failures of one repetition."""

    def __init__(self, env):
        self.env = env
        self.latencies: List[float] = []
        self.failures: List[str] = []
        self.first_start: Optional[float] = None
        self.last_end = 0.0

    def run(self, op: str, call: Callable, path: str,
            check: Optional[Callable[[Any], Optional[str]]] = None,
            ) -> Generator[Any, Any, Any]:
        """Drive one client call; record its latency and outcome."""
        env = self.env
        start = env.now
        if self.first_start is None:
            self.first_start = start
        try:
            result = yield from call(path)
        except Exception as exc:  # a failed op is counted, not fatal
            self.failures.append(f"{op} {path}: {type(exc).__name__} {exc}")
            result = None
        else:
            problem = check(result) if check is not None else None
            if problem is not None:
                self.failures.append(f"{op} {path}: {problem}")
        end = env.now
        self.latencies.append(end - start)
        if end > self.last_end:
            self.last_end = end
        return result


def _is_file(inode) -> Optional[str]:
    return "expected a regular file" if inode.is_dir else None


def _lists(names: List[str]) -> Callable[[Any], Optional[str]]:
    expected = sorted(names)

    def check(listing) -> Optional[str]:
        got = sorted(listing)
        return None if got == expected else f"listed {got}, live {expected}"
    return check


def _removes(count: int) -> Callable[[Any], Optional[str]]:
    def check(removed) -> Optional[str]:
        return None if removed == count else \
            f"removed {removed} inodes, expected {count}"
    return check


class _TimedClient:
    """What mdtest sees as a client: each call goes through the OpLog."""

    def __init__(self, client, log: OpLog):
        self._client = client
        self._log = log

    def mkdir(self, path):
        return self._log.run("mkdir", self._client.mkdir, path)

    def create(self, path):
        return self._log.run("create", self._client.create, path)

    def getattr(self, path):
        return self._log.run("getattr", self._client.getattr, path, _is_file)


def _drive_mdtest(bed, log: OpLog, seed: int) -> Dict[str, bool]:
    """mdtest mkdir -> create -> random-global stat in one shared parent."""
    config = MdtestConfig(workdir=WORKDIR, items_per_client=MDTEST_ITEMS,
                          phases=MDTEST_PHASES)
    clients = [_TimedClient(c, log) for c in bed.clients]
    run_mdtest(bed.env, clients, config, rng=RngStreams(seed))
    ranks = range(len(bed.clients))
    expected = {WORKDIR: True}
    for rank in ranks:
        for i in range(MDTEST_ITEMS):
            expected[f"{WORKDIR}/dir.{rank}.{i}"] = True
            expected[f"{WORKDIR}/file.{rank}.{i}"] = False
    return expected


def _barrier_rank(log: OpLog, client, rank: int, rng,
                  phase: Barrier) -> Generator[Any, Any, None]:
    """One rank: rounds of mkdir, create, readdir, stat, rm half, rmdir.

    Ranks meet at ``phase`` between the steps of a round, as mdtest ranks
    meet between phases, so each step runs with all ranks active.  The
    seed picks the round directories' names (and so their cache shards),
    the stat order and the files removed.
    """
    home = f"{WORKDIR}/rank{rank}"
    yield from log.run("mkdir", client.mkdir, home)
    count = BARRIER_FILES
    names = [f"f{i}" for i in range(count)]
    for rnd in range(BARRIER_ROUNDS):
        d = f"{home}/round{rnd}.{int(rng.integers(1 << 30)):x}"
        doomed = sorted(rng.choice(count, count // 2, replace=False))
        yield phase.arrive()
        yield from log.run("mkdir", client.mkdir, d)
        for name in names:
            yield from log.run("create", client.create, f"{d}/{name}")
        yield phase.arrive()
        yield from log.run("readdir", client.readdir, d, _lists(names))
        yield phase.arrive()
        for i in rng.permutation(count):
            yield from log.run("getattr", client.getattr,
                               f"{d}/{names[i]}", _is_file)
        yield phase.arrive()
        for i in doomed:
            yield from log.run("rm", client.rm, f"{d}/{names[i]}")
        yield phase.arrive()
        yield from log.run("rmdir", client.rmdir, d,
                           _removes(1 + count - len(doomed)))
    yield from log.run("create", client.create, f"{home}/done")


def _drive_barrier(bed, log: OpLog, seed: int) -> Dict[str, bool]:
    """Per-rank directories: every readdir and rmdir is a region barrier."""
    env = bed.env
    streams = RngStreams(seed)
    phase = Barrier(env, parties=len(bed.clients), name="dir_barrier")
    procs = [env.process(_barrier_rank(log, client, rank,
                                       streams.stream(f"rank{rank}"),
                                       phase),
                         label=f"dir_barrier:rank{rank}")
             for rank, client in enumerate(bed.clients)]
    for proc in procs:
        env.run(until=proc)
    expected = {WORKDIR: True}
    for rank in range(len(bed.clients)):
        expected[f"{WORKDIR}/rank{rank}"] = True
        expected[f"{WORKDIR}/rank{rank}/done"] = False
    return expected


def _rank(count: int, q: float) -> int:
    """Index of the nearest-rank ``q`` quantile in a sorted list."""
    return max(0, math.ceil(q * count) - 1)


@dataclass
class Rep:
    """One repetition of a workload: a fresh world, timed and checked."""

    build_s: float
    cpu_s: float
    export_s: float
    ops: int
    failures: List[str]
    events: int
    sim: Dict[str, float]
    #: Latency samples beyond the p99.9 one.
    p999_beyond: int
    bed: Any = field(default=None, repr=False)


def build(workload: str, seed: int):
    """World build plus hub attach (the benchmark's set-up)."""
    hub = None
    if workload == "mdtest_traced":
        hub = MetricsHub(tracer=Tracer(), sample_interval=SAMPLE_INTERVAL)
    bed = make_testbed("pacon", n_apps=1, nodes_per_app=NODES,
                       clients_per_node=CLIENTS_PER_NODE, seed=seed, hub=hub)
    return bed, hub


def run_rep(workload: str, seed: int,
            on_built: Optional[Callable[[Any], None]] = None,
            on_timed_end: Optional[Callable[[], None]] = None) -> Rep:
    """Build, drive, drain and check one repetition of ``workload``.

    ``on_built`` runs after set-up, just before the timed section;
    ``on_timed_end`` right after it.  The traced run uses both.
    """
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    started = time.perf_counter()
    bed, hub = build(workload, seed)
    build_s = time.perf_counter() - started
    log = OpLog(bed.env)
    if on_built is not None:
        on_built(bed)
    cpu0 = time.process_time()
    drive = _drive_barrier if workload == "dir_barrier" else _drive_mdtest
    expected = drive(bed, log, seed)
    bed.quiesce()
    export_s = 0.0
    if hub is not None:
        t0 = time.perf_counter()
        hub.export()
        export_s = time.perf_counter() - t0
    cpu_s = time.process_time() - cpu0
    if on_timed_end is not None:
        on_timed_end()

    failures = list(log.failures)
    namespace = bed.dfs.namespace
    actual = {path: inode.is_dir for path, inode in namespace.walk(WORKDIR)}
    for path in sorted(set(expected) | set(actual)):
        if expected.get(path) != actual.get(path):
            failures.append(f"namespace {path}: expected"
                            f" {_kind(expected.get(path))},"
                            f" found {_kind(actual.get(path))}")
    region = bed.app.region
    resolved = region.ops_committed + sum(
        cp.discarded + cp.coalesced for cp in region.commit_processes)
    if region.ops_submitted != resolved:
        failures.append(f"accounting: {region.ops_submitted} submitted,"
                        f" {resolved} committed+discarded+coalesced")

    ordered = sorted(log.latencies)
    ops = len(ordered)
    # The DFS has caught up when it applies its last mutation under the
    # workspace; every mutation stamps its parent directory's mtime.
    last_apply = max(inode.mtime for _, inode in namespace.walk(WORKDIR)
                     if inode.is_dir)
    p999 = _rank(ops, 0.999)
    sim = {
        "sim_ops_per_s": ops / (log.last_end - log.first_start),
        "sim_op_p50_us": ordered[_rank(ops, 0.5)] * 1e6,
        "sim_op_p999_us": ordered[p999] * 1e6,
        "sim_drain_ms": (last_apply - log.last_end) * 1e3,
    }
    return Rep(build_s=build_s, cpu_s=cpu_s, export_s=export_s, ops=ops,
               failures=failures, events=bed.env.processed_events, sim=sim,
               p999_beyond=ops - 1 - p999, bed=bed)


def _kind(is_dir: Optional[bool]) -> str:
    return "nothing" if is_dir is None else ("dir" if is_dir else "file")
