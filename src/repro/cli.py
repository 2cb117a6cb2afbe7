"""Command-line interface: run workloads and experiments without code.

Installed as ``pacon-bench`` (see pyproject) or usable as
``python -m repro.cli``::

    pacon-bench mdtest --system pacon --nodes 4 --clients-per-node 8 \
        --items 100
    pacon-bench madbench --system beegfs --file-size 4194304
    pacon-bench figure fig07 --scale paper --metrics-out fig07.metrics.json
    pacon-bench all --scale ci --out report.md --bench-label nightly
    pacon-bench compare BENCH_a.json BENCH_b.json --json
    pacon-bench history --metric 'fig07.*'
    pacon-bench stats --nodes 2 --items 25 --out metrics.json
    pacon-bench incidents --json --out incidents.json
    pacon-bench trace --nodes 2 --items 5 --limit 100
    pacon-bench trace --since 0.001 --until 0.002 --chrome trace.json
    pacon-bench profile --nodes 2 --items 25 --top 10
    pacon-bench elastic --scale smoke --metrics-out elastic.metrics.json
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

__all__ = ["main", "build_parser"]

DEFAULT_SEED = 0xBEE


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pacon-bench",
        description="Pacon reproduction: workloads and paper experiments")
    sub = parser.add_subparsers(dest="command", required=True)

    mdtest = sub.add_parser("mdtest", help="run the mdtest-like workload")
    mdtest.add_argument("--system", choices=("beegfs", "indexfs", "pacon"),
                        default="pacon")
    mdtest.add_argument("--nodes", type=int, default=4)
    mdtest.add_argument("--clients-per-node", type=int, default=8)
    mdtest.add_argument("--items", type=int, default=50)
    mdtest.add_argument("--phases", default="mkdir,create,stat",
                        help="comma-separated: mkdir,create,stat,rm")
    mdtest.add_argument("--seed", type=int, default=0xBEE)

    madbench = sub.add_parser("madbench",
                              help="run the MADbench2-like workload")
    madbench.add_argument("--system", choices=("beegfs", "pacon"),
                          default="pacon")
    madbench.add_argument("--nodes", type=int, default=4)
    madbench.add_argument("--procs-per-node", type=int, default=4)
    madbench.add_argument("--file-size", type=int, default=1 << 20)
    madbench.add_argument("--iterations", type=int, default=3)

    figure = sub.add_parser("figure", help="regenerate one paper figure")
    figure.add_argument("name",
                        choices=("fig01", "fig02", "table1", "fig07",
                                 "fig08", "fig09", "fig10", "fig11",
                                 "fig12", "latency", "sensitivity",
                                 "staleness"))
    figure.add_argument("--scale", choices=("smoke", "ci", "paper"),
                        default="ci")
    figure.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help="simulation seed (drivers that accept one)")
    figure.add_argument("--metrics-out", default=None,
                        help="write a MetricsHub JSON artifact here"
                             " (drivers that support observability)")
    figure.add_argument("--trace-out", default=None, metavar="OUT_JSON",
                        help="write a Chrome trace-event JSON artifact"
                             " here (drivers that support observability)")

    everything = sub.add_parser("all", help="regenerate every experiment")
    everything.add_argument("--scale", choices=("smoke", "ci", "paper"),
                            default="ci")
    everything.add_argument("--seed", type=int, default=DEFAULT_SEED,
                            help="simulation seed for every driver")
    everything.add_argument("--out", default=None,
                            help="write a markdown report here")
    everything.add_argument("--metrics-out", default=None,
                            help="write a MetricsHub JSON artifact here")
    everything.add_argument("--bench-out", default=None, metavar="SNAPSHOT",
                            help="write a pacon.bench/v1 snapshot here")
    everything.add_argument("--bench-label", default=None,
                            help="write a snapshot named BENCH_<label>.json"
                                 " in the current directory")

    compare = sub.add_parser(
        "compare", help="compare two benchmark snapshots and flag"
                        " regressions")
    compare.add_argument("baseline", help="baseline BENCH_*.json")
    compare.add_argument("candidate", help="candidate BENCH_*.json")
    compare.add_argument("--tolerance", action="append", default=[],
                         metavar="METRIC=REL",
                         help="per-metric relative tolerance for simulated"
                              " metrics (glob ok; e.g."
                              " 'fig07.derived.*=0.05'); default exact")
    compare.add_argument("--host-threshold", type=float, default=None,
                         help="relative threshold for host wall-clock/RSS"
                              " metrics (default 0.5)")
    compare.add_argument("--ignore-host", action="store_true",
                         help="skip host metrics entirely (use when the"
                              " two snapshots came from different"
                              " machines)")
    compare.add_argument("--json", action="store_true", dest="as_json",
                         help="machine-readable output instead of a table")

    history = sub.add_parser(
        "history", help="fold BENCH_*.json snapshots into per-metric"
                        " trajectories")
    history.add_argument("snapshots", nargs="*",
                         help="snapshot files (default: BENCH_*.json in"
                              " the current directory)")
    history.add_argument("--metric", default=None,
                         help="only metrics matching this name/glob")
    history.add_argument("--json", action="store_true", dest="as_json",
                         help="machine-readable output instead of a table")

    def _observed_workload_args(p) -> None:
        p.add_argument("--nodes", type=int, default=2)
        p.add_argument("--clients-per-node", type=int, default=4)
        p.add_argument("--items", type=int, default=20)
        p.add_argument("--phases", default="mkdir,create,stat",
                       help="comma-separated: mkdir,create,stat,rm")
        p.add_argument("--seed", type=int, default=0xBEE)
        p.add_argument("--sample-interval", type=float, default=200e-6,
                       help="gauge sampler period in simulated seconds"
                            " (0 disables sampling)")
        p.add_argument("--out", default=None, help="write output here"
                                                   " instead of stdout")

    stats = sub.add_parser(
        "stats", help="run an observed Pacon mdtest workload and export"
                      " the MetricsHub JSON document")
    _observed_workload_args(stats)
    stats.add_argument("--compact", action="store_true",
                       help="single-line JSON (default is indented)")

    trace = sub.add_parser(
        "trace", help="run a traced Pacon mdtest workload and render the"
                      " span/commit event log")
    _observed_workload_args(trace)
    trace.add_argument("--limit", type=int, default=200,
                       help="max events to render")
    trace.add_argument("--kind", default=None,
                       help="filter events by kind (e.g. op.end, commit)")
    trace.add_argument("--actor", default=None,
                       help="filter events by actor")
    trace.add_argument("--since", type=float, default=0.0,
                       help="only events at/after this simulated time (s)")
    trace.add_argument("--until", type=float, default=float("inf"),
                       help="only events at/before this simulated time (s)")
    trace.add_argument("--chrome", default=None, metavar="OUT_JSON",
                       help="additionally write a Chrome trace-event JSON"
                            " file (open in Perfetto / chrome://tracing)")

    profile = sub.add_parser(
        "profile", help="run a traced Pacon mdtest workload and print"
                        " latency attribution + resource profile tables")
    _observed_workload_args(profile)
    profile.add_argument("--top", type=int, default=10,
                         help="how many slowest ops to list")

    slo = sub.add_parser(
        "slo", help="evaluate SLO objectives against an exported"
                    " pacon.metrics JSON document")
    slo.add_argument("metrics", help="metrics JSON (pacon-bench stats /"
                                     " figure --metrics-out)")
    slo.add_argument("--policy", default="default",
                     help="named policy (default, chaos)")
    slo.add_argument("--window", nargs=2, type=float, default=None,
                     metavar=("T0", "T1"),
                     help="evaluate only series-based objectives inside"
                          " this simulated-time window")
    slo.add_argument("--json", action="store_true", dest="as_json",
                     help="machine-readable result instead of a table")

    chaos = sub.add_parser(
        "chaos", help="inject faults into a live Pacon run and check the"
                      " post-recovery convergence invariants")
    chaos.add_argument("scenario", nargs="?", default="all",
                       choices=("all", "mds_crash", "barrier_crash",
                                "partition_heal", "cache_churn",
                                "node_crash"))
    chaos.add_argument("--seed", type=int, default=DEFAULT_SEED)
    chaos.add_argument("--items", type=int, default=24,
                       help="files created per client")
    chaos.add_argument("--nodes", type=int, default=3)
    chaos.add_argument("--clients-per-node", type=int, default=2)
    chaos.add_argument("--metrics-out", default=None,
                       help="write the faulty run's MetricsHub JSON here"
                            " (includes the chaos.* counters)")
    chaos.add_argument("--json", action="store_true", dest="as_json",
                       help="machine-readable scenario summaries")

    incidents = sub.add_parser(
        "incidents", help="run chaos scenarios through the incident"
                          " flight recorder: detect SLO-burn incidents,"
                          " blame control-plane causes, and gate on"
                          " every fault being the top suspect")
    incidents.add_argument("scenario", nargs="?", default="all",
                           choices=("all", "mds_crash", "barrier_crash",
                                    "partition_heal", "cache_churn",
                                    "node_crash"))
    incidents.add_argument("--seed", type=int, default=DEFAULT_SEED)
    incidents.add_argument("--items", type=int, default=24,
                           help="files created per client")
    incidents.add_argument("--nodes", type=int, default=3)
    incidents.add_argument("--clients-per-node", type=int, default=2)
    incidents.add_argument("--json", action="store_true", dest="as_json",
                           help="machine-readable incident + attribution"
                                " payload instead of a report")
    incidents.add_argument("--out", default=None,
                           help="also write the output here (CI artifact)")

    elastic = sub.add_parser(
        "elastic", help="flash-crowd elasticity bench: autoscaled vs."
                        " statically provisioned runs of one workload")
    elastic.add_argument("--scale", choices=("smoke", "ci", "paper"),
                         default="smoke")
    elastic.add_argument("--seed", type=int, default=DEFAULT_SEED)
    elastic.add_argument("--metrics-out", default=None,
                         help="write the autoscaled run's MetricsHub JSON"
                              " here (includes the autoscale.* series)")
    elastic.add_argument("--json", action="store_true", dest="as_json",
                         help="machine-readable rows + derived metrics")
    return parser


def _cmd_mdtest(args) -> int:
    from repro.bench.systems import make_testbed
    from repro.workloads.mdtest import MdtestConfig, run_mdtest

    bed = make_testbed(args.system, n_apps=1, nodes_per_app=args.nodes,
                       clients_per_node=args.clients_per_node,
                       seed=args.seed)
    phases = tuple(p.strip() for p in args.phases.split(",") if p.strip())
    config = MdtestConfig(workdir="/app", items_per_client=args.items,
                          phases=phases)
    result = run_mdtest(bed.env, bed.clients, config)
    print(f"system={args.system} clients={len(bed.clients)}"
          f" items/client={args.items}")
    for phase in phases:
        print(f"  {phase:>7}: {result.ops(phase):>12,.0f} ops/s"
              f"  ({result.phase_elapsed[phase] * 1e3:.2f} ms simulated)")
    return 0


def _cmd_madbench(args) -> int:
    from repro.bench.systems import make_testbed
    from repro.workloads.madbench import MadbenchConfig, run_madbench

    bed = make_testbed(args.system, n_apps=1, nodes_per_app=args.nodes,
                       clients_per_node=args.procs_per_node,
                       workdir_base="/madbench")
    config = MadbenchConfig(workdir="/madbench", file_size=args.file_size,
                            iterations=args.iterations)
    result = run_madbench(bed.env, bed.clients, config)
    bed.quiesce()
    shares = result.shares()
    print(f"system={args.system} procs={len(bed.clients)}"
          f" file={args.file_size} bytes x{args.iterations} rounds")
    print(f"  total: {result.total_time * 1e3:.2f} ms simulated")
    for part in ("init", "write", "read", "other"):
        print(f"  {part:>6}: {shares[part] * 100:5.1f}%")
    return 0


def _cmd_figure(args) -> int:
    import importlib
    import inspect

    driver = importlib.import_module(f"repro.bench.{args.name}")
    accepted = inspect.signature(driver.run).parameters
    kwargs = {}
    if "seed" in accepted:
        kwargs["seed"] = args.seed
    hub = None
    if args.metrics_out or args.trace_out:
        if "hub" not in accepted:
            print(f"{args.name} does not support --metrics-out/--trace-out",
                  file=sys.stderr)
            return 2
        from repro.bench.runner import METRICS_SAMPLE_INTERVAL
        from repro.obs.hub import MetricsHub
        tracer = None
        if args.trace_out:
            from repro.sim.trace import Tracer
            tracer = Tracer()
        hub = MetricsHub(tracer=tracer,
                         sample_interval=METRICS_SAMPLE_INTERVAL)
        kwargs["hub"] = hub
    result = driver.run(args.scale, **kwargs)
    print(result.render())
    # One export serves both artifacts, so the metrics JSON and the
    # trace's incident track are guaranteed to agree.
    doc = hub.export() if hub is not None else None
    if hub is not None and args.metrics_out:
        with open(args.metrics_out, "w") as fh:
            fh.write(hub.to_json(indent=2, doc=doc))
        print(f"metrics written to {args.metrics_out}")
    if hub is not None and args.trace_out:
        from repro.obs.chrome import write_chrome_trace
        count = write_chrome_trace(
            args.trace_out, hub.tracer, hub,
            incidents=doc["incidents"]["incidents"])
        print(f"chrome trace written to {args.trace_out}"
              f" ({count} events)")
    return 0


def _cmd_all(args) -> int:
    import time

    from repro.bench.report import write_markdown
    from repro.bench.runner import run_all, write_snapshot_file

    started = time.perf_counter()
    results = run_all(args.scale, metrics_path=args.metrics_out,
                      seed=args.seed)
    wall = time.perf_counter() - started
    if args.out:
        write_markdown(results, args.out)
        print(f"report written to {args.out}")
    if args.bench_out or args.bench_label:
        path = write_snapshot_file(results, scale=args.scale,
                                   seed=args.seed, path=args.bench_out,
                                   label=args.bench_label,
                                   wall_clock_s=wall)
        print(f"benchmark snapshot written to {path}")
    return 0


def _cmd_compare(args) -> int:
    import json

    from repro.bench.baseline import (DEFAULT_HOST_THRESHOLD,
                                      compare_files, render_comparison)
    from repro.bench.snapshot import SnapshotError

    tolerances = {}
    for spec in args.tolerance:
        name, sep, value = spec.partition("=")
        if not sep or not name:
            print(f"bad --tolerance {spec!r}: expected METRIC=REL",
                  file=sys.stderr)
            return 2
        try:
            tolerances[name] = float(value)
        except ValueError:
            print(f"bad --tolerance {spec!r}: {value!r} is not a number",
                  file=sys.stderr)
            return 2
    host_threshold = (DEFAULT_HOST_THRESHOLD if args.host_threshold is None
                      else args.host_threshold)
    try:
        comparison = compare_files(args.baseline, args.candidate,
                                   tolerances=tolerances,
                                   host_threshold=host_threshold,
                                   ignore_host=args.ignore_host)
    except SnapshotError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.as_json:
        print(json.dumps(comparison.to_doc(), indent=2, sort_keys=True))
    else:
        print(render_comparison(comparison))
    return 0 if comparison.ok else 1


def _cmd_history(args) -> int:
    import json

    from repro.bench.baseline import (history_rows, load_history,
                                      render_history)
    from repro.bench.snapshot import SnapshotError, collect_snapshot_paths

    paths = args.snapshots or collect_snapshot_paths(".")
    if not paths:
        print("no BENCH_*.json snapshots found (pass paths or run"
              " `pacon-bench all --bench-label LABEL` first)",
              file=sys.stderr)
        return 2
    try:
        docs = load_history(paths)
    except SnapshotError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.as_json:
        rows = history_rows(docs, metric_glob=args.metric)
        print(json.dumps(rows, indent=2, sort_keys=True))
    else:
        print(render_history(docs, metric_glob=args.metric))
    return 0


def _run_observed(args, with_tracer: bool):
    """Run one Pacon mdtest workload with observability installed.

    Returns the populated :class:`repro.obs.MetricsHub` (its tracer holds
    the event log when ``with_tracer``).
    """
    from repro.bench.systems import make_testbed
    from repro.obs.hub import MetricsHub
    from repro.sim.trace import Tracer
    from repro.workloads.mdtest import MdtestConfig, run_mdtest

    tracer = Tracer() if with_tracer else None
    interval = args.sample_interval if args.sample_interval > 0 else None
    hub = MetricsHub(tracer=tracer, sample_interval=interval)
    bed = make_testbed("pacon", n_apps=1, nodes_per_app=args.nodes,
                       clients_per_node=args.clients_per_node,
                       seed=args.seed, hub=hub)
    phases = tuple(p.strip() for p in args.phases.split(",") if p.strip())
    config = MdtestConfig(workdir="/app", items_per_client=args.items,
                          phases=phases)
    run_mdtest(bed.env, bed.clients, config)
    bed.quiesce()
    hub.stop_samplers()
    return hub


def _emit(text: str, out: Optional[str]) -> None:
    if out:
        with open(out, "w") as fh:
            fh.write(text + "\n")
        print(f"written to {out}")
    else:
        print(text)


def _cmd_stats(args) -> int:
    hub = _run_observed(args, with_tracer=False)
    _emit(hub.to_json(indent=None if args.compact else 2), args.out)
    return 0


def _cmd_trace(args) -> int:
    hub = _run_observed(args, with_tracer=True)
    filters = {"since": args.since, "until": args.until}
    if args.kind:
        filters["kind"] = args.kind
    if args.actor:
        filters["actor"] = args.actor
    _emit(hub.tracer.render(limit=args.limit, **filters), args.out)
    if args.chrome:
        from repro.obs.chrome import write_chrome_trace
        incidents = hub.export()["incidents"]["incidents"]
        count = write_chrome_trace(args.chrome, hub.tracer, hub,
                                   since=args.since, until=args.until,
                                   incidents=incidents)
        print(f"chrome trace written to {args.chrome} ({count} events)")
    return 0


def _cmd_profile(args) -> int:
    from repro.obs.profile import render_report

    hub = _run_observed(args, with_tracer=True)
    _emit(render_report(hub, top=args.top), args.out)
    return 0


def _cmd_slo(args) -> int:
    import json

    from repro.obs.slo import evaluate_file, format_result, get_policy

    try:
        policy = get_policy(args.policy)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    window = tuple(args.window) if args.window else None
    result = evaluate_file(args.metrics, policy=policy, window=window)
    if args.as_json:
        print(json.dumps(result.to_doc(), indent=2, sort_keys=True))
    else:
        print(format_result(result))
    return 0 if result.passed else 1


def _cmd_chaos(args) -> int:
    import json

    from repro.chaos.scenarios import SCENARIOS, run_scenario
    from repro.obs.hub import MetricsHub

    names = SCENARIOS if args.scenario == "all" else (args.scenario,)
    results = []
    hub = None
    for name in names:
        # Fresh hub per scenario: each scenario is its own simulated
        # world starting at t=0, so sharing one hub would interleave
        # their gauge series and corrupt the windowed SLO verdicts.
        # The metrics artifact carries the last scenario's run.
        hub = MetricsHub(sample_interval=200e-6) if args.metrics_out \
            else None
        results.append(run_scenario(
            name, seed=args.seed, hub=hub, items=args.items,
            n_nodes=args.nodes, clients_per_node=args.clients_per_node))
    if args.as_json:
        print(json.dumps([r.summary() for r in results], indent=2,
                         sort_keys=True))
    else:
        for r in results:
            status = "ok" if r.ok else "FAILED"
            print(f"== {r.name} [{status}] seed={r.seed}"
                  f" faults={len(r.fault_records)} lost={r.lost_ops}"
                  f" replays={r.replays} dropped={r.dropped}")
            print(r.report)
            for rec in r.fault_records:
                print(f"  fault {rec.kind}[{rec.target}]"
                      f" t={rec.injected_at:.6f}->{rec.recovered_at:.6f}"
                      f" lost={rec.lost_ops} {rec.detail}")
            for label, doc in (("during-fault", r.slo_during),
                               ("post-recovery", r.slo_post)):
                if doc is None:
                    continue
                for obj in doc["objectives"]:
                    mark = "ok" if obj["ok"] else "VIOLATED"
                    print(f"  slo {label} [{mark}] {obj['name']}:"
                          f" {obj['measured']:.6g} <="
                          f" {obj['target']:.6g} ({obj['metric']})")
    if hub is not None:
        with open(args.metrics_out, "w") as fh:
            fh.write(hub.to_json(indent=2))
        print(f"metrics written to {args.metrics_out}")
    return 0 if all(r.ok for r in results) else 1


def _cmd_incidents(args) -> int:
    import json

    from repro.chaos.scenarios import SCENARIOS, run_scenario
    from repro.obs.incidents import format_report

    names = SCENARIOS if args.scenario == "all" else (args.scenario,)
    chunks: List[str] = []
    payload = []
    all_attributed = True
    for name in names:
        result = run_scenario(
            name, seed=args.seed, items=args.items, n_nodes=args.nodes,
            clients_per_node=args.clients_per_node)
        doc = result.metrics_doc
        all_attributed &= result.faults_attributed
        if args.as_json:
            payload.append({
                "scenario": name,
                "seed": result.seed,
                "attributed": result.faults_attributed,
                "incidents": doc["incidents"],
                "attribution": result.attribution,
            })
        else:
            status = "ok" if result.faults_attributed else "UNATTRIBUTED"
            chunks.append(f"== {name} [{status}] seed={result.seed}")
            chunks.append(format_report(doc))
    text = json.dumps(payload, indent=2, sort_keys=True) if args.as_json \
        else "\n".join(chunks)
    print(text)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
        print(f"written to {args.out}")
    return 0 if all_attributed else 1


def _cmd_elastic(args) -> int:
    import json

    from repro.bench import elastic as driver
    from repro.obs.hub import MetricsHub

    hub = None
    if args.metrics_out:
        hub = MetricsHub(
            sample_interval=driver.SCALES[args.scale]["sample_interval"])
    result = driver.run(args.scale, seed=args.seed, hub=hub)
    if args.as_json:
        print(json.dumps(result.to_snapshot(), indent=2, sort_keys=True))
    else:
        print(result.render())
    if hub is not None:
        with open(args.metrics_out, "w") as fh:
            fh.write(hub.to_json(indent=2))
        print(f"metrics written to {args.metrics_out}")
    # The headline claim gates the exit code: once adapted, the
    # autoscaled run must beat static_min on steady-state tail latency
    # while costing less than static_peak provisioning.
    ok = (result.derived["steady_p99_speedup_vs_static_min"] > 1.0
          and result.derived["cost_ratio_vs_static_peak"] < 1.0)
    return 0 if ok else 1


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {"mdtest": _cmd_mdtest, "madbench": _cmd_madbench,
                "figure": _cmd_figure, "all": _cmd_all,
                "compare": _cmd_compare, "history": _cmd_history,
                "stats": _cmd_stats, "trace": _cmd_trace,
                "profile": _cmd_profile, "chaos": _cmd_chaos,
                "slo": _cmd_slo, "elastic": _cmd_elastic,
                "incidents": _cmd_incidents}
    return handlers[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
