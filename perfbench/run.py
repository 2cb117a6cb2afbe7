"""Pacon benchmark: one workload per process, end-to-end or per-layer.

Usage (from the repository root)::

    python3 perfbench/run.py --workload mdtest_shared --seed 1 \\
        --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1     # every workload

``--trace 0`` repeats the workload (a fresh world each time, same seed)
until ``--seconds`` have been measured and reports the end-to-end
metrics: host cost as medians over the repetitions, simulated metrics
from the first repetition (every repetition must reproduce them).
``--trace 1`` runs the workload once untraced and once with the layer
wrappers installed, checks that both give identical simulated results,
and reports the per-layer metrics.  Sampled spans and the per-function
breakdown go to ``perfbench/out/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is
nonzero when any output check fails.
"""

import time

_STARTED = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(HERE, "out")

END_TO_END = [
    ("host_us_per_op", "us"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("sim_ops_per_s", "op/s"),
    ("sim_op_p50_us", "us"),
    ("sim_op_p999_us", "us"),
    ("sim_drain_ms", "ms"),
]


def _import_program():
    """Import the benchmark modules and the program from ``src/``."""
    src = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(src, "repro")):
        raise SystemExit(f"error: no program sources at {src}/repro")
    sys.path[:0] = [src, HERE]
    import workloads
    return workloads


def _sim_signature(rep):
    return (rep.ops, rep.events, tuple(sorted(rep.sim.items())))


def run_end_to_end(workloads, workload, seed, seconds, import_s):
    """Repeat the workload for ``seconds``; the end-to-end metrics."""
    reps = []
    measured = 0.0
    while len(reps) < 2 or measured < seconds:
        gc.collect()
        started = time.perf_counter()
        rep = workloads.run_rep(workload, seed)
        rep.bed = None
        measured += time.perf_counter() - started
        reps.append(rep)
    first = reps[0]
    failures = [f for rep in reps for f in rep.failures]
    for i, rep in enumerate(reps[1:], 1):
        if _sim_signature(rep) != _sim_signature(first):
            failures.append(f"repetition {i} diverged from repetition 0:"
                            f" {_sim_signature(rep)} vs"
                            f" {_sim_signature(first)}")
    host = [rep.cpu_s / rep.ops * 1e6 for rep in reps]
    values = {
        "host_us_per_op": statistics.median(host),
        "setup_s": import_s + statistics.median(rep.build_s for rep in reps),
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    values.update(first.sim)
    notes = {
        "host_us_per_op": f"median of {len(reps)} repetitions: "
                          + " ".join(f"{v:.1f}" for v in host),
        "setup_s": f"import {import_s:.3f} s + median of {len(reps)}"
                   " world builds",
        "sim_op_p50_us": f"{first.ops} samples",
        "sim_op_p999_us": f"{first.ops} samples,"
                          f" {first.p999_beyond} beyond",
        "sim_ops_per_s": f"{first.ops} ops",
    }
    for name, unit in END_TO_END:
        note = notes.get(name, "")
        print(f"{workload} {name} = {values[name]:.6g} {unit}"
              + (f"  ({note})" if note else ""))
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in END_TO_END}
    attempted = sum(rep.ops for rep in reps)
    return metrics, attempted, failures


def run_traced(workloads, workload, seed):
    """One untraced and one traced repetition; the per-layer metrics."""
    from layers import PER_LAYER, breakdown, layer_metrics, table
    from layertrace import LayerTracer

    gc.collect()
    base = workloads.run_rep(workload, seed)
    base.bed = None
    gc.collect()

    tracer = LayerTracer()
    barrier_waits = []
    tracer.install(table(tracer, barrier_waits))
    timed = {}
    # Recording is on from the start of set-up so the long-lived loops
    # started there are traced; start_section discards set-up counts.
    tracer.set_recording(True)
    try:
        traced = workloads.run_rep(
            workload, seed, on_built=lambda bed: tracer.start_section(bed.env),
            on_timed_end=lambda: timed.update(tracer.end_section()))
    finally:
        tracer.set_recording(False)
        tracer.uninstall()
    cost = tracer.calibrate()

    failures = base.failures + traced.failures
    if _sim_signature(traced) != _sim_signature(base):
        failures.append("tracing perturbed the simulation:"
                        f" {_sim_signature(traced)} traced vs"
                        f" {_sim_signature(base)} untraced")
    layers = breakdown(timed, cost)
    calls = {key: stats["calls"] for key, stats in timed.items()}
    values = layer_metrics(traced.bed, traced.ops, layers, calls,
                           barrier_waits, base.cpu_s, traced.cpu_s,
                           base.export_s)
    for name, unit in PER_LAYER:
        print(f"{workload} {name} = {values[name]:.6g} {unit}")
    _write_trace(workload, seed, tracer, timed, cost, layers, base, traced)
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in PER_LAYER}
    return metrics, base.ops + traced.ops, failures


def _write_trace(workload, seed, tracer, timed, cost, layers, base, traced):
    """Sampled spans and the per-function breakdown, under ``out/``."""
    os.makedirs(OUT_DIR, exist_ok=True)
    stem = os.path.join(OUT_DIR, f"{workload}-seed{seed}")
    fields = ("op_id", "span_id", "parent_id", "layer", "function",
              "host_start_ns", "host_end_ns", "sim_start_s", "sim_end_s")
    with open(stem + ".spans.jsonl", "w") as out:
        for span in tracer.spans:
            out.write(json.dumps(dict(zip(fields, span))) + "\n")
    summary = {
        "workload": workload, "seed": seed, "ops": traced.ops,
        "untraced_cpu_s": base.cpu_s, "traced_cpu_s": traced.cpu_s,
        "wrapper_cost_ns": cost, "layers": layers, "functions": timed,
    }
    with open(stem + ".layers.json", "w") as out:
        json.dump(summary, out, indent=1, sort_keys=True)


def run_all(seed, seconds, trace):
    """Run every workload in its own process; one combined result."""
    combined = {"correct": True, "attempted": 0, "failed": 0,
                "metrics": {}}
    for workload in _import_program().WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload",
             workload, "--seed", str(seed), "--seconds", str(seconds),
             "--trace", str(trace)],
            stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1]) if lines else {}
        if proc.returncode != 0 or not result.get("correct"):
            combined["correct"] = False
        combined["attempted"] += result.get("attempted", 0)
        combined["failed"] += result.get("failed", 0)
        for name, metric in result.get("metrics", {}).items():
            combined["metrics"][f"{workload}.{name}"] = metric
    return combined


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        help="mdtest_shared, dir_barrier, mdtest_traced"
                             " or all")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if args.workload == "all":
        result = run_all(args.seed, args.seconds, args.trace)
    else:
        workloads = _import_program()
        import_s = time.perf_counter() - _STARTED
        if args.workload not in workloads.WORKLOADS:
            parser.error(f"unknown workload {args.workload!r}")
        if args.trace:
            metrics, attempted, failures = run_traced(
                workloads, args.workload, args.seed)
        else:
            metrics, attempted, failures = run_end_to_end(
                workloads, args.workload, args.seed, args.seconds,
                import_s)
        for failure in failures[:20]:
            print(f"FAILED {failure}", file=sys.stderr)
        result = {"correct": not failures, "attempted": attempted,
                  "failed": min(len(failures), attempted),
                  "metrics": metrics}
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
