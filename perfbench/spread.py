"""Run-to-run spread of the end-to-end metrics over several seeds.

Usage (from the repository root)::

    python3 perfbench/spread.py --workload mdtest_shared --seeds 1-10

Runs ``run.py --trace 0`` once per seed, one run at a time, and prints
for each metric the median and the distance between the first and third
quartile (``statistics.quantiles(values, n=4)``) as a share of the
median, next to the bound ``BENCHMARK.json`` fixes for it.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _seeds(text):
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=_seeds, default=_seeds("1-10"),
                        help="inclusive range, e.g. 1-10")
    parser.add_argument("--seconds", type=float, default=None,
                        help="default: run_seconds from BENCHMARK.json")
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    values = {}
    for seed in args.seeds:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload",
             args.workload, "--seed", str(seed), "--seconds", str(seconds),
             "--trace", "0"],
            cwd=ROOT, stdout=subprocess.PIPE, text=True, check=False)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        if proc.returncode != 0 or not result["correct"]:
            print(f"seed {seed}: FAILED", file=sys.stderr)
            return 1
        row = {name: m["value"] for name, m in result["metrics"].items()}
        print(f"seed {seed}: " + ", ".join(
            f"{name}={value:.6g}" for name, value in row.items()),
            flush=True)
        for name, value in row.items():
            values.setdefault(name, []).append(value)

    worst = 0.0
    for name, series in values.items():
        median = statistics.median(series)
        q1, _, q3 = statistics.quantiles(series, n=4)
        spread = (q3 - q1) / median
        bound = bounds.get(name)
        if name != "setup_s" and bound:
            worst = max(worst, spread / bound)
        print(f"{args.workload} {name}: median {median:.6g}"
              f" spread {spread:.4f} bound {bound}")
    print(f"{args.workload}: worst spread / bound = {worst:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
