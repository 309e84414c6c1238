#!/usr/bin/env python3
"""Runs the benchmark once per seed and reports each metric's spread.

    python3 perfbench/spread.py --workload serve_hot --runs 10 [--first-seed 1]

For every end-to-end metric it prints the median, the quartiles as
statistics.quantiles(values, n=4) gives them, and the spread: the distance
between the first and third quartile as a share of the median, next to the
metric's bound from BENCHMARK.json. Run from the root of a checkout.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    values = {name: [] for name in bounds}
    for seed in range(args.first_seed, args.first_seed + args.runs):
        cmd = ["python3", os.path.join(HERE, "run.py"), "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(spec["run_seconds"]), "--trace", "0"]
        done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            print("seed %d: run failed (exit %d)" % (seed, done.returncode), file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        env = json.loads(lines[0])["env"] if lines[0].startswith('{"env"') else {}
        if not result["correct"]:
            print("seed %d: incorrect result" % seed, file=sys.stderr)
            return 1
        for name in values:
            values[name].append(result["metrics"][name]["value"])
        print("seed %d: %s calibration_mem_s=%s" % (seed, " ".join(
            "%s=%.6g" % (n, result["metrics"][n]["value"]) for n in values),
            env.get("calibration_mem_s")), flush=True)

    print("%-16s %14s %14s %14s %8s %8s" % ("metric", "median", "q1", "q3", "spread", "bound"))
    for name, vals in values.items():
        q1, _, q3 = statistics.quantiles(vals, n=4)
        median = statistics.median(vals)
        spread = (q3 - q1) / median if median else 0.0
        print("%-16s %14.6g %14.6g %14.6g %8.4f %8.3f" % (name, median, q1, q3, spread,
                                                          bounds[name]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
