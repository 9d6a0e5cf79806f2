#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics.

    python3 perfbench/spread.py --workloads sweep,real-ring --seeds 1-10

Runs perfbench/run.py once per (workload, seed) with --trace 0 and the
run_seconds of BENCHMARK.json, then prints, per metric, the median of the
runs and the distance between their first and third quartiles
(statistics.quantiles(values, n=4)) as a share of the median, next to a
third of the metric's bound.  Exits 1 if any spread is at or above its
bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2


def seed_range(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workloads", required=True)
    parser.add_argument("--seeds", default="1-10", type=seed_range)
    opts = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    ok = True
    for workload in opts.workloads.split(","):
        results = []
        for seed in opts.seeds:
            cmd = [sys.executable, os.path.join("perfbench", "run.py"),
                   "--workload", workload, "--seed", str(seed),
                   "--seconds", str(bench["run_seconds"]), "--trace", "0"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True,
                                  text=True)
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                sys.exit("%s seed %d: exit %d" % (workload, seed,
                                                  proc.returncode))
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            results.append(result)
            print(workload, seed, json.dumps(
                {k: v["value"] for k, v in result["metrics"].items()}),
                flush=True)
        for metric in bench["end_to_end"]:
            values = [r["metrics"][metric["name"]]["value"] for r in results]
            s = spread(values)
            steady = s < metric["bound"]
            ok = ok and steady
            print("%-15s %-16s median %12.6g  spread %.4f  bound/3 %.4f%s" % (
                workload, metric["name"], statistics.median(values), s,
                metric["bound"] / 3, "" if steady else "  OVER BOUND"))
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
