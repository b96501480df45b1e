#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics across seeds.

    python3 perfbench/spread.py [--workloads serve,screen,dense]
                                [--seeds 10] [--first-seed 1] [--sets 1]

Runs each workload once per seed (run_seconds from BENCHMARK.json,
tracing off) and prints, per metric, the median and the spread: the
distance between the first and third quartile
(statistics.quantiles(values, n=4)) as a share of the median. A spread
above a third of the metric's bound is flagged, and one above the
bound fails the command. With --sets N the same seeds run N times,
one set after another, and each later set's median is compared with
the first set's: a change for the worse beyond the bound fails the
command too. Run from the repository root.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join("perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    start = time.monotonic()
    done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    wall = time.monotonic() - start
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.exit(f"spread.py: {workload} seed {seed} exited "
                 f"{done.returncode}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"spread.py: {workload} seed {seed}: correct="
                 f"{result['correct']} failed={result['failed']}")
    values = {name: m["value"] for name, m in result["metrics"].items()}
    return values, wall


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workloads", default=None)
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--sets", type=int, default=1)
    args = parser.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in bench["workloads"]])
    metrics = {m["name"]: m for m in bench["end_to_end"]}
    seeds = range(args.first_seed, args.first_seed + args.seeds)

    ok = True
    medians = {}  # (workload, metric) -> median of each set
    for set_no in range(1, args.sets + 1):
        for workload in workloads:
            runs = []
            for seed in seeds:
                values, wall = run_once(workload, seed, bench["run_seconds"])
                runs.append(values)
                print(f"set {set_no} {workload} seed {seed} ({wall:.0f} s): "
                      + ", ".join(f"{k}={v:.4g}"
                                  for k, v in sorted(values.items())),
                      flush=True)
            print(f"set {set_no} {workload}: {'metric':<16} {'median':>12} "
                  f"{'spread':>8} {'bound':>6}")
            for name, m in sorted(metrics.items()):
                values = [r[name] for r in runs]
                med = statistics.median(values)
                medians.setdefault((workload, name), []).append(med)
                q1, _, q3 = statistics.quantiles(values, n=4)
                spread = (q3 - q1) / med if med else float("inf")
                flag = ""
                if spread > m["bound"]:
                    flag, ok = "OVER BOUND", False
                elif spread > m["bound"] / 3:
                    flag = "above bound/3"
                print(f"set {set_no} {workload}: {name:<16} {med:>12.5g} "
                      f"{spread:>8.4f} {m['bound']:>6} {flag}", flush=True)

    if args.sets > 1:
        print(f"{'workload':<8} {'metric':<16} {'worse by':>9} {'bound':>6}"
              "  (later set vs set 1)")
        for (workload, name), meds in sorted(medians.items()):
            m = metrics[name]
            sign = 1 if m["better"] == "lower" else -1
            worst = max(sign * (later - meds[0]) / meds[0]
                        for later in meds[1:])
            flag = ""
            if worst > m["bound"]:
                flag, ok = "OVER BOUND", False
            print(f"{workload:<8} {name:<16} {worst:>+9.4f} "
                  f"{m['bound']:>6} {flag}", flush=True)
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
