#!/usr/bin/env python3
"""Smoke test of the benchmark itself (a few minutes; run from the
repository root):

    python3 perfbench/smoke.py [--seconds 2] [--workloads serve,dense]

For every workload it checks that
  * a short untraced run exits 0 and prints, as its last line, exactly
    the end-to-end metrics of BENCHMARK.json with their units;
  * a short traced run prints exactly the per-layer metrics with units;
  * a run that corrupts one served hit (--corrupt-hit) is caught by the
    correctness gate: correct=false and a nonzero exit;
and that the benchmark fails without printing a result when it is run
from a directory that holds only BENCHMARK.json and perfbench/.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def run(args, cwd=None, env=None):
    script = os.path.join(cwd or ".", "perfbench", "run.py")
    cmd = [sys.executable, os.path.abspath(script), *args]
    done = subprocess.run(cmd, cwd=cwd, env=env, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=900)
    lines = done.stdout.strip().splitlines()
    return done.returncode, lines[-1] if lines else "", done.stderr


def check(condition, message):
    if not condition:
        sys.exit(f"smoke.py: FAIL: {message}")
    print(f"ok: {message}", flush=True)


def check_metrics(workload, trace, expected, seconds):
    code, last, err = run(["--workload", workload, "--seed", "1",
                           "--seconds", str(seconds), "--trace", trace])
    check(code == 0, f"{workload} --trace {trace} exits 0"
          + ("" if code == 0 else f" (got {code}): {err.strip()[-300:]}"))
    result = json.loads(last)
    check(set(result) == RESULT_KEYS, f"{workload}: result keys")
    check(result["correct"] is True and result["failed"] == 0
          and result["attempted"] >= 1, f"{workload}: correct, no failures")
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    check(got == expected, f"{workload} --trace {trace}: metric names and "
          f"units match BENCHMARK.json "
          f"(missing {sorted(set(expected) - set(got))}, "
          f"extra {sorted(set(got) - set(expected))})")


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--seconds", type=float, default=2.0)
    parser.add_argument("--workloads", default=None)
    args = parser.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    e2e = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in bench["per_layer"]}
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in bench["workloads"]])

    for workload in workloads:
        check_metrics(workload, "0", e2e, args.seconds)
        check_metrics(workload, "1", layers, args.seconds)
        code, last, _ = run(["--workload", workload, "--seed", "1",
                             "--seconds", str(args.seconds), "--trace",
                             "0", "--corrupt-hit"])
        check(code != 0 and last.startswith("{")
              and json.loads(last)["correct"] is False,
              f"{workload}: the gate catches a corrupted hit (exit {code})")

    # Without the library sources there is nothing to build: the run
    # must fail fast and print no result.
    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR")
                                or ".bench_build")
    bare = os.path.join(build_dir, "smoke-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy("BENCHMARK.json", bare)
    shutil.copytree("perfbench", os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    env = dict(os.environ, CARGO_TARGET_DIR=os.path.join(bare,
                                                         ".bench_build"))
    code, last, _ = run(["--workload", workloads[0], "--seed", "1",
                         "--seconds", "1", "--trace", "0"], cwd=bare,
                        env=env)
    shutil.rmtree(bare, ignore_errors=True)
    check(code != 0 and not last.startswith("{"),
          f"a bare directory fails without a result (exit {code})")
    print("smoke.py: all checks passed")


if __name__ == "__main__":
    main()
