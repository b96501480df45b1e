#!/usr/bin/env python3
"""Build the benchmark program from source (first run only) and run it.

    python3 perfbench/run.py --workload serve|screen|dense --seed N \
        --seconds S --trace 0|1

Run from the repository root. The build lives in $CARGO_TARGET_DIR when
set, else .bench_build, and so do each run's scratch files. Build logs
go to stderr; the program's standard output is passed through, so its
last line is the run's JSON result. The exit code is the program's.
"""

import os
import subprocess
import sys


def fail(message):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(2)


def build(root, build_dir):
    source = os.path.join(root, "perfbench")
    cmake_dir = os.path.join(build_dir, "perfbench-cmake")
    program = os.path.join(cmake_dir, "crispr_perfbench")
    if not os.path.isfile(os.path.join(root, "src", "CMakeLists.txt")):
        fail("library sources (src/) not found; run from the repository root")
    jobs = str(os.cpu_count() or 1)
    steps = []
    if not os.path.isfile(os.path.join(cmake_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", source, "-B", cmake_dir,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", cmake_dir, "-j", jobs])
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            fail(f"build step failed: {' '.join(step)}")
    if not os.path.isfile(program):
        fail("build produced no crispr_perfbench")
    return program


def main():
    root = os.getcwd()
    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR")
                                or os.path.join(root, ".bench_build"))
    program = build(root, build_dir)
    work_dir = os.path.join(build_dir, "work")
    os.makedirs(work_dir, exist_ok=True)
    sys.stdout.flush()
    done = subprocess.run([program, *sys.argv[1:], "--work-dir", work_dir])
    sys.exit(done.returncode)


if __name__ == "__main__":
    main()
