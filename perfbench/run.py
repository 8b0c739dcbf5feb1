#!/usr/bin/env python3
"""Builds and runs gqlite's end-to-end benchmark.

    python3 perfbench/run.py --workload interactive-text --seed 1 \
        --seconds 10 --trace 0
    python3 perfbench/run.py --self-test

Run from the root of a gqlite source tree. The first run configures and
builds the library and the benchmark (Release) under .bench_build/; later
runs rebuild only what changed. Build output goes to stderr, so the last
line of stdout is the benchmark's JSON result. A durable workload keeps
its database under .bench_build/data while it runs and removes it at
exit; --trace 1 also leaves the run's spans in .bench_build/traces/.
"""

import argparse
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
OUT = os.path.join(ROOT, ".bench_build")
BUILD = os.path.join(OUT, "cmake")
WORKLOADS = ("interactive-text", "ingest-durable", "analytic-2w")
RUN_TIMEOUT_S = 175


def build(target):
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", target, "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            sys.exit("perfbench: build failed: " + " ".join(cmd))
    return os.path.join(BUILD, target)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="build and run the benchmark's own tests")
    args = parser.parse_args()
    if not args.self_test and args.workload is None:
        parser.error("--workload is required")

    # The engine reads these at construction; the benchmark fixes its own
    # configuration instead.
    env = {k: v for k, v in os.environ.items() if not k.startswith("GQLITE_")}
    if args.self_test:
        cmd = [build("perfbench_selftest")]
    else:
        os.makedirs(os.path.join(OUT, "traces"), exist_ok=True)
        cmd = [build("perfbench"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--data-dir", os.path.join(OUT, "data")]
        if args.trace:
            cmd += ["--trace-out", os.path.join(
                OUT, "traces", f"{args.workload}-seed{args.seed}.tsv")]
    try:
        return subprocess.run(cmd, env=env, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:  # run() has killed and reaped it
        sys.exit(f"perfbench: no result within {RUN_TIMEOUT_S} s")


if __name__ == "__main__":
    sys.exit(main())
