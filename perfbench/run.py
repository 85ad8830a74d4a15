#!/usr/bin/env python3
"""Builds and runs the repo benchmark (perfbench/perfbench.cc).

Usage, from the root of the repository:

    python3 perfbench/run.py --workload fsync_mqfs --seed 1 --seconds 20 --trace 0

The simulator is compiled from ../src into .bench_build/perfbench (a
Release build; the first run takes about a minute on four cores). Build
output goes to stderr, so the last line of stdout is the benchmark's JSON
result. The exit code is the benchmark's, or 1 when the build fails.
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORKLOADS = ("fsync_mqfs", "varmail_nvlog", "kv_mixed")
INJECTIONS = ("skip_psq_window_scan", "skip_nvlog_fence", "skip_ftl_shadow_commit")
# A run measures for --seconds and then finishes its last repetition.
TIMEOUT_S = 175


def build():
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--inject", choices=INJECTIONS,
                        help="run with one of the stack's test-only bugs enabled")
    args = parser.parse_args()

    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 1
    cmd = [os.path.join(BUILD, "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    if args.inject:
        cmd += ["--inject", args.inject]
    if args.trace:
        # The traced repetition's own spans, one per call into the stack.
        cmd += ["--spans", os.path.join(
            BUILD, "spans-%s-seed%d.tsv" % (args.workload, args.seed))]
    try:
        return subprocess.run(cmd, timeout=TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: timed out after %d s" % TIMEOUT_S, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
