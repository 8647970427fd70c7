#!/usr/bin/env python3
"""Builds and runs the layered benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload train_iter --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --selftest

Run from the repository root. The first run configures and builds the
benchmark and the library sources under .bench_build/perfbench; later runs
reuse the build. The last line of standard output is the result JSON; build
output goes to standard error. Exits non-zero without a result when the build
or the run fails.
"""
import argparse
import fcntl
import os
import subprocess
import sys

WORKLOADS = ("train_iter", "serve_sweep", "serve_stream")
RUN_TIMEOUT_S = 170


def build(root):
    bench_dir = os.path.join(root, "perfbench")
    build_dir = os.path.join(root, ".bench_build", "perfbench")
    os.makedirs(build_dir, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    # One build at a time per checkout.
    with open(os.path.join(build_dir, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = [
            ["cmake", "-S", bench_dir, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
            ["cmake", "--build", build_dir, "-j", jobs],
        ]
        for cmd in steps:
            if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
                return None
    return build_dir


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="build and run the benchmark's own self-tests")
    args = parser.parse_args()
    if not args.selftest and args.workload is None:
        parser.error("--workload is required")

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    if not os.path.isfile(os.path.join(root, "src", "core", "plan_service.h")):
        print("perfbench: library sources not found under %s/src" % root, file=sys.stderr)
        return 2
    build_dir = build(root)
    if build_dir is None:
        print("perfbench: build failed", file=sys.stderr)
        return 3

    if args.selftest:
        return subprocess.run([os.path.join(build_dir, "perfbench_selftest")]).returncode

    cmd = [os.path.join(build_dir, "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--trace_dir", os.path.join(build_dir, "traces")]
    try:
        proc = subprocess.run(cmd, cwd=root, stdout=subprocess.PIPE, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 4
    out = proc.stdout.decode()
    lines = out.rstrip("\n").splitlines()
    if proc.returncode != 0 or not lines or not lines[-1].startswith("{"):
        sys.stderr.write(out)
        print("perfbench: run failed (exit %d)" % proc.returncode, file=sys.stderr)
        return proc.returncode or 5
    sys.stdout.write(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
