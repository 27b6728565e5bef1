#!/usr/bin/env python3
"""Builds and runs the host-performance benchmark (see perfbench/README.md).

Run from the root of a checkout:

    python3 perfbench/run.py --workload rlvm_tpca --seed 1 --seconds 10 --trace 0

The first run configures and builds perfbench/ (which compiles ../src) into
$CARGO_TARGET_DIR, or .bench_build when that is unset; later runs rebuild
incrementally. The last line of standard output is the result JSON:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
Build output and the human-readable summary go to standard error. Exits
non-zero, without a result, if the build, the run or a check fails.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

WORKLOADS = ("rlvm_tpca", "par_shards", "timewarp_phold", "durable_commit")
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def fail(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build(bench_dir, build_dir):
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", bench_dir, "-B", build_dir, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
            stdout=sys.stderr, check=True, timeout=BUILD_TIMEOUT_S)
    subprocess.run(
        ["cmake", "--build", build_dir, "--target", "lvm_perfbench", "-j", jobs],
        stdout=sys.stderr, check=True, timeout=BUILD_TIMEOUT_S)
    return os.path.join(build_dir, "lvm_perfbench")


def check_result(line):
    result = json.loads(line)
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise ValueError("unexpected result keys")
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        raise ValueError("attempted must be a positive integer")
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    parser.add_argument("--scale", default="1", help="work per episode (smoke tests)")
    args = parser.parse_args()

    bench_dir = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(bench_dir)
    if not os.path.isfile(os.path.join(root, "src", "CMakeLists.txt")):
        fail(f"no src/ beside {bench_dir}: run from a full checkout")
    build_root = os.path.join(root, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    build_dir = os.path.join(build_root, "perfbench")
    try:
        binary = build(bench_dir, build_dir)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as error:
        fail(f"build failed: {error}")

    data_dir = os.path.join(build_root, "perfbench_data")
    command = [
        binary, "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", args.trace, "--scale", args.scale,
        "--data-dir", data_dir,
        "--trace-out", os.path.join(build_root, f"perfbench_trace_{args.workload}.json"),
    ]
    try:
        run = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s", 1)
    finally:
        shutil.rmtree(data_dir, ignore_errors=True)
    if run.returncode != 0:
        fail(f"lvm_perfbench exited with {run.returncode}", 1)
    lines = run.stdout.strip().splitlines()
    try:
        check_result(lines[-1])
    except (IndexError, ValueError) as error:
        fail(f"malformed result: {error}", 1)
    print(lines[-1], flush=True)


if __name__ == "__main__":
    main()
