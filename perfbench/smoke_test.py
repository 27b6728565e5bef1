#!/usr/bin/env python3
"""Tiny-scale smoke tests of the benchmark. Run from the root of a checkout:

    python3 perfbench/smoke_test.py

Builds through run.py, then for every workload runs one untraced and one
traced run at 2% of the normal work and checks: the result line has
exactly the keys correct, attempted, failed and metrics; the run is
correct with no failed ops; the metrics are exactly BENCHMARK.json's
end_to_end (trace 0) or per_layer (trace 1) names with their units;
end-to-end values are positive; the Chrome trace parses. Finally it copies BENCHMARK.json and perfbench/ into
an otherwise empty directory and checks that run.py fails there without
printing a result. Exits 1 on the first failure.
"""

import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run(args, cwd=ROOT):
    command = [sys.executable, os.path.join(cwd, "perfbench", "run.py")] + args
    return subprocess.run(command, cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, check=False, timeout=900)


def check(condition, message):
    if not condition:
        print(f"FAIL: {message}")
        sys.exit(1)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        bench = json.load(f)
    build_root = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    expected = {
        "0": {m["name"]: m["unit"] for m in bench["end_to_end"]},
        "1": {m["name"]: m["unit"] for m in bench["per_layer"]},
    }
    for workload in (w["name"] for w in bench["workloads"]):
        for trace in ("0", "1"):
            label = f"{workload} --trace {trace}"
            result = run(["--workload", workload, "--seed", "7", "--seconds", "1",
                          "--trace", trace, "--scale", "0.02"])
            check(result.returncode == 0, f"{label}: exit {result.returncode}\n{result.stderr}")
            line = json.loads(result.stdout.strip().splitlines()[-1])
            check(set(line) == {"correct", "attempted", "failed", "metrics"}, f"{label}: keys")
            check(line["correct"] is True and line["failed"] == 0, f"{label}: incorrect run")
            check(isinstance(line["attempted"], int) and line["attempted"] >= 1,
                  f"{label}: attempted")
            units = {name: m["unit"] for name, m in line["metrics"].items()}
            check(units == expected[trace], f"{label}: metric names or units differ")
            if trace == "0":
                check(all(m["value"] > 0 for m in line["metrics"].values()),
                      f"{label}: a metric is not positive")
            else:
                trace_file = os.path.join(build_root, f"perfbench_trace_{workload}.json")
                with open(trace_file, encoding="utf-8") as f:
                    check(len(json.load(f)["traceEvents"]) > 0, f"{label}: empty trace")
            print(f"ok {label}")

    bare = os.path.join(build_root, "smoke_bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(os.path.join(ROOT, "perfbench"), os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    result = run(["--workload", "rlvm_tpca", "--seed", "1", "--seconds", "1", "--trace", "0"],
                 cwd=bare)
    shutil.rmtree(bare, ignore_errors=True)
    check(result.returncode != 0 and result.stdout.strip() == "",
          "run.py must fail without a result outside a full checkout")
    print("ok bare directory fails without a result")


if __name__ == "__main__":
    main()
