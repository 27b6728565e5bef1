#!/usr/bin/env python3
"""Steadiness check: runs each workload over several seeds and reports spreads.

Run from the root of a checkout:

    python3 perfbench/steady.py                       # every workload, seeds 1..10
    python3 perfbench/steady.py --workloads rlvm_tpca --seeds 101-105 --sets 2

For every end-to-end metric of BENCHMARK.json it prints the median, the
first and third quartiles (statistics.quantiles(n=4)) and the quartile
spread as a share of the median, and flags a spread above the metric's
bound. It also prints the median calibration-loop time of the set's runs,
which shows the phase of the host they were taken in. With --sets 2 it
runs the seeds twice and also flags a metric whose second median differs
from the first by more than the bound, either way. Exits 1 if anything is
flagged.
"""

import argparse
import json
import os
import re
import statistics
import subprocess
import sys


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        if "-" in part:
            lo, hi = part.split("-")
            seeds.extend(range(int(lo), int(hi) + 1))
        else:
            seeds.append(int(part))
    return seeds


def run_once(root, workload, seed, seconds):
    command = [sys.executable, os.path.join(root, "perfbench", "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    result = subprocess.run(command, cwd=root, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, check=False)
    if result.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: run.py exited {result.returncode}")
    loop = re.search(r"calibration loop median ([0-9.eE+-]+) ms", result.stderr)
    if loop is None:
        raise RuntimeError(f"{workload} seed {seed}: no calibration-loop time in the summary")
    return json.loads(result.stdout.strip().splitlines()[-1]), float(loop.group(1))


def summarize(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return median, q1, q3, (q3 - q1) / median


def main():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as f:
        bench = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--sets", type=int, default=1, choices=(1, 2))
    args = parser.parse_args()

    metrics = {m["name"]: m for m in bench["end_to_end"]}
    seeds = parse_seeds(args.seeds)
    flagged = []
    for workload in args.workloads.split(","):
        medians = []
        for set_index in range(args.sets):
            values = {name: [] for name in metrics}
            loops = []
            for seed in seeds:
                result, loop_ms = run_once(root, workload, seed, args.seconds)
                loops.append(loop_ms)
                if not result["correct"] or result["failed"]:
                    flagged.append(f"{workload} seed {seed}: incorrect result")
                for name in metrics:
                    values[name].append(result["metrics"][name]["value"])
            print(f"{workload} set {set_index + 1} seeds {args.seeds}: calibration loop median "
                  f"{statistics.median(loops):.3g} ms (min {min(loops):.3g}, max {max(loops):.3g})")
            set_medians = {}
            for name, metric in metrics.items():
                median, q1, q3, spread = summarize(values[name])
                set_medians[name] = median
                flag = ""
                if spread > metric["bound"]:
                    flag = "  SPREAD ABOVE BOUND"
                    flagged.append(f"{workload} {name}: spread {spread:.1%} > {metric['bound']:.0%}")
                print(f"  {name:16s} median {median:<12.6g} q1 {q1:<12.6g} q3 {q3:<12.6g} "
                      f"spread {spread:6.1%} (bound {metric['bound']:.0%}){flag}", flush=True)
            medians.append(set_medians)
        if len(medians) == 2:
            for name, metric in metrics.items():
                first, second = medians[0][name], medians[1][name]
                change = (second - first) / first
                flag = "  APART BY MORE THAN BOUND" if abs(change) > metric["bound"] else ""
                if flag:
                    flagged.append(f"{workload} {name}: second median {change:+.1%}")
                print(f"  {name:16s} set 2 vs set 1: {change:+.2%}{flag}")
    for line in flagged:
        print(f"FLAGGED: {line}")
    sys.exit(1 if flagged else 0)


if __name__ == "__main__":
    main()
