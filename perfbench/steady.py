#!/usr/bin/env python3
"""Steadiness check: how much each end-to-end metric moves between runs.

    python3 perfbench/steady.py [--runs 10] [--workloads a,b,...] [--first-seed 1]

Runs every workload --runs times through run.py, alternating between
workloads (round r runs each workload once with seed first_seed + r, for
BENCHMARK.json's run_seconds), and prints, per workload and metric, the
median over the runs, the spread (interquartile distance over the median,
quartiles as statistics.quantiles(values, n=4) gives them) and the metric's
bound from BENCHMARK.json. A spread is marked "ok" below a third of its bound, "near"
below the bound and "OVER" above it. It also checks that the share of failed
operations is the same in every run of a workload. Exits 1 when any run
fails, any spread is over its bound or any failed share differs.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.stderr.write(done.stderr[-2000:])
        raise SystemExit(f"{workload} seed {seed}: exit {done.returncode}")
    return json.loads(lines[-1])


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), (q3 - q1) / statistics.median(values)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser()
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workloads", default=",".join(names))
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args()
    workloads = args.workloads.split(",")
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    results = {w: [] for w in workloads}
    for r in range(args.runs):
        for w in workloads:
            result = run_once(w, args.first_seed + r, bench["run_seconds"])
            results[w].append(result)
            print(f"run {r + 1}/{args.runs} {w}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}", flush=True)

    bad = False
    for w in workloads:
        runs = results[w]
        if not all(r["correct"] for r in runs):
            print(f"{w}: a run reported incorrect output")
            bad = True
        shares = {(r["failed"], r["attempted"]) for r in runs}
        fractions = {f / a for f, a in shares}
        if len(fractions) > 1:
            print(f"{w}: failed share differs between runs: {sorted(shares)}")
            bad = True
        print(f"\n{w} ({len(runs)} runs)")
        print(f"  {'metric':<16} {'median':>14} {'spread':>8} {'bound':>6}")
        for metric in bounds:
            values = [r["metrics"][metric]["value"] for r in runs]
            unit = runs[0]["metrics"][metric]["unit"]
            med, sp = spread(values) if len(values) > 1 else (values[0], 0.0)
            bound = bounds[metric]
            mark = "ok" if sp < bound / 3 else ("near" if sp <= bound else "OVER")
            bad = bad or sp > bound
            print(f"  {metric:<16} {med:>11.4g} {unit:<3}{sp:>7.1%} {bound:>6.2f}  {mark}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
