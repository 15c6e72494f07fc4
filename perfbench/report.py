#!/usr/bin/env python3
"""Per-layer attribution report for one workload's traced run.

    python3 perfbench/report.py --workload <name> [--seed 1]

Runs the workload untraced and traced through run.py (same seed, and the
run length of BENCHMARK.json), then reads the traced run's spans. For every
operation (a root span named "op") it computes each span's self time, its
duration minus the part of it that its child spans cover, sums self times by
layer (the span name up to the first dot) and keeps the operation span's own
self time as the remainder no layer accounts for. It checks that the layers
plus the remainder add back up to the operation's wall time within
TOLERANCE (a share of the wall) for every operation, prints the per-layer
totals, and prints the tracing overhead as the traced minus the untraced
op_p50_ms.

The add-up check is structural: spans nest on one thread, so it fails only
when a span overlaps a sibling or sticks out of its parent. For
clinic_ingest the drain (one "ingestion.process_all" span, whose stages
the benchmark cannot span from outside) is split further with the stage
costs the same operation's replay measured; see split_drain. Exits 1 when any operation
misses the tolerance or when the replayed stages exceed the drain wall in
most operations.
"""
import argparse
import collections
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".bench_build", "perfbench", "out")
TOLERANCE = 0.005

# clinic_ingest's drain split. Each replayed stage's calls per round (the
# counts ClinicIngest::replay in workloads.cpp uses: 32 uploads, 28 stored,
# 2 rejected for malware), and the layer it is booked to. The stages run on
# DRAIN_WORKERS workers (ClinicIngest::kDrainWorkers), so their wall share
# is their summed cost over that count; the provenance flush runs once per
# round on the calling thread.
DRAIN_SPAN = "ingestion.process_all"
DRAIN_WORKERS = 1
DRAIN_STAGES = {
    "crypto.envelope_open_us": ("crypto", 32),
    "fhir.parse_validate_us": ("fhir", 32),
    "ingestion.malware_scan_us": ("ingestion", 32),
    "privacy.deidentify_us": ("privacy", 28),
    "storage.lake_put_us": ("storage", 56),
    "blockchain.commit_us": ("blockchain", 30),
}
DRAIN_FLUSH = ("provenance.flush_ms", "provenance")


def run(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.stderr.write(done.stderr[-2000:])
        raise SystemExit(f"{workload} trace={trace}: exit {done.returncode}")
    return json.loads(lines[-1])


def covered(parent, children):
    """Length of the union of the children's intervals, clipped to the parent."""
    spans = sorted((max(c["start_us"], parent["start_us"]), min(c["end_us"], parent["end_us"]))
                   for c in children)
    total, cur_start, cur_end = 0.0, None, None
    for start, end in spans:
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def split_drain(drain_us, replay_spans):
    """{layer: wall us} for one drain, from its round's replayed stage costs.

    The remainder, the drain wall that no replayed stage accounts for
    (queue, tracker, metadata, KMS, consent and verifier work), goes to
    "ingestion.unattributed"; it is negative when the replayed stages add up
    to more than the drain took.
    """
    durations = collections.defaultdict(list)
    for s in replay_spans:
        durations[s["name"]].append(s["end_us"] - s["start_us"])
    mean = {name: statistics.fmean(v) for name, v in durations.items()}
    split = collections.Counter()
    for name, (layer, calls) in DRAIN_STAGES.items():
        split[layer] += calls * mean.get(name, 0.0) / DRAIN_WORKERS
    flush, layer = DRAIN_FLUSH
    split[layer] += mean.get(flush, 0.0)
    split["ingestion.unattributed"] = drain_us - sum(split.values())
    return split


def attribute(spans):
    """Per operation: (wall_us, {layer: self_us}, remainder_us, unattributed_us or None)."""
    by_id = {s["id"]: s for s in spans}
    children = collections.defaultdict(list)
    replays = collections.defaultdict(list)  # op id -> spans under its replay root
    for s in spans:
        if s["parent"] < 0:
            continue
        children[s["parent"]].append(s)
        root = s
        while root["parent"] >= 0:
            root = by_id[root["parent"]]
        if root["name"] == "replay":
            replays[s["op"]].append(s)
    ops = []
    for root in spans:
        if root["parent"] >= 0 or root["name"] != "op":
            continue
        layers = collections.Counter()
        unattributed = None
        stack = list(children[root["id"]])
        while stack:
            s = stack.pop()
            kids = children[s["id"]]
            self_us = (s["end_us"] - s["start_us"]) - covered(s, kids)
            if s["name"] == DRAIN_SPAN and not kids and replays[root["op"]]:
                split = split_drain(self_us, replays[root["op"]])
                unattributed = split.pop("ingestion.unattributed")
                layers.update(split)
                layers["ingestion"] += unattributed
            else:
                layers[s["name"].split(".")[0]] += self_us
            stack.extend(kids)
        wall = root["end_us"] - root["start_us"]
        remainder = wall - covered(root, children[root["id"]])
        ops.append((wall, layers, remainder, unattributed))
    return ops


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        seconds = json.load(f)["run_seconds"]
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()

    untraced = run(args.workload, args.seed, seconds, 0)
    traced = run(args.workload, args.seed, seconds, 1)
    if not (untraced["correct"] and traced["correct"]):
        raise SystemExit("a run reported incorrect output")
    spans_path = os.path.join(OUT, f"spans-{args.workload}.jsonl")
    with open(spans_path) as f:
        spans = [json.loads(line) for line in f if line.strip()]

    ops = attribute(spans)
    if not ops:
        raise SystemExit("no operation spans in " + spans_path)
    worst = 0.0
    totals = collections.Counter()
    remainder_total = wall_total = 0.0
    unattributed = []
    for wall, layers, remainder, drain_rest in ops:
        error = abs(sum(layers.values()) + remainder - wall) / wall
        worst = max(worst, error)
        totals.update(layers)
        remainder_total += remainder
        wall_total += wall
        if drain_rest is not None:
            unattributed.append(drain_rest)

    print(f"{args.workload}: {len(ops)} operations, mean wall {wall_total / len(ops) / 1000:.3f} ms")
    print(f"  {'layer':<14} {'self ms/op':>11} {'share':>7}")
    for layer, total in sorted(totals.items(), key=lambda kv: -kv[1]):
        print(f"  {layer:<14} {total / len(ops) / 1000:>11.4f} {total / wall_total:>7.1%}")
    print(f"  {'(remainder)':<14} {remainder_total / len(ops) / 1000:>11.4f} "
          f"{remainder_total / wall_total:>7.1%}")
    ok = worst <= TOLERANCE
    print(f"  layers + remainder vs wall: worst error {worst:.4%} "
          f"(tolerance {TOLERANCE:.2%}) {'ok' if ok else 'FAIL'}")
    if unattributed:
        negative = sum(1 for u in unattributed if u < 0)
        split_ok = statistics.median(unattributed) >= 0
        ok = ok and split_ok
        print(f"  drain split: ingestion unattributed median "
              f"{statistics.median(unattributed) / 1000:.4f} ms/op; replayed stages exceed "
              f"the drain wall in {negative} of {len(unattributed)} operations "
              f"{'ok' if split_ok else 'FAIL'}")
    traced_p50 = statistics.median(w for w, _, _, _ in ops) / 1000
    base = untraced["metrics"]["op_p50_ms"]["value"]
    print(f"  tracing overhead: traced op_p50 {traced_p50:.3f} ms - untraced "
          f"{base:.3f} ms = {traced_p50 - base:+.3f} ms ({(traced_p50 - base) / base:+.1%})")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
