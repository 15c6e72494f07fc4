#!/usr/bin/env python3
"""Builds the benchmark in Release from this directory and runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run it from the root of a checkout. The build lands in .bench_build/perfbench
(configured once, then an incremental no-op). Build output goes to standard
error; standard output is the benchmark's own, whose last line is the result
JSON. Any other arguments are passed to the benchmark binary unchanged.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
JOBS = "3"


def build():
    """Configures (first time) and builds the benchmark; False on failure."""
    steps = []
    if not os.path.exists(os.path.join(BUILD, "Makefile")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", JOBS, "--target", "perfbench"])
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr, timeout=850)
        if done.returncode != 0:
            print("perfbench: build step failed: " + " ".join(step), file=sys.stderr)
            return False
    return True


def main():
    if not build():
        return 1
    binary = os.path.join(BUILD, "perfbench")
    out_dir = os.path.join(BUILD, "out")
    sys.stdout.flush()
    done = subprocess.run([binary, "--out-dir", out_dir] + sys.argv[1:], cwd=ROOT)
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
