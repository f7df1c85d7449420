#!/usr/bin/env python3
"""Run one workload of the jscale benchmark and print its result.

From the root of a checkout:

    python3 perfbench/run.py --workload xalan-gc --seed 42 --seconds 10 --trace 0

Builds the benchmark program (perfbench/CMakeLists.txt, Release) into
.bench_build/ on first use, runs it, and relays its output. The last
stdout line is the JSON result described in perfbench/README.md. A
failed build, or a benchmark program that ends without a result, exits
non-zero and prints no result.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
SCRATCH = ROOT / ".bench_build" / "perfbench-scratch"
WORKLOADS = ["xalan-gc", "h2-locks", "sunflow-open", "xalan-observed"]
# Every run ends well inside this; a hung run is killed, not waited on.
RUN_TIMEOUT_S = 170
# Build targets and where their binaries land (CMakeLists.txt).
TARGETS = {"perfbench": "perfbench", "jscale": "jscale-tools/jscale"}


def build(target="perfbench"):
    """Configure once, then build incrementally. Logs go to stderr."""
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (BUILD / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "-j", jobs,
                  "--target", target])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            sys.exit("perfbench: build failed: " + " ".join(cmd))
    return BUILD / TARGETS[target]


def bench_args(workload, seed, seconds, trace, reference=HERE / "reference"):
    return ["--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace),
            "--reference", str(reference), "--scratch", str(SCRATCH)]


def run_bench(args):
    """Run the benchmark program; return its stdout, or exit as it did."""
    shutil.rmtree(SCRATCH, ignore_errors=True)
    try:
        proc = subprocess.run([str(build())] + args, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    finally:
        shutil.rmtree(SCRATCH, ignore_errors=True)
    if proc.returncode:
        sys.stdout.write(proc.stdout)
        sys.exit(proc.returncode)
    return proc.stdout


def result_of(stdout):
    """The JSON result line, checked for the keys README.md defines."""
    lines = stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    if not isinstance(result, dict) or set(result) != {
            "correct", "attempted", "failed", "metrics"}:
        sys.exit("perfbench: no result line printed")
    return result


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    a = ap.parse_args()
    out = run_bench(bench_args(a.workload, a.seed, a.seconds, a.trace))
    result_of(out)
    sys.stdout.write(out)
    sys.stdout.flush()


if __name__ == "__main__":
    main()
