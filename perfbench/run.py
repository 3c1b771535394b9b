#!/usr/bin/env python3
"""Repository benchmark: builds the perfbench program from source, runs one
workload and prints its result.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The build lives in .bench_build/cmake, configured
like the repository's default build (RelWithDebInfo, invariants on); traced
runs write their spans to .bench_build/spans. The last line of stdout is one JSON object
with the keys correct, attempted, failed and metrics: the end-to-end metrics
of BENCHMARK.json with --trace 0, its per-layer metrics with --trace 1. Any
build failure, output-check failure or malformed program output exits non-zero.
"""

import argparse
import json
import math
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = os.path.join(ROOT, ".bench_build", "cmake")
PROGRAM = os.path.join(BUILD_DIR, "perfbench")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def build():
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [
        ["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", BUILD_DIR,
         "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
        ["cmake", "--build", BUILD_DIR, "-j", jobs, "--target", "perfbench"],
    ]
    for cmd in steps:
        try:
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                                  timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as e:
            fail("build step failed: %s" % e)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout[-4000:] + proc.stderr[-4000:])
            fail("build step failed: " + " ".join(cmd))


def check_result(result, table, trace):
    """Validates the program's result and gives each metric its unit from
    BENCHMARK.json. An end-to-end run must report every end-to-end metric; a
    per-layer metric that does not apply to the workload reads 0."""
    if not isinstance(result, dict) or set(result) != {"correct", "attempted", "failed",
                                                      "metrics"}:
        fail("result has the wrong keys")
    for key in ("attempted", "failed"):
        if not isinstance(result[key], int) or result[key] < 0:
            fail("result has a bad %s" % key)
    if result["correct"] is not True:
        fail("output check failed")
    if result["attempted"] < 1:
        fail("no operation attempted")
    measured = result["metrics"]
    units = {m["name"]: m["unit"] for m in table}
    extra = sorted(set(measured) - set(units))
    missing = sorted(set(units) - set(measured))
    if extra:
        fail("metrics not in BENCHMARK.json: %s" % extra)
    if missing and not trace:
        fail("end-to-end metrics not measured: %s" % missing)
    metrics = {}
    for name, unit in units.items():
        v = measured.get(name, 0.0)
        if not isinstance(v, (int, float)) or isinstance(v, bool) or not math.isfinite(v):
            fail("metric %s has no finite value" % name)
        metrics[name] = {"value": v, "unit": unit}
    result["metrics"] = metrics


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()
    if args.seed < 0 or not 1 <= args.seconds <= 60:
        fail("--seed must be >= 0 and --seconds within 1..60")

    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        fail("cannot read BENCHMARK.json: %s" % e)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        fail("unknown workload %r" % args.workload)
    table = spec["per_layer"] if args.trace else spec["end_to_end"]

    build()
    cmd = [PROGRAM, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail("perfbench did not finish: %s" % e)
    lines = proc.stdout.rstrip("\n").split("\n")
    for line in lines[:-1]:
        print(line)
    try:
        result = json.loads(lines[-1])
    except ValueError:
        fail("perfbench printed no result (exit code %d)" % proc.returncode)
    check_result(result, table, args.trace)
    if proc.returncode != 0:
        fail("perfbench exited with code %d" % proc.returncode)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
