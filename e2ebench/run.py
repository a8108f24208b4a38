#!/usr/bin/env python3
"""Builds the end-to-end benchmark from this checkout and runs one workload.

    python3 e2ebench/run.py --workload bulk_report --seed 1 --seconds 10 --trace 0

Workloads: bulk_report, portal_mix, sharded_aggregate. With --trace 0 the
benchmark reports the end-to-end metrics; with --trace 1 it reports the
per-layer metrics and writes a span dump and a per-layer table under
<build dir>/traces. The last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics. Build output goes to
standard error.

The build directory is $CARGO_TARGET_DIR when set, else .bench_build, both
relative to the repository root. Exit codes: 0 measured, 1 wrong answer or
broken trace, 2 build, usage or set-up error.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("bulk_report", "portal_mix", "sharded_aggregate")
# One run must end within 180 s; the binary measures for --seconds plus
# its repeated set-ups (a few seconds) and the answer checks.
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"e2ebench: {message}", file=sys.stderr)
    sys.exit(2)


def build(build_dir):
    if not (ROOT / "src" / "core" / "engine.h").is_file():
        fail(f"engine sources not found under {ROOT / 'src'}")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (build_dir / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(ROOT / "e2ebench"), "-B", str(build_dir),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(build_dir), "--target", "e2ebench", "-j", jobs])
    for step in steps:
        try:
            subprocess.run(step, cwd=ROOT, stdout=sys.stderr, check=True)
        except (OSError, subprocess.CalledProcessError) as error:
            fail(f"build step failed: {' '.join(step)}: {error}")
    return build_dir / "e2ebench"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    build_dir = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    binary = build(build_dir)
    trace_dir = build_dir / "traces"
    trace_dir.mkdir(parents=True, exist_ok=True)
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--trace-dir", str(trace_dir)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"e2ebench did not finish within {RUN_TIMEOUT_S} s")
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    if proc.returncode != 0:
        sys.exit(proc.returncode)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        fail("e2ebench printed no result line")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("e2ebench result line has unexpected keys")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    if set(result["metrics"]) != declared:
        fail("e2ebench metrics differ from BENCHMARK.json: "
             f"{sorted(set(result['metrics']) ^ declared)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
