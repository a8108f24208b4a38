#!/usr/bin/env python3
"""Run-to-run steadiness of the end-to-end benchmark.

Runs every workload K times through run.py, each run with a new seed and
the workloads in alternating order (A B C, C B A, ...), and prints for each
end-to-end metric its median, quartiles and spread, (Q3 - Q1) / median, next
to the metric's bound from BENCHMARK.json. Quartiles are those of
statistics.quantiles(values, n=4). With --sets 2 the whole set runs twice
and the table also shows how far the second set's median moved from the
first, in the metric's worse direction.

    python3 e2ebench/steadiness.py --runs 10             # ten runs per workload
    python3 e2ebench/steadiness.py --runs 5 --workloads portal_mix --sets 2

A spread below a third of the bound is steady; setup_s reports its spread
but is judged only by how far its median moves between sets.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(workload, seed, seconds):
    cmd = [sys.executable, str(ROOT / "e2ebench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"run failed with code {proc.returncode}: {' '.join(cmd)}\n{proc.stdout}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"run reported a wrong answer or failures: {' '.join(cmd)}\n{lines[-1]}")
    return result["metrics"]


def spread(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, (q3 - q1) / median if median else 0.0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10, help="runs per workload and set")
    parser.add_argument("--sets", type=int, default=1, help="independent sets of runs")
    parser.add_argument("--workloads", help="comma-separated subset (default: all)")
    parser.add_argument("--seed-base", type=int, default=1)
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    if args.workloads:
        workloads = [w for w in args.workloads.split(",") if w in workloads]
    metrics = spec["end_to_end"]

    # values[set][workload][metric] -> one value per run
    values = [{w: {m["name"]: [] for m in metrics} for w in workloads}
              for _ in range(args.sets)]
    for s in range(args.sets):
        for i in range(args.runs):
            order = workloads if i % 2 == 0 else list(reversed(workloads))
            for w in order:
                seed = args.seed_base + 1000 * s + i
                got = run_once(w, seed, spec["run_seconds"])
                for m in metrics:
                    values[s][w][m["name"]].append(got[m["name"]]["value"])
                print(f"set {s} run {i} {w} seed {seed}: " +
                      " ".join(f"{k}={v['value']:.4g} {v['unit']}" for k, v in got.items()),
                      flush=True)

    if args.runs < 2:
        return 0  # quartiles need at least two runs
    steady = True
    print(f"\n{'workload':<18} {'metric':<16} {'set':>3} {'median':>11} {'Q1':>11} "
          f"{'Q3':>11} {'spread':>7} {'bound':>6} {'moved':>7}  verdict")
    for w in workloads:
        for m in metrics:
            name, bound = m["name"], m["bound"]
            first_median = None
            for s in range(args.sets):
                median, q1, q3, sp = spread(values[s][w][name])
                moved = ""
                if name == "setup_s":
                    verdict = "spread not judged"
                elif sp < bound / 3:
                    verdict = "ok"
                else:
                    verdict = "within bound" if sp <= bound else "TOO NOISY"
                if first_median is None:
                    first_median = median
                else:
                    worse = (median - first_median if m["better"] == "lower"
                             else first_median - median) / first_median
                    moved = f"{worse:+.3f}"
                    if worse > bound:
                        verdict = "MOVED PAST BOUND"
                if verdict in ("TOO NOISY", "MOVED PAST BOUND"):
                    steady = False
                print(f"{w:<18} {name:<16} {s:>3} {median:>11.4f} {q1:>11.4f} {q3:>11.4f} "
                      f"{sp:>7.3f} {bound:>6.2f} {moved:>7}  {verdict}")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
