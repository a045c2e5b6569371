#!/usr/bin/env python3
"""Runs one workload N times with different seeds and prints, per metric,
the median, the quartiles, the quartile spread as a share of the median,
and the max/min ratio, beside the metric's bound in BENCHMARK.json.

    python3 perfbench/spread.py --workload <name> [--runs 10] [--seed0 1]
                                [--seconds S] [--trace 0|1] [--json out.json]

Quartiles are statistics.quantiles(values, n=4). Every run's result line
is kept in --json for later comparison (for example traced against
untraced medians, which is the tracing overhead).
"""
import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seed0", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", default="0", choices=["0", "1"])
    parser.add_argument("--json", help="write every run's result here")
    args = parser.parse_args()

    bounds = {m["name"]: m.get("bound") for m in
              spec["end_to_end"] + spec["per_layer"]}
    results = []
    for i in range(args.runs):
        seed = args.seed0 + i
        run = subprocess.run(
            [sys.executable, str(ROOT / "perfbench" / "run.py"),
             "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(args.seconds), "--trace", args.trace],
            cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
            text=True)
        if run.returncode != 0:
            print(f"run with seed {seed} failed (exit {run.returncode})")
            return 1
        result = json.loads(run.stdout.strip().splitlines()[-1])
        result["seed"] = seed
        results.append(result)
        print(f"seed {seed}: correct={result['correct']} "
              f"attempted={result['attempted']} failed={result['failed']}",
              flush=True)

    if args.json:
        Path(args.json).write_text(json.dumps(results, indent=1))
    names = list(results[0]["metrics"])
    print(f"\n{args.workload}, {args.runs} runs, {args.seconds} s, "
          f"trace {args.trace}")
    print(f"{'metric':38s} {'median':>12s} {'q1':>12s} {'q3':>12s} "
          f"{'iqr/med':>8s} {'max/min':>8s} {'bound':>6s}")
    for name in names:
        values = [r["metrics"][name]["value"] for r in results]
        q1, med, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / med if med else float("inf")
        ratio = max(values) / min(values) if min(values) > 0 else float("inf")
        bound = bounds.get(name)
        flag = " !" if bound and spread > bound / 3 else ""
        print(f"{name:38s} {med:12.6g} {q1:12.6g} {q3:12.6g} {spread:8.3f} "
              f"{ratio:8.3f} {bound if bound else '':>6}{flag}")
    failed_share = {r["failed"] / r["attempted"] for r in results}
    print(f"failed/attempted: {sorted(failed_share)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
