#!/usr/bin/env python3
"""Repeatability report: run one workload several times and print, for
each metric, its median, quartiles and spread against its bound.

    python3 perfbench/repeat.py --workload NAME [--runs 10] [--first-seed 1]
                                [--sets 1] [--seconds S] [--trace 0|1]

Run i of a set uses seed first-seed + i. The spread is the distance
between the first and third quartile (statistics.quantiles, n=4) as a
share of the median; `ok` means it is below a third of the metric's
bound from BENCHMARK.json (set-up time is judged only by how far its
median moves between sets). With --sets 2 the same seeds run twice and
the report adds how far the second set's median moved from the first,
as a share of the first. The values of every run are saved to
_perfbench/repeat-NAME.json.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def one_run(args, seed):
    cmd = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"), "--workload", args.workload,
           "--seed", str(seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
    out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                         text=True, check=True).stdout
    result = json.loads(out.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"seed {seed}: {result['failed']} of {result['attempted']} items failed")
    return {k: v["value"] for k, v in result["metrics"].items()}


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3, (q3 - q1) / med if med else 0.0


def main():
    bench = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--sets", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--trace", type=int, default=0)
    args = ap.parse_args()
    metrics = bench["per_layer" if args.trace else "end_to_end"]
    sets = []
    for _ in range(args.sets):
        runs = [one_run(args, args.first_seed + i) for i in range(args.runs)]
        sets.append({m["name"]: [r[m["name"]] for r in runs] for m in metrics})
    os.makedirs(os.path.join(ROOT, "_perfbench"), exist_ok=True)
    with open(os.path.join(ROOT, "_perfbench", f"repeat-{args.workload}.json"), "w") as f:
        json.dump(sets, f, indent=1)
    print(f"{args.workload}: {args.runs} runs x {args.sets} set(s), seeds "
          f"{args.first_seed}..{args.first_seed + args.runs - 1}, {args.seconds} s each")
    print(f"{'metric':28} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}"
          f"{'  shift' if args.sets > 1 else ''}")
    for m in metrics:
        name, bound = m["name"], m.get("bound")
        q1, med, q3, sp = spread(sets[0][name])
        if bound is None:
            verdict = ""
        elif name == "setup_s":
            verdict = "(median shift only)"
        else:
            verdict = "ok" if sp < bound / 3 else "WIDE"
        line = (f"{name:28} {med:12.6g} {q1:12.6g} {q3:12.6g} {sp:8.2%} "
                f"{'' if bound is None else f'{bound:.2f}':>6}")
        if args.sets > 1:
            med2 = statistics.median(sets[1][name])
            line += f" {((med2 - med) / med if med else 0.0):+7.2%}"
        print(f"{line} {verdict}")


if __name__ == "__main__":
    main()
