#!/usr/bin/env python3
"""CI guard for the observability overhead budget (DESIGN.md §9).

Compares google-benchmark JSON outputs of the online-drain
microbenchmark — runs with GOLA_METRICS=1 against runs with GOLA_METRICS=0
— and fails if the metrics-on median regresses more than the budget
(default 5%) against metrics-off.

The files come in (on, off) pairs, one pair per round. Each round's ratio
is its on-median over its off-median; the gate is the median of the round
ratios. A step that alternates on and off legs over several rounds spreads
a slow stretch of a shared machine over both legs, where one pair alone can
land it on one side (on a 4-vCPU box one pair's ratio ranged from -33 % to
+18 % with no code change).

Usage: check_overhead.py <on.json> <off.json> [<on.json> <off.json> ...]
                         [--budget 0.05] [--filter BM_OnlineDrainSbi]
"""

import argparse
import json
import statistics
import sys


def medians_by_benchmark(path, name_filter):
    """Median real_time per benchmark name (aggregates preferred)."""
    with open(path) as f:
        doc = json.load(f)
    samples = {}
    for bench in doc.get("benchmarks", []):
        name = bench.get("name", "")
        if name_filter not in name:
            continue
        # Prefer google-benchmark's own median aggregate when repetitions
        # were requested; otherwise collect iteration rows and take our own.
        if bench.get("run_type") == "aggregate":
            if bench.get("aggregate_name") == "median":
                samples[bench["run_name"]] = [bench["real_time"]]
            continue
        samples.setdefault(name, []).append(bench["real_time"])
    return {name: statistics.median(vals) for name, vals in samples.items()}


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("files", nargs="+",
                        help="metrics-on and metrics-off JSON, one pair per round")
    parser.add_argument("--budget", type=float, default=0.05)
    parser.add_argument("--filter", default="BM_OnlineDrainSbi")
    args = parser.parse_args()
    if len(args.files) % 2 != 0:
        print("error: files must come in (metrics-on, metrics-off) pairs",
              file=sys.stderr)
        return 2

    ratios = {}  # benchmark name -> one on/off ratio per round
    for r in range(0, len(args.files), 2):
        on = medians_by_benchmark(args.files[r], args.filter)
        off = medians_by_benchmark(args.files[r + 1], args.filter)
        common = sorted(set(on) & set(off))
        if not common:
            print(f"error: no '{args.filter}' benchmarks common to "
                  f"{args.files[r]} and {args.files[r + 1]}", file=sys.stderr)
            return 2
        for name in common:
            ratio = on[name] / off[name] if off[name] > 0 else float("inf")
            ratios.setdefault(name, []).append(ratio)

    failed = False
    for name in sorted(ratios):
        rounds = ratios[name]
        overhead = statistics.median(rounds) - 1.0
        verdict = "OK" if overhead <= args.budget else "FAIL"
        if verdict == "FAIL":
            failed = True
        spread = ", ".join(f"{100 * (x - 1):+.1f}%" for x in rounds)
        print(f"{verdict:4s} {name}: metrics-on vs metrics-off median "
              f"{100 * overhead:+.2f}% over {len(rounds)} round(s) [{spread}] "
              f"(budget {100 * args.budget:g}%)")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
