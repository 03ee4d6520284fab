#!/usr/bin/env python3
"""CI guard for the vectorized kernel speedups (DESIGN.md §11).

Reads one google-benchmark JSON output of bench_kernels, pairs each
vectorized run (`vec:1`) with its row-at-a-time reference (`vec:0`), and
fails if the vectorized median is not at least `--min-speedup` times the
reference on the group-by and replicate-update kernels. The filter
benchmark is reported but not gated by default: its two arms do different
amounts of copying work, so its ratio is informational.

Usage: check_perf.py <bench_kernels.json> [--min-speedup 1.5]
                     [--gate BM_KernelGroupBy --gate BM_KernelReplicateUpdate]
"""

import argparse
import json
import statistics
import sys


def medians_by_benchmark(path):
    """Median real_time per benchmark name (aggregates preferred)."""
    with open(path) as f:
        doc = json.load(f)
    samples = {}
    for bench in doc.get("benchmarks", []):
        name = bench.get("name", "")
        if bench.get("run_type") == "aggregate":
            if bench.get("aggregate_name") == "median":
                samples[bench["run_name"]] = [bench["real_time"]]
            continue
        samples.setdefault(name, []).append(bench["real_time"])
    return {name: statistics.median(vals) for name, vals in samples.items()}


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("bench_json")
    parser.add_argument("--min-speedup", type=float, default=1.5)
    parser.add_argument(
        "--gate", action="append", default=None,
        help="benchmark name prefix that must meet --min-speedup "
             "(repeatable; default: BM_KernelGroupBy, BM_KernelReplicateUpdate)")
    args = parser.parse_args()
    gates = args.gate or ["BM_KernelGroupBy", "BM_KernelReplicateUpdate"]

    medians = medians_by_benchmark(args.bench_json)
    pairs = {}  # base name (vec tag stripped) -> {0: time, 1: time}
    for name, value in medians.items():
        if "/vec:0" in name:
            pairs.setdefault(name.replace("/vec:0", ""), {})[0] = value
        elif "/vec:1" in name:
            pairs.setdefault(name.replace("/vec:1", ""), {})[1] = value
    complete = {k: v for k, v in pairs.items() if 0 in v and 1 in v}
    if not complete:
        print("error: no vec:0/vec:1 benchmark pairs found", file=sys.stderr)
        return 2

    failed = False
    for name in sorted(complete):
        ref, vec = complete[name][0], complete[name][1]
        speedup = ref / vec if vec > 0 else float("inf")
        gated = any(name.startswith(g) for g in gates)
        ok = speedup >= args.min_speedup
        verdict = "OK" if ok or not gated else "FAIL"
        if verdict == "FAIL":
            failed = True
        tag = "" if gated else " (informational)"
        print(f"{verdict:4s} {name}: vectorized {speedup:.2f}x reference "
              f"(floor {args.min_speedup:g}x){tag}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
