#!/usr/bin/env python3
"""Self-check of the benchmark's deterministic counts.

The counts a run reports (gola.rows_*, morsels, recomputes, rsd5_batch.<Q>,
plan.blocks, server.scan_share_hits/misses and the attempted-operation
count) are a pure function of the workload, its arguments and the seed.
This script checks that they

  * repeat exactly across two runs with one seed,
  * are equal between `library` and `library-pool` (the morsel plan does not
    depend on the pool),
  * are equal between traced and untraced runs,
  * change when the seed changes.

It runs the benchmark's own tables with little work (--seconds 4: one
library pass and ten dashboard cycles), so that it finishes in about a
minute and a half:

    python3 perfbench/check_counts.py [--seconds 4] [--seed 7]
"""

import argparse
import json
import subprocess
import sys

import run


def counts(workload, seed, trace, seconds):
    cmd = [run.BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=170)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if proc.returncode != 0 or result["failed"]:
        sys.exit("%s seed %d failed: %s" % (workload, seed, result["failures"]))
    out = dict(result["counts"])
    out["attempted"] = result["attempted"]
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seconds", type=int, default=4)
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args()
    run.build()

    def get(workload, seed=args.seed, trace=0):
        return counts(workload, seed, trace, args.seconds)

    library = get("library")
    dashboard = get("dashboard")
    checks = [
        ("library: same seed twice", library == get("library")),
        ("library-pool equals library", library == get("library-pool")),
        ("library: traced equals untraced", library == get("library", trace=1)),
        ("library: another seed changes the counts",
         library != get("library", seed=args.seed + 1)),
        ("dashboard: same seed twice", dashboard == get("dashboard")),
        ("dashboard: traced equals untraced",
         dashboard == get("dashboard", trace=1)),
        ("dashboard: another seed changes the counts",
         dashboard != get("dashboard", seed=args.seed + 1)),
    ]
    for name, ok in checks:
        print("%-45s %s" % (name, "ok" if ok else "FAILED"))
    print("library counts: " + json.dumps(library, sort_keys=True))
    print("dashboard counts: " + json.dumps(dashboard, sort_keys=True))
    return 0 if all(ok for _, ok in checks) else 1


if __name__ == "__main__":
    sys.exit(main())
