#!/usr/bin/env python3
"""User-clock benchmark of the gola engine.

Builds the engine and the benchmark binary from this checkout's sources,
runs one workload in a fresh process and prints its metrics, one per line
with its unit, then the result as one JSON object on the last line.

    python3 perfbench/run.py --workload library|library-pool|dashboard \\
        --seed N --seconds S --trace 0|1

--trace 0 prints the end-to-end metrics of BENCHMARK.json. --trace 1 runs
the workload twice, untraced and then traced, each in its own process, and
prints the per-layer metrics of the traced run together with the tracing
overhead (traced versus untraced wall time of the measured phase). The
traced run's spans are written to .bench_build/spans-<workload>-<seed>.json
after it has ended. See perfbench/README.md.
"""

import argparse
import fcntl
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD_DIR, "gola_perfbench")
WORKLOADS = ("library", "library-pool", "dashboard")
# Every run must end within 180 s; the two processes of a traced run share it.
RUN_BUDGET_S = 170
BUILD_TIMEOUT_S = 880


def fail(message):
    print("run.py: " + message, file=sys.stderr)
    sys.exit(2)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no engine sources next to perfbench/ (expected src/CMakeLists.txt)")
    os.makedirs(BUILD_DIR, exist_ok=True)
    # One build at a time per checkout.
    with open(os.path.join(BUILD_DIR, ".build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                          "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
        steps.append(["cmake", "--build", BUILD_DIR, "--target",
                      "gola_perfbench", "-j", str(os.cpu_count() or 1)])
        for cmd in steps:
            try:
                proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                                      stderr=subprocess.STDOUT, text=True,
                                      timeout=BUILD_TIMEOUT_S)
            except (OSError, subprocess.TimeoutExpired) as e:
                fail("build step %s failed: %s" % (cmd[:2], e))
            if proc.returncode != 0:
                sys.stderr.write(proc.stdout[-8000:])
                fail("build step %s failed" % " ".join(cmd[:3]))


def run_binary(args, trace, timeout):
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(trace)]
    if trace:
        cmd += ["--spans", os.path.join(
            BUILD_DIR, "spans-%s-%d.json" % (args.workload, args.seed))]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail("%s run exceeded %d s" % (args.workload, timeout))
    lines = out.strip().splitlines()
    if not lines:
        fail("benchmark binary exited with code %d and no result" % proc.returncode)
    try:
        result = json.loads(lines[-1])
    except ValueError:
        fail("benchmark binary printed no result line (exit code %d)" % proc.returncode)
    if proc.returncode != 0 and result.get("failed", 0) == 0:
        fail("benchmark binary exited with code %d" % proc.returncode)
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")

    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        fail("cannot read BENCHMARK.json: %s" % e)
    build()

    failures = []
    if args.trace:
        untraced = run_binary(args, 0, RUN_BUDGET_S // 2)
        result = run_binary(args, 1, RUN_BUDGET_S // 2)
        metrics_spec = spec["per_layer"]
        values = dict(result["per_layer"])
        values["trace.overhead_frac"] = (
            result["measured_wall_s"] / untraced["measured_wall_s"] - 1.0)
        # The counts are a pure function of workload, arguments and seed.
        if untraced["counts"] != result["counts"]:
            failures.append("counts differ between the untraced and traced runs")
        attempted = untraced["attempted"] + result["attempted"]
        failed = untraced["failed"] + result["failed"]
        failures += untraced["failures"] + result["failures"]
    else:
        result = run_binary(args, 0, RUN_BUDGET_S)
        metrics_spec = spec["end_to_end"]
        values = result["end_to_end"]
        attempted = result["attempted"]
        failed = result["failed"]
        failures += result["failures"]

    missing = [m["name"] for m in metrics_spec if m["name"] not in values]
    if missing:
        fail("metrics missing from the run: " + ", ".join(missing))

    print("config: " + " ".join(
        "%s=%s" % kv for kv in sorted(result["config"].items())))
    print("attempted=%d failed=%d" % (attempted, failed))
    for message in failures:
        print("FAILED: " + message)
    metrics = {}
    for m in metrics_spec:
        value = values[m["name"]]
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        print("%-32s %.6g %s" % (m["name"], value, m["unit"]))
    correct = failed == 0 and not failures
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
