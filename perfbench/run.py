#!/usr/bin/env python3
"""Repository benchmark: builds secbus_perfbench, runs one workload, prints the result.

Run from the root of a checkout:

    python3 perfbench/run.py --workload attack_grid --seed 1 --seconds 12 --trace 0

The first run builds libsecbus and secbus_perfbench (Release) under
$CARGO_TARGET_DIR/perfbench, or .bench_build/perfbench when that variable is
unset. Reports and traces go to .perfbench_out/. The last line of standard
output is one JSON object: {"correct", "attempted", "failed", "metrics"}.
With --trace 0 the metrics are the end-to-end ones; with --trace 1 they are
the per-layer ones. The exit code is 0 only when every check passed.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("attack_grid", "ciphered_datapath", "fabric_star32")
OUT_DIR = ".perfbench_out"
# setup_s is the median over the measuring process and this many fresh
# processes that only set up: a cold pass fills process-wide caches, so each
# sample needs its own process.
EXTRA_SETUP_PROCESSES = 4
# Every run after the build must end within this many seconds.
RUN_BUDGET_S = 170

END_TO_END = (
    ("jobs_per_s", "1/s"),
    ("sim_accesses_per_s", "1/s"),
    ("job_ms_p50", "ms"),
    ("job_ms_p95", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
)


def log(message):
    print(message, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds secbus_perfbench; returns its path or None."""
    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(build_root, "perfbench")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target",
                  "secbus_perfbench", "-j", jobs])
    for step in steps:
        try:
            proc = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=880)
        except (OSError, subprocess.TimeoutExpired) as exc:
            log(f"build failed: {exc}")
            return None
        if proc.returncode != 0:
            log(f"build failed: {' '.join(step)} exited {proc.returncode}")
            return None
    return os.path.join(build_dir, "secbus_perfbench")


class Bench:
    """Runs secbus_perfbench processes for one workload within the time budget."""

    def __init__(self, binary, args):
        self.binary = binary
        self.args = args
        self.deadline = time.monotonic() + RUN_BUDGET_S

    def run(self, mode, seconds=None):
        cmd = [self.binary, "--mode", mode, "--workload", self.args.workload,
               "--seed", str(self.args.seed),
               "--campaign", os.path.join(HERE, "workloads", "attack_grid.json"),
               "--out", OUT_DIR]
        if seconds is not None:
            cmd += ["--seconds", str(seconds)]
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise RuntimeError(f"time budget exhausted before {mode}")
        # subprocess.run kills and reaps the child when the timeout expires.
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=remaining)
        if proc.stderr:
            sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise RuntimeError(f"secbus_perfbench --mode {mode} exited "
                               f"{proc.returncode}")
        for line in lines[:-1]:
            print(line)
        return json.loads(lines[-1])


def load_expected():
    with open(os.path.join(HERE, "expected.json"), encoding="utf-8") as f:
        return json.load(f)


def check_recorded(expected, args, result, keys, problems):
    """Default seed: compare with the values recorded in expected.json."""
    if args.seed != expected["default_seed"]:
        return
    recorded = expected["workloads"].get(args.workload, {})
    for key in keys:
        if key in recorded and result.get(key) != recorded[key]:
            problems.append(f"{key} differs from the recorded default-seed "
                            f"value: {result.get(key)!r} != {recorded[key]!r}")


def run_end_to_end(bench, args, expected):
    measure = bench.run("measure", args.seconds)
    setups = [bench.run("setup") for _ in range(EXTRA_SETUP_PROCESSES)]
    processes = [measure] + setups
    problems = []
    digests = {p["pass_digest"] for p in processes}
    if len(digests) != 1:
        problems.append(f"pass digests differ across processes: {digests}")
    check_recorded(expected, args, measure, ["pass_digest"], problems)

    values = {name: measure[name] for name, _ in END_TO_END if name in measure}
    values["setup_s"] = statistics.median(p["setup_s"] for p in processes)
    attempted = sum(p["attempted"] for p in processes)
    failed = sum(p["failed"] for p in processes)
    print(f"end-to-end: {args.workload} seed {args.seed}, {args.seconds} s, "
          f"one runner thread, {measure['passes']} timed pass(es)")
    for name, unit in END_TO_END:
        print(f"  {name:<24} {values[name]:>14.6g} {unit}")
    print(f"  {'jobs':<24} {measure['jobs']:>14d} "
          f"(each job's median over {measure['passes']} passes, on the reference host)")
    print(f"  {'job_error_rate':<24} {failed / attempted:>14.6g} "
          f"({failed} failed / {attempted} attempted)")
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in END_TO_END}
    return metrics, attempted, failed, problems


def run_per_layer(bench, args, expected):
    traced = bench.run("trace", args.seconds)
    counted = bench.run("counts")
    problems = []
    for key in ("pass_digest", "count_digest", "counts"):
        if traced[key] != counted[key]:
            problems.append(f"{key} differs between two processes")
    if traced["count_mismatches"]:
        problems.append(f"{traced['count_mismatches']} traced job(s) repeated "
                        "their exact counts inexactly")
    check_recorded(expected, args, traced,
                   ["pass_digest", "count_digest", "counts"], problems)
    attempted = traced["attempted"] + counted["attempted"]
    failed = traced["failed"] + counted["failed"]
    return traced["metrics"], attempted, failed, problems


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    binary = build()
    if binary is None:
        return 2
    expected = load_expected()
    bench = Bench(binary, args)
    try:
        if args.trace:
            metrics, attempted, failed, problems = run_per_layer(
                bench, args, expected)
        else:
            metrics, attempted, failed, problems = run_end_to_end(
                bench, args, expected)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError,
            KeyError) as exc:
        log(f"error: {exc}")
        return 2
    for problem in problems:
        log(f"check failed: {problem}")
    correct = not problems and failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
