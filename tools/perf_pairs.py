#!/usr/bin/env python3
"""Alternating before/after pairs of the repository benchmark.

Runs `python3 perfbench/run.py --workload <w> --seed <s> --seconds <t>
--trace 0` in two checkouts, pair after pair, alternating which side runs
first, and prints per metric the medians, the before side's quartiles, the
median gain and the pairs won: the table a README "Performance" subsection
reports.

    tools/perf_pairs.py --before ../parent --after . \\
        --workload ciphered_datapath --seed 1 --seconds 6 --pairs 6

Each checkout builds its own secbus_perfbench under its own
CARGO_TARGET_DIR (default: <checkout>/.bench_build), so the two sides never
share a build tree. Which direction is better comes from the end_to_end
list in the after side's BENCHMARK.json. A run that does not report
"correct": true stops the script with exit code 1.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def log(message):
    print(message, file=sys.stderr, flush=True)


def end_to_end_metrics(checkout):
    """(name, better) for each end-to-end metric of BENCHMARK.json."""
    with open(os.path.join(checkout, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    return [(m["name"], m["better"]) for m in spec["end_to_end"]]


def run_once(checkout, target_dir, args):
    """One perfbench run; returns its metrics as {name: value}."""
    cmd = [sys.executable, os.path.join("perfbench", "run.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", "0"]
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir)
    proc = subprocess.run(cmd, cwd=checkout, env=env, capture_output=True,
                          text=True)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else {}
    if not result.get("correct"):
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"perf_pairs: {checkout}: run not correct "
                         f"(exit {proc.returncode})")
    return {name: m["value"] for name, m in result["metrics"].items()}


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def fmt(x):
    if abs(x) >= 1e6:
        return f"{x / 1e6:.3f}M"
    return f"{x:.4g}" if abs(x) < 1e4 else f"{x:,.0f}".replace(",", " ")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--before", required=True,
                        help="checkout of the parent (the baseline side)")
    parser.add_argument("--after", required=True,
                        help="checkout of the change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=6)
    parser.add_argument("--pairs", type=int, default=6)
    parser.add_argument("--target-dirs", nargs=2, metavar=("BEFORE", "AFTER"),
                        help="CARGO_TARGET_DIR of each side "
                             "(default: <checkout>/.bench_build)")
    args = parser.parse_args()
    if args.pairs < 1 or args.seconds < 1:
        parser.error("--pairs and --seconds must be >= 1")

    sides = {"before": os.path.abspath(args.before),
             "after": os.path.abspath(args.after)}
    targets = dict(zip(sides, args.target_dirs)) if args.target_dirs else {
        side: os.path.join(path, ".bench_build") for side, path in sides.items()}
    targets = {side: os.path.abspath(t) for side, t in targets.items()}
    metrics = end_to_end_metrics(sides["after"])

    runs = {"before": [], "after": []}
    for pair in range(args.pairs):
        order = ("before", "after") if pair % 2 == 0 else ("after", "before")
        for side in order:
            runs[side].append(run_once(sides[side], targets[side], args))
        first = metrics[0][0]
        log(f"pair {pair + 1}/{args.pairs} ({order[0]} first): {first} "
            f"{fmt(runs['before'][-1][first])} -> {fmt(runs['after'][-1][first])}")

    print(f"{args.workload} (seed {args.seed}), {args.pairs} alternating pairs "
          f"of {args.seconds} s runs; every run correct")
    print("| metric | before [q1, q3] | after | change | pairs won |")
    print("|---|---:|---:|---:|---:|")
    for name, better in metrics:
        before = [r[name] for r in runs["before"]]
        after = [r[name] for r in runs["after"]]
        b_med, a_med = statistics.median(before), statistics.median(after)
        q1, q3 = quartiles(before)
        sign = 1 if better == "higher" else -1
        won = sum(sign * (a - b) > 0 for b, a in zip(before, after))
        change = (a_med / b_med - 1) * 100 if b_med else float("nan")
        print(f"| `{name}` | {fmt(b_med)} [{fmt(q1)}, {fmt(q3)}] | "
              f"{fmt(a_med)} | {change:+.1f}% | {won}/{args.pairs} |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
