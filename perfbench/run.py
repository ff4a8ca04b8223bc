#!/usr/bin/env python3
"""Serving benchmark of `diffcond`: builds the server and the load generator
from source, then runs one workload, or the steadiness report.

One run (what BENCHMARK.json's command does):

    python3 perfbench/run.py --workload warm_text --seed 1 --seconds 10 --trace 0

prints the metrics by name and unit, and as its last line one JSON object
with the keys `correct`, `attempted`, `failed` and `metrics`.  `--trace 0`
reports the end-to-end metrics, `--trace 1` the per-layer ones.

Steadiness report:

    python3 perfbench/run.py steadiness --runs 10 --sets 2

runs every workload of BENCHMARK.json `--runs` times per set, set s run r
on seed 1 + s * runs + r, and prints per workload and end-to-end metric the
median and the interquartile spread (q3 - q1, as a share of the median, with
Python's statistics.quantiles); with two sets, also how far the second set's
median moved from the first's.  Those are the figures the bounds in
BENCHMARK.json are set from.

Builds go to $CARGO_TARGET_DIR (default: .bench_build at the repository
root); span files of traced runs go to its perfbench/ subdirectory.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def target_dir():
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return target if target.is_absolute() else ROOT / target


def build():
    """Builds `diffcond` (the repository workspace) and the generator (its
    own workspace under perfbench/); returns both executables."""
    for needed in ("Cargo.toml", "crates/engine/Cargo.toml", "perfbench/Cargo.toml"):
        if not (ROOT / needed).is_file():
            fail(f"{needed} is missing: run from a full checkout of the repository")
    env = dict(os.environ, CARGO_TARGET_DIR=str(target_dir()))
    commands = [
        ["cargo", "build", "--release", "--offline", "-p", "diffcon-engine", "--bin", "diffcond"],
        ["cargo", "build", "--release", "--offline", "--manifest-path", "perfbench/Cargo.toml"],
    ]
    for command in commands:
        # Cargo's output goes to stderr: stdout carries only the result.
        done = subprocess.run(command, cwd=ROOT, env=env, stdout=sys.stderr)
        if done.returncode != 0:
            fail(f"build failed: {' '.join(command)}")
    release = target_dir() / "release"
    return release / "perfbench", release / "diffcond"


def bench_command(binaries, workload, seed, seconds, trace):
    bench, server = binaries
    spans = target_dir() / "perfbench" / f"spans-{workload}-{seed}.tsv"
    return [
        str(bench),
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", str(trace),
        "--server", str(server),
        "--spans-out", str(spans),
    ]


def run_once(argv):
    parser = argparse.ArgumentParser(description="Run one benchmark workload.")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    binaries = build()
    command = bench_command(binaries, args.workload, args.seed, args.seconds, args.trace)
    try:
        done = subprocess.run(command, cwd=ROOT, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    sys.exit(done.returncode)


def measure(binaries, workload, seed, seconds):
    """One end-to-end run's result object, or None when it failed."""
    command = bench_command(binaries, workload, seed, seconds, 0)
    try:
        done = subprocess.run(
            command, cwd=ROOT, timeout=RUN_TIMEOUT_S, capture_output=True, text=True
        )
    except subprocess.TimeoutExpired:
        print(f"  {workload} seed {seed}: timed out", file=sys.stderr)
        return None
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        print(f"  {workload} seed {seed}: exit {done.returncode}\n{done.stderr}", file=sys.stderr)
        return None
    result = json.loads(lines[-1])
    if not result["correct"]:
        print(f"  {workload} seed {seed}: incorrect replies", file=sys.stderr)
    return result


def spread(values):
    """Interquartile distance as a share of the median."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median if median else float("inf")


def steadiness(argv):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description="Steadiness report across seeds.")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = parser.parse_args(argv)
    metrics = spec["end_to_end"]
    binaries = build()
    report = {}
    for workload in (w["name"] for w in spec["workloads"]):
        sets = []
        for s in range(args.sets):
            values = {m["name"]: [] for m in metrics}
            for r in range(args.runs):
                seed = 1 + s * args.runs + r
                result = measure(binaries, workload, seed, args.seconds)
                if result is None:
                    continue
                for name, metric in result["metrics"].items():
                    values.setdefault(name, []).append(metric["value"])
                print(f"  {workload} set {s + 1} seed {seed}: done", file=sys.stderr)
            sets.append(values)
        report[workload] = sets
        print(f"\n{workload}  ({args.runs} runs per set, {args.seconds} s each;"
              f" spread per set, drift of each later set's median from the first's)")
        print(f"  {'metric':<26} {'median':>14} {'bound':>6}  spreads / drifts")
        for m in metrics:
            name, bound = m["name"], m["bound"]
            columns = [v[name] for v in sets if len(v.get(name, [])) >= 2]
            if not columns:
                print(f"  {name:<26} (too few values)")
                continue
            first = statistics.median(columns[0])
            spreads = [spread(values) for values in columns]
            drifts = []
            for values in columns[1:]:
                later = statistics.median(values)
                worse = (later - first) if m["better"] == "lower" else (first - later)
                drifts.append(worse / first if first else float("inf"))
            widest = max(spreads)
            flag = "ok" if widest <= bound / 3 else ("WIDE" if widest <= bound else "OVER")
            if any(d > bound for d in drifts):
                flag += " DRIFT"
            print(f"  {name:<26} {first:>14.4f} {bound:>6}  "
                  + " ".join(f"{x:.3f}" for x in spreads) + " / "
                  + " ".join(f"{d:+.3f}" for d in drifts) + f"  {flag}")
    out = target_dir() / "perfbench" / "steadiness.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(report, indent=1))
    print(f"\nraw values in {out}")


def main():
    if len(sys.argv) > 1 and sys.argv[1] == "steadiness":
        steadiness(sys.argv[2:])
    else:
        run_once(sys.argv[1:])


if __name__ == "__main__":
    main()
