"""Steadiness check: run workloads repeatedly, one seed per run, and hold
each end-to-end metric's spread against its bound in ``BENCHMARK.json``.

    python3 perfbench/steady.py --runs 10 --first-seed 1
    python3 perfbench/steady.py --workloads serve-thread --runs 5 --trace

For every metric it prints the median, the quartiles (Python's
``statistics.quantiles(values, n=4)``) and the spread ``(q3 - q1) /
median`` next to the bound. A spread above the bound is flagged
``FLAG``; above a third of it, ``wide``. The share of failed operations
must be the same in every run. With
``--trace`` the runs are traced, and every per-layer count metric must
repeat exactly. Exits 1 when anything is flagged.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload, seed, seconds, trace):
    command = json.loads((ROOT / "BENCHMARK.json").read_text())["command"]
    argv = command + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(int(trace)),
    ]
    started = time.perf_counter()
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=600)
    elapsed = time.perf_counter() - started
    if done.returncode != 0:
        raise RuntimeError(
            f"{workload} seed {seed} exited {done.returncode}:\n{done.stderr[-2000:]}"
        )
    return json.loads(done.stdout.strip().splitlines()[-1]), elapsed


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    middle = statistics.median(values)
    return middle, q1, q3, (q3 - q1) / middle


def check_workload(workload, spec, results, trace):
    """Print the table for one workload; returns the flagged lines."""
    flags = []
    shares = {(r["failed"], r["attempted"]) for r in results}
    share_set = {f / a for f, a in shares}
    if len(share_set) != 1 or not all(r["correct"] for r in results):
        flags.append(f"{workload}: failed shares {sorted(shares)}, correct "
                     f"{[r['correct'] for r in results]}")
    if trace:
        for row in spec["per_layer"]:
            if row["unit"] != "count":
                continue
            values = {r["metrics"][row["name"]]["value"] for r in results}
            if len(values) != 1:
                flags.append(f"{workload}: count {row['name']} varies: {sorted(values)}")
        return flags
    print(f"{workload}: {len(results)} runs, failed share {sorted(share_set)}")
    print(f"  {'metric':14s} {'median':>11s} {'q1':>11s} {'q3':>11s} "
          f"{'spread':>7s} {'bound':>6s}")
    for row in spec["end_to_end"]:
        name = row["name"]
        values = [r["metrics"][name]["value"] for r in results]
        middle, q1, q3, width = spread(values)
        verdict = "ok"
        if width > row["bound"]:
            verdict = "FLAG"
            flags.append(f"{workload}: {name} spread {width:.3f} > bound {row['bound']}")
        elif width > row["bound"] / 3:
            verdict = "wide"
        print(f"  {name:14s} {middle:11.4f} {q1:11.4f} {q3:11.4f} "
              f"{width:7.3f} {row['bound']:6.2f} {verdict}")
    return flags


def main(argv=None):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", default=names, choices=names)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)
    if args.runs < 4:
        parser.error("quartiles need at least 4 runs")

    flags = []
    for workload in args.workloads:
        results = []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            result, elapsed = run_once(workload, seed, args.seconds, args.trace)
            results.append(result)
            print(f"  {workload} seed {seed}: {elapsed:.1f} s wall", flush=True)
        flags += check_workload(workload, spec, results, args.trace)
    for line in flags:
        print(f"FLAG {line}")
    return 1 if flags else 0


if __name__ == "__main__":
    sys.exit(main())
