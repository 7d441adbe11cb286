"""Run one workload of the stack benchmark and print its metrics.

    python3 perfbench/run.py --workload compile-cold --seed 1 --seconds 15 --trace 0

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1`` (a traced run
traces every second round and also reports the tracing overhead, and
writes its spans to ``perfbench/out/``). The lines before it describe
the environment and any failed operation.
"""

from __future__ import annotations

import argparse
import gc
import json
import sys
import time

import benchlib as bl

WORKLOADS = ("compile-cold", "execute-steady", "serve-thread", "serve-process")


def workload_class(name):
    if name == "compile-cold":
        from compile_cold import CompileCold

        return CompileCold
    if name == "execute-steady":
        from execute_steady import ExecuteSteady

        return ExecuteSteady
    from serving import Serve, ServeProcess

    return Serve if name == "serve-thread" else ServeProcess


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def run(args, import_s):
    """Generate inputs, set up SETUP_REPEATS times, measure, check.

    *import_s* is how long importing the program took; with the first
    set-up it makes the cold start-up, ``setup.cold_s``.
    """
    began = time.perf_counter()
    bench = workload_class(args.workload)(args.seed)
    inputs_s = time.perf_counter() - began
    setups = []
    for repeat in range(bl.SETUP_REPEATS):
        gc.collect()
        seconds, scale = bl.timed_setup(bench.setup)
        if repeat == 0:
            cold_s = (import_s + seconds) * scale
        setups.append(seconds * scale)
        if repeat < bl.SETUP_REPEATS - 1:
            bench.teardown()
    spans = bl.Spans()
    tally = bl.Tally()
    measured = time.perf_counter()
    try:
        e2e, layers = bench.measure(args.seconds, bool(args.trace), spans, tally)
    finally:
        bench.teardown()
    print(
        f"phases: inputs {inputs_s:.2f} s, set-ups at reference speed "
        + " ".join(f"{s:.2f}" for s in setups)
        + f" s, measure and check {time.perf_counter() - measured:.2f} s"
    )
    if args.trace:
        layers["setup.cold_s"] = cold_s
        metrics = {name: bl.metric_value(layers.get(name, 0.0), unit)
                   for name, unit, _ in bl.PER_LAYER}
        path = spans.write_chrome(
            bl.OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json"
        )
        if path is not None:
            print(f"spans: {len(spans.records)} written to {path}")
    else:
        e2e["setup_s"] = bl.median(setups)
        metrics = {name: bl.metric_value(e2e[name], unit)
                   for name, unit, _ in bl.END_TO_END}
    for name, entry in metrics.items():
        if entry["value"] or not args.trace:
            print(f"  {name:40s} {entry['value']:14.4f} {entry['unit']}")
    if args.trace:
        print("  (per-layer metrics of layers this workload leaves idle read 0)")
    for note in tally.notes + tally.violations:
        print(f"check failed: {note}")
    return {
        "correct": tally.correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }


def main(argv=None):
    args = parse_args(argv)
    bl.pin_blas()
    began = time.perf_counter()
    bl.import_stack()
    import_s = time.perf_counter() - began
    print("environment: " + json.dumps(bl.environment(), sort_keys=True))
    result = run(args, import_s)
    sys.stdout.flush()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
