"""Shared pieces of the stack benchmark: environment, metric names,
statistics, spans, memory, seeded program variants and the output checks.

The program under test is imported only through :func:`import_stack`,
so ``run.py`` can pin the BLAS thread count before numpy loads.
"""

from __future__ import annotations

import gc
import json
import math
import multiprocessing
import os
import resource
import statistics
import sys
import time
from pathlib import Path

#: Root of the checkout (the directory holding ``BENCHMARK.json``).
ROOT = Path(__file__).resolve().parent.parent
#: Where traces and scratch caches go; listed in ``.gitignore``.
OUT_DIR = Path(__file__).resolve().parent / "out"

#: BLAS threads for the benchmark process (and its forked workers).
BLAS_THREADS = 1
BLAS_VARS = (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
)

#: How many times each run sets up; ``setup_s`` is the median.
SETUP_REPEATS = 3

#: The registered programs, and the 17 of them ``execute-steady`` steps
#: through (MovieL-20M and DCT-2048 are the larger twins of MovieL-100K
#: and DCT-1024).
ALL_PROGRAMS = (
    "BrainStimul", "DCT-1024", "DCT-2048", "DigitCluster", "ElecUse",
    "FFT-16384", "FFT-8192", "Hexacopter", "LiveJourn-SSP",
    "LogisticRegression", "MobileNet", "MobileRobot", "MovieL-100K",
    "MovieL-20M", "OptionPricing", "PageRank", "ResNet-18", "Twitter-BFS",
    "Wiki-BFS",
)
STEADY_PROGRAMS = tuple(
    name for name in ALL_PROGRAMS if name not in ("MovieL-20M", "DCT-2048")
)
#: The serving mix: control, analytics, DSP, end-to-end and graph programs.
SERVE_PROGRAMS = (
    "MobileRobot", "ElecUse", "FFT-8192", "DCT-1024", "Hexacopter",
    "OptionPricing", "BrainStimul", "PageRank",
)

#: End-to-end metrics: (name, unit, better). Every workload prints all.
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("op_ms", "ms", "lower"),
    ("ops_per_s", "1/s", "higher"),
    ("p90_ms", "ms", "lower"),
)

#: Compile StageRecord names -> per-layer metric names.
COMPILE_STAGES = (
    ("parse", "parse_ms"),
    ("semantic", "semantic_ms"),
    ("srdfg-build", "build_ms"),
    ("optimize", "optimize_ms"),
    ("optimize/constant-folding", "optimize.constant-folding_ms"),
    ("optimize/algebraic-simplification", "optimize.algebraic-simplification_ms"),
    ("optimize/copy-propagation", "optimize.copy-propagation_ms"),
    ("optimize/cse", "optimize.cse_ms"),
    ("optimize/dead-code-elimination", "optimize.dead-code-elimination_ms"),
    ("lower", "lower_ms"),
    ("translate", "translate_ms"),
    ("plan", "plan_build_ms"),
    ("codegen", "codegen_ms"),
)


def _per_layer():
    rows = [(metric, "ms", "lower") for _, metric in COMPILE_STAGES]
    rows.append(("compile.unattributed_ms", "ms", "lower"))
    rows += [
        ("ir_nodes.built", "count", "lower"),
        ("ir_nodes.optimized", "count", "lower"),
        ("ir_nodes.lowered", "count", "lower"),
        ("plan_statements", "count", "lower"),
        ("kernel_kb", "KiB", "lower"),
        ("kernel_specialized", "count", "higher"),
        ("kernel_fused", "count", "higher"),
        ("plan_step_ms", "ms", "lower"),
        ("kernel_step_ms", "ms", "lower"),
    ]
    for tier in ("plan", "kernel"):
        rows += [(f"{tier}_step_ms.{name}", "ms", "lower") for name in STEADY_PROGRAMS]
    rows += [
        ("kernel_fallback_calls", "count", "lower"),
        ("execute.unattributed_ms", "ms", "lower"),
        ("queue_ms", "ms", "lower"),
        ("compile_lookup_ms", "ms", "lower"),
        ("plan_lookup_ms", "ms", "lower"),
        ("execute_ms", "ms", "lower"),
        ("runtime_execute_ms", "ms", "lower"),
        ("serve.unattributed_ms", "ms", "lower"),
        ("compile_builds", "count", "lower"),
        ("plans_built", "count", "lower"),
        ("backpressure_retries", "count", "lower"),
        ("setup.cold_s", "s", "lower"),
        ("trace.overhead_pct", "%", "lower"),
    ]
    return tuple(rows)


#: Per-layer metrics: (name, unit, better). A traced run prints all of
#: them; a layer the workload does not exercise reads 0.
PER_LAYER = _per_layer()


def pin_blas():
    """Fix the BLAS thread count; must run before numpy is imported."""
    for var in BLAS_VARS:
        os.environ[var] = str(BLAS_THREADS)


def import_stack():
    """Put the checkout's ``src`` on the path and import the program.

    Raises ImportError when the checkout holds no program, which makes
    ``run.py`` exit non-zero without a result. An installed copy of the
    package elsewhere is never measured in its place.
    """
    source = ROOT / "src"
    if not (source / "repro").is_dir():
        raise ImportError(f"no program under {source}")
    sys.path.insert(0, str(source))
    import repro

    return repro


def nproc():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def environment():
    """The facts a reader needs to compare two runs."""
    import numpy as np

    return {
        "nproc": nproc(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas_threads": BLAS_THREADS,
    }


# -- statistics ---------------------------------------------------------------


median = statistics.median


def geomean(values):
    values = list(values)
    return math.exp(sum(math.log(v) for v in values) / len(values))


def percentile(values, fraction):
    """Nearest-rank percentile (the serving layer's own definition)."""
    ordered = sorted(values)
    rank = max(1, int(round(fraction * len(ordered) + 0.5)))
    return ordered[min(rank, len(ordered)) - 1]


def class_geomean_ms(samples):
    """Geometric mean over classes of each class's median, in ms.

    *samples* maps a class (a program, or a program and tier) to its
    list of durations in seconds.
    """
    return geomean(median(times) * 1e3 for times in samples.values())


# -- speed calibration --------------------------------------------------------

#: Seconds :func:`calibrate` takes at the reference speed (its median on
#: the machine the README's figures come from). Timings are reported
#: scaled to that speed; see :class:`Rounds`.
CAL_REF_S = 0.025

_CAL_MATRIX = None


def _calibration_kernel(matrix):
    import numpy as np

    start = time.perf_counter()
    table = {}
    for i in range(60000):
        key = i & 511
        table[key] = table.get(key, 0) + i
    product = matrix
    for _ in range(10):
        product = np.tanh(product @ matrix * 1e-2) + matrix[::-1]
    return time.perf_counter() - start


def calibrate():
    """Median of three timings of a fixed mix of interpreter work and
    numpy work, in seconds, with the garbage collector paused.

    The mix touches no code of the program under test. On a shared
    machine whose speed drifts by tens of percent over seconds to
    minutes, dividing a round's timings by the calibration taken around
    it cancels the drift while keeping every change to the program.
    """
    import numpy as np

    global _CAL_MATRIX
    if _CAL_MATRIX is None:
        _CAL_MATRIX = np.random.default_rng(0).standard_normal((256, 256))
    collecting = gc.isenabled()
    gc.disable()
    try:
        return statistics.median(_calibration_kernel(_CAL_MATRIX) for _ in range(3))
    finally:
        if collecting:
            gc.enable()


class Rounds:
    """A fixed number of whole rounds, calibrated around each.

    The count is the run length over the workload's nominal round time
    at the reference speed, so every run of a workload does the same
    work and a run measures about ``seconds`` at that speed. Iterating
    yields round numbers; the loop body runs one round. Round ``r``'s
    scale is ``CAL_REF_S`` over the mean of the calibrations taken just
    before and just after it, so ``seconds * scale[r]`` is a round-``r``
    timing at the reference speed. A traced run traces every second
    round (and runs at least two), an untraced run none.
    """

    def __init__(self, seconds, round_seconds, trace):
        self.count = max(2 if trace else 1, round(seconds / round_seconds))
        self.trace = trace
        self.scale = []
        self.walls = []

    def traced(self, round_no):
        return self.trace and round_no % 2 == 1

    def __iter__(self):
        before = calibrate()
        for round_no in range(self.count):
            began = time.perf_counter()
            yield round_no
            self.walls.append(time.perf_counter() - began)
            after = calibrate()
            self.scale.append(2 * CAL_REF_S / (before + after))
            before = after

    def split(self):
        """``(untraced, traced)`` sets of round numbers."""
        rounds = set(range(len(self.walls)))
        traced = {r for r in rounds if self.traced(r)}
        return rounds - traced, traced

    def per_second(self, operations):
        """Operations per second of reference-speed round wall time."""
        return operations / sum(w * s for w, s in zip(self.walls, self.scale))


class Samples:
    """Durations tagged with their round, read back at reference speed."""

    def __init__(self, rounds):
        self.rounds = rounds
        self.rows = []  # (round, class, raw seconds)

    def add(self, round_no, key, seconds):
        self.rows.append((round_no, key, seconds))

    def by_class(self, rounds=None):
        grouped = {}
        for round_no, key, seconds in self.rows:
            if rounds is None or round_no in rounds:
                grouped.setdefault(key, []).append(seconds * self.rounds.scale[round_no])
        return grouped

    def values(self, rounds=None):
        return [
            seconds * self.rounds.scale[round_no]
            for round_no, _, seconds in self.rows
            if rounds is None or round_no in rounds
        ]

    def per_second(self):
        """Timed calls per second of reference-speed time inside them."""
        return len(self.rows) / sum(self.values())

    def metrics(self, rounds):
        """``op_ms`` and ``p90_ms`` over *rounds*."""
        return {
            "op_ms": class_geomean_ms(self.by_class(rounds)),
            "p90_ms": percentile(self.values(rounds), 0.9) * 1e3,
        }


def overhead_pct(untraced_ms, traced_ms):
    return (traced_ms / untraced_ms - 1.0) * 100.0


def timed_setup(setup):
    """Run *setup* once. Returns ``(seconds, scale)``: its wall time, and
    the factor that brings a time taken around it to the reference speed."""
    before = calibrate()
    start = time.perf_counter()
    setup()
    elapsed = time.perf_counter() - start
    return elapsed, 2 * CAL_REF_S / (before + calibrate())


# -- memory -------------------------------------------------------------------


def _vm_hwm_kb(pid):
    try:
        with open(f"/proc/{pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def peak_rss_mb(include_children=False):
    """Peak resident memory of this process, plus its live workers."""
    kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if include_children:
        kb += sum(_vm_hwm_kb(p.pid) for p in multiprocessing.active_children())
    return kb / 1024.0


# -- spans --------------------------------------------------------------------


class Spans:
    """The benchmark's own span recorder, kept in memory.

    A span is ``[name, start, end, parent, lane, args]`` with
    ``perf_counter`` times; parents are explicit because serving clients
    interleave on one event loop. Callers record spans only in traced
    rounds.
    """

    def __init__(self):
        self.records = []

    def add(self, name, start, end, parent=None, lane=0, **args):
        self.records.append([name, start, end, parent, lane, args])
        return len(self.records) - 1

    def write_chrome(self, path):
        """Write the spans as Chrome trace-event JSON (Perfetto loads it)."""
        if not self.records:
            return None
        origin = min(r[1] for r in self.records)
        events = []
        for index, (name, start, end, parent, lane, args) in enumerate(self.records):
            payload = dict(args, span=index)
            if parent is not None:
                payload["parent"] = parent
            events.append({
                "name": name, "ph": "X", "pid": 1, "tid": lane,
                "ts": (start - origin) * 1e6, "dur": (end - start) * 1e6,
                "args": payload,
            })
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"traceEvents": events}))
        return path


# -- programs -----------------------------------------------------------------


def seeded_variant(name, seed):
    """The registered workload *name* with its data drawn from *seed*.

    Every registered workload generates its data from a class-level
    ``seed``; a subclass overriding it keeps the program and the shapes
    and changes only the values (and so the reference result).
    """
    from repro.workloads import get_workload

    cls = type(get_workload(name))
    variant = type(cls.__name__, (cls,), {"seed": cls.seed + 7919 * (seed + 1)})
    variant.__module__ = cls.__module__
    return variant()


def compile_args(workload):
    """Keyword arguments of ``CompilerSession.compile`` for *workload*."""
    return {
        "domain": workload.domain,
        "component_domains": getattr(workload, "component_domains", None),
        "data_hints": workload.hints(),
    }


def accelerators_for(workload):
    from repro.targets import default_accelerators

    return default_accelerators(getattr(workload, "accelerator_overrides", None))


def initial_state(workload):
    import numpy as np

    return {k: np.asarray(v) for k, v in workload.initial_state().items()}


def run_trajectory(workload, execute):
    """Step *workload* through its functional trajectory via *execute*.

    *execute(inputs, params, state)* returns an ExecutionResult; state is
    threaded from step to step exactly as ``Workload.run_functional``
    does. Returns the list of results.
    """
    state = initial_state(workload)
    params = workload.params()
    results = []
    previous = None
    for step in range(workload.functional_steps):
        result = execute(workload.inputs(step, previous), params, state)
        state = result.state
        results.append(result)
        previous = result
    return results


# -- output checks ------------------------------------------------------------


def reference_mismatch(workload, results, expected):
    """None when *results* match the hand-written reference *expected*
    within the workload's own rtol/atol, else a description."""
    import numpy as np

    measured = np.asarray(workload.extract(results), dtype=np.float64)
    expected = np.asarray(expected, dtype=np.float64)
    if measured.shape != expected.shape:
        return f"shape {measured.shape} != reference {expected.shape}"
    if not np.allclose(measured, expected, rtol=workload.rtol, atol=workload.atol):
        error = float(np.max(np.abs(measured - expected)))
        return f"differs from reference by up to {error:.3g}"
    return None


def bit_mismatch(results_a, results_b):
    """None when two trajectories are f64 bit-identical (every output and
    state array of every step), else a description."""
    import numpy as np

    if len(results_a) != len(results_b):
        return f"{len(results_a)} steps != {len(results_b)} steps"
    for step, (a, b) in enumerate(zip(results_a, results_b)):
        for kind in ("outputs", "state"):
            left, right = getattr(a, kind), getattr(b, kind)
            if sorted(left) != sorted(right):
                return f"step {step} {kind} names differ"
            for name in left:
                x, y = np.asarray(left[name]), np.asarray(right[name])
                if x.dtype != y.dtype or x.shape != y.shape or x.tobytes() != y.tobytes():
                    return f"step {step} {kind} {name!r} not bit-identical"
    return None


def signature_mismatch(response, expected_signature):
    """None when a served response is ok and carries the serial
    reference's signature, else a description."""
    if not response.ok:
        return f"{response.error_kind}: {response.error}"
    if response.signature != expected_signature:
        return (
            f"signature {response.signature[:12]} != serial "
            f"{expected_signature[:12]}"
        )
    return None


class Tally:
    """Operations attempted and failed, with the first few failures."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.notes = []
        #: Run-level checks that failed (e.g. the serving conservation
        #: identity); any of them makes the run incorrect.
        self.violations = []

    def record(self, label, error=None, wrong=None):
        """One operation: *error* means it raised or was refused, *wrong*
        means it returned an output that failed its check."""
        self.attempted += 1
        problem = error or wrong
        if problem:
            self.failed += 1
            if wrong:
                self.wrong += 1
            if len(self.notes) < 10:
                self.notes.append(f"{label}: {problem}")

    @property
    def correct(self):
        return self.wrong == 0 and not self.violations


def metric_value(value, unit):
    return {"value": float(value), "unit": unit}
