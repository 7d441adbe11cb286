"""``compile-cold``: every registered program from source to an attached
generated kernel, each compile in a fresh ``CompilerSession``.

One round compiles all 19 programs in a seeded order; rounds repeat until
the run length is spent. An operation is one compile, timed around
``CompilerSession.compile`` plus ``CompilerSession.plan_for(codegen=True)``.
After timing, each program's first compiled kernel is checked: its
trajectory on the plan tier must match the hand-written reference and the
kernel tier must be bit-identical to the plan tier. Every later compile
of the program must produce the same kernel source and the same graph
sizes, so it is checked by equality with the verified one.
"""

from __future__ import annotations

import hashlib
import random
import time

import benchlib as bl

#: Warmed once per set-up so lazy imports and first calls stay out of
#: the timed rounds.
WARMUP_PROGRAM = "FFT-8192"


def compile_once(workload, accelerators):
    """Source to attached kernel in a fresh session.

    Returns ``(session, plan, t0, t1, t2)``: compile ran from t0 to t1,
    planning and kernel generation from t1 to t2.
    """
    from repro.driver import CompilerSession

    source = workload.source()
    kwargs = bl.compile_args(workload)
    session = CompilerSession(accelerators=accelerators)
    t0 = time.perf_counter()
    app = session.compile(source, **kwargs)
    t1 = time.perf_counter()
    plan = session.plan_for(app, codegen=True)
    t2 = time.perf_counter()
    return session, plan, t0, t1, t2


def fingerprint(session, plan):
    """What must repeat exactly between two compiles of one program."""
    source = plan.kernel.source if plan.kernel is not None else ""
    return (
        hashlib.sha256(source.encode()).hexdigest(),
        plan.statement_count,
        tuple((r.stage, r.nodes_after, r.edges_after) for r in session.records),
    )


def verify(workload, plan, expected):
    """Reference check on the plan tier plus kernel/plan bit-identity."""
    kernel = plan.kernel
    if kernel is None:
        return "no kernel attached"
    plan.attach_kernel(None)
    try:
        plan_results = bl.run_trajectory(
            workload,
            lambda i, p, s: plan.execute(inputs=i, params=p, state=s),
        )
        kernel_results = bl.run_trajectory(
            workload,
            lambda i, p, s: kernel.try_execute(plan, i, p, s)
            or plan.execute(inputs=i, params=p, state=s),
        )
    finally:
        plan.attach_kernel(kernel)
    return (
        bl.reference_mismatch(workload, plan_results, expected)
        or bl.bit_mismatch(plan_results, kernel_results)
    )


class CompileCold:
    name = "compile-cold"
    programs = bl.ALL_PROGRAMS
    #: Nominal duration of one round at the reference speed.
    round_seconds = 1.2

    def __init__(self, seed):
        self.rng = random.Random(seed)
        self.workloads = {n: bl.seeded_variant(n, seed) for n in self.programs}
        self.accelerators = {
            n: bl.accelerators_for(w) for n, w in self.workloads.items()
        }

    def setup(self):
        compile_once(
            self.workloads[WARMUP_PROGRAM], self.accelerators[WARMUP_PROGRAM]
        )

    def teardown(self):
        pass

    def measure(self, seconds, trace, spans, tally):
        rounds = bl.Rounds(seconds, self.round_seconds, trace)
        samples = bl.Samples(rounds)
        first = {}      # program -> (plan, fingerprint, session)
        checks = []     # (round, program, fingerprint or error)
        traced_stats = {}  # traced round -> {metric: raw seconds}
        stage_metric = dict(bl.COMPILE_STAGES)
        for round_no in rounds:
            traced = rounds.traced(round_no)
            order = list(self.programs)
            self.rng.shuffle(order)
            stage_sums = dict.fromkeys(stage_metric.values(), 0.0)
            op_total = 0.0
            round_start = time.perf_counter()
            for name in order:
                try:
                    session, plan, t0, t1, t2 = compile_once(
                        self.workloads[name], self.accelerators[name]
                    )
                except Exception as exc:  # a failed compile is a counted failure
                    checks.append((round_no, name, f"{type(exc).__name__}: {exc}"))
                    continue
                samples.add(round_no, name, t2 - t0)
                mark = fingerprint(session, plan)
                checks.append((round_no, name, mark))
                if name not in first and plan.kernel is not None:
                    first[name] = (plan, mark, session)
                if traced:
                    op = spans.add("compile-op", t0, t2, program=name, round=round_no)
                    spans.add("CompilerSession.compile", t0, t1, parent=op)
                    spans.add("CompilerSession.plan_for", t1, t2, parent=op, codegen=True)
                    op_total += t2 - t0
                    for record in session.records:
                        if record.stage in stage_metric:
                            stage_sums[stage_metric[record.stage]] += record.seconds
            if traced:
                spans.add("round", round_start, time.perf_counter(), round=round_no)
                attributed = sum(
                    stage_sums[metric]
                    for stage, metric in bl.COMPILE_STAGES
                    if "/" not in stage
                )
                stage_sums["compile.unattributed_ms"] = op_total - attributed
                traced_stats[round_no] = stage_sums
        peak = bl.peak_rss_mb()

        verdicts = {
            name: verify(self.workloads[name], plan, self.workloads[name].reference())
            for name, (plan, _, _) in first.items()
        }
        for round_no, name, mark in checks:
            label = f"round {round_no} {name}"
            if isinstance(mark, str):
                tally.record(label, error=mark)
            elif name not in first:
                tally.record(label, error="no kernel attached")
            elif mark != first[name][1]:
                tally.record(label, wrong="kernel or graph sizes differ from the verified compile")
            else:
                tally.record(label, wrong=verdicts[name])

        untraced, traced = rounds.split()
        e2e = samples.metrics(untraced)
        e2e["peak_rss_mb"] = peak
        e2e["ops_per_s"] = samples.per_second()
        layers = {}
        if trace:
            for metric in next(iter(traced_stats.values())):
                layers[metric] = bl.median(
                    sums[metric] * rounds.scale[r] for r, sums in traced_stats.items()
                ) * 1e3
            layers.update(self.counts(first))
            layers["trace.overhead_pct"] = bl.overhead_pct(
                e2e["op_ms"], samples.metrics(traced)["op_ms"]
            )
        return e2e, layers

    @staticmethod
    def counts(first):
        """Work left for later stages, summed over one compile of each
        program (exact: every compile of a program repeats them)."""
        counts = {
            "ir_nodes.built": 0, "ir_nodes.optimized": 0,
            "ir_nodes.lowered": 0, "plan_statements": 0, "kernel_kb": 0.0,
            "kernel_specialized": 0, "kernel_fused": 0,
        }
        node_stage = {
            "srdfg-build": "ir_nodes.built",
            "optimize": "ir_nodes.optimized",
            "lower": "ir_nodes.lowered",
        }
        for plan, _, session in first.values():
            for record in session.records:
                if record.stage in node_stage:
                    counts[node_stage[record.stage]] += record.nodes_after
            counts["plan_statements"] += plan.statement_count
            described = plan.kernel.describe()
            counts["kernel_kb"] += described["source_bytes"] / 1024.0
            counts["kernel_specialized"] += described["report"].get("specialized", 0)
            counts["kernel_fused"] += described["report"].get("fused", 0)
        return counts
