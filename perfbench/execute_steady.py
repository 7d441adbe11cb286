"""``execute-steady``: 17 programs compiled and warmed in set-up, then
stepped through their functional trajectories on the plan tier and the
kernel tier, interleaved step by step.

One round runs every program's trajectory once on each tier, in a seeded
program order; the tier that goes first alternates between rounds. The
timed calls are ``ExecutionPlan.execute`` (no kernel attached) and
``KernelArtifact.try_execute`` (falling back to the plan when the kernel
declines, which is counted). An operation is one program's trajectory on
both tiers: the plan tier must match the hand-written reference and the
kernel tier must be bit-identical to it.

The programs keep their registered data: the cost of a step of the graph
and clustering programs depends on the data values, so data drawn from
the seed would change the work from seed to seed. The seed orders the
programs in each round.
"""

from __future__ import annotations

import random
import time

import benchlib as bl


class ExecuteSteady:
    name = "execute-steady"
    programs = bl.STEADY_PROGRAMS
    #: Nominal duration of one round at the reference speed.
    round_seconds = 3.0

    def __init__(self, seed):
        self.rng = random.Random(seed)
        from repro.workloads import get_workload

        self.workloads = {n: get_workload(n) for n in self.programs}
        self.expected = {n: w.reference() for n, w in self.workloads.items()}
        self.compiled = None

    def setup(self):
        """Compile, plan and generate a kernel for every program, then
        run one step of each on both tiers."""
        from repro.codegen import build_kernel
        from repro.driver import CompilerSession

        session = CompilerSession()
        compiled = {}
        for name, workload in self.workloads.items():
            app = session.compile(
                workload.source(),
                accelerators=bl.accelerators_for(workload),
                **bl.compile_args(workload),
            )
            plan = session.plan_for(app)
            kernel = build_kernel(plan)
            if kernel is None:
                raise RuntimeError(f"codegen declined {name}")
            inputs, params = workload.inputs(0, None), workload.params()
            plan.execute(inputs=inputs, params=params, state=bl.initial_state(workload))
            kernel.try_execute(plan, inputs, params, bl.initial_state(workload))
            compiled[name] = (plan, kernel)
        self.session = session
        self.compiled = compiled

    def teardown(self):
        self.compiled = None
        self.session = None

    def trajectory(self, name, plan_first, samples, round_no, spans, parent):
        """Both tiers of one program's trajectory, interleaved per step.

        Returns ``(plan results, kernel results, kernel fallbacks, seconds
        spent in the two tiers)``.
        """
        workload = self.workloads[name]
        plan, kernel = self.compiled[name]
        params = workload.params()
        runs = {
            "plan": [bl.initial_state(workload), None, []],
            "kernel": [bl.initial_state(workload), None, []],
        }
        tiers = ("plan", "kernel") if plan_first else ("kernel", "plan")
        fallbacks = 0
        busy = 0.0
        for step in range(workload.functional_steps):
            for tier in tiers:
                state, previous, results = runs[tier]
                inputs = workload.inputs(step, previous)
                t0 = time.perf_counter()
                if tier == "plan":
                    result = plan.execute(inputs=inputs, params=params, state=state)
                else:
                    result = kernel.try_execute(plan, inputs, params, state)
                    if result is None:
                        fallbacks += 1
                        result = plan.execute(inputs=inputs, params=params, state=state)
                t1 = time.perf_counter()
                busy += t1 - t0
                samples.add(round_no, (name, tier), t1 - t0)
                if parent is not None:
                    spans.add(
                        "ExecutionPlan.execute" if tier == "plan"
                        else "KernelArtifact.try_execute",
                        t0, t1, parent=parent, program=name, step=step,
                    )
                results.append(result)
                runs[tier] = [result.state, result, results]
        return runs["plan"][2], runs["kernel"][2], fallbacks, busy

    def measure(self, seconds, trace, spans, tally):
        rounds = bl.Rounds(seconds, self.round_seconds, trace)
        samples = bl.Samples(rounds)
        fallbacks = 0
        unattributed = {}  # traced round -> raw seconds
        for round_no in rounds:
            traced = rounds.traced(round_no)
            order = list(self.programs)
            self.rng.shuffle(order)
            round_start = time.perf_counter()
            stepped = 0.0
            for name in order:
                label = f"round {round_no} {name}"
                t0 = time.perf_counter()
                parent = spans.add("trajectory", t0, t0, program=name) if traced else None
                try:
                    plan_results, kernel_results, declined, busy = self.trajectory(
                        name, round_no % 2 == 0, samples, round_no, spans, parent
                    )
                except Exception as exc:  # a failed step is a counted failure
                    tally.record(label, error=f"{type(exc).__name__}: {exc}")
                    continue
                fallbacks += declined
                stepped += busy
                t1 = time.perf_counter()
                tally.record(label, wrong=bl.reference_mismatch(
                    self.workloads[name], plan_results, self.expected[name]
                ) or bl.bit_mismatch(plan_results, kernel_results))
                if traced:
                    spans.records[parent][2] = t1
                    spans.add("verify", t1, time.perf_counter(), parent=parent)
            if traced:
                round_end = time.perf_counter()
                spans.add("round", round_start, round_end, round=round_no)
                unattributed[round_no] = round_end - round_start - stepped
        peak = bl.peak_rss_mb()

        untraced, traced = rounds.split()
        e2e = samples.metrics(untraced)
        e2e["peak_rss_mb"] = peak
        e2e["ops_per_s"] = samples.per_second()
        layers = {}
        if trace:
            per_class = samples.by_class(traced)
            for tier in ("plan", "kernel"):
                tier_classes = {n: per_class[(n, tier)] for n in self.programs}
                layers[f"{tier}_step_ms"] = bl.class_geomean_ms(tier_classes)
                for name, times in tier_classes.items():
                    layers[f"{tier}_step_ms.{name}"] = bl.median(times) * 1e3
            layers["kernel_fallback_calls"] = fallbacks / len(rounds.walls)
            layers["execute.unattributed_ms"] = bl.median(
                seconds * rounds.scale[r] for r, seconds in unattributed.items()
            ) * 1e3
            layers["trace.overhead_pct"] = bl.overhead_pct(
                e2e["op_ms"], bl.class_geomean_ms(per_class)
            )
        return e2e, layers
