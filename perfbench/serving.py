"""``serve-thread`` and ``serve-process``: a seeded request list through a
``Server(workers=nproc)`` at default settings (plan tier), thread pool or
process pool.

The load is a closed loop of ``2 x nproc`` clients on one asyncio thread,
each awaiting ``AsyncFrontend.request`` before sending its next request,
so a queue forms in front of the ``nproc`` workers. One round is 80
requests: each of the 8 programs gets 10, with steps 1,1,2,2,2,3,3,3,4,4,
priorities 2 high / 6 normal / 2 low, and exactly one request carrying a
recoverable ``transient`` fault plan (routed through
``runtime.HostManager``). Which request gets which draw and the
submission order come from the seed; the make-up of a
round does not, so every round does the same work. Each round runs to
its last response before the next starts; rounds repeat until the run
length is spent.

Set-up starts the server and warms it until every worker has compiled
and planned every program on both the plain and the fault path, so the
timed rounds read caches. Every response must be ok and carry the
signature of the same request run serially through the plan tier before
set-up, and the server's conservation identity must hold at the end.
"""

from __future__ import annotations

import asyncio
import random
import shutil
import tempfile
import time
from collections import deque

import benchlib as bl

#: Exactly one transient fault per faulted request, recovered by one
#: retry, so a faulted request costs the same on every seed.
FAULT_SPEC = "transient:p=1.0:n=1"
STEPS = (1, 1, 2, 2, 2, 3, 3, 3, 4, 4)
#: 0 high, 1 normal, 2 low (``repro.serve.request`` priority levels).
PRIORITIES = (0, 0, 1, 1, 1, 1, 1, 1, 2, 2)
#: Warm-up batches per set-up: a fixed number, so the server has served
#: the same requests before every timed phase, and more only in the rare
#: case that these left a worker without some program.
WARMUP_BATCHES = {"thread": 1, "process": 3}
MAX_WARMUP_BATCHES = 20


async def closed_loop(frontend, next_item, clients, done):
    """*clients* concurrent clients, each sending its next request only
    after the previous response arrived. ``next_item()`` returns
    ``(tag, Request)`` or None to stop; ``done(tag, request, response,
    t0, t1, lane)`` receives each answer."""

    async def client(lane):
        while True:
            item = next_item()
            if item is None:
                return
            tag, request = item
            t0 = time.perf_counter()
            response = await frontend.request(request)
            done(tag, request, response, t0, time.perf_counter(), lane)

    await asyncio.gather(*(client(lane) for lane in range(clients)))


class Serve:
    name = "serve-thread"
    pool = "thread"
    programs = bl.SERVE_PROGRAMS
    #: Nominal duration of one round at the reference speed.
    round_seconds = 2.5

    def __init__(self, seed):
        self.rng = random.Random(seed)
        self.workers = bl.nproc()
        self.clients = 2 * self.workers
        self.expected = self.serial_signatures()
        self.server = None
        self.cache_dir = None

    def serial_signatures(self):
        """Signature after each step of every program run serially on the
        plan tier, exactly as the server's executor steps a request: the
        serving layer's bit-identity oracle for requests of 1..4 steps."""
        from repro.driver import CompilerSession
        from repro.serve import result_signature
        from repro.workloads import get_workload

        session = CompilerSession()
        expected = {}
        for name in self.programs:
            workload = get_workload(name)
            app = session.compile(
                workload.source(), accelerators=bl.accelerators_for(workload),
                **bl.compile_args(workload),
            )
            plan = session.plan_for(app)
            state, params, previous = bl.initial_state(workload), workload.params(), None
            for step in range(max(STEPS)):
                previous = plan.execute(
                    inputs=workload.inputs(step, previous), params=params, state=state
                )
                state = previous.state
                expected[(name, step + 1)] = result_signature(previous.outputs)
        return expected

    def round_requests(self):
        from repro.serve import Request

        requests = []
        for name in self.programs:
            steps, priorities = list(STEPS), list(PRIORITIES)
            self.rng.shuffle(steps)
            self.rng.shuffle(priorities)
            faulted = self.rng.randrange(len(STEPS))
            for index in range(len(STEPS)):
                requests.append(Request(
                    workload=name,
                    steps=steps[index],
                    priority=priorities[index],
                    inject=(FAULT_SPEC,) if index == faulted else (),
                ))
        self.rng.shuffle(requests)
        return requests

    # -- set-up -------------------------------------------------------------

    def setup(self):
        from repro.serve import AsyncFrontend, Server

        if self.pool == "process":
            bl.OUT_DIR.mkdir(parents=True, exist_ok=True)
            self.cache_dir = tempfile.mkdtemp(prefix="cache-", dir=bl.OUT_DIR)
        self.server = Server(
            workers=self.workers, pool=self.pool, cache_dir=self.cache_dir
        ).start()
        self.warmups = 0
        seen = {}
        needed = self.workers if self.pool == "process" else 1
        for batch_no in range(MAX_WARMUP_BATCHES):
            batch = deque(self.warmup_batch(needed))
            asyncio.run(closed_loop(
                AsyncFrontend(self.server, max_inflight=self.clients),
                lambda: batch.popleft() if batch else None,
                self.clients,
                lambda tag, request, response, *_: self.warmed(
                    seen, tag, request, response
                ),
            ))
            if batch_no + 1 >= WARMUP_BATCHES[self.pool] and all(
                len(workers) >= needed for workers in seen.values()
            ):
                return
        raise RuntimeError("warm-up did not reach every worker")

    def warmup_batch(self, copies):
        from repro.serve import Request

        for _ in range(copies):
            for name in self.programs:
                for inject in ((), (FAULT_SPEC,)):
                    yield (name, inject), Request(workload=name, steps=1, inject=inject)

    def warmed(self, seen, tag, request, response):
        problem = bl.signature_mismatch(response, self.expected[(request.workload, 1)])
        if problem:
            raise RuntimeError(f"warm-up {request.describe()}: {problem}")
        self.warmups += 1
        seen.setdefault(tag, set()).add(response.metrics.worker)

    def teardown(self):
        if self.server is not None:
            self.server.close()
            self.server = None
        if self.cache_dir is not None:
            shutil.rmtree(self.cache_dir, ignore_errors=True)
            self.cache_dir = None

    # -- timed phase --------------------------------------------------------

    def measure(self, seconds, trace, spans, tally):
        from repro.serve import AsyncFrontend

        answers = []

        def done(round_no, request, response, t0, t1, lane):
            # Checked on arrival so the client holds no output arrays.
            error = wrong = None
            if response.ok:
                wrong = bl.signature_mismatch(
                    response, self.expected[(request.workload, request.steps)]
                )
            else:
                error = f"{response.error_kind}: {response.error}"
            tally.record(f"round {round_no} {request.describe()}", error=error, wrong=wrong)
            answers.append((round_no, request, response.metrics, error, t0, t1, lane))

        rounds = bl.Rounds(seconds, self.round_seconds, trace)
        for round_no in rounds:
            pending = deque((round_no, r) for r in self.round_requests())
            asyncio.run(closed_loop(
                AsyncFrontend(self.server, max_inflight=self.clients),
                lambda: pending.popleft() if pending else None,
                self.clients, done,
            ))
        peak = bl.peak_rss_mb(include_children=self.pool == "process")
        self.server.close()
        report = self.server.report()

        latencies = bl.Samples(rounds)
        for round_no, request, _, error, t0, t1, _ in answers:
            if error is None:
                latencies.add(round_no, "request", t1 - t0)
        ok = len(latencies.rows)
        if not report.conservation_ok:
            tally.violations.append(
                f"conservation: {report.accounted} accounted of {report.submitted} submitted"
            )
        if report.completed != ok + self.warmups:
            tally.violations.append(
                f"server completed {report.completed}, clients received "
                f"{ok + self.warmups} ok responses"
            )

        untraced, traced = rounds.split()
        e2e = latencies.metrics(untraced)
        e2e["peak_rss_mb"] = peak
        e2e["ops_per_s"] = rounds.per_second(ok)
        layers = {}
        if trace:
            layers = self.layers(answers, traced, rounds.scale, spans)
            layers["compile_builds"] = sum(
                1 for answer in answers if answer[2].compile_provenance == "built"
            )
            layers["plans_built"] = report.plans_built
            layers["backpressure_retries"] = report.rejected
            layers["trace.overhead_pct"] = bl.overhead_pct(
                e2e["op_ms"], latencies.metrics(traced)["op_ms"]
            )
        return e2e, layers

    @staticmethod
    def layers(answers, traced, scale, spans):
        """Medians of the request segments ``Response.metrics`` publishes,
        over the traced rounds, plus the spans derived from them."""
        segments = {
            "queue_ms": [], "compile_lookup_ms": [], "plan_lookup_ms": [],
            "execute_ms": [], "runtime_execute_ms": [],
            "serve.unattributed_ms": [],
        }
        for round_no, request, m, error, t0, t1, lane in answers:
            if round_no not in traced or error is not None:
                continue
            execute = "runtime_execute_ms" if request.inject else "execute_ms"
            parts = (
                ("queue_ms", m.queue_seconds),
                ("compile_lookup_ms", m.compile_seconds),
                ("plan_lookup_ms", m.plan_seconds),
                (execute, m.execute_seconds),
            )
            for key, seconds in parts:
                segments[key].append(seconds * scale[round_no])
            segments["serve.unattributed_ms"].append(
                ((t1 - t0) - sum(seconds for _, seconds in parts)) * scale[round_no]
            )
            parent = spans.add(
                "AsyncFrontend.request", t0, t1, lane=lane,
                program=request.workload, steps=request.steps,
                faulted=bool(request.inject), worker=m.worker,
            )
            # Segment spans laid end to end from dequeue; in process mode
            # the pipe round trip is the gap these leave inside the parent.
            spans.add("queue", m.enqueued_at, m.started_at, parent=parent, lane=lane)
            cursor = m.started_at
            for key, seconds in parts[1:]:
                spans.add(key[:-3], cursor, cursor + seconds, parent=parent, lane=lane)
                cursor += seconds
        return {key: bl.median(values) * 1e3 for key, values in segments.items()}


class ServeProcess(Serve):
    name = "serve-process"
    pool = "process"
