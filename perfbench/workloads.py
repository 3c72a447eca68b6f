"""The three benchmark workloads: plans, set-up, timed passes, checks.

A *plan* is a pure function of the workload name and the seed: which
flows run, in which order, under which flow knobs.  The program only
ever receives what the plan generates (benchmark names, bounds, the
seed).  A *pass* runs every flow of the plan once against freshly set
up sessions (or a fresh daemon and lake), and then checks each flow's
output from outside the optimizer.

* ``table2-er`` -- ``Session.compare`` of all five methods on three
  Table II circuits, ER <= 5%, effort 0.3, one caller, closed loop.
* ``table3-nmed`` -- ``Session.run("Ours")`` at the paper's budget
  (effort 1.0) on four arithmetic circuits of Table I, NMED <= 2.44%,
  one caller, closed loop.
* ``fig7-served`` -- the Fig. 7 error-bound sweep as 2 closed-loop
  ``ServeClient`` threads against an in-process ``OptimizationService``
  (capacity 1, per-job ``jobs=2``, one fresh lake shared by all jobs),
  effort 0.6.

Every workload uses the scaled circuit profile, 1024 vectors and
Area_con = Area_ori.  The circuits, efforts and sub-seed counts keep
one pass near 20 s on a 2-vCPU host while averaging enough flows that
a pass's time moves little from one seed to the next; the larger
Table I circuits would not fit.
"""

from __future__ import annotations

import asyncio
import math
import os
import shutil
import threading
import time
from dataclasses import dataclass
from itertools import groupby
from typing import Any, Dict, List, Optional, Tuple

import repro.bench as bench
from repro import FlowConfig, Session
from repro.cells import default_library
from repro.core.fitness import EvalContext
from repro.core.protocol import RunCallback
from repro.netlist import PI_CELL, PO_CELL, Circuit, parse_verilog
from repro.serve.client import ServeClient, ServeError
from repro.serve.protocol import JobSpec
from repro.serve.server import MAX_HEAD, ServeApp
from repro.serve.service import OptimizationService
from repro.sim import ErrorMode, measure_error, po_words, simulate
from repro.sta import STAEngine

from calibrate import Probe
from layers import gmean

METHODS = ("VECBEE-S", "VaACS", "HEDALS", "GWO", "Ours")
VECTORS = 1024
PROFILE = "scaled"

#: Error bounds of the paper's Tables II/III and Fig. 7 sweeps.
ER_BOUND = 0.05
NMED_BOUND = 0.0244
ER_POINTS = (0.01, 0.02, 0.03, 0.04, 0.05)
NMED_POINTS = (0.0048, 0.0098, 0.0147, 0.0196, 0.0244)

WORKLOADS = ("table2-er", "table3-nmed", "fig7-served")


@dataclass(frozen=True)
class Flow:
    """One (circuit, method, bound) flow of a plan, with its flow seed."""

    circuit: str
    method: str
    mode: str  # "er" | "nmed"
    bound: float
    seed: int


@dataclass(frozen=True)
class Plan:
    """Everything a pass runs; ``clients`` are closed-loop callers.

    ``jobs`` is the shard-worker count of every flow, and so the number
    of processors the workload keeps busy.
    """

    workload: str
    seed: int
    effort: float
    jobs: int
    clients: Tuple[Tuple[Flow, ...], ...]

    @property
    def flows(self) -> Tuple[Flow, ...]:
        return tuple(flow for client in self.clients for flow in client)


#: Flow seeds per plan.  One flow's work depends on its seed by tens of
#: percent (how far a greedy baseline walks, how many sizing moves
#: post-opt accepts), so a plan averages over several.
SUB_SEEDS = {"table2-er": 3, "table3-nmed": 3, "fig7-served": 4}


def flow_seeds(workload: str, seed: int) -> Tuple[int, ...]:
    """The flow seeds of ``seed``'s plan; disjoint for distinct seeds."""
    count = SUB_SEEDS[workload]
    return tuple(seed * count + j for j in range(count))


def make_plan(workload: str, seed: int) -> Plan:
    """The workload's plan for ``seed`` (same seed, same plan)."""
    if workload not in SUB_SEEDS:
        raise ValueError(
            f"unknown workload {workload!r}; one of {WORKLOADS}"
        )
    seeds = flow_seeds(workload, seed)
    if workload == "table2-er":
        flows = tuple(
            Flow(c, m, "er", ER_BOUND, s)
            for s in seeds
            for c in ("c880", "c3540", "c2670")
            for m in METHODS
        )
        return Plan(workload, seed, 0.3, 1, (flows,))
    if workload == "table3-nmed":
        flows = tuple(
            Flow(c, "Ours", "nmed", NMED_BOUND, s)
            for s in seeds
            for c in ("Int2float", "Adder16", "Max16", "Adder")
        )
        return Plan(workload, seed, 1.0, 1, (flows,))
    er = tuple(
        Flow("c880", "Ours", "er", b, s) for s in seeds for b in ER_POINTS
    )
    nmed = tuple(
        Flow("Adder16", "Ours", "nmed", b, s)
        for s in seeds
        for b in NMED_POINTS
    )
    return Plan(workload, seed, 0.4, 2, (er, nmed))


def _mode(flow: Flow) -> ErrorMode:
    return ErrorMode.ER if flow.mode == "er" else ErrorMode.NMED


def flow_config(plan: Plan, flow: Flow) -> FlowConfig:
    return FlowConfig(
        error_mode=_mode(flow),
        error_bound=flow.bound,
        num_vectors=VECTORS,
        effort=plan.effort,
        seed=flow.seed,
        jobs=plan.jobs,
    )


# ----------------------------------------------------------------------
# output checks (outside the optimizer)
# ----------------------------------------------------------------------
@dataclass
class FlowRecord:
    """One finished flow as the benchmark saw it."""

    flow: Flow
    evaluations: int
    ratio_cpd: float
    cpd_fac: float
    error: float
    circuit: Optional[Circuit]
    problem: Optional[str] = None


def exact_area(circuit: Circuit, library) -> float:
    """Live cell area, correctly rounded whatever the gate order.

    ``Circuit.area`` sums in gate-ID order, so a netlist that went
    through Verilog (renumbered gates) can read a different last digit;
    ``math.fsum`` makes the comparison against Area_con exact.
    """
    cells = circuit.cells
    return math.fsum(
        library.cell(cells[g]).area
        for g in circuit.live_gates()
        if cells[g] not in (PI_CELL, PO_CELL)
    )


def check_flow(record: FlowRecord, ctx: EvalContext) -> Optional[str]:
    """Why ``record``'s output is wrong, or ``None`` when it is right.

    Re-simulates the final netlist in full against the context's
    reference, re-times it from scratch, and re-sums its area against
    Area_con = Area_ori.
    """
    flow, circuit = record.flow, record.circuit
    if circuit is None:
        return record.problem or "no final netlist"
    values = simulate(circuit, ctx.vectors)
    error = measure_error(
        ctx.error_mode,
        ctx.reference_po,
        po_words(circuit, values),
        ctx.vectors.num_vectors,
    )
    if not error <= flow.bound:
        return f"error {error!r} exceeds the bound {flow.bound}"
    if error != record.error:
        return f"re-simulated error {error!r} != reported {record.error!r}"
    cpd = STAEngine(ctx.library).analyze(circuit).cpd
    if cpd != record.cpd_fac:
        return f"re-timed CPD {cpd!r} != reported cpd_fac {record.cpd_fac!r}"
    area = exact_area(circuit, ctx.library)
    area_con = exact_area(ctx.reference, ctx.library)
    if not area <= area_con:
        return f"area {area!r} exceeds Area_con {area_con!r}"
    return None


# ----------------------------------------------------------------------
# pass results
# ----------------------------------------------------------------------
def percentile(values, q: float) -> float:
    """The ``q``-th percentile (0..100), linear between closest ranks."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no values")
    pos = (len(ordered) - 1) * q / 100.0
    low = math.floor(pos)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (pos - low)


@dataclass
class PassResult:
    """One pass: timed units, checked flows, workload-side counters.

    ``units`` maps each separately timed call (one circuit's
    ``compare``/``run``, or the whole served sweep) to its
    ``(wall_s, cpu_s)`` at reference host speed (see :mod:`calibrate`).
    ``jobs`` are the latencies callers saw, one per request (a
    ``compare``/``run`` call, or a served job from submit to ``end``),
    scaled the same way.  ``wall_s`` is the raw wall time of all units.
    """

    units: Dict[str, Tuple[float, float]]
    jobs: List[float]
    wall_s: float
    records: List[FlowRecord]
    extra: Dict[str, float]

    @property
    def run_s(self) -> float:
        return sum(wall for wall, _cpu in self.units.values())

    @property
    def failed(self) -> int:
        return sum(1 for r in self.records if r.problem is not None)

    def signature(self) -> Tuple:
        """The deterministic part of a pass (repeats exactly)."""
        return tuple(
            (r.flow, r.evaluations, r.ratio_cpd, r.error, r.problem)
            for r in self.records
        )


def summarize(passes: List[PassResult]) -> Dict[str, float]:
    """End-to-end metrics of passes over one plan.

    Every timed unit and every job latency is the median over passes
    before it is summed or ranked; the counts come from the first pass
    (every pass repeats them exactly).
    """
    units = passes[0].units
    run_s = sum(
        percentile([p.units[key][0] for p in passes], 50) for key in units
    )
    cpu_s = sum(
        percentile([p.units[key][1] for p in passes], 50) for key in units
    )
    records = passes[0].records
    done = [r for r in records if r.problem is None]
    latencies = [
        percentile([p.jobs[i] for p in passes], 50)
        for i in range(len(passes[0].jobs))
    ]
    return {
        "run_s": run_s,
        "flows_per_min": 60.0 * len(done) / run_s,
        "evals_per_s": sum(r.evaluations for r in done) / run_s,
        "job_s_p50": percentile(latencies, 50),
        "cpu_s": cpu_s,
        "ratio_cpd_gmean": (
            gmean(r.ratio_cpd for r in done) if done else float("inf")
        ),
        "ok_share": len(done) / len(records),
    }


# ----------------------------------------------------------------------
# table2-er / table3-nmed: in-process sessions
# ----------------------------------------------------------------------
#: Probes right before and right after each timed unit of a session
#: workload, and around a served sweep.
UNIT_PROBES = 5
SWEEP_PROBES = 20


class _TickEachIteration(RunCallback):
    """Samples host speed between optimizer iterations (see calibrate)."""

    def __init__(self, probe: Probe):
        self.probe = probe

    def on_iteration(self, event) -> None:
        self.probe.tick()


class SessionWorkload:
    """Closed-loop flows through ``Session`` in this process."""

    def __init__(self, plan: Plan, probe: Probe):
        self.plan = plan
        self.probe = probe
        self.ticks = _TickEachIteration(probe)
        self.library = default_library()

    def setup(self) -> List[Tuple[Tuple[Flow, ...], Session]]:
        """Build each circuit and its session (the timed set-up)."""
        out = []
        for _key, group in groupby(
            self.plan.flows, key=lambda f: (f.circuit, f.seed)
        ):
            flows = tuple(group)
            circuit = bench.build_benchmark(flows[0].circuit, PROFILE)
            session = Session(
                circuit,
                flow_config(self.plan, flows[0]),
                library=self.library,
                cache=False,
            )
            out.append((flows, session))
        return out

    def run_pass(self, state, tracer=None) -> PassResult:
        units: Dict[str, Tuple[float, float]] = {}
        jobs: List[float] = []
        wall_s = 0.0
        records: List[FlowRecord] = []
        for flows, session in state:
            results, wall, cpu, factor = self.probe.timed(
                UNIT_PROBES, self._run_unit, flows, session
            )
            units[f"{flows[0].circuit}@{flows[0].seed}"] = (
                factor * wall, factor * cpu
            )
            jobs.append(factor * wall)
            wall_s += wall
            if tracer is not None:
                tracer.enabled = False
            for flow in flows:
                res = results[flow.method]
                record = FlowRecord(
                    flow=flow,
                    evaluations=res.optimization.evaluations,
                    ratio_cpd=res.ratio_cpd,
                    cpd_fac=res.cpd_fac,
                    error=res.error,
                    circuit=res.circuit,
                )
                record.problem = check_flow(record, session.ctx)
                record.circuit = None
                records.append(record)
            if tracer is not None:
                tracer.enabled = True
            session.close()
        return PassResult(units, jobs, wall_s, records, {})

    def _run_unit(self, flows: Tuple[Flow, ...], session: Session):
        jobs = self.plan.jobs
        if self.plan.workload == "table2-er":
            methods = [f.method for f in flows]
            return session.compare(methods, callbacks=self.ticks, jobs=jobs)
        method = flows[0].method
        return {method: session.run(method, callbacks=self.ticks, jobs=jobs)}

    def teardown(self, state) -> None:
        for _flows, session in state:
            session.close()


# ----------------------------------------------------------------------
# fig7-served: an in-process daemon reached over HTTP
# ----------------------------------------------------------------------
class Daemon:
    """``OptimizationService`` + HTTP server on a private loop thread."""

    def __init__(self, workdir: str):
        self.lake = os.path.join(workdir, "lake")
        self.spool = os.path.join(workdir, "spool")
        self.loop = asyncio.new_event_loop()
        self.thread = threading.Thread(
            target=self.loop.run_forever, name="perfbench-daemon", daemon=True
        )
        self.thread.start()
        self.service: Optional[OptimizationService] = None
        self.server: Optional[asyncio.AbstractServer] = None
        self.url = self._call(self._start())

    def _call(self, coro, timeout: float = 60.0):
        return asyncio.run_coroutine_threadsafe(coro, self.loop).result(timeout)

    async def _start(self) -> str:
        self.service = OptimizationService(
            capacity=1, spool=self.spool, cache_dir=self.lake
        )
        await self.service.start()
        self.server = await asyncio.start_server(
            ServeApp(self.service).handle, "127.0.0.1", 0, limit=MAX_HEAD
        )
        port = self.server.sockets[0].getsockname()[1]
        return f"http://127.0.0.1:{port}"

    async def _stop(self) -> None:
        self.server.close()
        await self.server.wait_closed()
        await self.service.shutdown(drain=True)

    def close(self) -> None:
        try:
            self._call(self._stop())
        finally:
            self.loop.call_soon_threadsafe(self.loop.stop)
            self.thread.join(timeout=60.0)
            self.loop.close()


@dataclass
class _JobOutcome:
    flow: Flow
    latency_s: float
    state: str
    result: Optional[Dict[str, Any]]
    queue_wait_s: float
    evictions: int
    http_503: int


def _run_client(
    url: str,
    plan: Plan,
    flows: Tuple[Flow, ...],
    out: List[_JobOutcome],
    wait_for: Optional[threading.Event],
    running: threading.Event,
) -> None:
    """One closed-loop caller: submit, stream to ``end``, repeat.

    The first submit waits for ``wait_for``; ``running`` is set once
    this client's first job streams an iteration.
    """
    client = ServeClient(url, timeout=120.0)
    if wait_for is not None and not wait_for.wait(timeout=120.0):
        raise TimeoutError("the other client's first job never ran")
    for flow in flows:
        spec = JobSpec(
            bench=flow.circuit,
            method=flow.method,
            mode=flow.mode,
            bound=flow.bound,
            vectors=VECTORS,
            effort=plan.effort,
            seed=flow.seed,
            jobs=plan.jobs,
        )
        refused = 0
        t0 = time.perf_counter()
        while True:
            try:
                job = client.submit(spec)
                break
            except ServeError as exc:
                if exc.status != 503:
                    raise
                refused += 1
                time.sleep(exc.retry_after or 1.0)
        result = None
        state = "unknown"
        queued_at: Optional[float] = None
        queue_wait = 0.0
        evictions = 0
        for event in client.events(job["id"]):
            kind = event.get("type")
            if kind == "iteration":
                running.set()
            elif kind == "result":
                result = event
            elif kind == "end":
                state = event.get("state", "unknown")
            elif kind == "state":
                if event["state"] == "queued":
                    queued_at = event["ts"]
                elif event["state"] == "running" and queued_at is not None:
                    queue_wait += event["ts"] - queued_at
                    queued_at = None
                elif event["state"] == "paused":
                    evictions += 1
        latency = time.perf_counter() - t0
        out.append(
            _JobOutcome(
                flow, latency, state, result, queue_wait, evictions, refused
            )
        )


class ServedWorkload:
    """The Fig. 7 sweep through ``ServeClient`` -> HTTP -> the service."""

    def __init__(self, plan: Plan, workdir: str, probe: Probe):
        self.plan = plan
        self.probe = probe
        self.workdir = workdir
        self.library = default_library()
        self._count = 0

    def setup(self):
        """Start a daemon on a fresh lake; build the checking contexts."""
        self._count += 1
        workdir = os.path.join(self.workdir, f"pass-{self._count}")
        daemon = Daemon(workdir)
        contexts: Dict[Tuple[str, str, int], EvalContext] = {}
        for flow in self.plan.flows:
            key = (flow.circuit, flow.mode, flow.seed)
            if key not in contexts:
                contexts[key] = EvalContext.build(
                    bench.build_benchmark(flow.circuit, PROFILE),
                    self.library,
                    _mode(flow),
                    num_vectors=VECTORS,
                    seed=flow.seed,
                )
        return daemon, contexts, workdir

    def run_pass(self, state, tracer=None) -> PassResult:
        """One sweep per flow seed, each timed as its own unit."""
        daemon, contexts, _workdir = state
        units: Dict[str, Tuple[float, float]] = {}
        jobs: List[float] = []
        wall_s = 0.0
        flat: List[_JobOutcome] = []
        for seed in dict.fromkeys(f.seed for f in self.plan.flows):
            clients = [
                tuple(f for f in flows if f.seed == seed)
                for flows in self.plan.clients
            ]
            outcomes, wall, cpu, factor = self.probe.timed(
                SWEEP_PROBES, self._sweep, daemon.url, clients
            )
            units[f"sweep@{seed}"] = (factor * wall, factor * cpu)
            jobs.extend(factor * o.latency_s for o in outcomes)
            wall_s += wall
            flat.extend(outcomes)
        if tracer is not None:
            tracer.enabled = False
        records = [self._record(o, contexts) for o in flat]
        if tracer is not None:
            tracer.enabled = True
        extra: Dict[str, float] = {
            "serve.queue_wait_s": sum(o.queue_wait_s for o in flat),
            "serve.evictions": sum(o.evictions for o in flat),
            "serve.http_503": sum(o.http_503 for o in flat),
        }
        extra.update(_lake_census(daemon.lake))
        return PassResult(units, jobs, wall_s, records, extra)

    def _sweep(
        self, url: str, clients: List[Tuple[Flow, ...]]
    ) -> List[_JobOutcome]:
        """Run every client's flows concurrently; outcomes client-major."""
        outcomes: List[List[_JobOutcome]] = [[] for _ in clients]
        running = [threading.Event() for _ in clients]
        errors: List[BaseException] = []

        def client(index: int) -> None:
            # Client i starts once client i-1's first job is running, so
            # its first submit finds the slot busy and evicts that job.
            try:
                _run_client(
                    url, self.plan, clients[index], outcomes[index],
                    running[index - 1] if index else None,
                    running[index],
                )
            except BaseException as exc:  # reported after the join
                errors.append(exc)
                running[index].set()  # never leave the next client waiting

        threads = [
            threading.Thread(target=client, args=(i,), name=f"client-{i}")
            for i in range(len(clients))
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        if errors:
            raise errors[0]
        return [o for client_outcomes in outcomes for o in client_outcomes]

    def _record(self, o: _JobOutcome, contexts) -> FlowRecord:
        res = o.result or {}
        record = FlowRecord(
            flow=o.flow,
            evaluations=int(res.get("evaluations", 0)),
            ratio_cpd=float(res.get("ratio_cpd", float("nan"))),
            cpd_fac=float(res.get("cpd_fac", float("nan"))),
            error=float(res.get("error", float("nan"))),
            circuit=None,
        )
        if o.state != "done":
            record.problem = f"job ended in state {o.state!r}"
            return record
        if o.result is None:
            record.problem = "no result event"
            return record
        try:
            record.circuit = parse_verilog(o.result["netlist"])
        except Exception as exc:  # any parse failure is a wrong output
            record.problem = f"result netlist does not parse: {exc}"
            return record
        record.problem = check_flow(
            record, contexts[(o.flow.circuit, o.flow.mode, o.flow.seed)]
        )
        record.circuit = None
        return record

    def teardown(self, state) -> None:
        daemon, _contexts, workdir = state
        daemon.close()
        shutil.rmtree(workdir, ignore_errors=True)


def _lake_census(path: str) -> Dict[str, float]:
    from repro.lake import open_cache

    stats = open_cache(path).aggregate_stats()
    return {
        "lake.hits": stats["hits"],
        "lake.misses": stats["misses"],
        "lake.puts": stats["puts"],
        "lake.hit_ratio": stats["hit_rate"],
        "lake.put_mb": stats["put_bytes"] / 1e6,
        "lake.segments": stats["segments"],
    }


def make_workload(plan: Plan, workdir: str, probe: Probe):
    if plan.workload == "fig7-served":
        return ServedWorkload(plan, workdir, probe)
    return SessionWorkload(plan, probe)
