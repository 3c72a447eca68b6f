"""Multi-process sharded generation evaluation (the ShardDispatcher).

The ROADMAP's first scaling step: ``Session.compare`` and the
per-generation batch groups built by :mod:`repro.core.batch` are
embarrassingly parallel but, until this module, executed on one core.
:class:`ShardDispatcher` forks ``jobs`` long-lived worker processes and
dispatches provenance groups to them, with the one contract everything
in this codebase is pinned to: **parallel results are bit-identical to
serial results**, regardless of worker count or OS scheduling.

How determinism is preserved:

* **Workers own cloned contexts.**  Each worker rebuilds its own
  :class:`~repro.core.fitness.EvalContext` from the session's reference
  circuit, library and Monte-Carlo vector set — the same recipe
  ``Session.resume`` uses — so reference values, STA baselines and
  metric tails are bit-identical to the parent process's.
* **The partition is computed in the parent.**
  :func:`repro.core.batch.group_by_parent` decides which child is
  incrementally evaluable against which parent and which needs a full
  evaluation, exactly as the serial path does; workers never make
  path decisions of their own.
* **Parents travel once, children every generation.**  A provenance
  group is shipped as (parent key, children-with-changed-sets).  The
  first time a parent reaches a worker its full
  :class:`~repro.core.fitness.CircuitEval` rides along and is cached
  worker-side (the parent process mirrors the cache bookkeeping, so it
  knows which worker owns which parent); subsequent generations ship
  only the children.  Workers re-stamp each child's provenance against
  their cached parent copy and run the ordinary batch path — stacked
  value walk plus per-child incremental timing
  (:func:`repro.sta.update_timing_batch`) — the same code, the same
  floats.
* **Results merge by item index**, so completion order is irrelevant.

Evaluating each gate's value and timing is a pure function of circuit
structure + vectors + library, so a worker's output for an item equals
what the serial path would have produced for it (pinned by
``tests/test_parallel_eval.py``: batch equivalence under jobs=2/4/
jobs>children, stale-provenance fallbacks, mixed parent groups, and a
seeded DCGWO run-identity test).

Crash safety is a *recovery* layer, not just detection.  Because every
routing and caching decision lives in the parent, a worker is
disposable: when one dies (SIGKILL, OOM-kill), hangs past the per-reply
deadline (``REPRO_WORKER_TIMEOUT``; the straggler is SIGKILLed), or its
pipe breaks, the dispatcher respawns it with a fresh cache mirror and
re-plans the unmerged items — bounded retries with backoff
(``REPRO_WORKER_RETRIES``), then graceful degradation to serial
evaluation in the parent.  Since every path is bit-identical, recovery
may re-route freely without changing a single result bit.  Error
*replies* are classified instead: the first one is replayed once
against a respawned worker (with fault injection suppressed), and a
second error is deterministic — a poisoned cell library, a bug — so the
pool is torn down and the original exception re-raised, exactly the
PR-3 contract.  Workers are daemonic as a last-resort backstop, and
deterministic fault injection (:mod:`repro.faults`, sites
``worker.kill``/``worker.hang``/``worker.poison``) exercises every one
of these paths in the chaos CI job.

Job-count resolution (:func:`resolve_jobs`): an explicit ``jobs=``
argument wins, then the optimizer/flow config's ``jobs`` field, then
the ``REPRO_JOBS`` environment variable, else serial.  Inside a worker
the answer is always 1 — nested pools are never spawned.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import threading
import time
import traceback
import warnings
from collections import OrderedDict, deque
from dataclasses import dataclass, field
from multiprocessing.connection import Connection, wait as connection_wait
from typing import (
    Any,
    Dict,
    FrozenSet,
    List,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

from .. import faults
from ..analysis.sanitize import TrackedLock, publish_array
from ..netlist import Circuit
from ..netlist.circuit import Provenance
from ..sim import ErrorMode, VectorSet
from ..sim.store import ValueStore, value_store_index
from ..sta import TimingReport
from .batch import BatchItem, evaluate_batch, group_by_parent
from .fitness import CircuitEval, DepthMode, EvalContext

#: Set in worker processes so :func:`resolve_jobs` never nests pools.
_IN_WORKER = False

#: Parent-eval cache entries kept per worker (FIFO eviction, mirrored
#: by the dispatcher so both sides agree on what is resident).
DEFAULT_CACHE_LIMIT = 128

#: Per-reply deadline for one eval dispatch (``REPRO_WORKER_TIMEOUT``
#: overrides; <= 0 disables).  Generous — a legitimate shard reply is
#: seconds — but finite, so a live-yet-wedged worker (SIGSTOP, a stuck
#: syscall) becomes a recoverable failure instead of a hung session.
DEFAULT_WORKER_TIMEOUT = 600.0

#: Per-reply deadline for one whole-method run (``Session.compare``
#: path; ``REPRO_METHOD_TIMEOUT`` overrides, <= 0 disables).  Method
#: runs are full optimization flows, so the ceiling is much higher.
DEFAULT_METHOD_TIMEOUT = 3600.0

#: Recovery attempts after the first failed dispatch before the
#: dispatcher degrades to serial evaluation (``REPRO_WORKER_RETRIES``).
DEFAULT_WORKER_RETRIES = 2


class WorkerCrashError(faults.TransientError):
    """The pool kept failing past its retry budget (transient class:
    a serve job hitting this may retry from its checkpoint)."""


class _ReplyTimeout(Exception):
    """Internal: a worker missed its per-reply deadline."""


def _env_float(name: str, default: float) -> float:
    raw = os.environ.get(name, "").strip()
    if not raw:
        return default
    try:
        return float(raw)
    except ValueError:
        warnings.warn(
            f"{name}={raw!r} is not a number; using {default}",
            RuntimeWarning,
            stacklevel=3,
        )
        return default


def _env_int(name: str, default: int) -> int:
    raw = os.environ.get(name, "").strip()
    if not raw:
        return default
    try:
        return int(raw)
    except ValueError:
        warnings.warn(
            f"{name}={raw!r} is not an integer; using {default}",
            RuntimeWarning,
            stacklevel=3,
        )
        return default


def resolve_jobs(jobs: Optional[int] = None, config: Any = None) -> int:
    """Effective worker count: explicit arg > config ``jobs`` > env > 1.

    ``REPRO_JOBS`` provides the environment override the CI parallel
    job uses; inside a shard worker the answer is always 1 so a
    parallel ``compare`` never spawns pools-within-pools.
    """
    if _IN_WORKER:
        return 1
    if jobs is not None:
        return max(1, int(jobs))
    if config is not None:
        cfg_jobs = getattr(config, "jobs", 0) or 0
        if cfg_jobs:
            return max(1, int(cfg_jobs))
    env = os.environ.get("REPRO_JOBS", "").strip()
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            # Never silently lose parallelism: a typo'd REPRO_JOBS in a
            # CI matrix would otherwise quietly run everything serial.
            warnings.warn(
                f"REPRO_JOBS={env!r} is not an integer; "
                "falling back to serial evaluation",
                RuntimeWarning,
                stacklevel=2,
            )
            return 1
    return 1


def full_structure_key(circuit: Circuit) -> bytes:
    """Back-compat shim: see :meth:`Circuit.full_structure_key`.

    The digest moved onto :class:`~repro.netlist.Circuit` so the batch
    evaluator's singles dedup can use it without importing this module
    (which imports the batch evaluator).
    """
    return circuit.full_structure_key()


# ----------------------------------------------------------------------
# worker side
# ----------------------------------------------------------------------
@dataclass
class _ContextSpec:
    """Everything a worker needs to rebuild the session's EvalContext.

    The context itself is never shipped: it is fully determined by
    (reference circuit, library, error mode, vectors, weights), and the
    rebuild in the worker reproduces every baseline bit-for-bit — the
    same invariant ``Session.resume`` relies on.  The vector words are
    shipped verbatim rather than re-drawn from a seed so contexts built
    around externally supplied vector sets parallelize too.
    """

    reference: Circuit
    library: Any
    error_mode: ErrorMode
    vector_words: np.ndarray
    num_vectors: int
    wd: float
    depth_mode: DepthMode
    #: Evaluation-lake directory workers write through to (``None``:
    #: unset — workers resolve ``REPRO_CACHE`` themselves, matching the
    #: parent's lazy resolution; ``cache_off`` ships an explicit
    #: ``cache=False`` so a disabled parent disables its workers too).
    cache_dir: Optional[str] = None
    cache_off: bool = False

    @classmethod
    def from_ctx(cls, ctx: EvalContext) -> "_ContextSpec":
        lake = getattr(ctx, "lake", None)
        return cls(
            reference=ctx.reference,
            library=ctx.library,
            error_mode=ctx.error_mode,
            vector_words=ctx.vectors.words,
            num_vectors=ctx.vectors.num_vectors,
            wd=ctx.wd,
            depth_mode=ctx.depth_mode,
            cache_dir=lake.path if lake else None,
            cache_off=lake is False,
        )

    def build(self) -> EvalContext:
        ctx = EvalContext.build(
            self.reference,
            self.library,
            self.error_mode,
            vectors=VectorSet(self.vector_words, self.num_vectors),
            wd=self.wd,
            depth_mode=self.depth_mode,
        )
        if self.cache_off:
            # lint: allow[R3] worker-local context built before serving
            ctx.lake = False
        elif self.cache_dir:
            from ..lake import open_cache

            # lint: allow[R3] worker-local context built before serving
            ctx.lake = open_cache(self.cache_dir)
        return ctx


# A CircuitEval's ``values`` are a dense SoA matrix laid out by the
# same sorted-gid row numbering as the timing arrays, so evals cross
# the pipe with that matrix shipped raw — no per-gate keys, no dict
# repacking — and the row index is rebuilt memoized from the circuit on
# the receiving side.  Timing rides the same way: the report's SoA
# arrays ship raw (five numpy arrays instead of five per-gate dicts).
_PackedEval = Tuple[
    Circuit,  # shares identity with report.circuit through one pickle
    Tuple,  # TimingReport.pack(): five SoA arrays + structure version
    np.ndarray,  # value matrix: (index.n + 2, W)
    float,  # depth
    float,  # area
    float,  # error
    List[float],  # per_po_error
    float,  # fd
    float,  # fa
    float,  # fitness
    int,  # circuit_version
]


def _pack_eval(ev: CircuitEval) -> _PackedEval:
    return (
        ev.circuit,
        ev.report.pack(),
        ev.values.matrix,
        ev.depth,
        ev.area,
        ev.error,
        ev.per_po_error,
        ev.fd,
        ev.fa,
        ev.fitness,
        ev.circuit_version,
    )


def _unpack_eval(packed: _PackedEval) -> CircuitEval:
    (
        circuit,
        report_payload,
        matrix,
        depth,
        area,
        error,
        per_po,
        fd,
        fa,
        fitness,
        version,
    ) = packed
    # Rebuild the (memoized) row index from the circuit that travelled
    # alongside — same sorted-gid numbering the sender laid the matrix
    # out by.  The matrix arrives writable from the pipe; republish it
    # read-only — a shipped eval is as published as the local one it
    # mirrors.
    values = ValueStore(value_store_index(circuit), publish_array(matrix))
    return CircuitEval(
        circuit=circuit,
        report=TimingReport.unpack(circuit, report_payload),
        values=values,
        depth=depth,
        area=area,
        error=error,
        per_po_error=per_po,
        fd=fd,
        fa=fa,
        fitness=fitness,
        circuit_version=version,
    )


def _reattach_provenance(
    circuit: Circuit, parent: CircuitEval, changed: FrozenSet[int]
) -> None:
    """Re-stamp a shipped child against the worker's parent copy.

    Pickling deliberately drops provenance (it is only meaningful
    relative to an in-memory parent object); the dispatcher shipped the
    ``changed`` set alongside, and the worker's cached parent is
    structurally identical to the original, so the re-stamped record
    drives exactly the cone walk the serial path would have run.
    """
    circuit.provenance = Provenance(
        parent.circuit, parent.circuit_version, changed
    )
    circuit._prov_version = circuit._version


def _worker_eval(
    ctx: EvalContext,
    ref_key: bytes,
    cache: "Dict[bytes, CircuitEval]",
    evicts: Sequence[bytes],
    groups: Sequence[Tuple[bytes, Optional["_PackedEval"], List]],
    singles: Sequence[Tuple[int, Circuit, bytes]],
) -> List[Tuple[int, "_PackedEval"]]:
    """Evaluate one shard: provenance groups + full-eval singles."""
    for key in evicts:
        cache.pop(key, None)
    results: List[Tuple[int, _PackedEval]] = []
    for key, payload, members in groups:
        if payload is not None:
            parent = _unpack_eval(payload)
            cache[key] = parent
        elif key == ref_key:
            parent = ctx.reference_eval()
        else:
            parent = cache.get(key)
            if parent is None:
                raise RuntimeError(
                    "shard cache desync: dispatcher referenced a parent "
                    "this worker does not hold"
                )
        items: List[BatchItem] = []
        for _, circuit, changed, _ in members:
            _reattach_provenance(circuit, parent, changed)
            items.append((circuit, parent))
        evals = evaluate_batch(ctx, items)
        for (index, _, _, child_key), ev in zip(members, evals):
            if child_key is not None:
                cache[child_key] = ev
            results.append((index, _pack_eval(ev)))
    if singles:
        # Through the batch evaluator rather than a bare `evaluate`
        # loop so the shard consults/populates the evaluation lake and
        # shares duplicate-key work exactly like the serial path
        # (pickling dropped any provenance, so every item stays a
        # full-evaluation single — bit-identical either way).
        evals = evaluate_batch(
            ctx, [(circuit, None) for _, circuit, _ in singles]
        )
        for (index, _, child_key), ev in zip(singles, evals):
            if child_key is not None:
                cache[child_key] = ev
            results.append((index, _pack_eval(ev)))
    lake = getattr(ctx, "lake", None)
    if lake:
        # Workers exit through ``os._exit`` (no atexit), so lake hit/put
        # counters are flushed per shard — one appended delta line, and
        # only when the counters actually moved.
        lake.flush_stats()
    return results


def _apply_worker_fault(fault: Any) -> None:
    """Execute a parent-shipped fault instruction (chaos testing).

    The *parent* evaluates the fault schedule at send time and ships
    the verdict, so a respawned worker never re-reads counters and
    re-kills itself forever; the worker just acts it out.
    """
    if fault is None:
        return
    if fault == "kill":
        os.kill(os.getpid(), signal.SIGKILL)
    elif fault == "poison":
        raise faults.InjectedFault("injected worker error reply")
    elif isinstance(fault, tuple) and fault[0] == "hang":
        # Sleep far past the parent's reply deadline; the parent
        # SIGKILLs the straggler, so the sleep never runs to term.
        time.sleep(float(fault[1]))
    else:  # pragma: no cover - schedule/worker version skew
        raise RuntimeError(f"unknown fault instruction {fault!r}")


def _worker_run(ctx: EvalContext, method: str, flow_config: Any) -> Any:
    """Run one whole method (optimizer + post-opt) against the worker ctx."""
    from ..session import Session

    session = Session(
        ctx.reference, config=flow_config, library=ctx.library, ctx=ctx
    )
    return session.run(method)


def _worker_main(conn: Connection, spec: _ContextSpec) -> None:
    """Worker loop: build the cloned context lazily, serve shard messages.

    The context build is *not* done eagerly at process start: a failing
    build (e.g. a poisoned cell library) must surface as an ordinary
    error reply to the first message — raising out of the loop would
    leave the dispatcher waiting on a dead pipe.
    """
    global _IN_WORKER
    _IN_WORKER = True
    ctx: Optional[EvalContext] = None
    ref_key: Optional[bytes] = None
    init_error: Optional[BaseException] = None
    cache: Dict[bytes, CircuitEval] = {}
    while True:
        try:
            msg = conn.recv()
        except (EOFError, OSError, KeyboardInterrupt):
            break
        if msg is None or msg[0] == "stop":
            break
        try:
            if ctx is None and init_error is None:
                try:
                    ctx = spec.build()
                    ref_key = full_structure_key(ctx.reference)
                except BaseException as exc:  # noqa: BLE001 - report, don't die
                    init_error = exc
            if init_error is not None:
                raise init_error
            kind = msg[0]
            if kind == "ping":
                result: Any = None
            elif kind == "eval":
                _apply_worker_fault(msg[4] if len(msg) > 4 else None)
                result = _worker_eval(ctx, ref_key, cache, *msg[1:4])
            elif kind == "run":
                _apply_worker_fault(msg[3] if len(msg) > 3 else None)
                result = _worker_run(ctx, *msg[1:3])
            else:
                raise RuntimeError(f"unknown shard message {kind!r}")
            reply: Tuple = ("ok", result)
        except BaseException as exc:  # noqa: BLE001 - marshal to parent
            reply = ("err", (exc, traceback.format_exc()))
        try:
            conn.send(reply)
        except Exception as send_exc:  # unpicklable result/exception
            try:
                conn.send(
                    (
                        "err",
                        (
                            RuntimeError(
                                "worker reply could not be serialized: "
                                f"{send_exc!r}"
                            ),
                            traceback.format_exc(),
                        ),
                    )
                )
            except Exception:
                break


# ----------------------------------------------------------------------
# dispatcher (parent side)
# ----------------------------------------------------------------------
@dataclass
class _WorkerPlan:
    """One worker's share of a dispatch, built deterministically."""

    evicts: List[bytes] = field(default_factory=list)
    groups: List[Tuple[bytes, Optional[_PackedEval], List]] = field(
        default_factory=list
    )
    singles: List[Tuple[int, Circuit, bytes]] = field(default_factory=list)

    @property
    def empty(self) -> bool:
        return not (self.groups or self.singles)


def _start_method() -> str:
    """Prefer fork (cheap, inherits the interpreter) when available."""
    methods = multiprocessing.get_all_start_methods()
    return "fork" if "fork" in methods else "spawn"


class ShardDispatcher:
    """A pool of evaluation workers with deterministic shard routing.

    Args:
        ctx: the evaluation context whose workload is being sharded;
            each worker rebuilds its own clone from the same inputs.
        jobs: number of worker processes (>= 1; a 1-worker dispatcher
            is legal but pointless — callers gate on ``jobs > 1``).
        cache_limit: parent-eval cache entries per worker.  The
            dispatcher mirrors each worker's FIFO bookkeeping, so both
            sides always agree on which parents are resident.
        worker_timeout: per-reply deadline in seconds for eval/ping
            dispatches (default ``REPRO_WORKER_TIMEOUT``, else
            :data:`DEFAULT_WORKER_TIMEOUT`; <= 0 disables).
        method_timeout: per-reply deadline for whole-method runs
            (default ``REPRO_METHOD_TIMEOUT``).
        retries: recovery attempts after a failed dispatch before
            degrading to serial (default ``REPRO_WORKER_RETRIES``).

    The dispatcher is deliberately single-brained: every routing,
    caching and eviction decision is made in the parent process and
    shipped to workers as explicit instructions, which is what makes a
    run's dispatch sequence — and therefore its results — a pure
    function of the item stream, independent of scheduling.  That same
    property makes workers disposable: respawn-and-re-plan after any
    death/hang cannot change a result, only its routing.  Recovery
    counters live in :attr:`stats` (``respawns``/``retries``/
    ``timeouts``/``replays``/``serial_fallbacks``) for the chaos CI
    job's summary.
    """

    def __init__(
        self,
        ctx: EvalContext,
        jobs: int,
        cache_limit: int = DEFAULT_CACHE_LIMIT,
        worker_timeout: Optional[float] = None,
        method_timeout: Optional[float] = None,
        retries: Optional[int] = None,
        backoff: float = 0.05,
    ):
        if jobs < 1:
            raise ValueError("jobs must be >= 1")
        self.jobs = jobs
        self.cache_limit = max(cache_limit, 8)
        self.worker_timeout = (
            worker_timeout
            if worker_timeout is not None
            else _env_float("REPRO_WORKER_TIMEOUT", DEFAULT_WORKER_TIMEOUT)
        )
        self.method_timeout = (
            method_timeout
            if method_timeout is not None
            else _env_float("REPRO_METHOD_TIMEOUT", DEFAULT_METHOD_TIMEOUT)
        )
        self.retries = (
            retries
            if retries is not None
            else max(0, _env_int("REPRO_WORKER_RETRIES", DEFAULT_WORKER_RETRIES))
        )
        self.backoff = backoff
        #: Recovery counters (cumulative over the dispatcher's life).
        self.stats: Dict[str, int] = {
            "respawns": 0,
            "retries": 0,
            "timeouts": 0,
            "replays": 0,
            "serial_fallbacks": 0,
        }
        self._closed = False
        #: Serializes pool access: the pipes, routing tables and cache
        #: mirrors assume one dispatch in flight, so concurrent callers
        #: (serve-mode jobs sharing a pool, a signal-driven close racing
        #: an evaluation) queue here instead of interleaving messages.
        #: Reentrant because the error path closes from inside a
        #: dispatch.
        self._lock = TrackedLock("ShardDispatcher._lock", reentrant=True)
        self._ref_key = full_structure_key(ctx.reference)
        #: Mirror of each worker's cache keys, in insertion (FIFO) order.
        self._known: List["OrderedDict[bytes, None]"] = [
            OrderedDict() for _ in range(jobs)
        ]
        self._rr = 0  # round-robin counter for full-eval singles
        #: Kept for serial-fallback evaluation and worker respawns.
        self._ctx = ctx
        self._spec = _ContextSpec.from_ctx(ctx)
        self._mp = multiprocessing.get_context(_start_method())
        self._workers: List[Tuple[Any, Connection]] = []
        for i in range(jobs):
            self._workers.append(self._spawn(i))

    def _spawn(self, index: int) -> Tuple[Any, Connection]:
        parent_conn, child_conn = self._mp.Pipe()
        proc = self._mp.Process(
            target=_worker_main,
            args=(child_conn, self._spec),
            daemon=True,
            name=f"repro-shard-{index}",
        )
        proc.start()
        child_conn.close()
        return proc, parent_conn

    def _respawn(self, worker: int) -> None:
        """Replace a failed worker with a fresh process + empty mirror.

        SIGKILL (not SIGTERM) so even a SIGSTOP'd straggler dies, and
        the cache mirror is reset so the planner re-ships any parent
        the dead worker was supposed to hold — the parent-side
        bookkeeping *is* the replay recipe.
        """
        proc, conn = self._workers[worker]
        try:
            conn.close()
        except Exception:
            pass
        if proc.is_alive():
            proc.kill()
        proc.join(timeout=5.0)
        self._known[worker] = OrderedDict()
        self._workers[worker] = self._spawn(worker)
        self.stats["respawns"] += 1

    # ------------------------------------------------------------------
    @property
    def closed(self) -> bool:
        return self._closed

    def warmup(self) -> None:
        """Force every worker to build its context now (optional).

        Useful before timed regions (the runtime-scaling bench measures
        steady-state throughput) and to surface context-build errors
        eagerly; :meth:`evaluate_items` works without it.  Supervised
        like any dispatch: dead/hung workers are respawned and
        re-pinged, a repeated error reply is deterministic and raises.
        """
        with self._lock:
            pending = list(range(self.jobs))
            err_seen = False
            for attempt in range(self.retries + 2):
                if attempt:
                    self.stats["retries"] += 1
                    time.sleep(self.backoff * attempt)
                failed: List[int] = []
                active: List[int] = []
                for w in pending:
                    if self._send(w, ("ping",)):
                        active.append(w)
                    else:
                        failed.append(w)
                error: Optional[Tuple[BaseException, str]] = None
                for w in active:
                    kind, payload = self._collect_one(
                        w, self.worker_timeout
                    )
                    if kind == "err":
                        error = payload
                        failed.append(w)
                    elif kind in ("dead", "timeout"):
                        failed.append(w)
                if error is not None:
                    if err_seen:
                        self._raise_worker_error(*error)
                    err_seen = True
                    self.stats["replays"] += 1
                for w in failed:
                    self._respawn(w)
                pending = sorted(failed)
                if not pending:
                    return
            self.close(force=True)
            raise WorkerCrashError(
                f"shard pool failed to warm up after {self.retries + 1} "
                "attempts"
            )

    # ------------------------------------------------------------------
    # planning
    # ------------------------------------------------------------------
    def _register(
        self,
        worker: int,
        key: bytes,
        plan: _WorkerPlan,
        pinned: set,
    ) -> None:
        """Record that ``worker`` will hold ``key`` after this dispatch.

        FIFO-evicts the oldest unpinned entries beyond ``cache_limit``;
        keys touched by the current dispatch are pinned so an eviction
        can never invalidate a group scheduled moments earlier.
        """
        known = self._known[worker]
        if key in known:
            pinned.add(key)
            return
        known[key] = None
        pinned.add(key)
        while len(known) > self.cache_limit:
            victim = next(
                (old for old in known if old not in pinned), None
            )
            if victim is None:
                break
            del known[victim]
            plan.evicts.append(victim)

    def _owner_of(self, key: bytes) -> Optional[int]:
        for w in range(self.jobs):
            if key in self._known[w]:
                return w
        return None

    def _plan(
        self, items: Sequence[BatchItem], force_full: bool
    ) -> List[_WorkerPlan]:
        """Deterministically partition a generation into worker shards."""
        if force_full:
            groups: List = []
            singles: List[Tuple[int, Circuit]] = [
                (i, circuit) for i, (circuit, _) in enumerate(items)
            ]
        else:
            groups, singles = group_by_parent(items)
        plans = [_WorkerPlan() for _ in range(self.jobs)]
        pinned: set = set()
        for parent, members in groups:
            key = full_structure_key(parent.circuit)
            packed = [
                (i, circuit, changed, full_structure_key(circuit))
                for i, circuit, changed in members
            ]
            if key == self._ref_key:
                # Every worker rebuilds the reference eval locally, so
                # the (large) initial-population group splits for free.
                chunk = -(-len(packed) // self.jobs)  # ceil div
                for w in range(self.jobs):
                    part = packed[w * chunk : (w + 1) * chunk]
                    if not part:
                        continue
                    plans[w].groups.append((key, None, part))
                    for _, _, _, child_key in part:
                        self._register(w, child_key, plans[w], pinned)
                continue
            owner = self._owner_of(key)
            payload: Optional[_PackedEval] = None
            if owner is None:
                # First sighting: route by key hash, ship the parent.
                owner = int.from_bytes(key[:8], "big") % self.jobs
                payload = _pack_eval(parent)
                self._register(owner, key, plans[owner], pinned)
            else:
                pinned.add(key)
            plans[owner].groups.append((key, payload, packed))
            for _, _, _, child_key in packed:
                self._register(owner, child_key, plans[owner], pinned)
        for i, circuit in singles:
            w = self._rr % self.jobs
            self._rr += 1
            child_key = full_structure_key(circuit)
            plans[w].singles.append((i, circuit, child_key))
            self._register(w, child_key, plans[w], pinned)
        return plans

    # ------------------------------------------------------------------
    # transport
    # ------------------------------------------------------------------
    def _send(self, worker: int, msg: Tuple) -> bool:
        """Best-effort send; ``False`` means the worker's pipe is gone
        (the caller treats that exactly like a death and respawns)."""
        if self._closed:
            raise RuntimeError("dispatcher is closed")
        try:
            self._workers[worker][1].send(msg)
            return True
        except (OSError, ValueError):
            return False

    def _recv_reply(self, worker: int, timeout: float) -> Tuple[str, Any]:
        """Receive one reply, watching process, pipe, and the clock.

        A worker that dies abruptly may never close our end of the pipe
        (sibling workers forked later hold inherited copies of its write
        fd), so a bare ``recv`` could block forever; polling with a
        liveness check turns that into a clean :class:`EOFError`.  A
        worker that is alive but wedged (SIGSTOP, a stuck syscall, an
        injected hang) trips the per-reply deadline instead and raises
        :class:`_ReplyTimeout` — the caller kills and replaces it.
        """
        proc, conn = self._workers[worker]
        deadline = (
            # lint: allow[R4] supervision wall clock; never feeds results
            time.monotonic() + timeout if timeout and timeout > 0 else None
        )
        while True:
            if conn.poll(0.05):
                return conn.recv()
            if not proc.is_alive():
                if conn.poll(0.05):  # drain a reply racing the exit
                    return conn.recv()
                raise EOFError(f"worker exited with {proc.exitcode!r}")
            # lint: allow[R4] supervision wall clock; never feeds results
            if deadline is not None and time.monotonic() > deadline:
                raise _ReplyTimeout(
                    f"worker {worker} missed the {timeout:.1f}s reply "
                    "deadline"
                )

    def _collect_one(self, worker: int, timeout: float) -> Tuple[str, Any]:
        """One worker's outcome: ``("ok"|"err"|"dead"|"timeout", ...)``.

        A straggler that trips the deadline is SIGKILLed on the spot —
        from here on it is just another dead worker to respawn.
        """
        try:
            return self._recv_reply(worker, timeout)
        except _ReplyTimeout as exc:
            self.stats["timeouts"] += 1
            proc = self._workers[worker][0]
            if proc.is_alive():
                proc.kill()
            return "timeout", exc
        except (EOFError, OSError) as exc:
            return "dead", exc

    def _raise_worker_error(self, exc: BaseException, tb: str) -> None:
        """Deterministic worker error: tear the pool down, re-raise."""
        self.close(force=True)
        if tb and hasattr(exc, "add_note"):
            exc.add_note(
                "raised in a shard worker; worker traceback:\n" + tb
            )
        raise exc

    # ------------------------------------------------------------------
    # public entry points
    # ------------------------------------------------------------------
    def _eval_fault(self, worker: int, suppress: bool) -> Any:
        """Fault instruction for one eval send (``None`` when disarmed).

        Evaluated parent-side so the hit counters have a single
        authority; ``suppress`` turns injection off for diagnostic
        replays (an injected kill must not mask the question "was that
        error reply deterministic?").
        """
        if suppress:
            return None
        scope = str(worker)
        if faults.should_inject("worker.kill", scope):
            return "kill"
        if faults.should_inject("worker.hang", scope):
            hang_s = (
                max(1.0, 4.0 * self.worker_timeout)
                if self.worker_timeout > 0
                else 600.0
            )
            return ("hang", hang_s)
        if faults.should_inject("worker.poison", scope):
            return "poison"
        return None

    def evaluate_items(
        self, items: Sequence[BatchItem], force_full: bool = False
    ) -> List[CircuitEval]:
        """Evaluate a generation across the pool; bit-identical to serial.

        ``force_full`` mirrors ``use_incremental=False``: every item is
        fully evaluated (still sharded), matching what the serial path
        would have computed under that toggle.

        Self-healing: workers that die, hang past the reply deadline,
        or lose their pipe are respawned and the unmerged items
        re-planned (results already merged from healthy workers are
        kept — merging is by item index, so routing changes are
        invisible).  After ``retries`` failed recovery rounds the
        remaining items are evaluated serially in the parent.  A worker
        *error reply* is replayed once with fault injection suppressed;
        a second error is deterministic and re-raises after tearing the
        pool down.
        """
        if not items:
            return []
        with self._lock:
            out: List[Optional[CircuitEval]] = [None] * len(items)
            pending = list(range(len(items)))
            err_seen = False
            attempt = 0
            while pending:
                if attempt > self.retries:
                    self._serial_fallback(items, pending, force_full, out)
                    break
                if attempt:
                    self.stats["retries"] += 1
                    time.sleep(self.backoff * attempt)
                sub = [items[i] for i in pending]
                plans = self._plan(sub, force_full)
                active: List[int] = []
                failed: List[int] = []
                for w, plan in enumerate(plans):
                    if plan.empty:
                        continue
                    msg = (
                        "eval",
                        plan.evicts,
                        plan.groups,
                        plan.singles,
                        self._eval_fault(w, suppress=err_seen),
                    )
                    if self._send(w, msg):
                        active.append(w)
                    else:
                        failed.append(w)
                error: Optional[Tuple[BaseException, str]] = None
                done: set = set()
                for w in active:
                    kind, payload = self._collect_one(
                        w, self.worker_timeout
                    )
                    if kind == "ok":
                        for sub_index, packed in payload:
                            out[pending[sub_index]] = _unpack_eval(packed)
                            done.add(sub_index)
                    elif kind == "err":
                        error = payload
                        failed.append(w)
                    else:  # dead / timeout
                        failed.append(w)
                if error is not None:
                    if err_seen:
                        # The replay (injection-free) failed too: this
                        # error is deterministic, not environmental.
                        self._raise_worker_error(*error)
                    err_seen = True
                    self.stats["replays"] += 1
                for w in sorted(set(failed)):
                    self._respawn(w)
                pending = [
                    index
                    for sub_index, index in enumerate(pending)
                    if sub_index not in done
                ]
                attempt += 1
        return out  # type: ignore[return-value]

    def _serial_fallback(
        self,
        items: Sequence[BatchItem],
        pending: Sequence[int],
        force_full: bool,
        out: List[Optional[CircuitEval]],
    ) -> None:
        """Last resort: evaluate the stubborn items in the parent.

        The serial batch path is the definition of correctness here, so
        degraded results are still bit-identical — the pool only ever
        buys wall-clock time, never different answers.
        """
        self.stats["serial_fallbacks"] += 1
        warnings.warn(
            f"shard pool kept failing after {self.retries} recovery "
            f"attempts; evaluating {len(pending)} items serially in "
            "the parent",
            RuntimeWarning,
            stacklevel=3,
        )
        sub: List[BatchItem] = [items[i] for i in pending]
        if force_full:
            sub = [(circuit, None) for circuit, _ in sub]
        evals = evaluate_batch(self._ctx, sub)
        for index, ev in zip(pending, evals):
            out[index] = ev

    def run_methods(
        self, methods: Sequence[str], flow_config: Any
    ) -> Dict[str, Any]:
        """Run whole methods concurrently (``Session.compare`` backend).

        Each method's full flow (optimizer + post-optimization) runs in
        one worker against that worker's cloned context; methods beyond
        the pool size queue up and start as workers free up.  Results
        come back keyed and are returned in the requested method order.
        Individual runs are seeded and independent, so concurrency —
        and recovery re-dispatch after a worker death or a missed
        ``method_timeout`` deadline — cannot change any result.  A
        method whose worker keeps dying past the retry budget raises
        :class:`WorkerCrashError` (there is no serial fallback here: a
        method run *is* a serial run, just elsewhere); an error reply
        is replayed once and a second error re-raises the original.
        """
        with self._lock:
            pending = deque(methods)
            # worker -> (method, dispatch time); monotonic only feeds
            # the supervision deadline, never a result.
            inflight: Dict[int, Tuple[str, float]] = {}
            results: Dict[str, Any] = {}
            death_counts: Dict[str, int] = {m: 0 for m in methods}
            err_counts: Dict[str, int] = {m: 0 for m in methods}

            def fail_method(worker: int, method: str) -> None:
                self._respawn(worker)
                death_counts[method] += 1
                if death_counts[method] > self.retries:
                    self.close(force=True)
                    raise WorkerCrashError(
                        f"parallel worker running {method!r} kept "
                        f"failing after {self.retries} retries"
                    )
                self.stats["retries"] += 1
                pending.appendleft(method)

            while inflight or pending:
                for w in range(self.jobs):
                    if not pending:
                        break
                    if w in inflight:
                        continue
                    method = pending.popleft()
                    fault = (
                        None
                        if err_counts[method]
                        else self._run_fault(w)
                    )
                    if self._send(w, ("run", method, flow_config, fault)):
                        # lint: allow[R4] supervision deadline bookkeeping
                        inflight[w] = (method, time.monotonic())
                    else:
                        fail_method(w, method)
                if not inflight:
                    continue
                conn_to_worker = {
                    self._workers[w][1]: w for w in inflight
                }
                ready = connection_wait(
                    list(conn_to_worker), timeout=0.1
                )
                if not ready:
                    # No data: check liveness and the method deadline
                    # (a dead worker's pipe may be held open by
                    # siblings; a SIGSTOP'd one never reaches EOF).
                    # lint: allow[R4] supervision deadline bookkeeping
                    now = time.monotonic()
                    for w in list(inflight):
                        proc, conn = self._workers[w]
                        method, started = inflight[w]
                        if (
                            self.method_timeout > 0
                            and now - started > self.method_timeout
                            and proc.is_alive()
                        ):
                            self.stats["timeouts"] += 1
                            proc.kill()
                        if not proc.is_alive() and not conn.poll(0):
                            inflight.pop(w)
                            fail_method(w, method)
                    continue
                for conn in ready:
                    w = conn_to_worker[conn]
                    method, _ = inflight.pop(w)
                    try:
                        kind, payload = conn.recv()
                    except (EOFError, OSError):
                        fail_method(w, method)
                        continue
                    if kind == "err":
                        if err_counts[method]:
                            self._raise_worker_error(*payload)
                        err_counts[method] = 1
                        self.stats["replays"] += 1
                        self._respawn(w)
                        pending.appendleft(method)
                        continue
                    results[method] = payload
            return {m: results[m] for m in methods}

    def _run_fault(self, worker: int) -> Any:
        """Fault instruction for one method-run send (kill/poison only:
        a hang would stall CI for the whole method deadline)."""
        scope = str(worker)
        if faults.should_inject("worker.kill", scope):
            return "kill"
        if faults.should_inject("worker.poison", scope):
            return "poison"
        return None

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def close(self, force: bool = False) -> None:
        """Shut the pool down; idempotent.

        Graceful close asks workers to exit and joins them; ``force``
        (the error path) skips the goodbye and terminates stragglers so
        a poisoned pool can never leave hung processes behind.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
            for _, conn in self._workers:
                if not force:
                    try:
                        conn.send(("stop",))
                    except Exception:
                        pass
                try:
                    conn.close()
                except Exception:
                    pass
            for proc, _ in self._workers:
                proc.join(timeout=0.2 if force else 2.0)
                if proc.is_alive():
                    proc.terminate()
                    proc.join(timeout=2.0)
                if proc.is_alive():
                    # SIGTERM is ignorable (and undeliverable to a
                    # SIGSTOP'd process); SIGKILL is not.
                    proc.kill()
                    proc.join(timeout=2.0)

    def __enter__(self) -> "ShardDispatcher":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover - GC backstop
        try:
            self.close(force=True)
        except Exception:
            pass


#: Guards the per-context dispatcher slot: two threads resolving
#: ``jobs > 1`` on one context must share one pool, not fork two.
_DISPATCHER_LOCK = TrackedLock("parallel._DISPATCHER_LOCK")


def get_dispatcher(ctx: EvalContext, jobs: int) -> ShardDispatcher:
    """The context's dispatcher, (re)built when absent, closed or resized.

    The dispatcher lives on the :class:`EvalContext` so every consumer
    of one context — optimizer generations, ``Session.evaluate_batch``,
    ``Session.compare`` — shares one warm pool, and the worker-side
    parent caches stay hot across generations.  Thread-safe: concurrent
    callers get the same pool, and each dispatch serializes on the
    dispatcher's own lock.
    """
    with _DISPATCHER_LOCK:
        existing = getattr(ctx, "_dispatcher", None)
        if (
            existing is not None
            and not existing.closed
            and existing.jobs == jobs
        ):
            return existing
        if existing is not None:
            existing.close()
        dispatcher = ShardDispatcher(ctx, jobs)
        ctx._dispatcher = dispatcher
        return dispatcher


def close_dispatcher(ctx: EvalContext) -> None:
    """Close and detach the context's dispatcher, if any."""
    with _DISPATCHER_LOCK:
        existing = getattr(ctx, "_dispatcher", None)
        if existing is not None:
            existing.close()
            ctx._dispatcher = None
