"""Determinism/property suite for multi-process sharded evaluation.

The contract under test: **parallel evaluation is bit-identical to
serial evaluation** — for any worker count, any shard assignment, and
every evaluation path (shared topo walk, incremental fallback, full
fallback).  The suite pins:

* batch equivalence — seeded random LAC generations evaluated with
  jobs=2, jobs=4 and jobs > children match the serial incremental path
  value-for-value and arrival-for-arrival;
* fallback coverage — stale-provenance children (undeclared writes)
  and mixed-parent generations (several parents + two-parent crossover
  children) take the same fallback decisions as serial and match bit
  for bit;
* run identity — a seeded DCGWO run under jobs=2 produces exactly the
  serial :class:`OptimizationResult` (fitness, error, structure keys,
  evaluation counts, history);
* transport — replies carry numbers bound to the dispatcher's own
  child objects (provenance released, versions and memos as after a
  serial evaluation), group members travel as change records that
  rebuild the dispatcher's child exactly, members of another shape
  travel whole, and the pipe byte counters are deterministic;
* crash safety — a worker that raises (poisoned cell library) surfaces
  the *original* exception from ``Session.run`` and leaves no worker
  process behind;
* plumbing — ``resolve_jobs`` precedence (arg > config > ``REPRO_JOBS``
  env > serial) and nested-pool suppression inside workers.
"""

from __future__ import annotations

import io
import multiprocessing
import os
import pickle
import random
import signal
import subprocess
import sys
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference_circuits import build_adder
from test_fanout_patch import (
    _BUILDERS,
    _lac_child,
    _simplified_child,
    contexts,  # noqa: F401  (module-scoped fixture)
)

from repro import FlowConfig, Session
from repro.cells import Library, default_library
from repro.core import (
    DCGWO,
    DCGWOConfig,
    EvalContext,
    LAC,
    ShardDispatcher,
    applied_copy,
    circuit_reproduce,
    evaluate_batch,
    evaluate_incremental,
    is_safe,
    resolve_jobs,
)
from repro.core import parallel as parallel_mod
from repro.core.parallel import _change_records, _rebuild_member
from repro.netlist import CONST0, Circuit
from repro.sim import ErrorMode, best_switch


NMED_CFG = FlowConfig(
    error_mode=ErrorMode.NMED,
    error_bound=0.0244,
    num_vectors=256,
    effort=0.25,
    seed=7,
)


def _ctx(circuit, library, seed=4, num_vectors=256):
    return EvalContext.build(
        circuit, library, ErrorMode.NMED, num_vectors=num_vectors, seed=seed
    )


def _lac_children(ctx, count, seed=3, circuit=None, parent=None):
    """``count`` distinct single-LAC children of ``circuit`` (default:
    the reference), derived against ``parent``'s evaluated values."""
    rng = random.Random(seed)
    parent = parent if parent is not None else ctx.reference_eval()
    circuit = circuit if circuit is not None else ctx.reference
    children, seen = [], set()
    logic = circuit.logic_ids()
    attempts = 0
    while len(children) < count and attempts < 200 * count:
        attempts += 1
        target = logic[rng.randrange(len(logic))]
        found = best_switch(
            circuit, parent.values, target, ctx.vectors.num_vectors
        )
        if found is None:
            continue
        lac = LAC(target=target, switch=found[0])
        if not is_safe(circuit, lac):
            continue
        child = applied_copy(circuit, lac)
        key = child.structure_key()
        if key in seen:
            continue
        seen.add(key)
        children.append(child)
    assert len(children) == count
    return children


def _assert_same_eval(a, b):
    assert a.fitness == b.fitness
    assert a.fd == b.fd
    assert a.fa == b.fa
    assert a.depth == b.depth
    assert a.area == b.area
    assert a.error == b.error
    assert a.per_po_error == b.per_po_error
    assert a.report.cpd == b.report.cpd
    for gid in a.circuit.gate_ids():
        assert a.report.arrival[gid] == b.report.arrival[gid], gid
        assert (a.values[gid] == b.values[gid]).all(), gid


def _run_signature(result):
    return (
        result.best.fitness,
        result.best.error,
        result.best.area,
        result.best.circuit.structure_key(),
        result.evaluations,
        tuple(result.history),
        tuple(ev.circuit.structure_key() for ev in result.population),
    )


# ----------------------------------------------------------------------
# batch equivalence properties
# ----------------------------------------------------------------------
class TestParallelBatchEquivalence:
    @pytest.mark.parametrize("jobs", [2, 4, 16])  # 16 > children
    def test_lac_generation_matches_serial(self, library, jobs):
        # Identical children are rebuilt against two identical contexts
        # (evaluation consumes provenance, so each path needs its own).
        ctx_a = _ctx(build_adder(8), library)
        ctx_b = _ctx(build_adder(8), library)
        kids_a = _lac_children(ctx_a, 8)
        kids_b = _lac_children(ctx_b, 8)
        with ShardDispatcher(ctx_a, jobs) as dispatcher:
            got = dispatcher.evaluate_items(
                [(c, ctx_a.reference_eval()) for c in kids_a]
            )
        want = evaluate_batch(
            ctx_b, [(c, ctx_b.reference_eval()) for c in kids_b]
        )
        for a, b in zip(got, want):
            _assert_same_eval(a, b)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_random_generations_across_parent_levels(self, library, seed):
        """Mixed parent groups: grandchildren of several L1 parents."""
        contexts = (_ctx(build_adder(8), library), _ctx(build_adder(8), library))
        per_path = []
        for ctx in contexts:
            l1 = _lac_children(ctx, 3, seed=seed)
            l1_evals = [
                evaluate_incremental(ctx, c, ctx.reference_eval())
                for c in l1
            ]
            items = []
            for k, parent_ev in enumerate(l1_evals):
                for child in _lac_children(
                    ctx,
                    2,
                    seed=seed * 17 + k,
                    circuit=parent_ev.circuit,
                    parent=parent_ev,
                ):
                    items.append((child, (parent_ev,)))
            per_path.append((ctx, items, l1_evals))
        ctx_a, items_a, _ = per_path[0]
        ctx_b, items_b, _ = per_path[1]
        with ShardDispatcher(ctx_a, 2) as dispatcher:
            got = dispatcher.evaluate_items(items_a)
        want = evaluate_batch(ctx_b, items_b)
        for a, b in zip(got, want):
            _assert_same_eval(a, b)

    def test_crossover_children_match_serial(self, library):
        """Two-parent items: the matched parent drives the group."""
        ctx_a = _ctx(build_adder(8), library, seed=5)
        ctx_b = _ctx(build_adder(8), library, seed=5)
        batches = []
        for ctx in (ctx_a, ctx_b):
            evals = [
                evaluate_incremental(ctx, c, ctx.reference_eval())
                for c in _lac_children(ctx, 2, seed=11)
            ]
            child = circuit_reproduce(evals[0], evals[1], ctx)
            batches.append((child, tuple(evals)))
        with ShardDispatcher(ctx_a, 2) as dispatcher:
            got = dispatcher.evaluate_items([batches[0]])[0]
        want = evaluate_incremental(ctx_b, batches[1][0], batches[1][1])
        _assert_same_eval(got, want)

    def test_stale_provenance_falls_back_to_full(self, library):
        """An undeclared write stales provenance on both paths alike."""
        ctx_a = _ctx(build_adder(6), library)
        ctx_b = _ctx(build_adder(6), library)
        staled = []
        for ctx in (ctx_a, ctx_b):
            fresh, stale = _lac_children(ctx, 2)
            gid = stale.logic_ids()[0]
            stale.fanins[gid] = stale.fanins[gid]  # undeclared write
            assert stale.valid_provenance() is None
            staled.append((fresh, stale, ctx.reference_eval()))
        with ShardDispatcher(ctx_a, 2) as dispatcher:
            got = dispatcher.evaluate_items(
                [(c, staled[0][2]) for c in staled[0][:2]]
            )
        want = evaluate_batch(
            ctx_b, [(c, staled[1][2]) for c in staled[1][:2]]
        )
        for a, b in zip(got, want):
            _assert_same_eval(a, b)

    def test_force_full_matches_use_incremental_off(self, library):
        ctx_a = _ctx(build_adder(6), library)
        ctx_b = _ctx(build_adder(6), library)
        kids_a = _lac_children(ctx_a, 4)
        kids_b = _lac_children(ctx_b, 4)
        from repro.core import evaluate

        with ShardDispatcher(ctx_a, 2) as dispatcher:
            got = dispatcher.evaluate_items(
                [(c, ctx_a.reference_eval()) for c in kids_a],
                force_full=True,
            )
        want = [evaluate(ctx_b, c) for c in kids_b]
        for a, b in zip(got, want):
            _assert_same_eval(a, b)

    def test_worker_parent_cache_persists_across_generations(self, library):
        """Generation 2 reuses generation 1's shipped/cached parents."""
        ctx_a = _ctx(build_adder(8), library)
        ctx_b = _ctx(build_adder(8), library)
        with ShardDispatcher(ctx_a, 2) as dispatcher:
            gen1_a = dispatcher.evaluate_items(
                [
                    (c, ctx_a.reference_eval())
                    for c in _lac_children(ctx_a, 4, seed=23)
                ]
            )
            items_a = []
            for k, parent_ev in enumerate(gen1_a):
                for child in _lac_children(
                    ctx_a,
                    2,
                    seed=29 + k,
                    circuit=parent_ev.circuit,
                    parent=parent_ev,
                ):
                    items_a.append((child, (parent_ev,)))
            got = dispatcher.evaluate_items(items_a)
        gen1_b = evaluate_batch(
            ctx_b,
            [
                (c, ctx_b.reference_eval())
                for c in _lac_children(ctx_b, 4, seed=23)
            ],
        )
        items_b = []
        for k, parent_ev in enumerate(gen1_b):
            for child in _lac_children(
                ctx_b,
                2,
                seed=29 + k,
                circuit=parent_ev.circuit,
                parent=parent_ev,
            ):
                items_b.append((child, (parent_ev,)))
        want = evaluate_batch(ctx_b, items_b)
        for a, b in zip(got, want):
            _assert_same_eval(a, b)

    def test_session_evaluate_batch_jobs(self, library):
        circuit = build_adder(8)
        with Session(circuit, NMED_CFG) as session:
            kids = _lac_children(session.ctx, 5, seed=2)
            parent = session.ctx.reference_eval()
            serial = session.evaluate_batch(list(kids), parents=parent)
            parallel = session.evaluate_batch(
                list(kids), parents=parent, jobs=3
            )
        for a, b in zip(parallel, serial):
            # Same objects' evals computed twice (provenance consumed by
            # the first pass): values/fitness must still agree exactly.
            assert a.fitness == b.fitness
            assert a.error == b.error
            assert a.area == b.area


# ----------------------------------------------------------------------
# transport: change records out, numbers back
# ----------------------------------------------------------------------
def _circuits_in(obj):
    """Every :class:`Circuit` the pickle of ``obj`` would carry."""
    found = []

    class _Finder(pickle.Pickler):
        def persistent_id(self, candidate):
            if isinstance(candidate, Circuit):
                found.append(candidate)
                return len(found)
            return None

    _Finder(io.BytesIO()).dump(obj)
    return found


def _next_generation(ctx, gen1, seed=23):
    """Two LAC children of each eval in ``gen1``, plus one crossover."""
    items = []
    for k, parent_ev in enumerate(gen1):
        for child in _lac_children(
            ctx, 2, seed=seed + 6 + k, circuit=parent_ev.circuit,
            parent=parent_ev,
        ):
            items.append((child, (parent_ev,)))
    items.append((circuit_reproduce(gen1[0], gen1[1], ctx), tuple(gen1)))
    return items


def _serial_generation(ctx, seed):
    """LAC children of the reference, evaluated in this process."""
    return evaluate_batch(
        ctx,
        [(c, ctx.reference_eval()) for c in _lac_children(ctx, 3, seed=seed)],
    )


class _Spy:
    """Records what a dispatcher plans and receives (parent side)."""

    def __init__(self, monkeypatch):
        self.plans, self.replies = [], []
        plan, recv = ShardDispatcher._plan, ShardDispatcher._recv

        def spy_plan(dispatcher, *args, **kwargs):
            self.plans.append(plan(dispatcher, *args, **kwargs))
            return self.plans[-1]

        def spy_recv(dispatcher, conn):
            self.replies.append(recv(dispatcher, conn))
            return self.replies[-1]

        monkeypatch.setattr(ShardDispatcher, "_plan", spy_plan)
        monkeypatch.setattr(ShardDispatcher, "_recv", spy_recv)

    def members(self):
        return [
            member
            for plans in self.plans
            for plan in plans
            for _, _, members in plan.groups
            for member in members
        ]

    def singles(self):
        return [
            index
            for plans in self.plans
            for plan in plans
            for index, _, _ in plan.singles
        ]


class TestShardTransport:
    def test_evals_bind_to_submitted_circuits(self, library):
        ctx_a = _ctx(build_adder(8), library)
        ctx_b = _ctx(build_adder(8), library)
        first_a = [
            (c, ctx_a.reference_eval()) for c in _lac_children(ctx_a, 4)
        ]
        first_b = [
            (c, ctx_b.reference_eval()) for c in _lac_children(ctx_b, 4)
        ]
        # Generation 2 derives from the dispatcher's own evals (parents
        # the workers already hold) and from serial ones (shipped once).
        with ShardDispatcher(ctx_a, 2) as dispatcher:
            got = dispatcher.evaluate_items(first_a)
            second_a = _next_generation(ctx_a, got)
            second_a += _next_generation(ctx_a, _serial_generation(ctx_a, 41))
            got += dispatcher.evaluate_items(second_a)
        want = evaluate_batch(ctx_b, first_b)
        second_b = _next_generation(ctx_b, want)
        second_b += _next_generation(ctx_b, _serial_generation(ctx_b, 41))
        want += evaluate_batch(ctx_b, second_b)
        assert len(got) == len(want) == len(first_a) + len(second_a)
        for (circuit, _), ev, ref in zip(first_a + second_a, got, want):
            assert ev.circuit is circuit
            assert ev.report.circuit is circuit
            assert circuit.provenance is None
            assert (
                ev.report.circuit_version
                == circuit.version
                == ev.circuit_version
            )
            for memo in ("fanouts", "live", "timing_index"):
                assert circuit._cached(memo) is not None, memo
                assert ref.circuit._cached(memo) is not None, memo
            assert circuit._cached("fanouts") == ref.circuit._cached("fanouts")
            assert circuit._cached("live") == ref.circuit._cached("live")
            assert ev.report.index is circuit._cached("timing_index")
            assert (ev.report.index.gids == ref.report.index.gids).all()
            _assert_same_eval(ev, ref)

    def test_no_circuit_in_replies_or_members(self, library, monkeypatch):
        from repro.core import simplified_copy
        from repro.core.simplify import propose_simplification

        ctx = _ctx(build_adder(8), library)
        ref = ctx.reference_eval()
        items = [(c, ref) for c in _lac_children(ctx, 3, seed=5)]
        rng = random.Random(9)
        for target in rng.sample(ctx.reference.logic_ids(), 12):
            simp = propose_simplification(
                ctx.reference, ref.values, target, ctx.vectors.num_vectors
            )
            if simp is not None:
                items.append((simplified_copy(ctx.reference, simp), ref))
        assert len(items) > 3
        items += _next_generation(ctx, _serial_generation(ctx, 31))
        spy = _Spy(monkeypatch)
        with ShardDispatcher(ctx, 2) as dispatcher:
            dispatcher.evaluate_items(items)
        assert len(spy.members()) == len(items)
        assert not spy.singles()
        assert not _circuits_in(spy.members())
        assert spy.replies and not _circuits_in(spy.replies)

    def test_reshaped_member_travels_whole(self, library, monkeypatch):
        evaluated = []
        for _ in range(2):
            ctx = _ctx(build_adder(8), library)
            target = ctx.reference.logic_ids()[5]
            reshaped = applied_copy(ctx.reference, LAC(target, CONST0))
            since = reshaped.version
            reshaped.remove_gate(target)  # now unreferenced
            reshaped.extend_provenance((target,), since, 2)
            assert reshaped.valid_provenance() is not None
            assert not reshaped.same_gid_set(ctx.reference)
            ref = ctx.reference_eval()
            kids = [(c, ref) for c in _lac_children(ctx, 3)]
            evaluated.append((ctx, [(reshaped, ref)] + kids))
        (ctx_a, items_a), (ctx_b, items_b) = evaluated
        spy = _Spy(monkeypatch)
        with ShardDispatcher(ctx_a, 2) as dispatcher:
            got = dispatcher.evaluate_items(items_a)
        assert spy.singles() == [0]
        assert sorted(m[0] for m in spy.members()) == [1, 2, 3]
        want = evaluate_batch(ctx_b, items_b)
        for a, b in zip(got, want):
            key = a.circuit.full_structure_key()
            assert key == b.circuit.full_structure_key()
            _assert_same_eval(a, b)

    def test_transport_bytes_counted_and_deterministic(self, library):
        counts = []
        for _ in range(2):
            with Session(build_adder(8), NMED_CFG, cache=False) as session:
                session.run("Ours", jobs=2)
                stats = session.fault_stats()
            counts.append((stats["sent_bytes"], stats["recv_bytes"]))
        assert counts[0][0] > 0 and counts[0][1] > 0
        assert counts[0] == counts[1]


@given(
    name=st.sampled_from(sorted(_BUILDERS)),
    steps=st.lists(
        st.tuples(
            st.sampled_from(("wire", "const", "simplify", "reproduce")),
            st.integers(0, 10_000),
        ),
        min_size=1,
        max_size=6,
    ),
)
@settings(max_examples=25, deadline=None)
def test_rebuilt_member_is_the_dispatchers_child(contexts, name, steps):
    """A worker rebuilds each member on its own copy of the parent (a
    pickled reference, or a member it rebuilt earlier); the child must
    be the dispatcher's in dict order and content."""
    ctx = contexts[name]
    num_vectors = ctx.vectors.num_vectors
    pool = [ctx.reference_eval()]
    twins = {id(ctx.reference): pickle.loads(pickle.dumps(ctx.reference))}
    for op, seed in steps:
        rng = random.Random(seed)
        parent = pool[seed % len(pool)]
        if op == "reproduce":
            partner = pool[rng.randrange(len(pool))]
            made = (circuit_reproduce(parent, partner, ctx), [parent, partner])
        elif op == "simplify":
            made = _simplified_child(parent, rng, num_vectors)
        else:
            made = _lac_child(parent, rng, constant=op == "const")
        if made is None:
            continue
        child, parents = made
        prov = child.valid_provenance()
        key = child.full_structure_key()
        rebuilt = _rebuild_member(
            twins[id(prov.parent)], _change_records(child, prov.changed), key
        )
        assert list(rebuilt.fanins.items()) == list(child.fanins.items())
        assert list(rebuilt.cells.items()) == list(child.cells.items())
        assert rebuilt.full_structure_key() == key
        assert rebuilt.valid_provenance().changed == prov.changed
        pool.append(evaluate_incremental(ctx, child, parents))
        rebuilt.provenance = None  # a worker's evaluation releases it
        twins[id(child)] = rebuilt


# ----------------------------------------------------------------------
# run identity
# ----------------------------------------------------------------------
class TestParallelRunIdentity:
    def test_seeded_dcgwo_serial_vs_parallel(self, library):
        from repro.core import close_dispatcher

        results = []
        # jobs=1 pins the baseline serial even when REPRO_JOBS is set
        # (jobs=0 would defer to the environment and compare parallel
        # against parallel in the REPRO_JOBS=2 CI job).
        for jobs in (1, 2):
            ctx = _ctx(build_adder(8), library)
            cfg = DCGWOConfig(
                population_size=6, imax=4, seed=11, jobs=jobs
            )
            results.append(DCGWO(ctx, 0.0244, cfg).optimize())
            close_dispatcher(ctx)
        serial, parallel = results
        assert _run_signature(serial) == _run_signature(parallel)

    def test_vaacs_generation_sharding_identity(self, library):
        from repro.baselines import VaACS
        from repro.baselines.vaacs import VaacsConfig
        from repro.core import close_dispatcher

        results = []
        for jobs in (1, 2):  # 1, not 0: keep the baseline env-proof
            ctx = _ctx(build_adder(8), library)
            cfg = VaacsConfig(
                population_size=6, generations=3, seed=5, jobs=jobs
            )
            results.append(VaACS(ctx, 0.0244, cfg).optimize())
            close_dispatcher(ctx)
        serial, parallel = results
        assert _run_signature(serial) == _run_signature(parallel)

    def test_compare_parallel_matches_serial(self, library):
        circuit = build_adder(8)
        with Session(circuit, NMED_CFG) as serial_session:
            serial = serial_session.compare(("HEDALS", "Ours"))
        with Session(circuit, NMED_CFG) as parallel_session:
            parallel = parallel_session.compare(
                ("HEDALS", "Ours"), jobs=2
            )
        assert list(serial) == list(parallel)
        for method in serial:
            a, b = serial[method], parallel[method]
            assert a.ratio_cpd == b.ratio_cpd
            assert a.error == b.error
            assert a.area_fac == b.area_fac
            assert (
                a.circuit.structure_key() == b.circuit.structure_key()
            )

    def test_compare_rejects_callbacks_in_parallel(self, library):
        from repro.core.protocol import RunCallback

        with Session(build_adder(6), NMED_CFG) as session:
            with pytest.raises(ValueError, match="callbacks"):
                session.compare(
                    ("HEDALS", "Ours"), callbacks=RunCallback(), jobs=2
                )


# ----------------------------------------------------------------------
# crash safety
# ----------------------------------------------------------------------
class PoisonedLibrary(Library):
    """Behaves normally in the parent, raises in any other process."""

    def __init__(self, inner: Library):
        self.__dict__.update(inner.__dict__)
        self._home_pid = os.getpid()
        self._armed = True

    def cell(self, name):
        if self._armed and os.getpid() != self._home_pid:
            raise RuntimeError("poisoned cell library")
        return super().cell(name)


def _pid_running(pid: int) -> bool:
    """True while ``pid`` exists and is not a zombie awaiting its reaper."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False


class TestCrashSafety:
    def _assert_pool_gone(self, session):
        dispatcher = getattr(session.ctx, "_dispatcher", None)
        assert dispatcher is not None and dispatcher.closed
        deadline = time.monotonic() + 5.0
        while time.monotonic() < deadline:
            alive = [
                p
                for p in multiprocessing.active_children()
                if p.name.startswith("repro-shard-")
            ]
            if not alive:
                return
            time.sleep(0.05)
        raise AssertionError(f"worker processes left behind: {alive}")

    def test_poisoned_library_surfaces_original_exception(self, library):
        session = Session(
            build_adder(8), NMED_CFG, library=PoisonedLibrary(library)
        )
        with pytest.raises(RuntimeError, match="poisoned cell library"):
            session.run("Ours", jobs=2)
        self._assert_pool_gone(session)

    def test_poisoned_library_in_parallel_compare(self, library):
        session = Session(
            build_adder(8), NMED_CFG, library=PoisonedLibrary(library)
        )
        with pytest.raises(RuntimeError, match="poisoned cell library"):
            session.compare(("HEDALS", "Ours"), jobs=2)
        self._assert_pool_gone(session)

    def test_killed_worker_respawns_and_completes(self, library):
        """Abrupt worker death (SIGKILL, OOM-kill) heals, not fails.

        Sibling workers hold inherited copies of each other's pipe fds,
        so a dead worker's pipe never reaches EOF on its own — the
        dispatcher's liveness polling detects the death, respawns the
        worker, re-plans the unmerged items, and the run completes
        bit-identically to serial (recovery re-routes, never
        re-computes differently)."""
        ctx = _ctx(build_adder(8), library)
        kids = _lac_children(ctx, 4)
        parent = ctx.reference_eval()
        serial = evaluate_batch(ctx, [(c, parent) for c in kids])
        dispatcher = ShardDispatcher(ctx, 2)
        try:
            dispatcher.warmup()
            dispatcher._workers[0][0].kill()
            evals = dispatcher.evaluate_items([(c, parent) for c in kids])
        finally:
            dispatcher.close()
        assert dispatcher.stats["respawns"] >= 1
        assert dispatcher.stats["serial_fallbacks"] == 0
        for ours, ref in zip(evals, serial):
            _assert_same_eval(ours, ref)

    @pytest.mark.skipif(
        not os.path.isdir("/proc"), reason="reads process states from /proc"
    )
    def test_workers_exit_when_dispatcher_is_sigkilled(self):
        """A SIGKILLed dispatcher process leaves no live shard workers:
        each worker notices it was reparented and exits on its own."""
        script = (
            "import sys\n"
            "from repro.bench import ripple_adder_circuit\n"
            "from repro.cells import default_library\n"
            "from repro.core import EvalContext, ShardDispatcher\n"
            "from repro.sim import ErrorMode\n"
            "ctx = EvalContext.build(ripple_adder_circuit(4),"
            " default_library(), ErrorMode.NMED, num_vectors=64, seed=0)\n"
            "d = ShardDispatcher(ctx, 2)\n"
            "d.warmup()\n"
            "print(*(proc.pid for proc, _ in d._workers), flush=True)\n"
            "sys.stdin.read()\n"
        )
        env = {**os.environ}
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in ("src", env.get("PYTHONPATH")) if p
        )
        proc = subprocess.Popen(
            [sys.executable, "-c", script],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
            env=env,
        )
        pids: list = []
        try:
            pids = [int(pid) for pid in proc.stdout.readline().split()]
            assert len(pids) == 2 and all(map(_pid_running, pids))
            proc.kill()  # SIGKILL: the dispatcher gets no chance to close
            proc.wait(timeout=30)
            for _ in range(400):  # bounded: 400 x 50 ms
                if not any(map(_pid_running, pids)):
                    break
                time.sleep(0.05)
            assert not any(map(_pid_running, pids)), "orphaned shard workers"
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=30)
            proc.stdin.close()
            proc.stdout.close()
            for pid in pids:
                if _pid_running(pid):
                    os.kill(pid, signal.SIGKILL)

    def test_pool_respawns_after_failure(self, library):
        """A crashed pool does not wedge the session: serial still works
        and a later parallel call builds a fresh pool."""
        poisoned = PoisonedLibrary(library)
        session = Session(build_adder(8), NMED_CFG, library=poisoned)
        with pytest.raises(RuntimeError, match="poisoned"):
            session.run("Ours", jobs=2)
        # Un-poison: the next worker generation inherits a clean library.
        poisoned._armed = False
        kids = _lac_children(session.ctx, 3, seed=2)
        parent = session.ctx.reference_eval()
        evals = session.evaluate_batch(list(kids), parents=parent, jobs=2)
        assert len(evals) == 3
        session.close()


# ----------------------------------------------------------------------
# plumbing
# ----------------------------------------------------------------------
class TestJobsResolution:
    def test_explicit_beats_config_beats_env(self, monkeypatch):
        cfg = DCGWOConfig(jobs=3)
        monkeypatch.setenv("REPRO_JOBS", "5")
        assert resolve_jobs(2, cfg) == 2
        assert resolve_jobs(None, cfg) == 3
        assert resolve_jobs(None, DCGWOConfig()) == 5
        monkeypatch.delenv("REPRO_JOBS")
        assert resolve_jobs(None, DCGWOConfig()) == 1
        assert resolve_jobs(None, None) == 1

    def test_env_garbage_degrades_to_serial(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "many")
        # Degrades to serial, but loudly: misconfigured CI must not
        # silently lose its parallelism.
        with pytest.warns(RuntimeWarning, match="REPRO_JOBS='many'"):
            assert resolve_jobs() == 1

    def test_workers_never_nest_pools(self, monkeypatch):
        monkeypatch.setattr(parallel_mod, "_IN_WORKER", True)
        monkeypatch.setenv("REPRO_JOBS", "4")
        assert resolve_jobs(8, DCGWOConfig(jobs=8)) == 1

    def test_jobs_override_does_not_mutate_caller_config(self, library):
        cfg = DCGWOConfig(population_size=6, imax=2, seed=3, jobs=0)
        with Session(build_adder(6), NMED_CFG) as session:
            session.optimize("Ours", config=cfg, jobs=2)
        assert cfg.jobs == 0

    def test_flow_config_jobs_reaches_method_configs(self, library):
        from repro import make_optimizer

        ctx = _ctx(build_adder(8), library)
        cfg = FlowConfig(effort=0.2, jobs=3)
        assert make_optimizer("Ours", ctx, cfg).config.jobs == 3
        assert make_optimizer("VaACS", ctx, cfg).config.jobs == 3
        assert make_optimizer("HEDALS", ctx, cfg).config.jobs == 3
