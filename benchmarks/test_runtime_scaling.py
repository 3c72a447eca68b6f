"""Runtime scaling of the DCGWO flow with circuit size and worker count.

The paper's §IV summary claims the framework "maintains low time
consumption" thanks to the fast LAC implementation on adjacency lists
and the parallelism-friendly GWO structure.  This bench measures two
things:

* **size scaling** — wall-clock of one full DCGWO run (fixed small
  budget) across circuits of increasing gate count: seconds,
  seconds-per-gate, and candidate evaluations per second (the metric
  the incremental evaluation engine directly improves), so regressions
  in the evaluation hot path show up as super-linear growth or an
  evals/s collapse;
* **shard scaling** — the same run on the two largest circuits with the
  multi-process shard dispatcher at ``jobs`` = 2 and 4 versus serial.
  Worker pools are created and warmed *outside* the timed region (the
  dispatcher is a persistent pool; steady-state throughput is what a
  long optimization sees), and every parallel run is asserted
  bit-identical to the serial one before its throughput is reported.
  Speedups are meaningful only when the host grants the process that
  many cores — the available core count is printed alongside.
* **generation batching** — one generation of LAC children on the
  reference parent evaluated through the stacked-value-matrix batch
  walk vs. the sequential incremental loop, asserted bit-identical
  before either throughput is reported.  The bench fails if batching
  ever drops below the sequential path it exists to beat.
* **transport size** — pickled bytes of one shard-packed child eval
  (the unit that crosses a worker pipe every generation), next to what
  the same eval would cost with the pre-SoA per-gate timing dicts, and
  the value payload alone (dense matrix vs the PR-3 keyed row packing).
  Tracked alongside evals/s so packing regressions are as visible as
  throughput regressions.
* **warm cache** — the same generation evaluated cold (write-through
  into a fresh evaluation lake) and then warm from a fresh process-like
  handle on that lake (empty index and LRU, so every hit comes off
  disk).  The warm pass is asserted bit-identical to the uncached one
  and must clear a >50% batch hit rate before its throughput is
  reported.
"""

import os
import pickle
import random
import tempfile
import time

import numpy as np

from _common import num_vectors, publish, seed

from repro.bench import ripple_adder_circuit
from repro.cells import default_library
from repro.core import (
    DCGWO,
    DCGWOConfig,
    EvalContext,
    LAC,
    applied_copy,
    close_dispatcher,
    evaluate_batch,
    evaluate_incremental,
    get_dispatcher,
    is_safe,
)
from repro.core.parallel import _pack_eval
from repro.lake import EvalCache
from repro.reporting import format_series
from repro.sim import ErrorMode, ValueStore, best_switch
from repro.sta import update_timing, update_timing_batch

WIDTHS = (8, 16, 32, 64, 128)
PARALLEL_WIDTHS = (64, 128)
PARALLEL_JOBS = (2, 4)
#: Children per generation for the batched-vs-sequential row (the
#: paper's N=30 population, cones overlapping on one parent).
GENERATION_SIZE = 30


def _available_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def _build_ctx(width, library):
    circuit = ripple_adder_circuit(width)
    return circuit, EvalContext.build(
        circuit, library, ErrorMode.NMED,
        num_vectors=num_vectors(), seed=seed(),
    )


def _timed_run(ctx, jobs, repeats=2):
    """Best-of-``repeats`` wall clock for one seeded DCGWO run.

    Runs are deterministic (identical results every repeat — the
    determinism suites pin this), so the minimum is a pure
    noise-reduction: it reports steady-state throughput instead of
    whatever the container's scheduler did to a single sample.
    """
    cfg = DCGWOConfig(
        population_size=8, imax=4, seed=seed(), jobs=jobs
    )
    result, elapsed = None, float("inf")
    for _ in range(max(repeats, 1)):
        start = time.perf_counter()
        result = DCGWO(ctx, 0.0244, cfg).optimize()
        elapsed = min(elapsed, time.perf_counter() - start)
    return result, elapsed


def _signature(result):
    return (
        result.best.fitness,
        result.best.error,
        result.best.circuit.structure_key(),
        result.evaluations,
        tuple(result.history),
    )


def run_scaling():
    library = default_library()
    rows = {
        "gates": [],
        "seconds": [],
        "ms_per_gate": [],
        "evals_per_s": [],
    }
    for width in WIDTHS:
        circuit, ctx = _build_ctx(width, library)
        # jobs=1 pins the baseline serial even if REPRO_JOBS is set.
        result, elapsed = _timed_run(ctx, jobs=1)
        rows["gates"].append(float(circuit.num_gates))
        rows["seconds"].append(elapsed)
        rows["ms_per_gate"].append(1000.0 * elapsed / circuit.num_gates)
        rows["evals_per_s"].append(result.evaluations / elapsed)
    return rows


def _generation(ctx, count, rng_seed=11):
    """``count`` similarity-guided LAC children of the reference."""
    rng = random.Random(rng_seed)
    parent = ctx.reference_eval()
    circuit = ctx.reference
    logic = circuit.logic_ids()
    children = []
    while len(children) < count:
        target = logic[rng.randrange(len(logic))]
        found = best_switch(
            circuit, parent.values, target, ctx.vectors.num_vectors
        )
        if found is None:
            continue
        lac = LAC(target=target, switch=found[0])
        if is_safe(circuit, lac):
            children.append(applied_copy(circuit, lac))
    return children


def _same_eval(a, b):
    if (
        a.fitness != b.fitness
        or a.error != b.error
        or a.report.cpd != b.report.cpd
        or a.per_po_error != b.per_po_error
    ):
        return False
    return all(
        np.array_equal(a.values[g], b.values[g])
        for g in a.circuit.gate_ids()
    )


def run_generation_batching():
    """Stacked-batch vs sequential-incremental generation throughput.

    One generation of ``GENERATION_SIZE`` LAC children whose cones all
    overlap on the reference parent — the workload the stacked value
    matrices target.  Bit-identity between the paths (and of the
    brood-level ``update_timing_batch`` against per-child
    ``update_timing``) is asserted before any number is reported.
    """
    library = default_library()
    rows = {
        "seq_gen_evals_per_s": [],
        "batch_gen_evals_per_s": [],
        "batch_speedup": [],
    }
    for width in PARALLEL_WIDTHS:
        _, ctx = _build_ctx(width, library)
        parent = ctx.reference_eval()
        children = _generation(ctx, GENERATION_SIZE)
        pairs = [
            (c.copy(), c.valid_provenance().changed) for c in children
        ]
        brood = update_timing_batch(ctx.sta, parent.report, pairs)
        for (c, ch), a in zip(pairs, brood):
            b = update_timing(ctx.sta, c, parent.report, ch)
            assert np.array_equal(a.arrival_a, b.arrival_a)
            assert np.array_equal(a.slew_a, b.slew_a)
            assert np.array_equal(a.load_a, b.load_a)
            assert np.array_equal(a.unit_depth_a, b.unit_depth_a)
            assert np.array_equal(a.critical_fanin_a, b.critical_fanin_a)
        # Identity first (copies carry the same provenance record).
        batch_evals = evaluate_batch(
            ctx, [(c.copy(), (parent,)) for c in children]
        )
        seq_evals = [
            evaluate_incremental(ctx, c.copy(), parent) for c in children
        ]
        assert all(
            isinstance(ev.values, ValueStore) for ev in batch_evals
        )
        assert all(_same_eval(a, b) for a, b in zip(batch_evals, seq_evals))
        best_seq = best_batch = float("inf")
        for _ in range(3):
            clones = [(c.copy(), (parent,)) for c in children]
            start = time.perf_counter()
            for circuit, parents in clones:
                evaluate_incremental(ctx, circuit, parents[0])
            best_seq = min(best_seq, time.perf_counter() - start)
            clones = [(c.copy(), (parent,)) for c in children]
            start = time.perf_counter()
            evaluate_batch(ctx, clones)
            best_batch = min(best_batch, time.perf_counter() - start)
        seq_rate = len(children) / best_seq
        batch_rate = len(children) / best_batch
        rows["seq_gen_evals_per_s"].append(seq_rate)
        rows["batch_gen_evals_per_s"].append(batch_rate)
        rows["batch_speedup"].append(batch_rate / seq_rate)
    return rows


def run_warm_cache():
    """Cold write-through vs warm hits for one generation via the lake.

    The cold pass evaluates a generation with an empty lake attached
    (paying STA + simulation + the segment write); the warm pass reuses
    the directory through a *fresh* :class:`EvalCache` (empty in-memory
    index and LRU — every record is found by directory refresh and read
    off disk, the cross-run scenario).  Bit-identity with the uncached
    evaluation and the >50% batch hit rate are asserted before either
    throughput is reported.
    """
    library = default_library()
    rows = {
        "cold_gen_evals_per_s": [],
        "warm_gen_evals_per_s": [],
        "warm_speedup": [],
        "warm_hit_rate": [],
    }
    for width in PARALLEL_WIDTHS:
        _, ctx = _build_ctx(width, library)
        parent = ctx.reference_eval()
        children = _generation(ctx, GENERATION_SIZE)
        ctx.lake = False  # the uncached baseline pays full price
        plain = evaluate_batch(
            ctx, [(c.copy(), (parent,)) for c in children]
        )
        with tempfile.TemporaryDirectory() as tmp:
            lake_dir = os.path.join(tmp, "lake")
            ctx.lake = EvalCache(lake_dir)
            clones = [(c.copy(), (parent,)) for c in children]
            start = time.perf_counter()
            cold = evaluate_batch(ctx, clones)
            cold_s = time.perf_counter() - start
            assert all(_same_eval(a, b) for a, b in zip(plain, cold))
            warm_lake = EvalCache(lake_dir)
            ctx.lake = warm_lake
            best_warm = float("inf")
            for _ in range(3):
                clones = [(c.copy(), (parent,)) for c in children]
                start = time.perf_counter()
                warm = evaluate_batch(ctx, clones)
                best_warm = min(best_warm, time.perf_counter() - start)
            assert all(_same_eval(a, b) for a, b in zip(plain, warm))
            counters = warm_lake.counters
            hit_rate = counters["hits"] / (
                counters["hits"] + counters["misses"]
            )
            assert hit_rate > 0.5
        ctx.lake = False
        cold_rate = len(children) / cold_s
        warm_rate = len(children) / best_warm
        rows["cold_gen_evals_per_s"].append(cold_rate)
        rows["warm_gen_evals_per_s"].append(warm_rate)
        rows["warm_speedup"].append(warm_rate / cold_rate)
        rows["warm_hit_rate"].append(hit_rate)
    return rows


def _legacy_pack_bytes(ev):
    """Pickled size of the pre-SoA packing (five per-gate timing dicts).

    The value matrix packing is kept (that was PR 3's win); only the
    timing store differs, so the delta isolates what the SoA arrays
    save on the wire.
    """
    packed = list(_pack_eval(ev))
    report = ev.report
    packed[1] = (
        dict(report.arrival.items()),
        dict(report.slew.items()),
        dict(report.load.items()),
        dict(report.unit_depth.items()),
        dict(report.critical_fanin.items()),
    )
    return len(pickle.dumps(tuple(packed)))


def run_transport_sizes():
    """Per-eval shard transport bytes: SoA arrays vs legacy dicts."""
    library = default_library()
    # Published in kB so values fit format_series's fixed-width columns.
    rows = {
        "soa_kb": [],
        "dict_kb": [],
        "ratio": [],
        "rpt_soa_kb": [],
        "rpt_dict_kb": [],
        "val_dense_kb": [],
        "val_keyed_kb": [],
        "val_ratio": [],
    }
    for width in PARALLEL_WIDTHS:
        circuit, ctx = _build_ctx(width, library)
        parent = ctx.reference_eval()
        # A representative generation member: one LAC off the parent.
        child = applied_copy(circuit, LAC(circuit.logic_ids()[-1], -1))
        ev = evaluate_incremental(ctx, child, parent)
        soa = len(pickle.dumps(_pack_eval(ev)))
        legacy = _legacy_pack_bytes(ev)
        rows["soa_kb"].append(soa / 1024.0)
        rows["dict_kb"].append(legacy / 1024.0)
        rows["ratio"].append(soa / legacy)
        # The value payload alone: dense matrix (no keys on the wire)
        # vs the PR-3 keyed row packing it replaced.
        values = ev.values
        dense = len(pickle.dumps(values.matrix))
        keyed = len(
            pickle.dumps(
                (
                    np.fromiter(
                        values.keys(), dtype=np.int64, count=len(values)
                    ),
                    np.stack(list(values.values())),
                )
            )
        )
        rows["val_dense_kb"].append(dense / 1024.0)
        rows["val_keyed_kb"].append(keyed / 1024.0)
        rows["val_ratio"].append(dense / keyed)
        # The timing report alone (what the SoA store changed).
        report = ev.report
        rows["rpt_soa_kb"].append(len(pickle.dumps(report.pack())) / 1024.0)
        rows["rpt_dict_kb"].append(
            len(
                pickle.dumps(
                    (
                        dict(report.arrival.items()),
                        dict(report.slew.items()),
                        dict(report.load.items()),
                        dict(report.unit_depth.items()),
                        dict(report.critical_fanin.items()),
                    )
                )
            )
            / 1024.0
        )
    return rows


def run_parallel_scaling():
    """Serial vs sharded evals/s on the two largest sweep circuits."""
    library = default_library()
    rows = {"serial_evals_per_s": []}
    for jobs in PARALLEL_JOBS:
        rows[f"jobs{jobs}_evals_per_s"] = []
        rows[f"jobs{jobs}_speedup"] = []
    for width in PARALLEL_WIDTHS:
        _, ctx = _build_ctx(width, library)
        serial_result, serial_s = _timed_run(ctx, jobs=1)
        serial_rate = serial_result.evaluations / serial_s
        rows["serial_evals_per_s"].append(serial_rate)
        for jobs in PARALLEL_JOBS:
            _, ctx = _build_ctx(width, library)
            get_dispatcher(ctx, jobs).warmup()  # outside the timed region
            result, elapsed = _timed_run(ctx, jobs=jobs)
            close_dispatcher(ctx)
            # The determinism contract is part of the bench: a speedup
            # that changed a single bit would be a bug, not a feature.
            assert _signature(result) == _signature(serial_result)
            rate = result.evaluations / elapsed
            rows[f"jobs{jobs}_evals_per_s"].append(rate)
            rows[f"jobs{jobs}_speedup"].append(rate / serial_rate)
    return rows


def test_runtime_scaling(benchmark):
    rows = benchmark.pedantic(
        run_scaling, rounds=1, iterations=1, warmup_rounds=0
    )
    parallel_rows = run_parallel_scaling()
    text = format_series(
        "DCGWO runtime scaling on ripple adders (fixed N=8, Imax=4)",
        "width",
        list(WIDTHS),
        rows,
    )
    text += "\n\n" + format_series(
        "Sharded evaluation throughput, serial vs jobs=2/4 "
        f"(warm pools; {_available_cores()} core(s) available)",
        "width",
        list(PARALLEL_WIDTHS),
        parallel_rows,
    )
    text += (
        "\nparallel runs asserted bit-identical to serial before "
        "throughput is reported"
    )
    generation_rows = run_generation_batching()
    text += "\n\n" + format_series(
        "Generation evaluation, stacked batch vs sequential incremental "
        f"({GENERATION_SIZE} LAC children on the reference parent; "
        "bit-identity asserted first)",
        "width",
        list(PARALLEL_WIDTHS),
        generation_rows,
    )
    transport_rows = run_transport_sizes()
    text += "\n\n" + format_series(
        "Per-eval shard transport (pickled kB: SoA timing arrays "
        "vs pre-SoA per-gate dicts)",
        "width",
        list(PARALLEL_WIDTHS),
        transport_rows,
    )
    warm_rows = run_warm_cache()
    text += "\n\n" + format_series(
        "Evaluation lake, cold write-through vs warm disk hits "
        f"({GENERATION_SIZE} LAC children; warm pass bit-identical "
        "to uncached and >50% batch hit rate asserted first)",
        "width",
        list(PARALLEL_WIDTHS),
        warm_rows,
    )
    publish("runtime_scaling", text)
    # The SoA packing must actually be smaller than the dict packing it
    # replaced — a transport regression fails the bench like a
    # throughput regression would.  Same for the dense value matrix vs
    # the keyed row packing.  The stacked batch walk must never drop
    # materially below the sequential incremental loop (the two share
    # the timing tail, which dominates; the 5% floor absorbs container
    # scheduling noise around the measured ~1.05-1.1x advantage).
    assert all(r < 1.0 for r in transport_rows["ratio"])
    assert all(r < 1.0 for r in transport_rows["val_ratio"])
    assert all(r >= 0.95 for r in generation_rows["batch_speedup"])
    # Warm lake hits skip STA and simulation entirely; if they ever get
    # slower than the cold write-through pass, the cache lost its point.
    assert all(r >= 1.0 for r in warm_rows["warm_speedup"])
    # Soft check: per-gate cost must stay within an order of magnitude
    # across a 16x size sweep (i.e. roughly linear overall scaling).
    per_gate = rows["ms_per_gate"]
    assert max(per_gate) <= 12 * min(per_gate)
