"""Generation-batched candidate evaluation (stacked value matrices).

Evaluating a whole candidate generation one circuit at a time repeats
the same structural work per child: the topological order, the fan-out
map, and the transitive-fan-out cone walks are all recomputed on every
candidate even though most of each child is identical to a shared
parent.  :func:`evaluate_batch` amortises that across the generation:

* children are grouped by the parent evaluation their provenance record
  points at (the error/timing *values* still come from each child's own
  changed cone, so grouping loses nothing);
* each group reuses the **parent's** cached row index, level schedule,
  fan-out map and TFO cones — the child never builds its own O(V+E)
  structures;
* all children of one parent simulate against a single stacked
  ``(B, rows, num_words)`` tensor forked from the parent's
  :class:`~repro.sim.store.ValueStore` matrix.  A dirty gate shared by
  several children is gathered and evaluated as **one** numpy op across
  all of them, and gates are grouped per topological level by cell
  function (the :func:`~repro.sta.store.timing_plan` analogue), so the
  Python dispatch cost is paid per (level, function) instead of per
  (gate, child);
* timing runs per child: :func:`repro.sta.update_timing_batch` walks
  each child's masked incremental frontier against the shared parent
  report;
* children in ``singles`` that share a full structure key are evaluated
  once per key and the result is shared by item index.

Correctness of the stacked value walk rests on two facts, both checked per
child with cheap O(cone) guards that fall back to
:func:`~repro.core.fitness.evaluate_incremental` when violated:

1. A child's dirty set (TFO of its changed gates) computed on the parent
   graph equals the one computed on the child graph: edges into an
   unchanged gate are identical in both, and changed gates are seeds.
2. The parent's topological *level* schedule remains a valid evaluation
   order for the child's dirty cone as long as every *changed* gate's
   fan-ins sit at a strictly lower parent level (unchanged gates inherit
   validity from the parent's own edges).  LACs always satisfy this —
   switches come from the target's TFI — and it is the same predicate
   :func:`repro.sta.update_timing` uses to reuse the parent's levels.

Results are **bit-identical** to the sequential incremental path (and
therefore to the full path): every gate value is a pure elementwise
bitwise word operation (``word_eval_many`` row-by-row equals
``word_eval`` exactly), evaluated after all of its fan-in rows, and the
metric tail runs through the same
:func:`~repro.core.fitness._finish_eval`.  Pinned by
``tests/test_session_api.py`` and ``tests/test_value_store.py``.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

import numpy as np

from ..analysis.sanitize import publish_array
from ..netlist import Circuit
from ..sim.bitsim import resimulate_cone
from ..sim.store import ValueStore, value_rows, value_store_index
from ..cells import FUNCTIONS, split_cell_name
from ..netlist import PI_CELL, PO_CELL
from ..sta import (
    TimingReport,
    shared_levels_valid,
    timing_levels,
    update_timing,
    update_timing_batch,
)
from .fitness import (
    CircuitEval,
    EvalContext,
    ParentEvals,
    _finish_eval,
    _match_parent,
    evaluate,
    evaluate_incremental,
)

#: One batch entry: the candidate circuit plus the parent eval(s) its
#: provenance record may point at (same contract as the incremental path).
BatchItem = Tuple[Circuit, ParentEvals]

#: Minimum (child, gate) pairs before a (level, function) group takes
#: the stacked kernel; smaller groups run the scalar row loop.  Both
#: are bit-identical (elementwise uint64 ops), so this is a pure perf
#: knob like :data:`repro.sta.store.VECTOR_MIN_GROUP`.
STACK_MIN_GROUP = 2

def _normalize_parents(parents: ParentEvals) -> Sequence[CircuitEval]:
    if parents is None:
        return ()
    if isinstance(parents, CircuitEval):
        return (parents,)
    return tuple(parents)


#: One provenance group: the matched parent eval plus its children as
#: ``(item_index, circuit, changed_gate_ids)`` triples.
ParentGroup = Tuple[CircuitEval, List[Tuple[int, Circuit, FrozenSet[int]]]]


def group_by_parent(
    items: Sequence[BatchItem],
) -> Tuple[List[ParentGroup], List[Tuple[int, Circuit]]]:
    """Partition a generation into provenance groups.

    Children whose provenance record matches one of their offered parent
    evals are grouped under that parent (groups appear in first-seen
    parent order, children in item order); everything else — missing,
    stale, or unmatched provenance — lands in ``singles`` and must be
    fully evaluated.  This is the partition both the in-process batch
    walk below and the multi-process shard dispatcher
    (:mod:`repro.core.parallel`) schedule from, so the two backends
    agree on which child takes which evaluation path.
    """
    groups: List[ParentGroup] = []
    index_of: Dict[int, int] = {}
    singles: List[Tuple[int, Circuit]] = []
    for i, (circuit, parents) in enumerate(items):
        match = _match_parent(circuit, _normalize_parents(parents))
        if match is None:
            singles.append((i, circuit))
            continue
        parent, changed = match
        key = id(parent)
        slot = index_of.get(key)
        if slot is None:
            slot = len(groups)
            index_of[key] = slot
            groups.append((parent, []))
        groups[slot][1].append((i, circuit, changed))
    return groups, singles


#: A dispatch record: (level, function-or-None-for-PO, row, fan-in rows).
_GateRec = Tuple[int, Optional[str], int, Tuple[int, ...]]


def _batch_against_parent(
    ctx: EvalContext,
    parent: CircuitEval,
    group: List[Tuple[int, Circuit, FrozenSet[int]]],
    out: List[Optional[CircuitEval]],
) -> None:
    """Evaluate one parent's children on one stacked value tensor."""
    pc = parent.circuit
    pvals = parent.values
    index = pvals.index
    levels = pc._cached("timing_levels")
    if levels is None and not pc.gid_order_topo():
        levels = timing_levels(pc)
    if levels is not None:
        level_of = levels.level_of
        recs_key = "batch_value_recs"
    else:
        # Rows are sorted gate IDs; on a gid-topological parent (every
        # population member) "one row per level" is already a valid
        # stratification, so a fresh chase parent never pays the
        # O(V+E) level build just to schedule its few children.  An
        # already-memoized level schedule (the reference parent) is
        # still preferred — it groups wide levels into fewer buckets.
        # The record memo is keyed per schedule kind: records embed
        # level numbers, and mixing the two schedules would interleave
        # incomparable keys.
        level_of = np.arange(index.n, dtype=np.int32)
        recs_key = "batch_value_recs_rows"
    row_of = index.row
    vrows = value_rows(index)

    ready: List[Tuple[int, Circuit, Set[int], FrozenSet[int]]] = []
    for item_index, circuit, changed in group:
        if (
            not circuit.same_gid_set(pc)
            or not shared_levels_valid(level_of, row_of, circuit, changed)
        ):
            # Structure diverged beyond what the stacked walk covers
            # (gates added/removed, or a rewrite against the parent's
            # level order): this child takes the sequential path, same
            # results.
            out[item_index] = evaluate_incremental(ctx, circuit, parent)
            continue
        dirty: Set[int] = set()
        for gid in changed:
            if gid >= 0:
                # The parent's memoized TFO equals the child's here (see
                # module docstring), so cone walks are shared too.
                dirty |= pc.transitive_fanout(gid, include_self=True)
        ready.append((item_index, circuit, dirty, changed))
    if not ready:
        return

    if len(ready) == 1:
        # A one-child group gains nothing from stacking; reuse the
        # sequential dirty-row walk (one shared kernel, same bits) with
        # the cone already computed on the parent's structures.  DCGWO
        # chase children mostly pair distinct parents, so this is hot.
        item_index, circuit, dirty, changed = ready[0]
        values = resimulate_cone(
            circuit, ctx.vectors, pvals, changed, dirty=dirty
        )
        report = update_timing(ctx.sta, circuit, parent.report, changed)
        out[item_index] = _finish_eval(ctx, circuit, report, values)
        return

    # Every child starts as a full copy of the parent's matrix (PI and
    # constant rows included), then only dirty rows are overwritten —
    # the tensor analogue of `dict(parent.values)` per child.
    matrix = pvals.matrix
    stacked = np.empty((len(ready),) + matrix.shape, dtype=matrix.dtype)
    stacked[:] = matrix

    # Dispatch: bucket every (child, dirty gate) pair per (level,
    # function).  Records for *unchanged* gates are a pure function of
    # the parent structure, memoized on the parent across generations;
    # changed gates read the child's own cell/fan-ins.
    recs: Dict[int, Optional[_GateRec]] = pc._cached(recs_key)
    if recs is None:
        recs = pc._store(recs_key, {})
    pcells = pc.cells
    pfanins = pc.fanins
    func_buckets: Dict[Tuple[int, str], List[Tuple[int, int, Tuple[int, ...]]]] = {}
    po_buckets: Dict[int, List[Tuple[int, int, int]]] = {}
    for k, (_, circuit, dirty, changed) in enumerate(ready):
        ccells = circuit.cells
        cfanins = circuit.fanins
        for gid in dirty:
            if gid in changed:
                cell = ccells[gid]
                if cell == PI_CELL:
                    continue
                r = row_of[gid]
                lv = int(level_of[r])
                fis = cfanins[gid]
                if cell == PO_CELL:
                    po_buckets.setdefault(lv, []).append(
                        (k, r, vrows[fis[0]])
                    )
                    continue
                function, _ = split_cell_name(cell)
                func_buckets.setdefault((lv, function), []).append(
                    (k, r, tuple(vrows[fi] for fi in fis))
                )
                continue
            rec = recs.get(gid, False)
            if rec is False:
                cell = pcells[gid]
                if cell == PI_CELL:
                    rec = None
                else:
                    r = row_of[gid]
                    lv = int(level_of[r])
                    fis = pfanins[gid]
                    if cell == PO_CELL:
                        rec = (lv, None, r, (vrows[fis[0]],))
                    else:
                        function, _ = split_cell_name(cell)
                        rec = (
                            lv,
                            function,
                            r,
                            tuple(vrows[fi] for fi in fis),
                        )
                # lint: allow[R1] append-only memo fill, version-scoped
                recs[gid] = rec
            if rec is None:
                continue
            lv, function, r, frows = rec
            if function is None:
                po_buckets.setdefault(lv, []).append((k, r, frows[0]))
            else:
                func_buckets.setdefault((lv, function), []).append(
                    (k, r, frows)
                )

    # Execute level by level; within a level, groups are independent
    # (all fan-ins sit at lower levels) and each (child, row) pair is
    # written exactly once, so bucket order cannot change any bit.
    by_level: Dict[int, List[str]] = {}
    for lv, function in func_buckets:
        by_level.setdefault(lv, []).append(function)
    for lv in sorted(set(by_level) | set(po_buckets)):
        for function in sorted(by_level.get(lv, ())):
            pairs = func_buckets[(lv, function)]
            fn = FUNCTIONS[function]
            if len(pairs) >= STACK_MIN_GROUP:
                ks = np.array([p[0] for p in pairs], dtype=np.int64)
                rows = np.array([p[1] for p in pairs], dtype=np.int64)
                frows = np.array([p[2] for p in pairs], dtype=np.int64)
                gathered = stacked[ks[:, None], frows]  # (P, arity, W)
                stacked[ks, rows] = fn.word_eval_many(
                    [gathered[:, j] for j in range(frows.shape[1])]
                )
            else:
                word_eval = fn.word_eval
                for k, r, frows in pairs:
                    child_matrix = stacked[k]
                    child_matrix[r] = word_eval(
                        [child_matrix[f] for f in frows]
                    )
        po_pairs = po_buckets.get(lv)
        if po_pairs:
            ks = np.array([p[0] for p in po_pairs], dtype=np.int64)
            rows = np.array([p[1] for p in po_pairs], dtype=np.int64)
            srcs = np.array([p[2] for p in po_pairs], dtype=np.int64)
            stacked[ks, rows] = stacked[ks, srcs]

    # Timing per child against the shared parent report, then the
    # metric tail; each child takes its own matrix copy so an archived
    # eval never pins the whole generation's tensor.
    reports = update_timing_batch(
        ctx.sta,
        parent.report,
        [(circuit, changed) for _, circuit, _, changed in ready],
    )
    for k, (item_index, circuit, _, changed) in enumerate(ready):
        store = ValueStore(index, publish_array(stacked[k].copy()))
        out[item_index] = _finish_eval(ctx, circuit, reports[k], store)


def _evaluate_batch_core(
    ctx: EvalContext, items: Sequence[BatchItem]
) -> List[CircuitEval]:
    """The cache-oblivious batch evaluator (see :func:`evaluate_batch`)."""
    out: List[Optional[CircuitEval]] = [None] * len(items)
    groups, singles = group_by_parent(items)
    first_of: Dict[bytes, int] = {}
    for i, circuit in singles:
        key = circuit.full_structure_key()
        j = first_of.get(key)
        if j is None:
            first_of[key] = i
            out[i] = evaluate(ctx, circuit)
        else:
            # Mirror _finish_eval's provenance release on the duplicate
            # (its record was never consumed), then hand the item its
            # own eval record: metrics/report/values are shared with
            # the evaluated twin (read-only, and identical floats by
            # full-structure equality), but ``eval.circuit`` stays the
            # circuit passed at this index so identity-keyed callers
            # and future provenance matches against it keep working.
            circuit.provenance = None
            first = out[j]
            out[i] = replace(
                first, circuit=circuit, circuit_version=circuit.version
            )
    for parent, group in groups:
        _batch_against_parent(ctx, parent, group, out)
    return out  # type: ignore[return-value]


def _rebuild_cached_eval(
    ctx: EvalContext, circuit: Circuit, payload: Tuple
) -> Optional[CircuitEval]:
    """Turn a lake payload back into a live eval for ``circuit``.

    The payload holds only context-key-pure data (the five SoA timing
    arrays and the dense value matrix); the metric tail is re-run
    through the same :func:`~repro.core.fitness._finish_eval` every
    computed path uses, so a hit is bit-identical to a fresh
    evaluation by construction.  The report and store are rebuilt on
    the *requesting* circuit's memoized row index and current version —
    a cached record never leaks its original circuit object.  Returns
    ``None`` (caller recomputes) if the payload's shape does not match
    the circuit — defense in depth; the composite key already rules
    this out short of digest collisions.
    """
    try:
        arrival, slew, load, unit_depth, critical, matrix = payload
    except (TypeError, ValueError):
        return None
    index = value_store_index(circuit)
    if (
        getattr(arrival, "shape", None) != (index.n + 1,)
        or getattr(matrix, "shape", (0,))[0] != index.n + 2
    ):
        return None
    report = TimingReport(
        circuit,
        index,
        arrival,
        slew,
        load,
        unit_depth,
        critical,
        circuit.version,
    )
    # Lake payloads arrive writable (pickle round-trip): republish.
    values = ValueStore(index, publish_array(matrix))
    return _finish_eval(ctx, circuit, report, values)


def _store_new_evals(
    cache, lib: bytes, vec: bytes,
    keys: Sequence[bytes], evals: Sequence[CircuitEval],
) -> None:
    """Write freshly computed evals through to the lake."""
    entries = []
    seen: Set[bytes] = set()
    for key, ev in zip(keys, evals):
        if key in seen:
            continue
        seen.add(key)
        entries.append((key, (*ev.report.pack()[:5], ev.values.matrix)))
    if entries:
        cache.put_many(lib, vec, entries)


def evaluate_batch(
    ctx: EvalContext, items: Sequence[BatchItem]
) -> List[CircuitEval]:
    """Evaluate a generation of candidates with shared structural work.

    ``items`` pairs each candidate circuit with the parent eval(s) its
    provenance may match (exactly what the sequential loop would pass to
    :func:`~repro.core.fitness.evaluate_incremental`).  Children sharing
    a matched parent are evaluated on one stacked value tensor;
    unmatched or structurally-diverged children fall back to the
    sequential path.  Full-evaluation singles that share a *complete*
    structure (:meth:`~repro.netlist.Circuit.full_structure_key`, which
    covers dangling gates — two live-equal circuits can still differ in
    dangling loads and therefore in timing) are evaluated once per key
    and the result shared by item index; a duplicate's metrics are the
    same floats a separate evaluation would produce, because evaluation
    is a pure function of the full structure.

    When the context has an evaluation lake attached (``cache=`` /
    ``cache_dir=`` on the session or config, or the ``REPRO_CACHE``
    environment), every item is first looked up by its
    ``(structure key, library digest, vector digest)`` address; hits
    skip STA and simulation entirely and re-run only the metric tail,
    misses are computed by the core path and written through.  Items
    sharing a key with a hit share one rebuilt report/value store,
    mirroring the singles dedup above.

    Returns one :class:`CircuitEval` per item, in order — bit-identical
    to evaluating each item with ``evaluate_incremental``, with or
    without a cache.
    """
    from ..lake import context_cache, context_digests

    cache = context_cache(ctx)
    if cache is None or not items:
        return _evaluate_batch_core(ctx, items)
    lib, vec = context_digests(ctx)
    keys = [circuit.full_structure_key() for circuit, _ in items]
    hits = cache.get_many(lib, vec, keys)
    out: List[Optional[CircuitEval]] = [None] * len(items)
    first_of: Dict[bytes, int] = {}
    miss_items: List[BatchItem] = []
    miss_pos: List[int] = []
    for i, ((circuit, parents), key) in enumerate(zip(items, keys)):
        payload = hits.get(key)
        rebuilt: Optional[CircuitEval] = None
        if payload is not None:
            j = first_of.get(key)
            if j is not None:
                # Same dedup contract as the core singles path: share
                # the rebuilt twin's report/values, keep this item's
                # own circuit, release its unconsumed provenance.
                circuit.provenance = None
                out[i] = replace(
                    out[j], circuit=circuit, circuit_version=circuit.version
                )
                continue
            rebuilt = _rebuild_cached_eval(ctx, circuit, payload)
        if rebuilt is None:
            miss_items.append((circuit, parents))
            miss_pos.append(i)
            continue
        first_of[key] = i
        out[i] = rebuilt
    if miss_items:
        computed = _evaluate_batch_core(ctx, miss_items)
        for pos, ev in zip(miss_pos, computed):
            out[pos] = ev
        _store_new_evals(
            cache, lib, vec, [keys[p] for p in miss_pos], computed
        )
    return out  # type: ignore[return-value]
