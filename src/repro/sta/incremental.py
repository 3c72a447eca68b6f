"""Incremental timing update after local netlist edits.

A LAC or a resize perturbs timing only in a cone: the gates whose fan-in
tuples changed, every gate whose capacitive load changed (the old and new
switch drivers, or a resized gate's fan-ins), and their transitive
fan-out.  This module re-propagates arrivals over exactly that set as a
level-ordered frontier walk over the structure-of-arrays timing store —
the same trick PrimeTime's incremental mode uses to make optimization
loops affordable, without ever touching the untouched rows.

Per-child cost follows the provenance delta, not the circuit size: the
frontier is a heap of dirty rows keyed by level, so a walk touches only
the levels that hold dirty rows (a gid-topological child, whose rows
are their own levels, keys the heap on the row itself), and the
fan-out map the walk follows is the child's own
:meth:`~repro.netlist.Circuit.fanouts`, which a copy-then-mutate child
patches from its provenance parent's map and keeps as its memo.

Results are **bit-identical** to a fresh :meth:`STAEngine.analyze`; the
equivalence is pinned by tests on randomly mutated circuits.  Two rules
keep that contract airtight:

* the changed-predicate is *exact* equality — no tolerance.  A
  sub-epsilon arrival drift silently kept would let incremental floats
  diverge from the full path, which the old ``_TOL = 1e-12`` allowed.
* a gate propagates to its fan-outs when **any** of its four outputs
  (arrival, slew, unit depth, critical fan-in) changed.  Stopping on
  unchanged arrival/slew alone left downstream ``unit_depth`` /
  ``critical_fanin`` stale when a tie between fan-ins resolved
  differently after an upstream edit (equal-delay paths of different
  depth), diverging from full analysis in ``DepthMode.UNIT`` and in
  ``critical_path()`` backtraces.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from typing import Dict, Iterable, List, Sequence, Tuple

import numpy as np

from ..netlist import Circuit, PI_CELL, PO_CELL
from .analyzer import STAEngine, TimingReport
from .store import (
    TimingIndex,
    VECTOR_MIN_GROUP,
    eval_gate_scalar,
    eval_gates_vector,
    shared_rows,
    timing_index,
    timing_levels,
)


def _incremental_loads(
    engine: STAEngine,
    circuit: Circuit,
    previous: TimingReport,
    changed: Iterable[int],
    index: TimingIndex,
    same_rows: bool,
    fanouts,
) -> np.ndarray:
    """Load array of ``circuit``, rederiving only perturbed drivers.

    A fan-in rewrite or cell swap at gate ``g`` perturbs the loads of
    ``g``'s old and new fan-ins only; every other row keeps the load
    ``previous`` recorded.  Requires ``previous.circuit`` to be the
    *parent* object still at the report's structure version (so the old
    fan-in tuples are readable as they were analyzed) and an unchanged
    gate-ID set — in-place edits, parents mutated after the report, and
    add/remove children take the full O(E) recompute instead.
    Accumulation order per driver matches
    :meth:`STAEngine._loads_array` exactly, so the resulting floats are
    bit-identical to a full recompute.
    """
    parent = previous.circuit
    if (
        parent is circuit
        or not same_rows
        or parent.version != previous.circuit_version
    ):
        return engine._loads_array(circuit, index)
    loads = previous.load_a.copy()
    parent_fanins = parent.fanins
    child_fanins = circuit.fanins
    drivers = set()
    for g in changed:
        drivers.update(parent_fanins.get(g, ()))
        drivers.update(child_fanins.get(g, ()))
    cells = circuit.cells
    lib_cell = engine.library.cell
    wire = engine.wire_cap_per_fanout
    po_load = engine.po_load
    is_po = circuit.is_po
    row = index.row
    for d in drivers:
        if d < 0:
            continue
        total = 0.0
        for consumer in fanouts.get(d, ()):
            if is_po(consumer):
                pin_cap = po_load
            else:
                pin_cap = lib_cell(cells[consumer]).input_cap
            total += pin_cap + wire
        loads[row[d]] = total
    return loads


def update_timing(
    engine: STAEngine,
    circuit: Circuit,
    previous: TimingReport,
    changed_gates: Iterable[int],
) -> TimingReport:
    """Recompute timing after edits to ``changed_gates``' fan-ins/cells.

    ``previous`` must describe either the same circuit object before an
    in-place edit, or the parent a copy was forked from.  Load changes
    are discovered automatically by re-deriving the load map (only
    around the changed gates when the parent is available), so callers
    only list gates whose fan-in tuple or library cell was rewritten.

    The walk is a masked frontier over the SoA store: the parent's
    arrays are copied wholesale (five ``memcpy``s instead of five dict
    copies), dirty rows are pushed onto a heap keyed by ``(level,
    row)``, and each iteration pops one whole level, so the vectorized
    branch still sees every dirty row of a wide level at once.  Only
    rows whose fan-ins actually changed output are ever revisited.
    When the child shares the parent's gate-ID set and its rewired
    fan-ins respect the parent's level order (every LAC does —
    switches come from the TFI), the parent's memoized
    :func:`timing_levels` supplies the levels; otherwise a
    gid-topological child keys the heap on the bare row (each row is
    its own level), so the child never pays an O(V+E) schedule build
    or a per-level scan of its own.  The fan-out map comes from
    :meth:`Circuit.fanouts`, patched from the provenance parent's map
    and memoized on the child, so it is ready when the child becomes a
    parent.
    """
    changed: List[int] = list(changed_gates)
    pindex = previous.index
    parent = previous.circuit
    index = circuit._cached("timing_index")
    if index is None:
        # A copy-then-mutate child shares the parent's gate-ID set, so
        # the parent's dense index (which depends only on the sorted ID
        # set and the PO list) is reusable as-is — skipping a per-child
        # sort + row-dict build in the hottest path of the optimizer.
        # The gate-ID-set check is memoized per (child version, parent
        # version) pair — the hot path stops paying a full key-set
        # comparison per evaluation (it equals len(parent.fanins) ==
        # pindex.n by the version check, so the old explicit row-count
        # guard is subsumed).
        if (
            parent is not circuit
            and parent.version == previous.circuit_version
            and circuit.same_gid_set(parent)
            and circuit.po_ids == parent.po_ids
        ):
            index = circuit._store("timing_index", pindex)
        else:
            index = timing_index(circuit)
    n = index.n
    same_rows = index is pindex or np.array_equal(index.gids, pindex.gids)
    # Patched from the provenance parent's map when the record allows
    # (see Circuit.fanouts), and memoized as the child's own.
    fanouts = circuit.fanouts()
    loads = _incremental_loads(
        engine, circuit, previous, changed, index, same_rows, fanouts
    )

    arr = np.empty(n + 1, dtype=np.float64)
    slew = np.empty(n + 1, dtype=np.float64)
    depth = np.empty(n + 1, dtype=np.int32)
    cf = np.empty(n + 1, dtype=np.int32)
    old_loads = np.empty(n, dtype=np.float64)
    if same_rows:
        arr[:n] = previous.arrival_a[:n]
        slew[:n] = previous.slew_a[:n]
        depth[:n] = previous.unit_depth_a[:n]
        cf[:n] = previous.critical_fanin_a[:n]
        old_loads[:] = previous.load_a[:n]
        new_rows = np.empty(0, dtype=np.int64)
    else:
        # Gates removed since the previous report simply have no row;
        # gates added (none from LACs, but e.g. post-opt flows) land on
        # fresh rows, start from placeholders and are seeded dirty.
        pn = pindex.n
        shared, src = shared_rows(pindex, index)
        head = arr[:n]
        head[shared] = previous.arrival_a[:pn][src]
        head[~shared] = 0.0
        head = slew[:n]
        head[shared] = previous.slew_a[:pn][src]
        head[~shared] = engine.input_slew
        head = depth[:n]
        head[shared] = previous.unit_depth_a[:pn][src]
        head[~shared] = 0
        head = cf[:n]
        head[shared] = previous.critical_fanin_a[:pn][src]
        head[~shared] = -1
        old_loads[shared] = previous.load_a[:pn][src]
        old_loads[~shared] = -1.0
        new_rows = np.flatnonzero(~shared)
    arr[n] = 0.0
    slew[n] = engine.input_slew
    depth[n] = 0
    cf[n] = -1

    row_of = index.row
    queued = np.zeros(n, dtype=bool)
    seeds: List[int] = []

    def _seed(r: int) -> None:
        if not queued[r]:
            queued[r] = True
            seeds.append(r)

    for g in changed:
        if g >= 0:
            r = row_of.get(g)
            if r is not None:
                _seed(r)
    # Exact comparison: any load delta, however tiny, dirties the gate.
    for r in np.flatnonzero(loads[:n] != old_loads):
        _seed(int(r))
    for r in new_rows:
        _seed(int(r))

    # Nothing perturbed and no new gates: the previous timing stands.
    if not seeds:
        return TimingReport(
            circuit, index, arr, slew, loads, depth, cf, circuit.version
        )

    # Scheduling: the frontier is a heap keyed by level, popped one
    # whole level at a time, so only levels that hold dirty rows cost
    # anything.  The level assignment, in order of preference: the
    # parent's *already-memoized* levels when they are still a valid
    # stratification of the child (the gate-ID set is unchanged and
    # every *rewired* fan-in sits at a strictly lower parent level —
    # LACs always qualify: switches come from the target's TFI);
    # otherwise, on a gid-topological circuit (every population
    # member), each sorted-gid row is its own level and the heap holds
    # bare rows — no O(V+E) build and no per-child level array at all;
    # only then a freshly built schedule.  The walk's results are
    # schedule-independent: every gate is evaluated after its fan-ins
    # either way, and rows of one level never feed each other.
    level_of = None
    parent_reusable = (
        same_rows
        and parent is not circuit
        and parent.version == previous.circuit_version
    )
    if parent_reusable:
        plevels = parent._cached("timing_levels")
        if plevels is None and not circuit.gid_order_topo():
            plevels = timing_levels(parent)
        if plevels is not None and shared_levels_valid(
            plevels.level_of, row_of, circuit, changed
        ):
            level_of = plevels.level_of
    if level_of is None and not circuit.gid_order_topo():
        level_of = timing_levels(circuit).level_of
    if level_of is None:
        heap = seeds
    else:
        heap = [(int(level_of[r]), r) for r in seeds]
    heapify(heap)

    gids = index.gids
    fanins_map = circuit.fanins
    cells_map = circuit.cells
    lib_cell = engine.library.cell
    input_slew = engine.input_slew
    is_new = np.zeros(n, dtype=bool)
    is_new[new_rows] = True

    while heap:
        if level_of is None:
            bucket = [heappop(heap)]
        else:
            lvl = heap[0][0]
            bucket = []
            while heap and heap[0][0] == lvl:
                bucket.append(heappop(heap)[1])
        if len(bucket) >= VECTOR_MIN_GROUP:
            # Wide frontier level: gather same-cell gates and run the
            # batched NLDM kernel instead of per-gate scalar table
            # walks.  Sub-threshold groups (and PI/PO rows) fall back
            # to the scalar walk below — bit-identical either way, so
            # this is a pure perf knob like the analyzer's.
            groups: Dict[Tuple[str, int], List[int]] = {}
            rest: List[int] = []
            for r in bucket:
                cell_name = cells_map[int(gids[r])]
                if cell_name == PI_CELL or cell_name == PO_CELL:
                    rest.append(r)
                else:
                    key = (cell_name, len(fanins_map[int(gids[r])]))
                    groups.setdefault(key, []).append(r)
            for (cell_name, kk), rows_list in groups.items():
                g = len(rows_list)
                if g < VECTOR_MIN_GROUP:
                    rest.extend(rows_list)
                    continue
                rows_a = np.array(rows_list, dtype=np.int64)
                frows = np.empty((g, kk), dtype=np.int64)
                fgids = np.empty((g, kk), dtype=np.int32)
                for i, r in enumerate(rows_list):
                    for j, fi in enumerate(fanins_map[int(gids[r])]):
                        if fi < 0:
                            frows[i, j] = n
                            fgids[i, j] = -1
                        else:
                            frows[i, j] = row_of[fi]
                            fgids[i, j] = fi
                na_v, ns_v, nd_v, ncf_v = eval_gates_vector(
                    lib_cell(cell_name),
                    arr[frows],
                    slew[frows],
                    depth[frows],
                    fgids,
                    loads[rows_a],
                )
                changed_mask = (
                    is_new[rows_a]
                    | (na_v != arr[rows_a])
                    | (ns_v != slew[rows_a])
                    | (nd_v != depth[rows_a])
                    | (ncf_v != cf[rows_a])
                )
                arr[rows_a] = na_v
                slew[rows_a] = ns_v
                depth[rows_a] = nd_v
                cf[rows_a] = ncf_v
                for i in np.flatnonzero(changed_mask):
                    for fo in fanouts.get(int(gids[rows_list[i]]), ()):
                        fr = row_of[fo]
                        if not queued[fr]:
                            queued[fr] = True
                            heappush(
                                heap,
                                fr if level_of is None
                                else (int(level_of[fr]), fr),
                            )
            bucket = rest
        for r in bucket:
            gid = int(gids[r])
            cell_name = cells_map[gid]
            fis = fanins_map[gid]
            if cell_name == PI_CELL:
                na, ns, nd, ncf = 0.0, input_slew, 0, -1
            elif cell_name == PO_CELL:
                src = fis[0]
                if src < 0:
                    na, ns, nd, ncf = 0.0, input_slew, 0, -1
                else:
                    sr = row_of[src]
                    na = float(arr[sr])
                    ns = float(slew[sr])
                    nd = int(depth[sr])
                    ncf = src
            else:
                fan_timing = []
                for fi in fis:
                    if fi < 0:
                        fan_timing.append((0.0, input_slew, 0, -1))
                    else:
                        fr = row_of[fi]
                        fan_timing.append(
                            (
                                float(arr[fr]),
                                float(slew[fr]),
                                int(depth[fr]),
                                fi,
                            )
                        )
                na, ns, nd, ncf = eval_gate_scalar(
                    lib_cell(cell_name), fan_timing, float(loads[r]), input_slew
                )
            # Propagate when ANY of the four outputs changed, compared
            # exactly — the stale-depth/backtrace and tolerance-drift
            # bugs both lived in this predicate.
            out_changed = (
                is_new[r]
                or na != arr[r]
                or ns != slew[r]
                or nd != depth[r]
                or ncf != cf[r]
            )
            arr[r] = na
            slew[r] = ns
            depth[r] = nd
            cf[r] = ncf
            if out_changed:
                for fo in fanouts.get(gid, ()):
                    fr = row_of[fo]
                    if not queued[fr]:
                        queued[fr] = True
                        heappush(
                            heap,
                            fr if level_of is None
                            else (int(level_of[fr]), fr),
                        )

    return TimingReport(
        circuit, index, arr, slew, loads, depth, cf, circuit.version
    )


def shared_levels_valid(
    level_of: np.ndarray,
    row_of: Dict[int, int],
    circuit: Circuit,
    changed: Iterable[int],
) -> bool:
    """Can the parent's level schedule drive this child's dirty cone?

    Only the *changed* gates can have rewired fan-ins; every one of
    them (and each of its non-constant fan-ins) must exist in the
    parent index with the fan-in at a strictly lower level.  Unchanged
    gates carry the parent's edges and are valid by construction.  This
    is the predicate :func:`update_timing` applies before reusing the
    parent's levels — every LAC passes it — shared with the stacked
    value walk in :mod:`repro.core.batch`.
    """
    fanins = circuit.fanins
    for gid in changed:
        if gid < 0:
            continue
        rg = row_of.get(gid)
        fis = fanins.get(gid)
        if rg is None or fis is None:
            return False
        lg = level_of[rg]
        for fi in fis:
            if fi < 0:
                continue
            rf = row_of.get(fi)
            if rf is None or level_of[rf] >= lg:
                return False
    return True


def update_timing_batch(
    engine: STAEngine,
    previous: TimingReport,
    children: Sequence[Tuple[Circuit, Iterable[int]]],
) -> List[TimingReport]:
    """Incremental timing for a whole brood of one parent.

    ``children`` pairs each child circuit with its changed-gate set,
    exactly what per-child :func:`update_timing` calls would receive
    against the shared ``previous`` report; returns one report per
    child, in order.  Each child runs its own frontier walk.
    """
    return [update_timing(engine, c, previous, ch) for c, ch in children]
