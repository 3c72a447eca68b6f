"""Incremental timing update after local netlist edits.

A LAC or a resize perturbs timing only in a cone: the gates whose fan-in
tuples changed, every gate whose capacitive load changed (the old and new
switch drivers, or a resized gate's fan-ins), and their transitive
fan-out.  This module re-propagates arrivals over exactly that set as a
level-ordered frontier walk over the structure-of-arrays timing store —
the same trick PrimeTime's incremental mode uses to make optimization
loops affordable, without ever touching the untouched rows.

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

from typing import Dict, Iterable, List, Sequence, Tuple

import numpy as np

from ..netlist import Circuit, PI_CELL, PO_CELL
from .analyzer import STAEngine, TimingReport
from .store import (
    TimingIndex,
    TimingLevels,
    VECTOR_MIN_GROUP,
    eval_gate_scalar,
    eval_gates_vector,
    shared_rows,
    timing_index,
    timing_levels,
)


class _PatchedFanouts:
    """The parent's memoized fan-out map with per-driver overrides.

    A copy-then-mutate child's fan-out lists differ from its parent's
    only for drivers touched by the changed gates' fan-in rewrites;
    rebuilding the whole O(V+E) map per child was the last per-child
    schedule build in the incremental hot path.  Only ``get`` is
    exposed — exactly what the load rederivation and the frontier walk
    consume.
    """

    __slots__ = ("base", "overrides")

    def __init__(self, base, overrides):
        self.base = base
        self.overrides = overrides

    def get(self, key, default=()):
        hit = self.overrides.get(key)
        if hit is not None:
            return hit
        return self.base.get(key, default)


def _shared_fanouts(
    circuit: Circuit,
    previous: TimingReport,
    changed: Iterable[int],
    same_rows: bool,
):
    """The child's fan-out map, patched from the parent's where possible.

    Requires the same preconditions as every other parent-structure
    reuse in this walk: the parent object is distinct, unmutated since
    its report, and shares the gate-ID set.  Consumer lists are
    reconstructed in the child's fan-in dict order (copies preserve the
    parent's insertion order, and a stable sort on the parent's
    position map restores it after membership edits), so the float
    accumulation order in the load rederivation — and therefore every
    load bit — matches a from-scratch :meth:`Circuit.fanouts` build.
    """
    parent = previous.circuit
    if (
        parent is circuit
        or not same_rows
        or parent.version != previous.circuit_version
    ):
        return circuit.fanouts()
    cached = circuit._cached("fanouts")
    if cached is not None:
        return cached
    parent_fo = parent.fanouts()
    parent_fanins = parent.fanins
    child_fanins = circuit.fanins
    changed_set = set()
    affected = set()
    for g in changed:
        if g < 0:
            continue
        changed_set.add(g)
        pf = parent_fanins.get(g, ())
        cf = child_fanins.get(g, ())
        if pf != cf:
            affected.update(pf)
            affected.update(cf)
    if not affected:
        return parent_fo
    pos = parent._cached("fanins_pos")
    if pos is None:
        pos = parent._store(
            "fanins_pos", {g: i for i, g in enumerate(parent_fanins)}
        )
    overrides = {}
    for d in affected:
        if d < 0:
            continue  # constant sources carry no load row
        base = parent_fo.get(d, ())
        # Multiplicity matters: a driver feeding two pins of one gate
        # appears twice in the consumer list (two pin loads).
        cons = [c for c in base if c not in changed_set]
        for g in changed_set:
            occ = child_fanins[g].count(d)
            if occ:
                cons.extend([g] * occ)
        cons.sort(key=pos.__getitem__)
        overrides[d] = cons
    return _PatchedFanouts(parent_fo, overrides)


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
    copies), dirty rows are seeded per level, and only rows whose
    fan-ins actually changed output are ever revisited.  When the child
    shares the parent's gate-ID set and its rewired fan-ins respect the
    parent's level order (every LAC does — switches come from the TFI),
    the parent's memoized :func:`timing_levels` drives the walk and the
    child never pays an O(V+E) schedule build of its own.
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
    fanouts = _shared_fanouts(circuit, previous, changed, same_rows)
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

    # Scheduling: process dirty rows level by level.  Priority: the
    # parent's *already-memoized* level assignment when it is still a
    # valid stratification of the child (the gate-ID set is unchanged
    # and every *rewired* fan-in sits at a strictly lower parent level
    # — LACs always qualify: switches come from the target's TFI);
    # otherwise, on a gid-topological circuit (every population
    # member), one-row-per-level over the sorted-gid rows — a valid
    # stratification with no O(V+E) build at all; only then a freshly
    # built schedule.  The walk's results are schedule-independent:
    # every gate is evaluated after its fan-ins either way.
    levels = None
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
            levels = plevels
    if levels is None:
        if circuit.gid_order_topo():
            # Kept local: the canonical timing_levels contract (level =
            # one past the deepest fan-in) still governs the memoized
            # schedule the full analyzer plans over.
            levels = TimingLevels(index, np.arange(n, dtype=np.int32), n)
        else:
            levels = timing_levels(circuit)

    level_of = levels.level_of
    buckets: List[List[int]] = [[] for _ in range(levels.num_levels)]
    for r in seeds:
        buckets[level_of[r]].append(r)

    # ``fanouts`` from above: the parent's map patched around the
    # changed gates (or the child's own when no parent is reusable).
    gids = index.gids
    fanins_map = circuit.fanins
    cells_map = circuit.cells
    lib_cell = engine.library.cell
    input_slew = engine.input_slew
    is_new = np.zeros(n, dtype=bool)
    is_new[new_rows] = True

    for lvl in range(levels.num_levels):
        bucket = buckets[lvl]
        if not bucket:
            continue
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
                            buckets[level_of[fr]].append(fr)
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
                        buckets[level_of[fr]].append(fr)

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
