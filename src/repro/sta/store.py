"""Structure-of-arrays timing store shared by all STA paths.

Timing results used to live in five per-gate Python dicts; copying them
per evaluation and pickling them across shard-worker pipes was the last
un-packed transport cost in the evaluation hot path.  This module is the
dense array replacement:

* :class:`TimingIndex` — a dense gate-id → row mapping (rows are the
  *sorted* gate IDs, so any two circuits over the same ID set agree on
  row numbering regardless of dict insertion order).  Memoized per
  circuit structure version alongside ``topological_order()``.
* :class:`TimingPlan` — the level-ordered evaluation schedule for
  vectorized arrival propagation: gates grouped per topological level
  and per (cell, arity), with fan-in gather matrices prebuilt (constants
  gather from a sentinel row appended past the real rows).  Also
  memoized per structure version.
* :func:`lookup_many` — batched NLDM bilinear interpolation that is
  **bit-identical** to :meth:`NLDMTable.lookup` (same index selection,
  same IEEE-754 operation order), so vectorized and scalar propagation
  may be mixed freely without perturbing a single float.
* Read-only mapping views (:class:`FloatArrayMap` & friends) that keep
  the historical ``report.arrival[gid]`` dict API working on top of the
  arrays.

Array layout contract: every timing array has ``index.n + 1`` rows; row
``index.row[gid]`` holds gate ``gid`` and the final row is the constant
source sentinel (arrival 0.0, slew = engine input slew, depth 0).  The
arrays are treated as read-only once a report is published — consumers
that need to mutate must copy (``update_timing`` does).
"""

from __future__ import annotations

import weakref
from collections.abc import Mapping
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from ..netlist import Circuit, PI_CELL, PO_CELL

#: Cell groups at or above this size take the vectorized NLDM kernel;
#: smaller groups run the scalar lookup loop.  Both kernels are
#: bit-identical (pinned by tests), so this is a pure perf knob: thin
#: levels (ripple carry chains) stay scalar, wide levels vectorize.
VECTOR_MIN_GROUP = 8


class TimingIndex:
    """Dense gate-id → row index over one circuit structure.

    Attributes:
        gids: sorted gate IDs, one per row (``int64``).
        row: ``gid -> row`` lookup dict.
        po_rows: rows of the circuit's POs, in ``po_ids`` order.
        n: number of real rows (timing arrays carry ``n + 1`` — the
            extra row is the constant-source sentinel; value matrices
            carry ``n + 2``, one sentinel row per constant).
        vrow: lazily-built ``gid -> row`` map extended with the two
            constant value rows (see :func:`repro.sim.store.value_rows`;
            cached here because indices are shared parent → child).
    """

    __slots__ = ("gids", "row", "po_rows", "n", "vrow")

    def __init__(self, gids: np.ndarray, row: Dict[int, int], po_rows: np.ndarray):
        self.gids = gids
        self.row = row
        self.po_rows = po_rows
        self.n = int(len(gids))
        self.vrow: Optional[Dict[int, int]] = None


def timing_index(circuit: Circuit) -> TimingIndex:
    """The circuit's :class:`TimingIndex`, memoized per structure version."""
    cached = circuit._cached("timing_index")
    if cached is not None:
        return cached
    fanins = circuit.fanins
    gids = np.fromiter(fanins.keys(), dtype=np.int64, count=len(fanins))
    gids.sort()
    row = {int(g): i for i, g in enumerate(gids)}
    po_rows = np.fromiter(
        (row[p] for p in circuit.po_ids),
        dtype=np.int64,
        count=len(circuit.po_ids),
    )
    return circuit._store("timing_index", TimingIndex(gids, row, po_rows))


class TimingLevels:
    """Topological level assignment over one circuit structure.

    The cheap half of the propagation schedule: ``level_of[row]`` is one
    past the gate's deepest non-constant fan-in.  The incremental path
    only needs this (its frontier walk is scalar); the full analyzer
    builds the batched :class:`TimingPlan` on top.
    """

    __slots__ = ("index", "level_of", "num_levels")

    def __init__(self, index: TimingIndex, level_of: np.ndarray, num_levels: int):
        self.index = index
        self.level_of = level_of
        self.num_levels = num_levels


def timing_levels(circuit: Circuit) -> TimingLevels:
    """The circuit's :class:`TimingLevels`, memoized per structure version."""
    cached = circuit._cached("timing_levels")
    if cached is not None:
        return cached
    index = timing_index(circuit)
    row = index.row
    fanins = circuit.fanins
    level = np.zeros(index.n, dtype=np.int32)
    for gid in circuit.topological_order():
        lv = 0
        for fi in fanins[gid]:
            if fi >= 0:
                cand = level[row[fi]] + 1
                if cand > lv:
                    lv = cand
        level[row[gid]] = lv
    num_levels = int(level.max()) + 1 if index.n else 0
    return circuit._store(
        "timing_levels", TimingLevels(index, level, num_levels)
    )


class CellGroup:
    """Same-level gates sharing one (cell, arity): a batched NLDM unit."""

    __slots__ = ("cell", "rows", "frows", "fgids")

    def __init__(
        self,
        cell: str,
        rows: np.ndarray,
        frows: np.ndarray,
        fgids: np.ndarray,
    ):
        self.cell = cell
        self.rows = rows  # (g,) int64 row ids
        self.frows = frows  # (g, k) int64 fan-in rows (sentinel = n)
        self.fgids = fgids  # (g, k) int32 fan-in gids (-1 for constants)


class LevelStep:
    """One topological level of the plan: cell groups plus PO copies."""

    __slots__ = ("groups", "po_rows", "po_src_rows", "po_src_gids")

    def __init__(
        self,
        groups: List[CellGroup],
        po_rows: Optional[np.ndarray],
        po_src_rows: Optional[np.ndarray],
        po_src_gids: Optional[np.ndarray],
    ):
        self.groups = groups
        self.po_rows = po_rows
        self.po_src_rows = po_src_rows
        self.po_src_gids = po_src_gids


class TimingPlan:
    """Level-ordered vectorized evaluation schedule for one structure."""

    __slots__ = ("index", "level_of", "num_levels", "steps")

    def __init__(
        self,
        index: TimingIndex,
        level_of: np.ndarray,
        num_levels: int,
        steps: List[LevelStep],
    ):
        self.index = index
        self.level_of = level_of
        self.num_levels = num_levels
        self.steps = steps


def timing_plan(circuit: Circuit) -> TimingPlan:
    """The circuit's :class:`TimingPlan`, memoized per structure version.

    Levels are the canonical ones (a gate's level is one past its
    deepest non-constant fan-in), so evaluating level by level always
    sees finalized fan-in rows.  Within a level gates are independent
    and grouped by (cell name, fan-in count) for batched table lookups.
    """
    cached = circuit._cached("timing_plan")
    if cached is not None:
        return cached
    levels = timing_levels(circuit)
    index = levels.index
    row = index.row
    n = index.n
    fanins = circuit.fanins
    cells = circuit.cells
    level = levels.level_of
    num_levels = levels.num_levels

    per_level_cells: List[Dict[Tuple[str, int], List[int]]] = [
        {} for _ in range(num_levels)
    ]
    per_level_pos: List[List[int]] = [[] for _ in range(num_levels)]
    gids = index.gids
    for r in range(n):
        gid = int(gids[r])
        cell = cells[gid]
        if cell == PI_CELL:
            continue
        if cell == PO_CELL:
            per_level_pos[level[r]].append(r)
            continue
        key = (cell, len(fanins[gid]))
        per_level_cells[level[r]].setdefault(key, []).append(r)

    steps: List[LevelStep] = []
    for lv in range(num_levels):
        groups: List[CellGroup] = []
        for (cell, k), rows_ in sorted(per_level_cells[lv].items()):
            g = len(rows_)
            rows_a = np.array(rows_, dtype=np.int64)
            frows = np.empty((g, k), dtype=np.int64)
            fgids = np.empty((g, k), dtype=np.int32)
            for i, r in enumerate(rows_):
                for j, fi in enumerate(fanins[int(gids[r])]):
                    if fi < 0:
                        frows[i, j] = n
                        fgids[i, j] = -1
                    else:
                        frows[i, j] = row[fi]
                        fgids[i, j] = fi
            groups.append(CellGroup(cell, rows_a, frows, fgids))
        po_list = per_level_pos[lv]
        if po_list:
            po_rows = np.array(po_list, dtype=np.int64)
            src_rows = np.empty(len(po_list), dtype=np.int64)
            src_gids = np.empty(len(po_list), dtype=np.int32)
            for i, r in enumerate(po_list):
                src = fanins[int(gids[r])][0]
                if src < 0:
                    src_rows[i] = n
                    src_gids[i] = -1
                else:
                    src_rows[i] = row[src]
                    src_gids[i] = src
            steps.append(LevelStep(groups, po_rows, src_rows, src_gids))
        else:
            steps.append(LevelStep(groups, None, None, None))
    plan = TimingPlan(index, level, num_levels, steps)
    return circuit._store("timing_plan", plan)


# ----------------------------------------------------------------------
# batched NLDM lookup
# ----------------------------------------------------------------------
#: Per-table float64 array cache, keyed by object id with a weakref
#: guard: id-keying avoids re-hashing the whole frozen table (its
#: generated __hash__ walks every float) on each hot-path call, the
#: stored weakref both detects id reuse and evicts entries when a table
#: is garbage-collected.
_TABLE_ARRAYS: Dict[int, Tuple[Any, Tuple[np.ndarray, np.ndarray, np.ndarray]]] = {}


def _table_arrays(table) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The table's axes/values as float64 arrays (tables are frozen)."""
    key = id(table)
    entry = _TABLE_ARRAYS.get(key)
    if entry is not None and entry[0]() is table:
        return entry[1]
    arrays = (
        np.asarray(table.slew_axis, dtype=np.float64),
        np.asarray(table.load_axis, dtype=np.float64),
        np.asarray(table.values, dtype=np.float64),
    )
    _TABLE_ARRAYS[key] = (
        weakref.ref(table, lambda _r, _k=key: _TABLE_ARRAYS.pop(_k, None)),
        arrays,
    )
    return arrays


def _locate(axis: np.ndarray, value: np.ndarray):
    """Vectorized :func:`_interp_index`: ``(lo_index, fraction)`` arrays.

    Matches the scalar implementation exactly, clamping included: an
    on-breakpoint value lands on the segment *below* it with fraction
    1.0, and out-of-range values clamp to fraction exactly 0.0 / 1.0.
    """
    idx = axis.searchsorted(value, side="left") - 1
    # minimum(maximum(...)) == clip for ints, without np.clip's per-call
    # dtype-limit setup — this runs once per frontier bucket.
    idx = np.minimum(np.maximum(idx, 0), axis.shape[0] - 2)
    frac = (value - axis[idx]) / (axis[idx + 1] - axis[idx])
    frac = np.where(value <= axis[0], 0.0, frac)
    frac = np.where(value >= axis[-1], 1.0, frac)
    return idx, frac


def lookup_many(table, slew: np.ndarray, load: np.ndarray) -> np.ndarray:
    """Batched :meth:`NLDMTable.lookup`, bit-identical to the scalar path.

    ``slew`` and ``load`` broadcast against each other; the result takes
    the broadcast shape.  Every arithmetic step mirrors the scalar
    bilinear interpolation operation for operation, so mixing this with
    per-gate scalar lookups never changes a single bit.
    """
    s_ax, l_ax, vals = _table_arrays(table)
    i, fs = _locate(s_ax, np.asarray(slew))
    j, fl = _locate(l_ax, np.asarray(load))
    v00 = vals[i, j]
    v01 = vals[i, j + 1]
    v10 = vals[i + 1, j]
    v11 = vals[i + 1, j + 1]
    top = v00 * (1.0 - fl) + v01 * fl
    bot = v10 * (1.0 - fl) + v11 * fl
    return top * (1.0 - fs) + bot * fs


def eval_gates_vector(
    cell,
    a: np.ndarray,
    s: np.ndarray,
    d: np.ndarray,
    fg: np.ndarray,
    load: np.ndarray,
):
    """Vectorized first-wins max over many same-cell gates at once.

    ``a``/``s``/``d``/``fg`` are ``(P, k)`` gathers of the gates' fan-in
    rows (arrival, slew, depth, source gid; constants pre-gathered from
    the sentinel row with gid ``-1``) and ``load`` is the ``(P,)`` gate
    loads.  Returns ``(arrival, slew, depth, critical_fanin)`` arrays.

    Bit-identical to :func:`eval_gate_scalar` per gate: ``lookup_many``
    equals the scalar table walk operation for operation, and ``argmax``
    picks the *first* index attaining the maximum arrival, matching the
    scalar ``first or at > best`` scan.  Both the full analyzer's wide
    groups and the incremental frontier walk run through this one
    kernel.
    """
    at = a + lookup_many(cell.arc.delay, s, load[:, None])
    j = np.argmax(at, axis=1)
    pick = np.arange(len(j))
    na = at[pick, j]
    ns = lookup_many(cell.arc.output_slew, s[pick, j], load)
    nd = d[pick, j] + 1
    ncf = fg[pick, j]
    return na, ns, nd, ncf


def shared_rows(old: TimingIndex, new: TimingIndex):
    """Match ``new``'s rows to ``old``'s by sorted gate ID.

    Returns ``(shared, src)``: a bool mask over ``new``'s rows marking
    the gates ``old`` also holds, and the ``old`` row of each of them
    in mask order.  The rebase step for a child whose gate-ID set
    diverged from its parent's (gates added or removed): shared rows
    copy across, the rest start fresh.
    """
    pn = old.n
    if not pn:
        return np.zeros(new.n, dtype=bool), np.empty(0, dtype=np.int64)
    pos = np.minimum(np.searchsorted(old.gids, new.gids), pn - 1)
    shared = old.gids[pos] == new.gids
    return shared, pos[shared]


def eval_gate_scalar(cell, fan_timing, load: float, input_slew: float):
    """Scalar first-wins max over one gate's fan-ins.

    ``fan_timing`` is the gate's fan-ins in pin order as
    ``(arrival, slew, depth, src_gid)`` tuples (constants pre-mapped to
    ``(0.0, input_slew, 0, -1)``).  Returns
    ``(arrival, slew, depth, critical_fanin)`` for the gate.

    This is the ONE scalar counterpart of the vectorized group kernel —
    both the analyzer's small-group branch and the incremental frontier
    walk call it, so the bit-identity contract between the full and
    incremental paths cannot drift apart through divergent copies.
    """
    best = 0.0
    best_slew = input_slew
    best_depth = 0
    best_src = -1
    first = True
    for a, s, d, src in fan_timing:
        at = a + cell.delay(s, load)
        if first or at > best:
            best = at
            best_slew = cell.output_slew(s, load)
            best_depth = d
            best_src = src
            first = False
    return best, best_slew, best_depth + 1, best_src


# ----------------------------------------------------------------------
# mapping views (the historical dict API on top of the arrays)
# ----------------------------------------------------------------------
class _ArrayMapBase(Mapping):
    """Read-only per-gate mapping view over one timing array."""

    __slots__ = ("_index", "_a")

    def __init__(self, index: TimingIndex, a: np.ndarray):
        self._index = index
        self._a = a

    def __iter__(self):
        return iter(self._index.row)

    def __len__(self) -> int:
        return self._index.n

    def __contains__(self, gid) -> bool:
        return gid in self._index.row

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}({dict(self)!r})"


class FloatArrayMap(_ArrayMapBase):
    """``gid -> float`` view (arrival / slew / load)."""

    __slots__ = ()

    def __getitem__(self, gid) -> float:
        return float(self._a[self._index.row[gid]])


class IntArrayMap(_ArrayMapBase):
    """``gid -> int`` view (unit depth)."""

    __slots__ = ()

    def __getitem__(self, gid) -> int:
        return int(self._a[self._index.row[gid]])


class OptionalGateMap(_ArrayMapBase):
    """``gid -> Optional[int]`` view (critical fan-in; -1 encodes None)."""

    __slots__ = ()

    def __getitem__(self, gid) -> Optional[int]:
        v = self._a[self._index.row[gid]]
        return None if v < 0 else int(v)
