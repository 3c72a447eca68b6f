"""Bit-parallel logic simulation over fan-in adjacency circuits.

Evaluates every gate on a packed :class:`~repro.sim.vectors.VectorSet` in
topological order; 64 Monte-Carlo vectors advance per word operation.
This is the workhorse behind error estimation (the paper's VECBEE role)
and output-similarity tables.

Values live in the structure-of-arrays :class:`~repro.sim.store.ValueStore`
(one dense uint64 matrix laid out by the shared timing row index) rather
than a per-gate dict; the store's mapping face keeps every historical
``values[gid]`` consumer working.  Every path returns a store:
:func:`resimulate_cone` shares the base's row index when the gate-ID set
is unchanged and rebases onto the circuit's own index when gates were
added or removed — results are bit-identical either way.
"""

from __future__ import annotations

from typing import Dict, Iterable, Mapping, Optional, Set

import numpy as np

from ..analysis.sanitize import publish_array
from ..cells import FUNCTIONS, split_cell_name
from ..netlist import CONST0, CONST1, PI_CELL, PO_CELL, Circuit
from ..sta.store import shared_rows
from .store import ValueStore, value_rows, value_store_index
from .vectors import VectorSet

#: Map from gate id to its packed output words.  Every simulation path
#: returns the dense :class:`ValueStore`; the scalar per-gate helpers
#: read any mapping with the same face.
ValueMap = Mapping[int, np.ndarray]


# lint: allow[R1] publish site: fills a freshly allocated, unshared store
def simulate(circuit: Circuit, vectors: VectorSet) -> ValueStore:
    """Simulate all gates; returns the packed value store.

    PIs take rows of ``vectors`` in ``circuit.pi_ids`` order; POs mirror
    their single fan-in.  Constants live in the store's two sentinel
    rows so downstream code can treat them uniformly
    (``values[CONST0]`` / ``values[CONST1]`` keep working).
    """
    if vectors.num_inputs != len(circuit.pi_ids):
        raise ValueError(
            f"vector set has {vectors.num_inputs} inputs, circuit has "
            f"{len(circuit.pi_ids)} PIs"
        )
    store = ValueStore.allocate(
        value_store_index(circuit), vectors.num_words
    )
    matrix = store.matrix
    rows = value_rows(store.index)
    for i, pi in enumerate(circuit.pi_ids):
        matrix[rows[pi]] = vectors.words[i]
    # Local bindings: this loop visits every gate of every evaluated
    # candidate, so attribute/property lookups are hoisted out.
    fanins = circuit.fanins
    cells = circuit.cells
    for gid in circuit.topological_order():
        cell = cells[gid]
        if cell == PI_CELL:
            continue
        fis = fanins[gid]
        if cell == PO_CELL:
            matrix[rows[gid]] = matrix[rows[fis[0]]]
            continue
        function, _ = split_cell_name(cell)
        matrix[rows[gid]] = FUNCTIONS[function].word_eval(
            [matrix[rows[fi]] for fi in fis]
        )
    publish_array(matrix)
    return store


def resimulate_cone(
    circuit: Circuit,
    vectors: VectorSet,
    base_values: ValueStore,
    changed: Iterable[int],
    dirty: Optional[Set[int]] = None,
) -> ValueStore:
    """Incrementally re-evaluate only the TFO of ``changed`` gates.

    ``base_values`` must come from a simulation of a circuit identical to
    ``circuit`` outside the fan-out cones of ``changed``.  This is the
    incremental trick VECBEE uses to make batch LAC evaluation cheap: an
    approximate change only perturbs its transitive fan-out.

    Returns a fresh store; ``base_values`` is not mutated.  When the
    base covers this circuit's gate-ID set (every copy-then-mutate
    child qualifies), the result shares the base's row index — one
    matrix ``memcpy`` plus the dirty rows.  Otherwise (gates added or
    removed since the base simulation) it is laid out by the circuit's
    own memoized index: shared rows copy across by gate ID and added
    gates evaluate alongside the dirty ones.  On gid-topological
    circuits (every population member) rows evaluate in sorted-gid
    order, skipping the per-child topological-order build.

    ``dirty`` optionally supplies the precomputed TFO of ``changed``
    (callers holding the parent's memoized cones pass it; see
    :func:`repro.core.fitness.evaluate_incremental`).
    """
    if dirty is None:
        dirty = set()
        for gid in changed:
            # Constants are the only negative IDs (R5): `gid >= 0` is
            # is_const() without a call per changed gate.
            if gid >= 0:
                dirty |= circuit.transitive_fanout(gid, include_self=True)
    if base_values.covers(circuit):
        index = base_values.index
        matrix = base_values.fork_matrix()
    else:
        index = value_store_index(circuit)
        shared, src = shared_rows(base_values.index, index)
        matrix = np.zeros(
            (index.n + 2, base_values.matrix.shape[1]), dtype=np.uint64
        )
        matrix[: index.n][shared] = base_values.matrix[src]
        # Removed gates' cones name rows the circuit no longer has.
        row_of = index.row
        dirty = {gid for gid in dirty if gid in row_of}
        dirty.update(index.gids[~shared].tolist())
    rows = value_rows(index)
    matrix[index.n] = 0
    matrix[index.n + 1] = np.uint64(0xFFFFFFFFFFFFFFFF)
    for i, pi in enumerate(circuit.pi_ids):
        matrix[rows[pi]] = vectors.words[i]
    if circuit.gid_order_topo():
        schedule = sorted(dirty)
    else:
        schedule = [gid for gid in circuit.topological_order() if gid in dirty]
    fanins = circuit.fanins
    cells = circuit.cells
    for gid in schedule:
        cell = cells[gid]
        if cell == PI_CELL:
            continue
        fis = fanins[gid]
        if cell == PO_CELL:
            matrix[rows[gid]] = matrix[rows[fis[0]]]
            continue
        function, _ = split_cell_name(cell)
        matrix[rows[gid]] = FUNCTIONS[function].word_eval(
            [matrix[rows[fi]] for fi in fis]
        )
    return ValueStore(index, publish_array(matrix))


def po_words(circuit: Circuit, values: ValueStore) -> np.ndarray:
    """Stack PO rows into an ``(num_pos, num_words)`` array, PO order."""
    row = values.index.row
    return values.matrix[[row[po] for po in circuit.po_ids]]


def evaluate_single(circuit: Circuit, bits: Dict[int, int]) -> Dict[int, int]:
    """Reference scalar simulation of one input vector (test oracle).

    ``bits`` maps PI gate IDs to 0/1.  Returns 0/1 per gate ID.
    """
    out: Dict[int, int] = {CONST0: 0, CONST1: 1}
    for pi in circuit.pi_ids:
        out[pi] = int(bits[pi]) & 1
    for gid in circuit.topological_order():
        if circuit.is_pi(gid):
            continue
        fis = circuit.fanins[gid]
        if circuit.is_po(gid):
            out[gid] = out[fis[0]]
            continue
        function, _ = split_cell_name(circuit.cells[gid])
        out[gid] = FUNCTIONS[function].bit_eval([out[fi] for fi in fis])
    return out
