"""The circuit-reproduction approximate action (paper §III-B, Fig. 5).

Reproduction crosses over two approximate circuits at PO granularity:
each primary output's cone (the PO-TFI pair) is scored with the Level
function (Eq. 3)

    Level(PO_i) = wt / Ta(PO_i) + we / Error(PO_i)

and the child takes each PO's cone from whichever parent scores higher.
Gates shared between cones accept adjacency information only from the
first write-in (cones are written in descending Level order); gates in no
selected cone are filled from the fitter parent so the child is complete.

All population members share the accurate circuit's gate ID space and
preserve its topological order (see ``core.lacs``), so any cone mixture
is acyclic by construction.

The operator is sized by the parents' difference, not by the circuit.
The child starts as a copy of the fitter parent, so the only gates it
can change are those where the other parent differs (fan-in tuple, or
cell on a non-PO gate) *and* the first cone in Level order covering the
gate is the other parent's.  Those few gates are found first; the first
covering cone is then decided per gate from each parent's memoized
transitive fan-out, and no cone is ever walked.  Child, provenance
``changed`` set and version delta are exactly those of walking every
selected cone with first-write-wins (pinned by an oracle test).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..netlist import PO_CELL, Circuit
from .fitness import CircuitEval, EvalContext

#: Error floor: half an LSB of what the Monte-Carlo batch can resolve.
def _error_floor(num_vectors: int) -> float:
    return 0.5 / num_vectors


@dataclass(frozen=True)
class LevelWeights:
    """Weights of the PO-TFI pair evaluation function (Eq. 3).

    The paper sets ``wt = 0.9 * CPD_ori`` (so the timing term is O(1) for
    paths near the accurate critical delay) and ``we = 0.1`` under ER /
    ``0.2`` under NMED constraints.
    """

    wt: float
    we: float

    @classmethod
    def paper_defaults(cls, ctx: EvalContext) -> "LevelWeights":
        """§IV-A settings: wt = 0.9 CPD_ori; we = 0.1 (ER) / 0.2 (NMED)."""
        from ..sim import ErrorMode

        we = 0.1 if ctx.error_mode is ErrorMode.ER else 0.2
        return cls(wt=0.9 * ctx.cpd_ori, we=we)


def po_levels(
    ev: CircuitEval, ctx: EvalContext, weights: LevelWeights
) -> Dict[int, float]:
    """Eq. 3 Level score for every PO of one evaluated circuit.

    Memoized on the eval per (weights, vector count, accurate CPD): a
    fit member is a reproduction partner many times over.  Treat the
    returned dict as read-only.
    """
    key = (weights, ctx.vectors.num_vectors, ctx.cpd_ori)
    hit = ev.level_memo.get(key)
    if hit is not None:
        return hit
    floor = _error_floor(ctx.vectors.num_vectors)
    # POs driven by constants/PIs arrive at ~0; floor Ta at 1% of the
    # accurate CPD so the timing term saturates instead of exploding and
    # drowning out the error term.
    ta_floor = 0.01 * ctx.cpd_ori
    report = ev.report
    ta = np.maximum(
        report.arrival_a[report.index.po_rows], max(ta_floor, 1e-9)
    )
    err = np.maximum(np.asarray(ev.per_po_error, dtype=np.float64), floor)
    # Elementwise IEEE division and addition: the same floats as the
    # scalar expression, one PO at a time.
    scores = weights.wt / ta + weights.we / err
    levels = dict(zip(ev.circuit.po_ids, scores.tolist()))
    ev.level_memo[key] = levels
    return levels


def circuit_reproduce(
    ev_a: CircuitEval,
    ev_b: CircuitEval,
    ctx: EvalContext,
    weights: Optional[LevelWeights] = None,
) -> Circuit:
    """Cross two evaluated circuits into a reproduced child.

    Both parents must be population members derived from the same
    accurate circuit: identical PO lists and gate-ID set, else
    ``ValueError``.
    """
    ca, cb = ev_a.circuit, ev_b.circuit
    if ca.po_ids != cb.po_ids:
        raise ValueError("parents expose different PO sets")
    if not ca.same_gid_set(cb):
        raise ValueError("parents carry different gate-ID sets")
    weights = weights or LevelWeights.paper_defaults(ctx)
    levels_a = po_levels(ev_a, ctx, weights)
    levels_b = po_levels(ev_b, ctx, weights)

    # Fill every gate from the fitter parent first; selected cones then
    # overwrite so un-coned (dangling) gates stay complete, matching the
    # paper's completeness rule for gates outside every PO-TFI pair.
    base, other = (ca, cb) if ev_a.fitness >= ev_b.fitness else (cb, ca)
    child = base.copy()

    # Choose the parent per PO and write cones in descending Level order:
    # shared gates accept adjacency only from the first write-in.  Each
    # entry is (-Level, po, cone comes from `other`); POs are unique, so
    # the flag never takes part in the sort.
    choices: List[Tuple[float, int, bool]] = []
    for po in ca.po_ids:
        la, lb = levels_a[po], levels_b[po]
        winner = ca if la >= lb else cb
        choices.append((-max(la, lb), po, winner is other))
    choices.sort()

    # Writing a gate from `base` is a no-op, so only gates where `other`
    # differs can change, and only when the first cone covering them is
    # one of `other`'s.  Cones are TFIs, so "po's cone covers g" is
    # "po lies in g's TFO" — one memoized walk per (gate, parent).  The
    # differing gates come from the item views' symmetric difference,
    # which CPython computes at C level with one lookup per item (the
    # `-` difference would hash every item of both views).  Visiting
    # them in any order is fine: every write hits an existing key, so
    # dict order is kept, and `changed` becomes a set.
    bf, bc = base.fanins, base.cells
    of, oc = other.fanins, other.cells
    diff = {g for g, _ in bf.items() ^ of.items()}
    diff.update(g for g, _ in bc.items() ^ oc.items() if bc[g] != PO_CELL)
    since = child.version
    changed: List[int] = []
    writes = 0
    for g in diff:
        reach = (
            base.transitive_fanout(g, include_self=True),
            other.transitive_fanout(g, include_self=True),
        )
        first_from_other = next(
            (flag for _, po, flag in choices if po in reach[flag]), False
        )
        if not first_from_other:
            continue  # base's cone comes first, or no selected cone has g
        if bf[g] != of[g]:
            child.fanins[g] = of[g]
            writes += 1
        if bc[g] != PO_CELL and bc[g] != oc[g]:
            child.cells[g] = oc[g]
            writes += 1
        changed.append(g)
    child.extend_provenance(changed, since, writes)
    return child


def pick_superior_partner(
    population: List[CircuitEval],
    ev: CircuitEval,
    rng: random.Random,
) -> Optional[CircuitEval]:
    """A random strictly-fitter population member to reproduce with."""
    better = [p for p in population if p.fitness > ev.fitness]
    if not better:
        return None
    return better[rng.randrange(len(better))]
