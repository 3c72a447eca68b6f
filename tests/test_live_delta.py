"""Live set, structure key and area derived from the provenance parent.

A copy-then-mutate child starts from its parent's live set, structure
key and area and adjusts them over the gates whose liveness flipped or
whose record changed.  Each must equal a from-scratch build exactly:
the DFS live set, the XOR of every live record digest, and
``math.fsum`` of the live cells' areas.  ``Circuit.area`` is exact, so
it also survives Verilog and pickle round trips bit for bit.
"""

from __future__ import annotations

import gc
import math
import pickle
import random
import weakref

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

from repro.bench import SUITE, build_benchmark
from repro.cells import default_library
from repro.core import (
    EvalContext,
    LAC,
    applied_copy,
    circuit_reproduce,
    evaluate_incremental,
)
from repro.netlist import CONST0, CONST1, parse_verilog, write_verilog
from repro.netlist.circuit import _record_digest
from repro.sim import ErrorMode


def oracle_live(circuit):
    """POs and every gate reachable backwards from one."""
    seen = set()
    stack = list(circuit.po_ids)
    while stack:
        g = stack.pop()
        if g < 0 or g in seen:
            continue
        seen.add(g)
        stack.extend(circuit.fanins[g])
    return seen


def oracle_key(circuit):
    """XOR of freshly hashed records over the oracle live set."""
    acc = 0
    for g in oracle_live(circuit):
        acc ^= _record_digest(g, circuit.cells[g], circuit.fanins[g])
    return acc


def oracle_area(circuit, library):
    """``math.fsum`` of the live library cells' areas."""
    return math.fsum(
        library.cell(circuit.cells[g]).area
        for g in oracle_live(circuit)
        if circuit.is_logic(g)
    )


def _assert_like_scratch(circuit, library, first="key"):
    checks = {
        "key": lambda: circuit.structure_key() == oracle_key(circuit),
        "area": lambda: circuit.area(library) == oracle_area(circuit, library),
        "live": lambda: circuit.live_gates() == oracle_live(circuit),
    }
    order = [first] + [k for k in checks if k != first]
    for name in order:
        assert checks[name](), name


# ----------------------------------------------------------------------
# exact area
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", sorted(SUITE))
def test_area_survives_verilog_and_pickle(name):
    library = default_library()
    circuit = build_benchmark(name)
    area = circuit.area(library)
    assert area == oracle_area(circuit, library)
    assert parse_verilog(write_verilog(circuit)).area(library) == area
    assert pickle.loads(pickle.dumps(circuit)).area(library) == area


def test_area_units_are_exact(library):
    units, scale = library.area_units()
    for cell in library.cells():
        assert units[cell.name] / scale == cell.area
    assert library.area_units() is library.area_units()


def test_all_gates_area_is_exact(adder8, library):
    child = applied_copy(adder8, LAC(adder8.logic_ids()[5], CONST0))
    assert child.dangling_gates()
    assert child.area(library, live_only=False) == math.fsum(
        library.cell(child.cells[g]).area for g in child.logic_ids()
    )
    assert child.area(library, live_only=False) > child.area(library)


# ----------------------------------------------------------------------
# the delta, case by case
# ----------------------------------------------------------------------
def _root(circuit):
    circuit.provenance = None
    return circuit


class TestLiveDelta:
    def test_constant_lac_kills_a_cone(self, adder8, library):
        adder8.live_gates()
        child = applied_copy(adder8, LAC(adder8.logic_ids()[5], CONST0))
        _prov, dead, born = child._live_delta()
        assert dead and not born
        assert dead == adder8.live_gates() - oracle_live(child)
        _assert_like_scratch(child, library)

    def test_undo_revives_the_cone(self, adder8, library):
        dead_child = _root(
            applied_copy(adder8, LAC(adder8.logic_ids()[5], CONST0))
        )
        dead_child.live_gates()
        revived = dead_child.copy()
        since = revived.version
        changed = [
            g for g in adder8.fanins if adder8.fanins[g] != dead_child.fanins[g]
        ]
        for g in changed:
            revived.set_fanins(g, adder8.fanins[g])
        revived.extend_provenance(changed, since, len(changed))
        _prov, dead, born = revived._live_delta()
        assert born and not dead
        assert revived.live_gates() == adder8.live_gates()
        _assert_like_scratch(revived, library, first="area")

    def test_parent_without_memos_builds_its_own_only(self, adder8, library):
        middle = _root(
            applied_copy(adder8, LAC(adder8.logic_ids()[4], CONST1))
        )
        child = applied_copy(middle, LAC(middle.logic_ids()[6], CONST0))
        assert child.valid_provenance().parent is middle
        for key in ("live", "skey", "area"):
            assert middle._cached(key) is None
            assert adder8._cached(key) is None
        _assert_like_scratch(child, library)
        assert middle._cached("live") == oracle_live(middle)
        assert middle._cached("skey") == oracle_key(middle)
        for key in ("live", "skey", "area"):
            assert adder8._cached(key) is None

    def test_not_gid_topological_rebuilds(self, adder8, library):
        child = adder8.copy()
        since = child.version
        child.set_fanins(17, (1, 29))
        child.extend_provenance((17,), since, 1)
        assert not child.gid_order_topo()
        assert child._live_delta() is None
        _assert_like_scratch(child, library)

    def test_other_po_list_rebuilds(self, adder8, library):
        child = adder8.copy()
        child.po_ids = child.po_ids[:-1]
        assert child.valid_provenance() is not None
        assert child._live_delta() is None
        _assert_like_scratch(child, library)

    def test_cell_swap_adjusts_key_and_area(self, adder8, library):
        adder8.structure_key()
        adder8.area(library)
        gid = adder8.logic_ids()[0]
        child = adder8.copy()
        since = child.version
        child.set_cell(gid, adder8.cells[gid].replace("D1", "D2"))
        child.extend_provenance((gid,), since, 1)
        assert child._live_delta()[1:] == (frozenset(), frozenset())
        assert child.live_gates() is adder8.live_gates()
        assert child.structure_key() != adder8.structure_key()
        assert child.area(library) > adder8.area(library)
        _assert_like_scratch(child, library)

    def test_evaluated_chain_releases_ancestors(self, library):
        ctx = EvalContext.build(
            build_adder(8), library, ErrorMode.ER, num_vectors=64, seed=5
        )
        ev = ctx.reference_eval()
        rng = random.Random(3)
        first = None
        for _ in range(6):
            made = _lac_child(ev, rng, constant=True)
            assert made is not None
            child = made[0]
            child.structure_key()
            ev = evaluate_incremental(ctx, child, ev)
            if first is None:
                first = weakref.ref(child)
        gc.collect()
        # Only the newest member is referenced: every ancestor's
        # memos (live set, key, area, fan-out map) must be gone.
        assert first() is None


# ----------------------------------------------------------------------
# property: multi-generation LAC / simplify / reproduce / resize chains
# ----------------------------------------------------------------------
def _resized_child(parent, rng, library):
    circuit = parent.circuit
    logic = circuit.logic_ids()
    rng.shuffle(logic)
    for gid in logic:
        bigger = library.upsize(circuit.cells[gid])
        if bigger is not None:
            return circuit.resized_copy(gid, bigger.name), parent
    return None


@given(
    name=st.sampled_from(sorted(_BUILDERS)),
    steps=st.lists(
        st.tuples(
            st.sampled_from(
                ("wire", "const", "simplify", "reproduce", "resize")
            ),
            st.integers(0, 10_000),
            st.sampled_from(("key", "area", "live", "cold")),
        ),
        min_size=1,
        max_size=8,
    ),
)
@settings(max_examples=30, deadline=None)
def test_derived_memos_match_scratch_build(contexts, name, steps):
    ctx = contexts[name]
    library = ctx.library
    num_vectors = ctx.vectors.num_vectors
    pool = [ctx.reference_eval()]
    for op, seed, mode in steps:
        rng = random.Random(seed)
        parent = pool[seed % len(pool)]
        if mode == "cold":
            # The parent answers from scratch, once.
            parent.circuit._cache = {}
        if op == "reproduce":
            partner = pool[rng.randrange(len(pool))]
            made = (
                circuit_reproduce(parent, partner, ctx),
                [parent, partner],
            )
        elif op == "simplify":
            made = _simplified_child(parent, rng, num_vectors)
        elif op == "resize":
            made = _resized_child(parent, rng, library)
        else:
            made = _lac_child(parent, rng, constant=op == "const")
        if made is None:
            continue
        child, parents = made
        # Every population operator keeps the child on the delta path.
        assert child._live_delta() is not None
        first = "key" if mode == "cold" else mode
        _assert_like_scratch(child, library, first=first)
        ev = evaluate_incremental(ctx, child, parents)
        assert ev.area == oracle_area(child, library)
        twin = pickle.loads(pickle.dumps(child))
        assert twin.structure_key() == child.structure_key()
        assert twin.area(library) == child.area(library)
        pool.append(ev)
