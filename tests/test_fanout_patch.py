"""Provenance-patched fan-out maps and the delta ``gid_order_topo``.

A copy-then-mutate child builds its fan-out map by patching its
provenance parent's map around the rewired gates, and answers
``gid_order_topo`` from its ``changed`` gates when the parent's answer
is ``True``.  Both must equal a from-scratch build exactly: the same
keys, and every consumer list in the same order with the same pin
multiplicity (load sums walk these lists, so order is part of
bit-identity).  The oracles below are the from-scratch definitions.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference_circuits import build_adder

from repro.bench import build_benchmark
from repro.core import (
    EvalContext,
    LAC,
    applied_copy,
    circuit_reproduce,
    evaluate_incremental,
    is_safe,
    simplified_copy,
)
from repro.core.simplify import propose_simplification
from repro.netlist import CONST0, CONST1
from repro.sim import ErrorMode


def oracle_fanouts(circuit):
    """The fan-out map by one walk over the fan-in map."""
    out = {gid: [] for gid in circuit.fanins}
    for gid, fis in circuit.fanins.items():
        for fi in fis:
            out.setdefault(fi, []).append(gid)
    return out


def oracle_gid_topo(circuit):
    """Ascending gate ID is a topological order, by an O(E) scan."""
    return all(fi < gid for gid, fis in circuit.fanins.items() for fi in fis)


def _assert_patched_like_scratch(child):
    prov = child.valid_provenance()
    assert prov is not None and child.same_gid_set(prov.parent)
    want = oracle_fanouts(child)
    got = child.fanouts()
    assert set(got) == set(want)
    for key, consumers in want.items():
        assert list(got[key]) == consumers, key
    assert child.gid_order_topo() == oracle_gid_topo(child)


def _declared_rewire(parent, edits):
    """A copy of ``parent`` with ``{gid: fanins}`` declared to provenance."""
    child = parent.copy()
    since = child.version
    for gid, fanins in edits.items():
        child.set_fanins(gid, fanins)
    child.extend_provenance(edits, since, len(edits))
    assert child.valid_provenance() is not None
    return child


def _root(circuit):
    """Drop the record, as an unpickled circuit has none: copies of it
    then name it as their parent instead of inheriting its record."""
    circuit.provenance = None
    return circuit


class TestPatchedFanouts:
    def test_constant_key_appears_and_disappears(self, adder8):
        adder8.fanouts()
        assert not [k for k in adder8.fanouts() if k < 0]
        target = adder8.logic_ids()[3]
        with_const = applied_copy(adder8, LAC(target, CONST0))
        _assert_patched_like_scratch(with_const)
        assert CONST0 in with_const.fanouts()
        # Rewire every consumer the LAC touched back: CONST0 loses its
        # last consumer, so its key must go.
        changed = with_const.valid_provenance().changed
        undo = _declared_rewire(
            _root(with_const), {gid: adder8.fanins[gid] for gid in changed}
        )
        assert undo.valid_provenance().parent is with_const
        _assert_patched_like_scratch(undo)
        assert CONST0 not in undo.fanouts()

    def test_second_constant_key_joins(self, adder8):
        one = _root(applied_copy(adder8, LAC(adder8.logic_ids()[2], CONST1)))
        one.fanouts()
        two = applied_copy(one, LAC(one.logic_ids()[9], CONST0))
        assert two.valid_provenance().parent is one
        _assert_patched_like_scratch(two)
        assert {CONST0, CONST1} <= set(two.fanouts())

    def test_driver_feeding_two_pins_of_one_gate(self, adder8):
        # Gates 17 and 18 both read PIs 1 and 9; wiring 1 -> 9 makes PI 9
        # feed both pins of each, so it must be listed twice per gate.
        assert adder8.fanins[17] == (1, 9) and adder8.fanins[18] == (1, 9)
        adder8.fanouts()
        child = applied_copy(adder8, LAC(1, 9))
        _assert_patched_like_scratch(child)
        assert child.fanouts()[9].count(17) == 2
        assert child.fanouts()[1] == []
        # ...and a child of it rewiring one of the two pins away.
        back = _declared_rewire(_root(child), {17: (1, 9)})
        assert back.valid_provenance().parent is child
        _assert_patched_like_scratch(back)
        assert back.fanouts()[9].count(17) == 1
        assert back.fanouts()[9].count(18) == 2

    def test_parent_without_map_builds_its_own_only(self, adder8):
        middle = _root(applied_copy(adder8, LAC(adder8.logic_ids()[4], CONST1)))
        child = applied_copy(middle, LAC(middle.logic_ids()[6], CONST0))
        assert child.valid_provenance().parent is middle
        assert middle._cached("fanouts") is None
        assert adder8._cached("fanouts") is None
        _assert_patched_like_scratch(child)
        # The parent built its own map once; the walk stopped there.
        assert middle._cached("fanouts") == oracle_fanouts(middle)
        assert adder8._cached("fanouts") is None

    def test_cell_swap_shares_the_parent_map(self, adder8):
        gid = adder8.logic_ids()[0]
        child = adder8.copy()
        since = child.version
        child.set_cell(gid, adder8.cells[gid].replace("D1", "D2"))
        child.extend_provenance((gid,), since, 1)
        assert child.fanouts() is adder8.fanouts()

    def test_parent_map_is_left_untouched(self, adder8):
        base = adder8.fanouts()
        snapshot = {k: list(v) for k, v in base.items()}
        child = applied_copy(adder8, LAC(adder8.logic_ids()[5], CONST0))
        child.fanouts()
        assert adder8.fanouts() is base
        assert base == snapshot


class TestDeltaGidOrderTopo:
    def test_rewire_to_a_larger_gid_is_not_gid_topological(self, adder8):
        assert adder8.gid_order_topo()
        # Gate 17 (sum bit 0) feeds only its PO; gate 29 (sum bit 7)
        # lies outside its TFO, so the rewire is acyclic but breaks
        # ascending-gid order.
        assert 29 not in adder8.transitive_fanout(17)
        child = _declared_rewire(adder8, {17: (1, 29)})
        assert child.gid_order_topo() is False
        assert oracle_gid_topo(child) is False
        assert child.topological_order()  # still a DAG

    def test_cold_parent_answers_once(self, adder8):
        child = _declared_rewire(adder8, {18: (1, 2)})
        assert adder8._cached("gid_topo") is None
        assert child.gid_order_topo() is True
        assert adder8._cached("gid_topo") is True

    def test_false_parent_falls_back_to_the_scan(self, adder8):
        broken = _root(_declared_rewire(adder8, {17: (1, 29)}))
        assert not broken.gid_order_topo()
        # A child of the broken circuit that restores gate 17.
        fixed = _declared_rewire(broken, {17: (1, 9)})
        assert fixed.valid_provenance().parent is broken
        assert fixed.gid_order_topo() is True
        # One that leaves it broken.
        still = _declared_rewire(broken, {18: (1, 2)})
        assert still.gid_order_topo() is False


# ----------------------------------------------------------------------
# property: random LAC / simplify / reproduce children
# ----------------------------------------------------------------------
_BUILDERS = {
    "adder8": lambda: build_adder(8),
    "Max16": lambda: build_benchmark("Max16"),
}


@pytest.fixture(scope="module")
def contexts(library):
    return {
        name: EvalContext.build(
            build(), library, ErrorMode.ER, num_vectors=64, seed=5
        )
        for name, build in _BUILDERS.items()
    }


def _lac_child(parent, rng, constant):
    circuit = parent.circuit
    logic = circuit.logic_ids()
    rng.shuffle(logic)
    for target in logic[:12]:
        if constant:
            switch = rng.choice((CONST0, CONST1))
        else:
            tfi = sorted(circuit.transitive_fanin(target))
            if not tfi:
                continue
            switch = rng.choice(tfi)
        lac = LAC(target, switch)
        if is_safe(circuit, lac):
            return applied_copy(circuit, lac), parent
    return None


def _simplified_child(parent, rng, num_vectors):
    circuit = parent.circuit
    logic = circuit.logic_ids()
    rng.shuffle(logic)
    for target in logic[:12]:
        simp = propose_simplification(
            circuit, parent.values, target, num_vectors, rng
        )
        if simp is not None:
            return simplified_copy(circuit, simp), parent
    return None


@given(
    name=st.sampled_from(sorted(_BUILDERS)),
    steps=st.lists(
        st.tuples(
            st.sampled_from(("wire", "const", "simplify", "reproduce")),
            st.integers(0, 10_000),
            st.sampled_from(("cold", "warm", "root")),
        ),
        min_size=1,
        max_size=8,
    ),
)
@settings(max_examples=30, deadline=None)
def test_patched_map_matches_scratch_build(contexts, name, steps):
    ctx = contexts[name]
    num_vectors = ctx.vectors.num_vectors
    pool = [ctx.reference_eval()]
    for op, seed, mode in steps:
        rng = random.Random(seed)
        parent = pool[seed % len(pool)]
        if mode == "warm":
            parent.circuit.fanouts()
            parent.circuit.gid_order_topo()
        elif mode == "root" and parent is not pool[0]:
            # Children now patch from this member, constants included.
            _root(parent.circuit)
        if op == "reproduce":
            partner = pool[rng.randrange(len(pool))]
            child = circuit_reproduce(parent, partner, ctx)
            made = (child, [parent, partner])
        elif op == "simplify":
            made = _simplified_child(parent, rng, num_vectors)
        else:
            made = _lac_child(parent, rng, constant=op == "const")
        if made is None:
            continue
        child, parents = made
        _assert_patched_like_scratch(child)
        pool.append(evaluate_incremental(ctx, child, parents))
    for ev in pool:
        assert ev.circuit.fanouts() == oracle_fanouts(ev.circuit)
