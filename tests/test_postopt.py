"""Unit tests for post-optimization: dangling deletion and resizing."""

import math

import numpy as np
import pytest

from repro.bench import build_benchmark
from repro.core import LAC, applied_copy
from repro.netlist import CONST0, CONST1, validate
from repro.postopt import (
    SizingMove,
    delete_dangling_gates,
    post_optimize,
    resize_for_timing,
)
from repro.postopt.sizing import _estimate_gain
from repro.sta import (
    STAEngine,
    path_logic_gates,
    timing_index,
    timing_levels,
    update_timing,
)


class TestDanglingDeletion:
    def test_lac_dangles_removed(self, adder8):
        target = adder8.logic_ids()[5]
        child = applied_copy(adder8, LAC(target, CONST0))
        before = child.num_gates
        removed = delete_dangling_gates(child)
        assert removed >= 1
        assert child.num_gates == before - removed
        validate(child)
        assert child.dangling_gates() == set()

    def test_clean_circuit_untouched(self, adder8):
        c = adder8.copy()
        assert delete_dangling_gates(c) == 0
        assert c.num_gates == adder8.num_gates


class TestResizer:
    def test_resize_reduces_cpd(self, adder8, library):
        c = adder8.copy()
        area0 = c.area(library)
        result = resize_for_timing(c, library, area_con=1.3 * area0)
        assert result.cpd_after < result.cpd_before
        assert result.num_moves > 0

    def test_area_constraint_respected(self, adder8, library):
        c = adder8.copy()
        area0 = c.area(library)
        con = 1.05 * area0
        result = resize_for_timing(c, library, area_con=con)
        assert result.area_after <= con + 1e-9
        assert c.area(library) == pytest.approx(result.area_after)

    def test_no_headroom_no_moves(self, adder8, library):
        c = adder8.copy()
        area0 = c.area(library)
        result = resize_for_timing(c, library, area_con=area0)
        # All cells are already at D1+ and every upsize adds area.
        assert result.num_moves == 0
        assert result.cpd_after == pytest.approx(result.cpd_before)

    def test_structure_never_changes(self, adder8, library):
        c = adder8.copy()
        resize_for_timing(c, library, area_con=2.0 * c.area(library))
        assert c.fanins == adder8.fanins
        # Only drive codes may differ.
        for gid in c.logic_ids():
            old = adder8.cells[gid]
            new = c.cells[gid]
            assert old.rsplit("D", 1)[0] == new.rsplit("D", 1)[0]

    def test_moves_are_upsizes_on_recordings(self, adder8, library):
        c = adder8.copy()
        result = resize_for_timing(c, library, area_con=1.5 * c.area(library))
        for move in result.moves:
            from repro.cells import split_cell_name

            f_from, d_from = split_cell_name(move.from_cell)
            f_to, d_to = split_cell_name(move.to_cell)
            assert f_from == f_to
            assert d_to > d_from

    def test_more_headroom_no_worse(self, adder8, library):
        area0 = adder8.area(library)
        c_small = adder8.copy()
        r_small = resize_for_timing(c_small, library, area_con=1.1 * area0)
        c_big = adder8.copy()
        r_big = resize_for_timing(c_big, library, area_con=1.6 * area0)
        assert r_big.cpd_after <= r_small.cpd_after + 1e-6


class TestPostOptimize:
    def test_full_pipeline(self, adder8, library):
        target = adder8.logic_ids()[len(adder8.logic_ids()) // 2]
        child = applied_copy(adder8, LAC(target, CONST0))
        area_con = adder8.area(library)  # paper: Area_con = Area_ori
        result = post_optimize(child, library, area_con)
        validate(result.circuit, library)
        assert result.dangling_removed >= 1
        assert result.circuit.area(library) <= area_con + 1e-9
        # The original input circuit is untouched.
        assert child.dangling_gates() != set()

    def test_converts_area_into_timing(self, adder8, library):
        """The paper's core claim: freed area buys CPD via upsizing."""
        engine = STAEngine(library)
        target = adder8.logic_ids()[-3]
        child = applied_copy(adder8, LAC(target, CONST0))
        cpd_before = engine.analyze(child).cpd
        result = post_optimize(
            child, library, area_con=adder8.area(library)
        )
        assert result.cpd_after <= cpd_before
        if result.sizing.num_moves:
            assert result.cpd_after < cpd_before


# ----------------------------------------------------------------------
# the incremental resizer against a full-STA-per-move oracle
# ----------------------------------------------------------------------
def oracle_resize(circuit, library, area_con, max_moves=200, min_gain=1e-3):
    """The resizer as it was before incremental retiming, kept as an
    oracle: mutate in place, run a full ``analyze`` after every move
    and revert a move that did not lower the CPD.

    Returns ``(moves, cpd_before, cpd_after, area_after, stop)`` where
    ``stop`` says why the loop ended: ``"rejected"`` (the verification
    refused the best-estimate move), ``"exhausted"`` (no candidate
    left) or ``"max_moves"``.
    """
    engine = STAEngine(library)
    report = engine.analyze(circuit)
    area = circuit.area(library)
    cpd_before = current_cpd = report.cpd
    moves = []
    stop = "max_moves"
    for _ in range(max_moves):
        best = None
        for gid in path_logic_gates(circuit, report.critical_path()):
            new_cell = library.upsize(circuit.cells[gid])
            if new_cell is None:
                continue
            old_area = library.cell(circuit.cells[gid]).area
            if area + (new_cell.area - old_area) > area_con:
                continue
            gain = _estimate_gain(circuit, library, report, gid, new_cell)
            if gain <= min_gain:
                continue
            if best is None or gain > best[0]:
                best = (gain, gid, new_cell)
        if best is None:
            stop = "exhausted"
            break
        gain, gid, new_cell = best
        old_name = circuit.cells[gid]
        circuit.set_cell(gid, new_cell.name)
        new_report = engine.analyze(circuit)
        if new_report.cpd >= current_cpd:
            circuit.set_cell(gid, old_name)
            stop = "rejected"
            break
        report = new_report
        current_cpd = new_report.cpd
        area = circuit.area(library)
        moves.append(SizingMove(gid, old_name, new_cell.name, gain))
    return moves, cpd_before, current_cpd, area, stop


def _assert_matches_oracle(result, circuit, expected, expected_circuit):
    moves, cpd_before, cpd_after, area_after, _stop = expected
    assert result.moves == moves
    assert result.cpd_before == cpd_before
    assert result.cpd_after == cpd_after
    assert result.area_after == area_after
    assert dict(circuit.cells) == dict(expected_circuit.cells)
    assert dict(circuit.fanins) == dict(expected_circuit.fanins)


@pytest.fixture(scope="module")
def max16():
    # Small enough for a full STA per oracle move, and its verification
    # rejects a best-estimate move (adder8's never does).
    return build_benchmark("Max16", "scaled")


@pytest.fixture
def analyze_calls(monkeypatch):
    """Circuits passed to ``STAEngine.analyze`` while the test runs."""
    calls = []
    full = STAEngine.analyze

    def counted(engine, circuit):
        calls.append(circuit)
        return full(engine, circuit)

    monkeypatch.setattr(STAEngine, "analyze", counted)
    return calls


class TestIncrementalResizer:
    @pytest.mark.parametrize("factor", [1.05, 1.3, 1.6, 2.0])
    def test_adder8_matches_oracle(self, adder8, library, factor):
        con = factor * adder8.area(library)
        expected_circuit = adder8.copy()
        expected = oracle_resize(expected_circuit, library, con)
        c = adder8.copy()
        result = resize_for_timing(c, library, con)
        _assert_matches_oracle(result, c, expected, expected_circuit)

    def test_rejected_move_matches_oracle(self, max16, library):
        con = 1.05 * max16.area(library)
        expected_circuit = max16.copy()
        expected = oracle_resize(expected_circuit, library, con)
        assert expected[4] == "rejected" and expected[0]
        c = max16.copy()
        result = resize_for_timing(c, library, con)
        _assert_matches_oracle(result, c, expected, expected_circuit)

    @pytest.mark.parametrize(
        "name, index, const, stop",
        [
            ("adder8", 5, CONST0, "exhausted"),
            ("adder8", 12, CONST1, "exhausted"),
            ("adder8", -3, CONST0, "exhausted"),
            ("max16", 6, CONST0, "rejected"),
            ("max16", 16, CONST0, "rejected"),
        ],
    )
    def test_lac_children_match_oracle(
        self, request, library, name, index, const, stop
    ):
        base = request.getfixturevalue(name)
        target = base.logic_ids()[index]
        child = applied_copy(base, LAC(target, const))
        con = base.area(library)  # paper: Area_con = Area_ori
        expected_circuit = child.copy()
        delete_dangling_gates(expected_circuit)
        expected = oracle_resize(expected_circuit, library, con)
        assert expected[4] == stop and expected[0]
        result = post_optimize(child, library, con)
        _assert_matches_oracle(
            result.sizing, result.circuit, expected, expected_circuit
        )

    @pytest.mark.parametrize("factor", [1.0, 1.3, 2.0])
    def test_one_full_analyze_per_call(
        self, adder8, library, analyze_calls, factor
    ):
        c = adder8.copy()
        result = resize_for_timing(
            c, library, factor * adder8.area(library)
        )
        assert len(analyze_calls) == 1
        if factor > 1.0:
            assert result.num_moves > 1

    def test_one_full_analyze_per_post_optimize(
        self, max16, library, analyze_calls
    ):
        child = applied_copy(max16, LAC(max16.logic_ids()[16], CONST0))
        result = post_optimize(child, library, max16.area(library))
        assert result.sizing.num_moves > 0
        assert len(analyze_calls) == 1


class TestResizedCopy:
    def _upsizable(self, circuit, library):
        for gid in circuit.logic_ids():
            bigger = library.upsize(circuit.cells[gid])
            if bigger is not None:
                return gid, bigger.name
        raise AssertionError("no upsizable gate")

    def test_carried_memos_equal_fresh_rebuilds(self, adder8, library):
        parent = adder8.copy()
        STAEngine(library).analyze(parent)  # memoizes index + levels
        parent.live_gates()
        parent.gid_order_topo()
        gid, cell = self._upsizable(parent, library)
        child = parent.resized_copy(gid, cell)
        # Carried by reference, not rebuilt ...
        assert child.fanouts() is parent.fanouts()
        assert child.live_gates() is parent.live_gates()
        assert child.topological_order() is parent.topological_order()
        assert timing_index(child) is timing_index(parent)
        assert timing_levels(child) is timing_levels(parent)
        # ... and equal to what the resized circuit builds from scratch.
        fresh = parent.copy()
        fresh.set_cell(gid, cell)
        assert dict(child.cells) == dict(fresh.cells)
        assert child.fanouts() == fresh.fanouts()
        assert child.live_gates() == fresh.live_gates()
        assert child.topological_order() == fresh.topological_order()
        assert child.gid_order_topo() == fresh.gid_order_topo()
        ci, fi = timing_index(child), timing_index(fresh)
        assert np.array_equal(ci.gids, fi.gids)
        assert ci.row == fi.row
        assert np.array_equal(ci.po_rows, fi.po_rows)
        cl, fl = timing_levels(child), timing_levels(fresh)
        assert np.array_equal(cl.level_of, fl.level_of)
        assert cl.num_levels == fl.num_levels

    def test_cell_memos_not_carried(self, adder8, library):
        parent = adder8.copy()
        STAEngine(library).analyze(parent)
        parent.area(library)
        parent.structure_key()
        gid, cell = self._upsizable(parent, library)
        child = parent.resized_copy(gid, cell)
        for key in ("timing_plan", "skey", "full_skey", "rec_digests"):
            assert child._cached(key) is None
        # Area is the one cell memo carried: the parent's sum, adjusted
        # by the swapped cell.
        assert child._cached("area") is not None
        fresh = parent.copy()
        fresh.set_cell(gid, cell)
        assert child.area(library) == fresh.area(library)
        assert child.area(library) == math.fsum(
            library.cell(fresh.cells[g]).area
            for g in fresh.live_gates()
            if fresh.is_logic(g)
        )
        assert child.area(library) != parent.area(library)
        assert child.structure_key() == fresh.structure_key()

    def test_declares_the_swap(self, adder8, library):
        gid, cell = self._upsizable(adder8, library)
        child = adder8.resized_copy(gid, cell)
        prov = child.valid_provenance()
        assert prov is not None
        assert prov.parent is adder8
        assert prov.changed == {gid}
        assert adder8.cells[gid] != cell  # the parent is untouched

    def test_update_timing_equals_analyze(self, adder8, library):
        engine = STAEngine(library)
        parent = adder8.copy()
        report = engine.analyze(parent)
        for gid in path_logic_gates(parent, report.critical_path()):
            bigger = library.upsize(parent.cells[gid])
            if bigger is None:
                continue
            child = parent.resized_copy(gid, bigger.name)
            inc = update_timing(engine, child, report, (gid,))
            full = engine.analyze(child.copy())
            for name in (
                "arrival_a",
                "slew_a",
                "load_a",
                "unit_depth_a",
                "critical_fanin_a",
            ):
                assert np.array_equal(
                    getattr(inc, name), getattr(full, name)
                ), name
