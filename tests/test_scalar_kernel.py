"""The fused scalar NLDM kernel against the per-fan-in scan it replaced.

:func:`repro.sta.store.eval_gate_scalar` locates the load once per gate
and each slew once per fan-in, inlines the bilinear interpolation, and
looks the output slew up once for the winning fan-in.  The oracle below
is the scan it replaced, kept verbatim: ``cell.delay`` per fan-in and
``cell.output_slew`` each time the running maximum moves.  Every output
is compared with ``==``, never approximately.
"""

from __future__ import annotations

import itertools
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cells import FUNCTIONS, Cell, cell_name
from repro.cells.timing_model import NLDMTable, TimingArc, _interp_index
from repro.sta.store import eval_gate_scalar

INPUT_SLEW = 20.0


def oracle_eval_gate(cell, fan_timing, load, input_slew):
    """The per-fan-in scan: one delay and slew lookup per improvement."""
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


def oracle_interp_index(axis, value):
    """The linear-scan axis search ``_interp_index`` replaced."""
    if value <= axis[0]:
        return 0, 0.0
    if value >= axis[-1]:
        return len(axis) - 2, 1.0
    for i in range(len(axis) - 1):
        if value <= axis[i + 1]:
            span = axis[i + 1] - axis[i]
            return i, (value - axis[i]) / span
    return len(axis) - 2, 1.0


def _probe_points(axis):
    """Every breakpoint, each midpoint, and both sides of both ends."""
    mids = [(a + b) / 2.0 for a, b in zip(axis, axis[1:])]
    return (
        list(axis)
        + mids
        + [axis[0] - 1.0, axis[0] / 2.0, axis[-1] + 1.0, axis[-1] * 3.0]
    )


def _skewed_cell():
    """A cell whose delay and output-slew tables use different axes."""
    delay = NLDMTable(
        (4.0, 12.0, 50.0),
        (0.5, 3.0, 9.0, 30.0),
        ((5.0, 7.5, 11.0, 19.0), (6.0, 9.0, 13.5, 23.0), (9.0, 13.0, 18.0, 30.0)),
    )
    slew = NLDMTable(
        (3.0, 40.0),
        (1.0, 20.0),
        ((8.0, 30.0), (16.0, 52.0)),
    )
    return Cell(
        name=cell_name("AND2", 7),
        function=FUNCTIONS["AND2"],
        drive=7,
        area=1.0,
        input_cap=1.0,
        arc=TimingArc(delay=delay, output_slew=slew),
        max_load=64.0,
    )


@pytest.fixture(scope="module")
def cells(library):
    return library.cells()[::4] + [_skewed_cell()]


class TestInterpIndex:
    def test_nan_clamps_to_the_last_segment(self):
        axis = (5.0, 10.0, 20.0, 40.0)
        assert _interp_index(axis, math.nan) == (len(axis) - 2, 1.0)
        assert oracle_interp_index(axis, math.nan) == (len(axis) - 2, 1.0)

    def test_matches_linear_scan(self, cells):
        for cell in cells:
            for table in (cell.arc.delay, cell.arc.output_slew):
                for axis in (table.slew_axis, table.load_axis):
                    for value in _probe_points(axis) + [
                        -math.inf, math.inf, math.nan,
                    ]:
                        assert _interp_index(axis, value) == (
                            oracle_interp_index(axis, value)
                        ), (axis, value)

    def test_inner_breakpoint_lands_on_the_segment_below(self):
        axis = (1.0, 2.0, 4.0)
        assert _interp_index(axis, 2.0) == (0, 1.0)


class TestFusedKernel:
    def test_breakpoints_and_out_of_range(self, cells):
        for cell in cells:
            table = cell.arc.delay
            slews = _probe_points(table.slew_axis)
            for load in _probe_points(table.load_axis):
                for s0, s1 in itertools.product(slews[::2], slews[1::3]):
                    fan = [(3.0, s0, 2, 11), (2.5, s1, 4, 12)]
                    assert eval_gate_scalar(
                        cell, fan, load, INPUT_SLEW
                    ) == oracle_eval_gate(cell, fan, load, INPUT_SLEW)

    def test_equal_arrival_ties_keep_the_first_fanin(self, cells):
        for cell in cells:
            fan = [(7.0, 15.0, 3, 21), (7.0, 15.0, 5, 22), (7.0, 15.0, 1, 23)]
            got = eval_gate_scalar(cell, fan, 2.0, INPUT_SLEW)
            assert got == oracle_eval_gate(cell, fan, 2.0, INPUT_SLEW)
            assert got[2:] == (4, 21)

    def test_tie_between_different_slews(self):
        # Flat delay table: arrivals tie exactly whatever the slews, so
        # the first fan-in's slew must feed the output-slew lookup.
        flat = NLDMTable((5.0, 50.0), (1.0, 10.0), ((4.0, 4.0), (4.0, 4.0)))
        ramp = NLDMTable((5.0, 50.0), (1.0, 10.0), ((6.0, 9.0), (30.0, 40.0)))
        cell = Cell(
            name=cell_name("OR2", 1),
            function=FUNCTIONS["OR2"],
            drive=1,
            area=1.0,
            input_cap=1.0,
            arc=TimingArc(delay=flat, output_slew=ramp),
            max_load=64.0,
        )
        fan = [(1.0, 40.0, 2, 5), (1.0, 8.0, 6, 6)]
        got = eval_gate_scalar(cell, fan, 3.0, INPUT_SLEW)
        assert got == oracle_eval_gate(cell, fan, 3.0, INPUT_SLEW)
        assert got[1] == ramp.lookup(40.0, 3.0)
        assert got[2:] == (3, 5)

    def test_constant_fanins(self, cells):
        const = (0.0, INPUT_SLEW, 0, -1)
        for cell in cells:
            for fan in (
                [const, const],
                [const, (0.0, INPUT_SLEW, 0, 8)],
                [(1.5, 9.0, 2, 8), const, const],
            ):
                assert eval_gate_scalar(
                    cell, fan, 4.0, INPUT_SLEW
                ) == oracle_eval_gate(cell, fan, 4.0, INPUT_SLEW)

    def test_no_fanins(self, cells):
        for cell in cells:
            assert eval_gate_scalar(cell, [], 1.0, INPUT_SLEW) == (
                oracle_eval_gate(cell, [], 1.0, INPUT_SLEW)
            )

    def test_uniform_sweep(self, cells):
        # Interior points exercise the ulp-level operation order that
        # breakpoints (fractions 0, 0.5, 1) cannot tell apart.
        rng = random.Random(3)
        for _ in range(3000):
            cell = rng.choice(cells)
            fan = [
                (rng.uniform(0.0, 80.0), rng.uniform(1.0, 200.0), k, k)
                for k in range(rng.randint(1, 4))
            ]
            load = rng.uniform(0.1, 40.0)
            assert eval_gate_scalar(
                cell, fan, load, INPUT_SLEW
            ) == oracle_eval_gate(cell, fan, load, INPUT_SLEW)

    def test_nan_slew(self, cells):
        for cell in cells:
            fan = [(2.0, math.nan, 1, 3), (2.0, 30.0, 2, 4)]
            assert eval_gate_scalar(
                cell, fan, 2.5, INPUT_SLEW
            ) == oracle_eval_gate(cell, fan, 2.5, INPUT_SLEW)


_finite = st.floats(-5.0, 400.0, allow_nan=False)


@given(
    index=st.integers(0, 10_000),
    load=st.one_of(_finite, st.sampled_from((0.5, 1.0, 2.0, 32.0, 64.0))),
    fan=st.lists(
        st.tuples(
            st.sampled_from((0.0, 1.0, 12.5, 40.0)),
            st.one_of(_finite, st.sampled_from((5.0, 10.0, 160.0))),
            st.integers(0, 9),
            st.integers(-1, 50),
        ),
        min_size=1,
        max_size=4,
    ),
)
@settings(max_examples=200, deadline=None)
def test_random_gates_match_the_scan(cells, index, load, fan):
    cell = cells[index % len(cells)]
    assert eval_gate_scalar(cell, fan, load, INPUT_SLEW) == oracle_eval_gate(
        cell, fan, load, INPUT_SLEW
    )
