"""Unit tests for the evaluation context and Eq. 8 fitness."""

import math

import pytest

from repro.core import (
    DepthMode,
    EvalContext,
    LAC,
    applied_copy,
    evaluate,
)
from repro.netlist import CONST0
from repro.sim import ErrorMode, random_vectors


@pytest.fixture
def ctx(adder8, library):
    return EvalContext.build(
        adder8, library, ErrorMode.NMED, num_vectors=1024, seed=3
    )


class TestContextBuild:
    def test_reference_baselines(self, ctx, adder8, library):
        assert ctx.depth_ori > 0.0
        assert ctx.area_ori == adder8.area(library)
        assert ctx.area_ori == math.fsum(
            library.cell(adder8.cells[g]).area for g in adder8.logic_ids()
        )
        assert ctx.cpd_ori == ctx.depth_ori  # DELAY mode default
        assert ctx.wa == pytest.approx(0.2)

    def test_unit_depth_mode(self, adder8, library):
        ctx = EvalContext.build(
            adder8, library, ErrorMode.ER, num_vectors=256,
            depth_mode=DepthMode.UNIT,
        )
        assert ctx.depth_ori == float(int(ctx.depth_ori))
        assert ctx.depth_ori >= 8  # carry chain depth

    def test_bad_wd_rejected(self, adder8, library):
        with pytest.raises(ValueError):
            EvalContext.build(
                adder8, library, ErrorMode.ER, num_vectors=64, wd=1.5
            )

    def test_explicit_vectors_used(self, adder8, library):
        vecs = random_vectors(len(adder8.pi_ids), 128, seed=9)
        ctx = EvalContext.build(
            adder8, library, ErrorMode.ER, vectors=vecs
        )
        assert ctx.vectors is vecs


class TestEvaluate:
    def test_accurate_circuit_is_unity(self, ctx, adder8):
        ev = evaluate(ctx, adder8.copy())
        assert ev.fd == pytest.approx(1.0)
        assert ev.fa == pytest.approx(1.0)
        assert ev.fitness == pytest.approx(1.0)
        assert ev.error == 0.0

    def test_lac_reduces_area_increases_fa(self, ctx, adder8):
        target = adder8.logic_ids()[0]
        child = applied_copy(adder8, LAC(target, CONST0))
        ev = evaluate(ctx, child)
        assert ev.fa > 1.0  # dangled gates shrink live area
        assert 0.0 <= ev.error <= 1.0
        assert len(ev.per_po_error) == len(adder8.po_ids)

    def test_fitness_mixes_weights(self, adder8, library):
        ctx_d = EvalContext.build(
            adder8, library, ErrorMode.NMED, num_vectors=256, wd=1.0
        )
        ctx_a = EvalContext.build(
            adder8, library, ErrorMode.NMED, num_vectors=256, wd=0.0
        )
        target = adder8.logic_ids()[0]
        child = applied_copy(adder8, LAC(target, CONST0))
        ev_d = evaluate(ctx_d, child)
        ev_a = evaluate(ctx_a, child)
        assert ev_d.fitness == pytest.approx(ev_d.fd)
        assert ev_a.fitness == pytest.approx(ev_a.fa)

    def test_cpd_property(self, ctx, adder8):
        ev = evaluate(ctx, adder8.copy())
        assert ev.cpd == ev.report.cpd

    def test_error_mode_dispatch(self, adder8, library):
        ctx_er = EvalContext.build(
            adder8, library, ErrorMode.ER, num_vectors=512, seed=1
        )
        target = adder8.logic_ids()[3]
        child = applied_copy(adder8, LAC(target, CONST0))
        ev_er = evaluate(ctx_er, child)
        ctx_nm = EvalContext.build(
            adder8, library, ErrorMode.NMED, num_vectors=512, seed=1
        )
        ev_nm = evaluate(ctx_nm, child)
        # ER counts any flip; NMED weights by significance: for an adder
        # LAC near the LSB the NMED value is never larger than the ER.
        assert ev_nm.error <= ev_er.error + 1e-12
