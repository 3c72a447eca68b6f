"""Tests for the benchmark harness itself (not for the program).

Run from the repository root::

    python3 -m pytest perfbench -q
"""

import json
import os
import re
import sys
import types

import pytest

import run

sys.path.insert(0, run.SRC)

import layers  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


class TestPlans:
    """Plans are pure functions of (workload, seed)."""

    @pytest.mark.parametrize("workload", workloads.WORKLOADS)
    def test_same_seed_same_plan(self, workload):
        assert workloads.make_plan(workload, 7) == workloads.make_plan(
            workload, 7
        )

    @pytest.mark.parametrize("workload", workloads.WORKLOADS)
    def test_seeds_give_disjoint_flow_seeds(self, workload):
        a = {f.seed for f in workloads.make_plan(workload, 0).flows}
        b = {f.seed for f in workloads.make_plan(workload, 1).flows}
        assert a and b and not a & b

    def test_shapes(self):
        t2 = workloads.make_plan("table2-er", 0)
        assert {f.method for f in t2.flows} == set(workloads.METHODS)
        assert {f.mode for f in t2.flows} == {"er"}
        t3 = workloads.make_plan("table3-nmed", 0)
        assert {f.method for f in t3.flows} == {"Ours"}
        assert t3.effort == 1.0 and t3.jobs == 1
        served = workloads.make_plan("fig7-served", 0)
        assert len(served.clients) == 2 and served.jobs == 2
        assert {f.bound for f in served.clients[0]} == set(
            workloads.ER_POINTS
        )
        assert {f.bound for f in served.clients[1]} == set(
            workloads.NMED_POINTS
        )

    def test_unknown_workload(self):
        with pytest.raises(ValueError):
            workloads.make_plan("nope", 0)


class TestMetricNames:
    def test_names_are_well_formed_and_unique(self):
        names = [n for n, _ in run.END_TO_END] + [
            n for n, _ in layers.PER_LAYER
        ]
        assert all(NAME.match(n) for n in names)
        assert len(names) == len(set(names))

    def test_benchmark_json_matches_the_code(self):
        path = os.path.join(run.ROOT, "BENCHMARK.json")
        with open(path) as f:
            spec = json.load(f)
        assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(
            run.END_TO_END
        )
        assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(
            layers.PER_LAYER
        )
        assert [w["name"] for w in spec["workloads"]] == list(
            workloads.WORKLOADS
        )

    def test_expected_layers_are_metrics(self):
        known = {n for n, _ in layers.PER_LAYER}
        for expected in layers.EXPECTED_CALLS.values():
            assert set(expected) <= known

    def test_layer_metrics_fill_every_name(self):
        values = layers.layer_metrics({}, {"lake.hits": 3})
        assert list(values) == [n for n, _ in layers.PER_LAYER]
        assert values["lake.hits"] == 3 and values["postopt.calls"] == 0


class TestPercentile:
    def test_median_even_and_odd(self):
        assert workloads.percentile([4, 1, 3, 2], 50) == 2.5
        assert workloads.percentile([3, 1, 2], 50) == 2

    def test_ends_and_interpolation(self):
        values = [10.0, 20.0, 30.0, 40.0, 50.0]
        assert workloads.percentile(values, 0) == 10.0
        assert workloads.percentile(values, 100) == 50.0
        assert workloads.percentile(values, 90) == pytest.approx(46.0)

    def test_single_and_empty(self):
        assert workloads.percentile([5.0], 99) == 5.0
        with pytest.raises(ValueError):
            workloads.percentile([], 50)


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


class TestSpans:
    def test_self_time_subtracts_children(self):
        clock = FakeClock()
        t = Tracer(clock=clock)
        t.enter("root")          # 0
        clock.now = 1.0
        t.enter("child")         # 1
        clock.now = 3.0
        t.enter("grandchild")    # 3
        clock.now = 3.5
        t.exit()                 # grandchild: 0.5
        clock.now = 4.0
        t.exit()                 # child: 3.0 total, 2.5 self
        t.enter("child")         # 4
        clock.now = 6.0
        t.exit()                 # child: 2.0
        clock.now = 10.0
        t.exit()                 # root: 10 total, 10 - 3 - 2 = 5 self
        s = t.summary()
        assert s["root"] == {"calls": 1, "total_s": 10.0, "self_s": 5.0}
        assert s["child"] == {"calls": 2, "total_s": 5.0, "self_s": 4.5}
        assert s["grandchild"] == {
            "calls": 1, "total_s": 0.5, "self_s": 0.5,
        }
        total_self = sum(row["self_s"] for row in s.values())
        assert total_self == pytest.approx(s["root"]["total_s"])

    def test_patch_function_wraps_every_binding_and_restores(self):
        def target(x):
            return x + 1

        home = types.ModuleType("repro._perfbench_home")
        user = types.ModuleType("repro._perfbench_user")
        home.target = target
        user.target = target  # as after `from home import target`
        sys.modules[home.__name__] = home
        sys.modules[user.__name__] = user
        try:
            t = Tracer()
            assert t.patch_function(home, "target", "fake") == 2
            assert user.target(1) == 2 and home.target(2) == 3
            assert t.summary()["fake"]["calls"] == 2
            t.restore()
            assert home.target is target and user.target is target
        finally:
            del sys.modules[home.__name__]
            del sys.modules[user.__name__]

    def test_span_names_may_depend_on_the_stack(self):
        t = Tracer()
        analyze = t.wrap(lambda: None, layers._analyze_name)
        postopt = t.wrap(analyze, "postopt")
        postopt()
        analyze()
        s = t.summary()
        assert s["sta.analyze.postopt"]["calls"] == 1
        assert s["sta.analyze.other"]["calls"] == 1


def _pass(units, jobs, ratios):
    flow = workloads.Flow("c880", "Ours", "er", 0.05, 0)
    records = [
        workloads.FlowRecord(flow, 10, r, 1.0, 0.01, None) for r in ratios
    ]
    return workloads.PassResult(units, jobs, 0.0, records, {})


class TestSummarize:
    def test_per_unit_medians(self):
        passes = [
            _pass({"a": (1.0, 1.0), "b": (10.0, 9.0)}, [1.0, 10.0], [0.5]),
            _pass({"a": (5.0, 5.0), "b": (11.0, 10.0)}, [5.0, 11.0], [0.5]),
            _pass({"a": (2.0, 2.0), "b": (30.0, 29.0)}, [2.0, 30.0], [0.5]),
        ]
        m = workloads.summarize(passes)
        assert m["run_s"] == 2.0 + 11.0
        assert m["cpu_s"] == 2.0 + 10.0
        assert m["job_s_p50"] == (2.0 + 11.0) / 2
        assert m["ratio_cpd_gmean"] == pytest.approx(0.5)
        assert m["evals_per_s"] == pytest.approx(10 / 13.0)
        assert m["ok_share"] == 1.0
