"""Which layer functions the traced run wraps, and the per-layer metrics.

Every layer is a module of ``repro``; a span is recorded around each
call into it (see :mod:`spans`).  ``X.calls`` counts calls, ``X.self_s``
is span time minus child spans and ``X.total_s`` the full span time.
Inside shard worker processes nothing is visible from here, so on the
served workload ``shard.wait_s`` stands for the simulation, timing and
lake work the workers do.  Every lake lookup and write happens in a
worker, so the lake is measured by its own ledger (``lake.hits``,
``lake.misses``, ``lake.puts``, summed over every process).
"""

from __future__ import annotations

import math
from typing import Any, Dict, Iterable, Tuple

from spans import Tracer

#: Layers whose spans decide which caller an ``STAEngine.analyze``
#: call is charged to (nearest enclosing span wins).
_ANALYZE_PARENTS = (
    ("postopt", "postopt"),
    ("eval.", "eval"),
    ("shard", "eval"),
    ("setup.", "setup"),
)

#: Circuit accessors timed under ``netlist.<name>``.
NETLIST_METHODS = (
    "fanouts",
    "live_gates",
    "transitive_fanout",
    "structure_key",
    "copy",
)

#: Spans reported as ``<name>.calls`` and ``<name>.self_s``.
_CALLS_SELF = (
    "sta.analyze",
    "sta.analyze.postopt",
    "sta.analyze.eval",
    "sta.analyze.setup",
    "eval.single",
    "sta.update_batch",
    "sta.update",
    "sim.simulate",
    "sim.resimulate",
    "sim.error",
    "ops.search",
    "ops.simplify",
    "ops.reproduce",
    "ops.apply_lac",
    "ops.select",
    "serve.checkpoint",
    "serve.resume",
) + tuple(f"netlist.{m}" for m in NETLIST_METHODS)

#: Every per-layer metric name with its unit, in report order.
PER_LAYER: Tuple[Tuple[str, str], ...] = (
    ("postopt.calls", "count"),
    ("postopt.self_s", "s"),
    ("postopt.total_s", "s"),
    ("postopt.sizing_moves", "count"),
    ("eval.batch.calls", "count"),
    ("eval.batch.children", "count"),
    ("eval.batch.self_s", "s"),
    ("eval.batch.total_s", "s"),
    ("eval.evaluations", "count"),
) + tuple(
    item
    for name in _CALLS_SELF
    for item in ((f"{name}.calls", "count"), (f"{name}.self_s", "s"))
) + (
    ("ops.is_safe.calls", "count"),
    ("ops.is_safe.accept_ratio", "ratio"),
    ("ops.useful_ratio", "ratio"),
    ("lake.hits", "count"),
    ("lake.misses", "count"),
    ("lake.puts", "count"),
    ("lake.hit_ratio", "ratio"),
    ("lake.put_mb", "MB"),
    ("lake.segments", "count"),
    ("lake.scan_warnings", "count"),
    ("shard.calls", "count"),
    ("shard.items", "count"),
    ("shard.wait_s", "s"),
    ("shard.respawns", "count"),
    ("shard.retries", "count"),
    ("shard.timeouts", "count"),
    ("serve.queue_wait_s", "s"),
    ("serve.evictions", "count"),
    ("serve.http_503", "count"),
    ("setup.bench.self_s", "s"),
    ("setup.ctx.self_s", "s"),
    ("proc.peak_rss_mb", "MB"),
    ("host.probe_ms", "ms"),
    ("host.wall_run_s", "s"),
    ("trace.untraced_run_s", "s"),
    ("trace.traced_run_s", "s"),
    ("trace.overhead_s", "s"),
)

#: Layers each workload must touch in its traced pass (``True``) or
#: must leave alone (``False``); a zero where calls are expected means
#: a rename silently blanked the layer.
EXPECTED_CALLS: Dict[str, Dict[str, bool]] = {
    "table2-er": {
        "postopt.calls": True,
        "sta.analyze.postopt.calls": True,
        "eval.single.calls": True,
        "eval.batch.calls": True,
        "ops.search.calls": True,
        "ops.reproduce.calls": True,
        "netlist.fanouts.calls": True,
        "setup.ctx.self_s": True,
        "shard.calls": False,
        "serve.checkpoint.calls": False,
    },
    "table3-nmed": {
        "postopt.calls": True,
        "eval.single.calls": False,
        "eval.batch.calls": True,
        "sta.update_batch.calls": True,
        "ops.reproduce.calls": True,
        "netlist.fanouts.calls": True,
        "setup.ctx.self_s": True,
        "shard.calls": False,
        "serve.checkpoint.calls": False,
    },
    "fig7-served": {
        "postopt.calls": True,
        "lake.misses": True,
        "lake.puts": True,
        "shard.calls": True,
        "serve.checkpoint.calls": True,
        "serve.resume.calls": True,
        "setup.ctx.self_s": True,
    },
}


def _analyze_name(stack: Tuple[str, ...]) -> str:
    for name in reversed(stack):
        for prefix, label in _ANALYZE_PARENTS:
            if name.startswith(prefix):
                return f"sta.analyze.{label}"
    return "sta.analyze.other"


def _count_len(counter: str, position: int):
    def on_result(tracer: Tracer, args: tuple, kwargs: dict, result: Any):
        tracer.count(counter, len(args[position]))

    return on_result


def _count_true(counter: str):
    def on_result(tracer: Tracer, args: tuple, kwargs: dict, result: Any):
        if result:
            tracer.count(counter)

    return on_result


def _count_child(tracer: Tracer, args: tuple, kwargs: dict, result: Any):
    if result is not None:
        tracer.count("ops.children")


def _count_faults(tracer: Tracer, args: tuple, kwargs: dict) -> None:
    # Session.close tears the shard pool down; read its recovery
    # counters first.
    for key, value in args[0].fault_stats().items():
        tracer.count(f"shard.{key}", value)


def _count_moves(tracer: Tracer, args: tuple, kwargs: dict, result: Any):
    tracer.count("postopt.sizing_moves", result.sizing.num_moves)


def install(tracer: Tracer) -> None:
    """Wrap every layer's public functions (all ``repro`` imported)."""
    import repro.bench
    import repro.core.batch
    import repro.core.lacs
    import repro.core.pareto
    import repro.core.reproduction
    import repro.core.searching
    import repro.postopt
    import repro.sim.bitsim
    import repro.sim.error
    import repro.sta.incremental
    from repro.core.fitness import EvalContext
    from repro.core.parallel import ShardDispatcher
    from repro.core.protocol import Optimizer
    from repro.netlist import Circuit
    from repro.session import Session
    from repro.sta import STAEngine

    fn = tracer.patch_function
    fn(repro.bench, "build_benchmark", "setup.bench")
    fn(repro.postopt, "post_optimize", "postopt", _count_moves)
    fn(
        repro.core.batch, "evaluate_batch", "eval.batch",
        _count_len("eval.batch.children", 1),
    )
    fn(repro.sta.incremental, "update_timing_batch", "sta.update_batch")
    fn(repro.sta.incremental, "update_timing", "sta.update")
    fn(repro.sim.bitsim, "simulate", "sim.simulate")
    fn(repro.sim.bitsim, "resimulate_cone", "sim.resimulate")
    fn(repro.sim.error, "measure_error", "sim.error")
    fn(repro.core.searching, "circuit_search", "ops.search", _count_child)
    fn(
        repro.core.searching, "circuit_simplify", "ops.simplify",
        _count_child,
    )
    fn(
        repro.core.reproduction, "circuit_reproduce", "ops.reproduce",
        _count_child,
    )
    fn(repro.core.lacs, "applied_copy", "ops.apply_lac")
    fn(
        repro.core.lacs, "is_safe", "ops.is_safe",
        _count_true("ops.is_safe.accepted"),
    )
    fn(repro.core.pareto, "nsga2_select", "ops.select")

    method = tracer.patch_method
    method(EvalContext, "build", "setup.ctx")
    method(STAEngine, "analyze", _analyze_name)
    method(Optimizer, "_evaluate", "eval.single")
    for name in NETLIST_METHODS:
        method(Circuit, name, f"netlist.{name}")
    method(
        ShardDispatcher, "evaluate_items", "shard",
        _count_len("shard.items", 1),
    )
    method(ShardDispatcher, "_collect_one", "shard.wait")
    method(Session, "checkpoint", "serve.checkpoint")
    method(Session, "resume", "serve.resume")
    method(Session, "close", "session.close", before=_count_faults)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(
    summary: Dict[str, Dict[str, float]], extra: Dict[str, float]
) -> Dict[str, float]:
    """Every :data:`PER_LAYER` value from a tracer summary.

    ``extra`` supplies what the workload measures itself (lake census,
    shard recovery counters, serve queueing, the run times); a name
    missing from both reads 0.
    """

    def span(name: str, field: str) -> float:
        return summary.get(name, {}).get(field, 0)

    def count(name: str) -> float:
        return summary.get(name, {}).get("count", 0)

    out: Dict[str, float] = {}
    for name in _CALLS_SELF:
        if name == "sta.analyze":
            parts = [
                summary.get(key, {})
                for key in summary
                if key.startswith("sta.analyze.")
            ]
            out["sta.analyze.calls"] = sum(p.get("calls", 0) for p in parts)
            out["sta.analyze.self_s"] = sum(p.get("self_s", 0) for p in parts)
            continue
        out[f"{name}.calls"] = span(name, "calls")
        out[f"{name}.self_s"] = span(name, "self_s")
    for name in ("postopt", "eval.batch"):
        out[f"{name}.calls"] = span(name, "calls")
        out[f"{name}.self_s"] = span(name, "self_s")
        out[f"{name}.total_s"] = span(name, "total_s")
    out["postopt.sizing_moves"] = count("postopt.sizing_moves")
    out["eval.batch.children"] = count("eval.batch.children")
    out["ops.is_safe.calls"] = span("ops.is_safe", "calls")
    out["ops.is_safe.accept_ratio"] = _ratio(
        count("ops.is_safe.accepted"), span("ops.is_safe", "calls")
    )
    operator_calls = sum(
        span(name, "calls")
        for name in ("ops.search", "ops.simplify", "ops.reproduce")
    )
    out["ops.useful_ratio"] = _ratio(count("ops.children"), operator_calls)
    out["shard.calls"] = span("shard", "calls")
    out["shard.items"] = count("shard.items")
    out["shard.wait_s"] = span("shard.wait", "total_s")
    for key in ("respawns", "retries", "timeouts"):
        out[f"shard.{key}"] = count(f"shard.{key}")
    out["setup.bench.self_s"] = span("setup.bench", "self_s")
    out["setup.ctx.self_s"] = span("setup.ctx", "self_s")
    for name, _unit in PER_LAYER:
        out.setdefault(name, extra.get(name, 0))
    return {name: out[name] for name, _unit in PER_LAYER}


def check_expected(workload: str, metrics: Dict[str, float]) -> Iterable[str]:
    """Problems with the traced layers: expected-but-zero and vice versa."""
    for name, used in EXPECTED_CALLS[workload].items():
        value = metrics[name]
        if used and not value:
            yield f"{workload}: layer metric {name} is 0 but must be used"
        if not used and value:
            yield f"{workload}: layer metric {name} is {value} but must be 0"


def gmean(values: Iterable[float]) -> float:
    """Geometric mean of positive values."""
    values = list(values)
    return math.exp(sum(math.log(v) for v in values) / len(values))
