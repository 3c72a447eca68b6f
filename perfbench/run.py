"""Repo benchmark: Table II/III flows and a served Fig. 7 sweep.

Run from the repository root::

    python3 perfbench/run.py --workload table2-er --seed 0 --seconds 30 --trace 0

One run sets up its workload several times (``setup_s`` is the median),
then repeats whole passes of the workload's plan while the next pass is
predicted to end within ``--seconds`` (at least one pass), checking
every flow's output after each pass.  With ``--trace 0`` it reports the
end-to-end metrics from per-unit medians over passes; with ``--trace 1`` the
first pass runs untraced and the second traced, and it reports the
per-layer metrics of the traced pass plus the tracing overhead.  The
last line of standard output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

The host fingerprint and the seed go to the line before it.  The
program under test is imported from ``src/`` next to this directory;
without it the benchmark exits non-zero and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import sys
import time
import warnings
from typing import Dict, List, NoReturn

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

#: Environment variables that change the program being measured.
FORBIDDEN_ENV = (
    "REPRO_JOBS",
    "REPRO_CACHE",
    "REPRO_FAULTS",
    "REPRO_SANITIZE",
    "REPRO_WORKER_TIMEOUT",
    "REPRO_WORKER_RETRIES",
    "REPRO_METHOD_TIMEOUT",
)

#: End-to-end metrics with their units, in report order.
END_TO_END = (
    ("setup_s", "s"),
    ("run_s", "s"),
    ("flows_per_min", "flows/min"),
    ("evals_per_s", "evals/s"),
    ("job_s_p50", "s"),
    ("cpu_s", "s"),
    ("ratio_cpd_gmean", "ratio"),
    ("ok_share", "ratio"),
)

#: Set-up repetitions per run (each pass adds one more sample).
SETUP_REPEATS = 8

#: Host-speed probes right before and after each set-up (calibrate.py).
SETUP_PROBES = 3


#: Where runs keep their lakes and spools (removed when a run ends).
WORKDIR = os.path.join(ROOT, ".perfbench_work")


def fail(message: str) -> NoReturn:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def import_program():
    """Import ``repro`` from this checkout's ``src/`` and nowhere else."""
    if not os.path.isdir(os.path.join(SRC, "repro")):
        fail(f"no program to measure: {SRC}/repro is missing")
    sys.path.insert(0, SRC)
    import repro

    where = os.path.dirname(os.path.abspath(repro.__file__))
    if os.path.commonpath([where, SRC]) != SRC:
        fail(f"imported repro from {where}, not from {SRC}")
    return repro


def host_fingerprint(seed: int, workload: str) -> Dict[str, object]:
    import numpy

    return {
        "workload": workload,
        "seed": seed,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
    }


class WarningCounter:
    """Counts the lake's ``RuntimeWarning``s: every one, in every process.

    The lake warns from shard workers as well as from this process, and
    the workers are forked from it, so they inherit this hook: each
    warning appends one line to ``path`` (one ``O_APPEND`` write, so
    processes never interleave a line).  Other warnings print as usual;
    the lake's are counted into ``lake.scan_warnings`` instead.
    """

    PREFIX = "evaluation lake"

    def __init__(self, path: str):
        self.path = path
        self._show = warnings.showwarning
        warnings.filterwarnings(
            "always", message=self.PREFIX, category=RuntimeWarning
        )
        warnings.showwarning = self._record

    def _record(self, message, category, filename, lineno, *rest):
        if category is RuntimeWarning and str(message).startswith(
            self.PREFIX
        ):
            line = " ".join(str(message).split()) + "\n"
            fd = os.open(self.path, os.O_WRONLY | os.O_CREAT | os.O_APPEND)
            try:
                os.write(fd, line.encode())
            finally:
                os.close(fd)
            return
        self._show(message, category, filename, lineno, *rest)

    @property
    def count(self) -> int:
        try:
            with open(self.path, "rb") as f:
                return sum(1 for _ in f)
        except FileNotFoundError:
            return 0


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run(args) -> Dict[str, object]:
    import layers
    import workloads
    from calibrate import Probe
    from spans import Tracer

    plan = workloads.make_plan(args.workload, args.seed)
    workdir = os.path.join(WORKDIR, f"{os.getpid()}")
    probe = Probe(width=plan.jobs)
    work = workloads.make_workload(plan, workdir, probe)
    os.makedirs(workdir, exist_ok=True)
    scan_warnings = WarningCounter(os.path.join(workdir, "lake-warnings.log"))
    start = time.perf_counter()
    setup_s: List[float] = []
    passes = []
    tracer = None
    problems: List[str] = []
    try:
        for _ in range(SETUP_REPEATS - 1):
            state, wall, _cpu, factor = probe.timed(SETUP_PROBES, work.setup)
            setup_s.append(factor * wall)
            work.teardown(state)
        while True:
            traced = args.trace and len(passes) == 1
            if traced:
                tracer = Tracer()
                layers.install(tracer)
                warnings_before = scan_warnings.count
            t0 = time.perf_counter()
            state, wall, _cpu, factor = probe.timed(SETUP_PROBES, work.setup)
            setup_s.append(factor * wall)
            try:
                result = work.run_pass(state, tracer if traced else None)
            finally:
                work.teardown(state)
                if traced:
                    tracer.restore()
            if traced:
                result.extra["lake.scan_warnings"] = (
                    scan_warnings.count - warnings_before
                )
            passes.append(result)
            print(
                f"perfbench: pass {len(passes)}{' traced' if traced else ''}"
                f" run_s={result.run_s:.3f} wall_s={result.wall_s:.3f}"
                f" setup_s={setup_s[-1]:.4f}"
                f" failed={result.failed}/{len(result.records)}",
                file=sys.stderr,
            )
            if args.trace:
                if len(passes) == 2:
                    break
                continue
            elapsed = time.perf_counter() - start
            last = time.perf_counter() - t0
            if elapsed + last > args.seconds:
                break
        warned = scan_warnings.count
    finally:
        probe.close()
        shutil.rmtree(workdir, ignore_errors=True)

    signatures = {p.signature() for p in passes}
    if len(signatures) != 1:
        problems.append("passes over one plan gave different results")
    for p in passes:
        for record in p.records:
            if record.problem is not None:
                problems.append(
                    f"{record.flow.circuit}/{record.flow.method}"
                    f"@{record.flow.bound} seed {record.flow.seed}: "
                    f"{record.problem}"
                )
    attempted = sum(len(p.records) for p in passes)
    failed = sum(p.failed for p in passes)

    if args.trace:
        untraced, traced_pass = passes
        extra = dict(traced_pass.extra)
        extra.update({
            "eval.evaluations": sum(r.evaluations for r in traced_pass.records),
            "proc.peak_rss_mb": peak_rss_mb(),
            "host.probe_ms": 1000.0 * probe.mean_s,
            "host.wall_run_s": untraced.wall_s,
            "trace.untraced_run_s": untraced.run_s,
            "trace.traced_run_s": traced_pass.run_s,
            "trace.overhead_s": traced_pass.run_s - untraced.run_s,
        })
        values = layers.layer_metrics(tracer.summary(), extra)
        problems.extend(layers.check_expected(args.workload, values))
        units = dict(layers.PER_LAYER)
    else:
        values = workloads.summarize(passes)
        values["setup_s"] = workloads.percentile(setup_s, 50)
        values = {name: values[name] for name, _unit in END_TO_END}
        units = dict(END_TO_END)
    print(
        f"perfbench: host probe {1000 * probe.mean_s:.2f} ms mean over "
        f"{len(probe.samples)} samples; raw wall of the last pass "
        f"{passes[-1].wall_s:.3f} s; the lake warned {warned} times",
        file=sys.stderr,
    )
    for problem in problems:
        print(f"perfbench: FAILED {problem}", file=sys.stderr)
    return {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in values.items()
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    for name in FORBIDDEN_ENV:
        if os.environ.get(name) is not None:
            fail(f"refusing to run: {name} is set and changes the program")
    import_program()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        fail(f"unknown workload {args.workload!r}; one of {workloads.WORKLOADS}")
    fingerprint = host_fingerprint(args.seed, args.workload)
    print(f"perfbench: host {json.dumps(fingerprint)}", file=sys.stderr)
    report = run(args)
    for name, metric in report["metrics"].items():
        print(
            f"perfbench: {name:28s} {metric['value']:14.6f} {metric['unit']}",
            file=sys.stderr,
        )
    print(json.dumps({"host": fingerprint}))
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
