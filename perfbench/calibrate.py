"""Host-speed probe: express run times at a reference host speed.

On a shared host the same work can take half again as long from one
minute to the next: a neighbour toggling on the same physical core
slows every instruction, and the slowdown shows in CPU time as much as
in wall time.  The probe is a fixed piece of Python and NumPy work that
imports nothing from the program.  A burst of it runs right before and
right after every timed unit, and where the unit lets the benchmark in
(an optimizer callback between iterations) single probes run inside it
too, at most every :data:`Probe.TICK_S`, their time taken out of the
unit's.  The mean probe time estimates how much slower than uncontended
the host was while the unit ran; the unit's time is reported scaled by
``REFERENCE_S / mean probe time``: seconds on a host where one probe
takes :data:`REFERENCE_S`.  No probe overlaps work it measures.

A workload that keeps ``width`` processors busy is probed ``width``
wide: helper processes run their bursts at the same moment as this
process, so the probe sees the same sharing of the host's cores as the
workload does.
"""

from __future__ import annotations

import multiprocessing
import resource
import time
from typing import List

import numpy as np

#: Probe time on an uncontended host (2 vCPU x86-64 VM, Python 3.11,
#: NumPy 2.4), the speed reported times are scaled to.
REFERENCE_S = 0.005


def probe() -> None:
    """A fixed mix of interpreter work and small-array NumPy work."""
    table: dict = {}
    for i in range(40000):
        key = i & 511
        table[key] = table.get(key, 0) + i
    words = np.arange(2048, dtype=np.uint64)
    shift = np.uint64(3)
    for i in range(60):
        words = (words ^ (words >> shift)) + np.uint64(i)


def _probe_times(count: int) -> List[float]:
    times = []
    for _ in range(count):
        t0 = time.perf_counter()
        probe()
        times.append(time.perf_counter() - t0)
    return times


def _helper(conn) -> None:
    """Helper process: one burst per request, until ``None``."""
    while True:
        count = conn.recv()
        if count is None:
            return
        conn.send(_probe_times(count))


class Probe:
    """Times probe bursts; keeps every sample for the run's report.

    Args:
        width: processors the probed workload keeps busy; ``width - 1``
            helper processes burst alongside this one.  :meth:`close`
            stops them.

    Helpers are forked, which needs no resource-tracker process that
    would outlive :meth:`close`; create the probe before this process
    starts any thread.
    """

    #: Least time between two :meth:`tick` probes inside a timed call.
    TICK_S = 0.1

    def __init__(self, width: int = 1):
        self.samples: List[float] = []
        self._helpers = []
        self._inner: List[float] = []
        self._last_tick = 0.0
        mp = multiprocessing.get_context("fork")
        for _ in range(width - 1):
            parent, child = mp.Pipe()
            proc = mp.Process(target=_helper, args=(child,), daemon=True)
            proc.start()
            child.close()
            self._helpers.append((proc, parent))

    def close(self) -> None:
        for proc, conn in self._helpers:
            conn.send(None)
            proc.join(timeout=10.0)
            if proc.is_alive():
                proc.kill()
                proc.join()
            conn.close()
        self._helpers = []

    def burst(self, count: int) -> List[float]:
        """Run ``count`` probes on each lane; returns their times."""
        for _proc, conn in self._helpers:
            conn.send(count)
        times = _probe_times(count)
        for _proc, conn in self._helpers:
            times.extend(conn.recv())
        self.samples.extend(times)
        return times

    @property
    def mean_s(self) -> float:
        return sum(self.samples) / len(self.samples)

    def tick(self) -> None:
        """Probe once from inside a :meth:`timed` call, at most every
        :data:`TICK_S`; the probe's time is taken out of the call's."""
        now = time.perf_counter()
        if now - self._last_tick < self.TICK_S:
            return
        (spent,) = _probe_times(1)
        self._inner.append(spent)
        self.samples.append(spent)
        self._last_tick = now + spent

    def timed(self, count: int, fn, *args):
        """``fn(*args)`` between two bursts of ``count`` probes.

        Returns ``(result, wall_s, cpu_s, factor)``: the wall and CPU
        seconds of the call less any :meth:`tick` probes it made, and
        the reference-speed seconds per raw second over every probe
        around and inside it.
        """
        window = self.burst(count)
        self._inner = []
        cpu0 = cpu_seconds()
        t0 = self._last_tick = time.perf_counter()
        result = fn(*args)
        inner = sum(self._inner)
        wall = time.perf_counter() - t0 - inner
        cpu = cpu_seconds() - cpu0 - inner
        window += self._inner + self.burst(count)
        return result, wall, cpu, REFERENCE_S * len(window) / sum(window)


def cpu_seconds() -> float:
    """User+sys seconds of this process and its reaped children."""
    me = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return me.ru_utime + me.ru_stime + kids.ru_utime + kids.ru_stime
