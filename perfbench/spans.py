"""In-memory span tracer for the traced benchmark run.

The tracer wraps the public functions of each layer from outside the
program: :meth:`Tracer.patch_function` replaces a function in *every*
loaded ``repro`` module that holds it, so a function bound by
``from x import y`` is wrapped where it is looked up
(``repro.core.dcgwo.circuit_search`` as well as
``repro.core.searching.circuit_search``); :meth:`Tracer.patch_method`
wraps a method on its class.  :meth:`Tracer.restore` undoes every patch.

Each thread keeps its own span stack and its own totals, so served jobs
running on service threads nest correctly and the hot path takes no
lock.  A forked child (a shard worker) stops recording: its spans would
never reach the parent anyway.

A span's *self* time is its duration minus the durations of its direct
children, so the self times of nested spans add up to the root span's
duration.
"""

from __future__ import annotations

import functools
import os
import sys
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Tuple, Union

#: ``name`` argument of the patch helpers: a fixed span name, or a
#: function of the enclosing span names (outermost first).
SpanName = Union[str, Callable[[Tuple[str, ...]], str]]

#: ``on_result(tracer, args, kwargs, result)``: counts derived from a
#: call's arguments and result (children per batch, accepted checks).
OnResult = Callable[["Tracer", tuple, dict, Any], None]

#: ``before(tracer, args, kwargs)``: counts read just before the call
#: (state the call is about to discard).
Before = Callable[["Tracer", tuple, dict], None]


class Tracer:
    """Span stacks per thread, aggregated as calls / total / self time.

    Args:
        clock: monotonic seconds; tests pass a fake clock.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.enabled = True
        self._local = threading.local()
        #: Every thread's ``(totals, counts)`` pair, merged by
        #: :meth:`summary`.
        self._threads: List[Tuple[Dict[str, List[float]], Dict[str, float]]] = []
        self._undo: List[Tuple[Any, str, Any]] = []
        tracer = self

        def _stop_in_child() -> None:
            tracer.enabled = False

        os.register_at_fork(after_in_child=_stop_in_child)

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------
    def _state(self):
        local = self._local
        stack = getattr(local, "stack", None)
        if stack is None:
            stack = local.stack = []
            local.totals = {}
            local.counts = {}
            self._threads.append((local.totals, local.counts))
        return local

    def names(self) -> Tuple[str, ...]:
        """Names of the spans open on this thread, outermost first."""
        return tuple(frame[0] for frame in self._state().stack)

    def enter(self, name: str) -> None:
        """Open a span on this thread."""
        # frame = [name, start, time covered by direct children]
        self._state().stack.append([name, self.clock(), 0.0])

    def exit(self) -> float:
        """Close this thread's innermost span; returns its duration."""
        local = self._state()
        name, start, child = local.stack.pop()
        duration = self.clock() - start
        if local.stack:
            local.stack[-1][2] += duration
        row = local.totals.get(name)
        if row is None:
            row = local.totals[name] = [0, 0.0, 0.0]
        row[0] += 1
        row[1] += duration
        row[2] += duration - child
        return duration

    def count(self, name: str, amount: float = 1) -> None:
        """Add to a plain counter on this thread."""
        counts = self._state().counts
        counts[name] = counts.get(name, 0) + amount

    def summary(self) -> Dict[str, Dict[str, float]]:
        """``{span: {"calls", "total_s", "self_s"}}`` over all threads,
        plus ``{counter: {"count"}}`` for plain counters."""
        out: Dict[str, Dict[str, float]] = {}
        for totals, counts in list(self._threads):
            for name, (calls, total, self_s) in list(totals.items()):
                row = out.setdefault(
                    name, {"calls": 0, "total_s": 0.0, "self_s": 0.0}
                )
                row["calls"] += calls
                row["total_s"] += total
                row["self_s"] += self_s
            for name, amount in list(counts.items()):
                row = out.setdefault(name, {"count": 0})
                row["count"] = row.get("count", 0) + amount
        return out

    # ------------------------------------------------------------------
    # wrapping
    # ------------------------------------------------------------------
    def wrap(
        self,
        fn: Callable,
        name: SpanName,
        on_result: Optional[OnResult] = None,
        before: Optional[Before] = None,
    ) -> Callable:
        """``fn`` inside a span (pass-through once tracing is off)."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            if before is not None:
                before(tracer, args, kwargs)
            label = name if isinstance(name, str) else name(tracer.names())
            tracer.enter(label)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.exit()
            if on_result is not None:
                on_result(tracer, args, kwargs, result)
            return result

        return traced

    def patch_function(
        self,
        module: Any,
        attr: str,
        name: SpanName,
        on_result: Optional[OnResult] = None,
    ) -> int:
        """Wrap ``module.attr`` in every ``repro`` module bound to it.

        Returns how many bindings were replaced (at least one).
        """
        original = getattr(module, attr)
        wrapper = self.wrap(original, name, on_result)
        replaced = 0
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (
                mod_name == "repro" or mod_name.startswith("repro.")
            ):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)
                    self._undo.append((mod, key, original))
                    replaced += 1
        if not replaced:
            raise LookupError(f"{module.__name__}.{attr} is bound nowhere")
        return replaced

    def patch_method(
        self,
        cls: type,
        attr: str,
        name: SpanName,
        on_result: Optional[OnResult] = None,
        before: Optional[Before] = None,
    ) -> None:
        """Wrap a method (plain or classmethod) on its class."""
        original = cls.__dict__[attr]
        if isinstance(original, classmethod):
            wrapped: Any = classmethod(
                self.wrap(original.__func__, name, on_result, before)
            )
        else:
            wrapped = self.wrap(original, name, on_result, before)
        setattr(cls, attr, wrapped)
        self._undo.append((cls, attr, original))

    def restore(self) -> None:
        """Undo every patch, newest first; recording stops."""
        self.enabled = False
        while self._undo:
            owner, key, original = self._undo.pop()
            setattr(owner, key, original)
