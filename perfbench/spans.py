"""Spans recorded around calls into newslens, from outside the program.

``Tracer.install`` replaces the stage functions and the layer functions
that ``newslens.pipeline`` imports by name, plus ``run_pipeline`` and
``report.emit_outputs``, with wrappers that record one span per call.
Spans stay in memory; the caller writes them out when the run ends.
A span is named ``<module>.<function>`` after the module that defines it.
"""

from __future__ import annotations

import functools
import inspect
import time


class Tracer:
    """``counters`` maps a span name to a function of (arguments, result)
    that returns counts to add up at that boundary."""

    def __init__(self, run_id: int, counters: dict):
        self.run_id = run_id
        self.counters = counters
        # name, start, end, parent index (-1 for a root span), run id
        self.spans: list[list] = []
        self.counts: dict[str, int] = {}
        self._stack: list[int] = []

    def install(self, pipeline, report) -> None:
        for attr, fn in list(vars(pipeline).items()):
            module = getattr(fn, "__module__", "") or ""
            layer = module.startswith("newslens.") and module != pipeline.__name__
            if inspect.isfunction(fn) and (layer or attr.startswith("stage_") or attr == "run_pipeline"):
                setattr(pipeline, attr, self._wrap(fn))
        report.emit_outputs = self._wrap(report.emit_outputs)

    def _wrap(self, fn):
        name = f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            self.spans.append([name, time.perf_counter(), None, parent, self.run_id])
            self._stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._stack.pop()
                self.spans[index][2] = time.perf_counter()
            count = self.counters.get(name)
            if count is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                for key, value in count(bound.arguments, result).items():
                    self.counts[key] = self.counts.get(key, 0) + value
            return result

        return traced

    def self_times(self) -> list[float]:
        """Each span's duration minus its direct children's.

        The program is single-threaded, so children never overlap.
        """
        own = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def totals(self) -> tuple[dict[str, float], dict[str, float]]:
        """Summed wall time and summed self time per span name."""
        total: dict[str, float] = {}
        own: dict[str, float] = {}
        for (name, start, end, _, _), self_s in zip(self.spans, self.self_times()):
            total[name] = total.get(name, 0.0) + (end - start)
            own[name] = own.get(name, 0.0) + self_s
        return total, own
