"""In-memory span tracing wrapped around ringprune's public functions.

Spans are recorded from the benchmark's side of each module boundary: the
benchmark replaces a module attribute (or a task method) with a wrapper for
the duration of one run. Spans stay in memory and are written out once the
run has ended.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from time import perf_counter


class Tracer:
    """Records (name, start, end, parent) spans of nested calls."""

    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int] | None] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            span_id = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(span_id)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[span_id] = (name, start, end, parent)

        return traced

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: call count, total seconds, and self seconds.

        Self time is a span's duration minus the durations of its direct
        children; spans of one run are sequential, so children never overlap.
        """
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        totals: dict[str, dict[str, float]] = {}
        for i, (name, start, end, _parent) in enumerate(self.spans):
            entry = totals.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            entry["calls"] += 1
            entry["s"] += end - start
            entry["self_s"] += end - start - child_time[i]
        return totals

    def write(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(
                [{"name": n, "start": s, "end": e, "parent": p} for n, s, e, p in self.spans],
                fh,
            )


@contextmanager
def patched(replacements):
    """Set ``obj.attr = value`` for each (obj, attr, value), restoring on exit."""
    saved = [(obj, attr, getattr(obj, attr)) for obj, attr, _value in replacements]
    for obj, attr, value in replacements:
        setattr(obj, attr, value)
    try:
        yield
    finally:
        for obj, attr, value in reversed(saved):
            setattr(obj, attr, value)
