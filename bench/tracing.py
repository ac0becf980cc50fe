"""Spans and counters recorded around the benchmark's own calls into the library.

A span is (name, start, end, parent, query id), timed with perf_counter and
kept in memory until the run writes them out.  Spans wrap only calls made
by the benchmark, so time a library function spends inside another library
function is charged to the outer call.  Counters (calls per layer and the
work counts the recipes report) are kept whether or not spans are on.
After every call, and after its span is closed, the after_call hook runs;
the runner takes its host-speed reference samples there.
"""

from __future__ import annotations

import math
from collections import Counter
from time import perf_counter


class Tracer:
    def __init__(self, after_call=None):
        self.enabled = False
        self.after_call = after_call
        self.spans: list[tuple] = []
        self.counters: Counter = Counter()
        self.qid: int | None = None
        self._stack: list[int] = []

    def call(self, name: str, fn, *args, **kwargs):
        """Call fn, counting the call under name and, when enabled, recording a span."""
        self.counters[name + ".calls"] += 1
        try:
            return self._call(name, fn, *args, **kwargs)
        finally:
            if self.after_call is not None:
                self.after_call()

    def _call(self, name: str, fn, *args, **kwargs):
        if not self.enabled:
            return fn(*args, **kwargs)
        sid = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            self._stack.pop()
            self.spans[sid] = (name, start, end, parent, self.qid)

    def count(self, name: str, amount: int = 1) -> None:
        self.counters[name] += amount


def busy_by_name(spans) -> Counter:
    """Summed span durations per span name."""
    out: Counter = Counter()
    for name, start, end, _, _ in spans:
        out[name] += end - start
    return out


def busy_by_query(spans, name: str) -> dict[int, float]:
    """Summed durations of the spans called name, per query id."""
    out: dict[int, float] = {}
    for span_name, start, end, _, qid in spans:
        if span_name == name:
            out[qid] = out.get(qid, 0.0) + end - start
    return out


def loglog_slope(points) -> float:
    """Least-squares slope of log(time) against log(size); 0.0 without two distinct sizes."""
    pts = [(math.log(x), math.log(y)) for x, y in points if x > 0 and y > 0]
    if len({x for x, _ in pts}) < 2:
        return 0.0
    mx = sum(x for x, _ in pts) / len(pts)
    my = sum(y for _, y in pts) / len(pts)
    sxx = sum((x - mx) ** 2 for x, _ in pts)
    sxy = sum((x - mx) * (y - my) for x, y in pts)
    return sxy / sxx
