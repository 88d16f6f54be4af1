"""Span recording and self-time arithmetic for the traced run.

A span is one call of a wrapped boundary function, stored as the list
``[name, metric, parent, start, end, command]``: the function's name,
the per-layer metric its self time is charged to, the index of the
span it was called from (``None`` at the root), its start and end on
the tracer's clock, and the index of the CLI command it ran under, so
that all spans of one command share that id. Spans stay in memory
until the pass ends.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict

# Counters are computed after the wrapped call returns, inside a span of
# their own, so their cost is charged here and not to the caller's layer.
BOOKKEEPING = "trace.bookkeeping_s"

# Exceptions a counter may raise when a boundary function changed its
# signature; the call itself has already succeeded by then.
_COUNTER_ERRORS = (TypeError, ValueError, KeyError, IndexError, AttributeError)


class Tracer:
    """Records nested spans and work counters for one pass."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []
        self.counts: defaultdict[str, int] = defaultdict(int)
        self.command: int | None = None
        self._stack: list[int] = []

    def call(self, name: str, metric: str, fn, *args, **kwargs):
        """Call ``fn`` inside a span charged to ``metric``."""
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        span = [name, metric, parent, 0.0, 0.0, self.command]
        self.spans.append(span)
        self._stack.append(sid)
        span[3] = self.clock()
        try:
            return fn(*args, **kwargs)
        finally:
            span[4] = self.clock()
            self._stack.pop()

    def wrap(self, fn, name: str, metric: str, counter=None):
        """``fn`` wrapped in a span; ``counter(counts, args, kwargs, result)``
        then adds its work counts."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = self.call(name, metric, fn, *args, **kwargs)
            if counter is not None:
                self.call(name, BOOKKEEPING, self._count, counter, args, kwargs, result)
            return result

        return wrapper

    def _count(self, counter, args, kwargs, result) -> None:
        try:
            counter(self.counts, args, kwargs, result)
        except _COUNTER_ERRORS:
            self.counts["trace.counter_errors"] += 1


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the durations of its direct children.

    Spans of one thread nest without overlap, so the children of a span
    cover exactly the sum of their durations.
    """
    own = [end - start for _, _, _, start, end, _ in spans]
    for _, _, parent, start, end, _ in spans:
        if parent is not None:
            own[parent] -= end - start
    return own


def metric_seconds(spans: list[list], factors: list[float] | None = None) -> dict[str, float]:
    """Self time summed per metric, each span's scaled by its command's factor."""
    out: defaultdict[str, float] = defaultdict(float)
    for span, own in zip(spans, self_times(spans)):
        out[span[1]] += own * (factors[span[5]] if factors else 1.0)
    return dict(out)
