"""In-memory spans for the traced benchmark run, and their busy and self times.

A span is one call of a wrapped function, stored as the list
``[name, start, end, parent, counts]``: start and end on the
``time.perf_counter`` clock, ``parent`` the index of the span that was open
when the call began (-1 at top level), and ``counts`` the dict a counter read
from the call's arguments and result (or None).
"""

from __future__ import annotations

import functools
import time


class Tracer:
    """Replaces functions where their callers look them up by recording wrappers.

    The wrappers stay for the life of the process, which is one benchmark run.
    """

    def __init__(self):
        self.spans: list[list] = []
        self._open: list[int] = []

    def wrap(self, owner, attr, name, counter=None):
        """Record a span named ``name`` for every call of ``owner.attr``.

        ``owner`` is a module or a class; ``counter(args, result)`` returns the
        counts to store on the span.
        """
        original = getattr(owner, attr)
        spans, open_spans = self.spans, self._open

        @functools.wraps(original)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, open_spans[-1] if open_spans else -1, None]
            open_spans.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                open_spans.pop()
            if counter is not None:
                span[4] = counter(args, result)
            return result

        setattr(owner, attr, traced)


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it its direct children cover."""
    children: list[list[int]] = [[] for _ in spans]
    for index, span in enumerate(spans):
        if span[3] >= 0:
            children[span[3]].append(index)
    result = []
    for index, (_, start, end, _, _) in enumerate(spans):
        covered, reach = 0.0, start
        for lo, hi in sorted((spans[c][1], spans[c][2]) for c in children[index]):
            lo, hi = max(lo, reach), min(hi, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        result.append(end - start - covered)
    return result


def layer_totals(spans) -> dict[str, dict]:
    """Per span name: calls, busy_s (summed durations), self_s and summed counts.

    None of the wrapped functions recurse, so summed durations do not count
    any interval twice.
    """
    totals: dict[str, dict] = {}
    for span, own in zip(spans, self_times(spans)):
        name, start, end, _, counts = span
        entry = totals.setdefault(name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
        entry["calls"] += 1
        entry["busy_s"] += end - start
        entry["self_s"] += own
        for key, value in (counts or {}).items():
            entry[key] = entry.get(key, 0) + value
    return totals
