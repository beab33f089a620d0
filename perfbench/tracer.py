"""In-memory span tracer that wraps module attributes of the randterm package.

Each call through a wrapped name records a span: name, parent span, start and
end (perf_counter seconds), plus optional counters computed from the result
after the end timestamp.  Spans stay in memory; ``summarize`` folds them into
per-name totals, self times and call counts.

Wrapping replaces the attribute the *caller* looks up.  A name bound at import
time (``from .grid import motionless_set``) is a separate attribute of the
importing module and is wrapped there too, under the span name of the function
it refers to.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    parent: int  # index into Tracer.spans, -1 for a root span
    start: float
    end: float = 0.0
    counts: dict = field(default_factory=dict)


class Tracer:
    """Records spans for every call through the attributes it wraps.

    Use as a context manager: leaving it restores every wrapped attribute.
    """

    def __init__(self):
        self.spans = []
        self._stack = []
        self._patched = []  # (module, attr, original)

    def wrap(self, module, attr, name, count=None):
        """Replace module.attr by a recording wrapper.  count(result) returns
        a dict of counters attached to the span."""
        orig = getattr(module, attr)
        tracer = self

        def wrapper(*args, **kwargs):
            with tracer.span(name) as span:
                result = orig(*args, **kwargs)
            if count is not None:
                span.counts = count(result)
            return result

        setattr(module, attr, wrapper)
        self._patched.append((module, attr, orig))

    @contextmanager
    def span(self, name):
        span = Span(name, self._stack[-1] if self._stack else -1, 0.0)
        self.spans.append(span)
        self._stack.append(len(self.spans) - 1)
        span.start = time.perf_counter()
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            self._stack.pop()

    def restore(self):
        while self._patched:
            module, attr, orig = self._patched.pop()
            setattr(module, attr, orig)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.restore()
        return False


def summarize(spans):
    """name -> {"s": total span time, "self_s": total minus child spans,
    "calls": count, plus every counter summed}."""
    child_time = [0.0] * len(spans)
    for sp in spans:
        if sp.parent >= 0:
            child_time[sp.parent] += sp.end - sp.start
    out = {}
    for k, sp in enumerate(spans):
        rec = out.setdefault(sp.name, {"s": 0.0, "self_s": 0.0, "calls": 0})
        dur = sp.end - sp.start
        rec["s"] += dur
        rec["self_s"] += dur - child_time[k]
        rec["calls"] += 1
        for key, val in sp.counts.items():
            rec[key] = rec.get(key, 0) + val
    return out
