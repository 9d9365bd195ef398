"""Per-layer spans recorded by the benchmark around its calls into singlat.

A span covers one call (or one loop of ``calls`` identical calls) into a
module's public function.  Spans stay in memory and are written once, when
the run ends.  Self time (``busy_s``) is a span's duration minus the part
of it that its child spans cover.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    op: int | None
    calls: int = 1
    failed: bool = False
    busy_s: float = 0.0
    attrs: dict = field(default_factory=dict)


class Tracer:
    """Records nested spans; ``op`` tags every span with the current op."""

    def __init__(self):
        self.spans = []
        self.op = None
        self.last = None
        self._stack = []

    @contextmanager
    def span(self, name, calls=1):
        sp = Span(len(self.spans), name, time.perf_counter(), 0.0,
                  self._stack[-1].id if self._stack else None, self.op, calls)
        self.spans.append(sp)
        self._stack.append(sp)
        try:
            yield sp
        except BaseException:
            sp.failed = True
            raise
        finally:
            sp.end = time.perf_counter()
            self._stack.pop()
            self.last = sp

    def call(self, name, fn, *args, **kwargs):
        with self.span(name):
            return fn(*args, **kwargs)

    def annotate(self, **attrs):
        """Attach counts to the span that closed last."""
        self.last.attrs.update(attrs)

    def finish(self):
        set_self_times(self.spans)
        return self.spans

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump([asdict(s) for s in self.spans], fh)


class NullTracer:
    """The untraced run: calls go straight through."""

    op = None

    @contextmanager
    def span(self, name, calls=1):
        yield None

    @staticmethod
    def call(name, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    def annotate(self, **attrs):
        pass


def covered(intervals, lo, hi):
    """Length of the union of the intervals, clipped to [lo, hi]."""
    total, reach = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, reach), min(b, hi)
        if b > a:
            total += b - a
            reach = b
    return total


def set_self_times(spans):
    children = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    for s in spans:
        s.busy_s = (s.end - s.start) - covered(children.get(s.id, ()),
                                               s.start, s.end)


def layer_totals(spans):
    """name -> {"busy_s", "calls", "failed", and summed attrs}."""
    out = {}
    for s in spans:
        t = out.setdefault(s.name, {"busy_s": 0.0, "calls": 0, "failed": 0})
        t["busy_s"] += s.busy_s
        t["calls"] += s.calls
        t["failed"] += s.failed
        for k, v in s.attrs.items():
            t[k] = t.get(k, 0) + v
    return out
