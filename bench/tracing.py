"""In-memory spans for the traced run of the benchmark.

A span records name, start, end, parent span and operation id.  Spans
are kept in a list and written out once, when the run ends.  A layer's
self time is its spans' durations minus the part of each interval that
its child spans cover, so nested calls are not counted twice.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from pathlib import Path


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    op: int | None


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._next_op = 0

    def new_op(self) -> int:
        """A fresh operation id; spans of one operation share it."""
        self._next_op += 1
        return self._next_op

    @contextmanager
    def span(self, name: str, op: int | None = None):
        parent = self._stack[-1] if self._stack else None
        if op is None and parent is not None:
            op = self.spans[parent].op
        sid = len(self.spans)
        s = Span(sid, name, time.perf_counter(), 0.0, parent, op)
        self.spans.append(s)
        self._stack.append(sid)
        try:
            yield s
        finally:
            s.end = time.perf_counter()
            self._stack.pop()

    def self_times(self) -> dict[str, tuple[float, int]]:
        """{name: (total self time in s, number of spans)}."""
        children: dict[int, list[Span]] = {}
        for s in self.spans:
            if s.parent is not None:
                children.setdefault(s.parent, []).append(s)
        out: dict[str, tuple[float, int]] = {}
        for s in self.spans:
            covered = 0.0
            cursor = s.start
            for c in sorted(children.get(s.id, ()), key=lambda c: c.start):
                lo, hi = max(c.start, cursor), min(c.end, s.end)
                if hi > lo:
                    covered += hi - lo
                    cursor = hi
            busy, calls = out.get(s.name, (0.0, 0))
            out[s.name] = (busy + (s.end - s.start) - covered, calls + 1)
        return out

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as f:
            for s in self.spans:
                f.write(json.dumps(asdict(s)) + "\n")


def span_cost(batches: int = 7, spans: int = 2000) -> float:
    """Seconds that one empty span costs, from the fastest of several
    batches of spans on a scratch tracer."""
    best = float("inf")
    for _ in range(batches):
        tracer = Tracer()
        t0 = time.perf_counter()
        for _ in range(spans):
            with tracer.span("empty", 0):
                pass
        best = min(best, time.perf_counter() - t0)
    return best / spans
