"""Span recorder for the benchmark's traced runs.

Spans are recorded from the benchmark's own code, around calls into the
program's public functions; the program itself is not instrumented.  A
span has a name, start and end (``time.perf_counter`` seconds), the
index of its parent span (the innermost span open on the same thread)
and a request id shared by every span of one request.  Spans stay in
memory until the run ends and are then written out as JSON.
"""

from __future__ import annotations

import json
import statistics
import threading
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from typing import Iterator, Optional


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: Optional[int]
    request_id: Optional[int]

    @property
    def duration(self) -> float:
        return self.end - self.start


class Recorder:
    """Thread-safe, append-only span store."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._lock = threading.Lock()
        self._open = threading.local()

    @contextmanager
    def span(self, name: str, request_id: Optional[int] = None
             ) -> Iterator[Span]:
        stack = getattr(self._open, "stack", None)
        if stack is None:
            stack = self._open.stack = []
        parent = stack[-1] if stack else None
        with self._lock:
            index = len(self.spans)
            self.spans.append(Span(name, time.perf_counter(), 0.0, parent,
                                   request_id))
        stack.append(index)
        try:
            yield self.spans[index]
        finally:
            stack.pop()
            self.spans[index].end = time.perf_counter()

    def add(self, name: str, start: float, end: float,
            request_id: Optional[int] = None) -> None:
        """Record an already-timed interval (e.g. measured in a child
        process or by the load generator's own clock)."""
        with self._lock:
            self.spans.append(Span(name, start, end, None, request_id))

    def named(self, name: str) -> list[Span]:
        return [span for span in self.spans if span.name == name]

    def durations(self, name: str) -> list[float]:
        return [span.duration for span in self.named(name)]

    def median_ms(self, name: str) -> float:
        return statistics.median(self.durations(name)) * 1e3

    def total(self, name: str) -> float:
        return sum(self.durations(name))

    def self_times(self) -> list[float]:
        """Each span's duration minus the part of it its children
        cover (children may overlap; their union is subtracted)."""
        children: dict[int, list[Span]] = {}
        for span in self.spans:
            if span.parent is not None:
                children.setdefault(span.parent, []).append(span)
        result = []
        for index, span in enumerate(self.spans):
            covered = 0.0
            cursor = span.start
            for child in sorted(children.get(index, ()),
                                key=lambda s: s.start):
                lo, hi = max(child.start, cursor), min(child.end, span.end)
                if hi > lo:
                    covered += hi - lo
                    cursor = hi
            result.append(span.duration - covered)
        return result

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: count, total and self time in ms."""
        rows: dict[str, dict[str, float]] = {}
        for span, own in zip(self.spans, self.self_times()):
            row = rows.setdefault(span.name,
                                  {"count": 0, "total_ms": 0.0,
                                   "self_ms": 0.0})
            row["count"] += 1
            row["total_ms"] += span.duration * 1e3
            row["self_ms"] += own * 1e3
        return rows

    def dump(self, path) -> None:
        with open(path, "w") as handle:
            json.dump({"spans": [asdict(span) for span in self.spans],
                       "summary": self.summary()}, handle)
