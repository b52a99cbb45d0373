"""In-memory span recording and self-time arithmetic for the traced run.

A span is one timed call at a layer boundary: name, start, end, the span
that was open when it started (its parent) and a group id shared by the
spans of one training batch or one serving sweep point.  Spans stay in
memory and are written out once, when the traced process exits.

A span's *self time* is its duration minus the part of its interval that
its child spans cover.  Children may overlap one another or stick out of
their parent; only the union of their intervals clipped to the parent is
subtracted, so self times of a well-nested run add up to the root's
wall time.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass


@dataclass(frozen=True)
class Span:
    sid: int
    name: str
    start: float
    end: float
    parent: int | None
    group: str

    @property
    def duration(self) -> float:
        return self.end - self.start


def covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    clipped = sorted(
        (max(a, lo), min(b, hi)) for a, b in intervals if b > lo and a < hi
    )
    total = 0.0
    cur_a = cur_b = None
    for a, b in clipped:
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_times(spans) -> dict[int, float]:
    """Span id -> duration minus the time its children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    return {
        s.sid: s.duration - covered(children.get(s.sid, ()), s.start, s.end)
        for s in spans
    }


def self_time_by_name(spans) -> dict[str, float]:
    """Summed self time per span name."""
    own = self_times(spans)
    out: dict[str, float] = {}
    for s in spans:
        out[s.name] = out.get(s.name, 0.0) + own[s.sid]
    return out


class SpanRecorder:
    """Records nested spans and named counts of one traced process."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.counts: dict[str, float] = {}
        self.group = ""
        self._stack: list[tuple[int, str, float, str]] = []

    @property
    def current(self) -> str | None:
        """Name of the innermost open span (None at top level)."""
        return self._stack[-1][1] if self._stack else None

    @contextmanager
    def span(self, name: str):
        # ids in opening order: spans opened before = closed + still open
        sid = len(self.spans) + len(self._stack)
        parent = self._stack[-1][0] if self._stack else None
        self._stack.append((sid, name, self.clock(), self.group))
        try:
            yield
        finally:
            _, _, start, group = self._stack.pop()
            self.spans.append(
                Span(sid, name, start, self.clock(), parent, group)
            )

    def count(self, name: str, n: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def write(self, path) -> None:
        with open(path, "w") as f:
            json.dump(
                {"spans": [asdict(s) for s in self.spans],
                 "counts": self.counts},
                f,
            )


class NullRecorder:
    """The untraced run's recorder: every call is a no-op."""

    group = ""

    @contextmanager
    def span(self, name: str):
        yield

    def count(self, name: str, n: float = 1) -> None:
        pass
