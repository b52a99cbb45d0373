"""The single-heap scheduler core, kept as a test oracle.

:class:`HeapSimulator` is the engine's original event loop: one
``(time, seq, target, value)`` binary heap, one push/pop per event, and
the instrumented :meth:`~repro.engine.simulator.Simulator._step`
trampoline for every process resumption.  The bucketed core in
:mod:`repro.engine.simulator` must dispatch events in exactly its
order; ``test_scheduler_equivalence.py`` compares the two, and the
``heap_core`` fixture (``tests/conftest.py``) replays the pinned chaos
matrix and observability digests on it.

Invariant ``checks`` totals differ by design: this core runs the clock
check once per event, the bucketed core once per distinct timestamp.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Any

from repro.engine.simulator import Process, Simulator


class HeapSimulator(Simulator):
    """:class:`Simulator` on the per-event heap core."""

    def __init__(self, tracer=None, metrics=None, invariants=None) -> None:
        super().__init__(tracer=tracer, metrics=metrics,
                         invariants=invariants)
        # entries are ``(time, seq, target, value)``; ``target`` is a
        # Process (resume it with ``value``) or a bare callback — a
        # tuple dispatch instead of a per-event lambda
        self._heap: list[tuple[float, int, Any, Any]] = []
        self._seq = itertools.count()

    def _push(self, t: float, target: Any, value: Any) -> None:
        heapq.heappush(self._heap, (t, next(self._seq), target, value))

    def _drain(self, until: float | None) -> bool:
        """One heap pop per event.  Returns False when the ``until``
        cutoff was reached with events still pending."""
        step = self._step
        on_time = None if self.probe is None else self.probe.event_time
        heap = self._heap
        n = 0
        try:
            while heap:
                t = heap[0][0]
                if until is not None and t > until:
                    self.now = until
                    return False
                _, _, target, value = heapq.heappop(heap)
                self.now = t
                n += 1
                if on_time is not None:
                    on_time(t)
                if type(target) is Process:
                    step(target, value)
                else:
                    target()
        finally:
            self.events_processed += n
        return True
