"""The discrete-event simulator core.

A :class:`Process` wraps a generator.  Each ``yield`` hands the
simulator a request object; the simulator resumes the generator when
the request completes.  Supported requests:

- :class:`Timeout` — resume after a fixed simulated delay.
- any object whose *class* defines a ``__sim_request__(sim, process)``
  method (the resource/queue/barrier primitives in
  :mod:`repro.engine.resources`).
- another generator — run it inline (sub-process call), resuming the
  parent with the child's return value.

Deadlock detection comes for free: if the event queue runs dry while
processes are still blocked, nothing can ever happen again, and the
simulator raises :class:`~repro.utils.errors.DeadlockError` naming each
blocked process and what it is waiting on — exactly the situation of
the paper's Fig 8.

The scheduler is a **bucketed calendar**: pending events live in a
``{timestamp: [target, value, ...]}`` bucket table plus a heap of
*distinct* timestamps.  Scheduling into an existing timestamp is an
O(1) append — the near-monotonic, heavily duplicated timestamps the
serving tier produces (zero-delay queue handoffs, barrier releases,
quantized batcher deadlines) pay no heap traffic at all — and only the
first event of a new timestamp pays the O(log d) heap push (``d`` =
distinct pending times, the far-future fallback).  The run loop
dispatches **all events of one timestamp as a single batch**: one
``now`` update and one invariant clock check per distinct time instead
of per event, with FIFO order preserved because bucket appends happen
in global scheduling order.  The event order is exactly that of a
``(time, seq)`` binary heap with one push/pop per event;
``tests/engine/test_scheduler_equivalence.py`` pins it against such a
heap core, kept there as a test oracle.

The hot path allocates nothing when ``sim.probe`` (:mod:`repro.obs.probe`)
is None — no tracer, metrics or invariant checker attached: blocking
diagnostics (``Process.waiting_on``) store the raw request and format
the label lazily, only when deadlock forensics, ``__repr__`` or an
attached tracer asks for it.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Any, Callable, Generator, Iterator

from repro.obs.probe import Probe
from repro.utils.errors import DeadlockError, ReproError


@dataclass(frozen=True)
class Timeout:
    """Request: resume the yielding process after ``delay`` sim-seconds."""

    delay: float

    def __post_init__(self) -> None:
        if self.delay < 0:
            raise ReproError(f"negative delay: {self.delay}")


def _format_wait(wait: Any) -> str:
    """Render a lazily stored wait descriptor as the diagnostic label.

    Blocking sites store either a plain string (legacy contract), the
    :class:`Timeout` request itself, or a ``(kind, *args)`` tuple; the
    formats below reproduce the labels the eager f-strings used to
    build, so :func:`repro.obs.tracer.wait_category` and deadlock
    messages are unchanged.
    """
    if type(wait) is str:
        return wait
    if type(wait) is Timeout:
        return f"timeout({wait.delay:g})"
    kind = wait[0]
    if kind == "guarded":
        return f"guarded({wait[1]}, {wait[2]}#{wait[3]})"
    args = ", ".join(str(a) for a in wait[1:])
    return f"{kind}({args})"


class Process:
    """A running generator plus its call stack of nested generators.

    ``__slots__`` because serve sweeps create one per request batch and
    the event loop touches these attributes millions of times.
    """

    __slots__ = (
        "name", "stack", "done", "result", "_wait",
        "block_start", "block_label",
    )

    def __init__(self, name: str, gen: Generator):
        self.name = name
        self.stack: list[Generator] = [gen]
        self.done = False
        self.result: Any = None
        #: raw blocking-request descriptor; read the formatted label via
        #: :attr:`waiting_on` (diagnostics only — never on the hot path)
        self._wait: Any = None
        # open wait-span bookkeeping; only touched by a tracing probe
        self.block_start: float = 0.0
        self.block_label: str | None = None

    @property
    def waiting_on(self) -> str | None:
        """Human-readable description of the blocking request.

        Formatted on demand from the stored raw descriptor so the
        common (unblocked-or-timeout) path allocates no string.
        """
        w = self._wait
        return None if w is None else _format_wait(w)

    @waiting_on.setter
    def waiting_on(self, wait: Any) -> None:
        self._wait = wait

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "done" if self.done else (self.waiting_on or "runnable")
        return f"Process({self.name}: {state})"


#: sentinel returned by :meth:`Simulator._step_rare` when the process
#: blocked (distinguishable from a legitimate ``None`` send value)
_BLOCKED = object()


class Simulator:
    """Event loop: schedules callbacks at simulated times, drives processes.

    The optional ``tracer``, ``metrics`` and ``invariants`` become
    :attr:`probe`.
    """

    def __init__(self, tracer=None, metrics=None, invariants=None) -> None:
        self.now: float = 0.0
        # timestamp -> flat [target, value, ...] pairs, plus a heap of
        # the *distinct* pending timestamps; ``target`` is a Process
        # (resume it with ``value``) or a bare callback
        self._buckets: dict[float, list] = {}
        self._times: list[float] = []
        self._processes: list[Process] = []
        #: events dispatched so far (callbacks + process resumptions);
        #: the repository benchmark reports it as ``engine.events``
        self.events_processed: int = 0
        #: the run's :class:`~repro.obs.probe.Probe`, or None when
        #: nothing is attached — then no instrumentation runs anywhere
        attached = (tracer, metrics, invariants)
        self.probe = (Probe(self, *attached)
                      if any(x is not None for x in attached) else None)

    # ------------------------------------------------------------------
    # scheduling
    # ------------------------------------------------------------------
    def _push(self, t: float, target: Any, value: Any) -> None:
        """Enqueue one event; FIFO at equal times."""
        b = self._buckets.get(t)
        if b is None:
            self._buckets[t] = [target, value]
            heapq.heappush(self._times, t)
        else:
            b.append(target)
            b.append(value)

    def schedule(self, delay: float, callback: Callable[[], None]) -> None:
        """Run ``callback`` ``delay`` seconds from now (FIFO at equal times)."""
        if delay < 0:
            raise ReproError(f"negative delay: {delay}")
        self._push(self.now + delay, callback, None)

    def _schedule_step(self, delay: float, proc: Process, value: Any) -> None:
        """Schedule resuming ``proc`` with ``value`` (no lambda per event)."""
        self._push(self.now + delay, proc, value)

    def spawn(self, gen: Generator, name: str = "proc") -> Process:
        """Register a generator as a process; it starts when run() is called."""
        proc = Process(name, gen)
        self._processes.append(proc)
        self._schedule_step(0.0, proc, None)
        return proc

    def resume(self, proc: Process, value: Any = None) -> None:
        """Called by primitives to unblock a process at the current time."""
        self._push(self.now, proc, value)

    # ------------------------------------------------------------------
    # process driving
    # ------------------------------------------------------------------
    def _step(self, proc: Process, value: Any) -> None:
        """Advance ``proc`` with ``value`` until it blocks or finishes.

        The instrumented trampoline: closes/opens wait spans through the
        probe.  Used whenever a tracer is attached; untraced runs use the
        copy inlined into :meth:`_drain`.
        """
        if proc.block_label is not None:  # set only by a tracing probe
            self.probe.resumed(proc)
        proc._wait = None
        while True:
            gen = proc.stack[-1]
            try:
                request = gen.send(value)
            except StopIteration as stop:
                proc.stack.pop()
                if not proc.stack:
                    proc.done = True
                    proc.result = stop.value
                    return
                value = stop.value
                continue
            value = None

            if isinstance(request, Timeout):
                self._schedule_step(request.delay, proc, None)
                proc._wait = request
                return
            if isinstance(request, Iterator):
                proc.stack.append(request)
                continue
            hook = getattr(request, "__sim_request__", None)
            if hook is None:
                raise ReproError(
                    f"process {proc.name!r} yielded unsupported object: {request!r}"
                )
            if hook(self, proc):
                # request completed synchronously; its result was stashed
                value = getattr(request, "result", None)
                continue
            if self.probe is not None:
                self.probe.blocked(proc)
            return  # blocked; the primitive will call resume()

    def _step_rare(self, proc: Process, request: Any) -> Any:
        """Slow-path dispatch for requests the inlined trampoline does
        not special-case (``Timeout`` subclasses, nested generators).

        Returns the sentinel ``_BLOCKED`` when ``proc`` blocked, else
        pushes the sub-generator and returns ``None`` as the next send
        value (mirrors :meth:`_step`'s semantics for these branches).
        """
        if isinstance(request, Timeout):  # Timeout subclass
            self._schedule_step(request.delay, proc, None)
            proc._wait = request
            return _BLOCKED
        if isinstance(request, Iterator):
            proc.stack.append(request)
            return None
        raise ReproError(
            f"process {proc.name!r} yielded unsupported object: {request!r}"
        )

    # ------------------------------------------------------------------
    # running
    # ------------------------------------------------------------------
    def _drain(self, until: float | None) -> bool:
        """Dispatch all events of one timestamp as one batch — a single
        ``now`` update and a single invariant clock check per distinct
        time.  Returns False when the ``until`` cutoff was reached with
        events still pending.  Events scheduled *at* the batch's timestamp while it drains are appended to the live
        bucket and dispatched in the same pass, in scheduling order —
        exactly the (time, seq) order of a per-event binary heap.

        The untraced process trampoline is inlined into the dispatch
        loop (no per-event method call): its semantics are
        :meth:`_step` minus the tracer guards, with the common cases
        leaned out — exact-type timeout test with an in-place bucket
        push, request hooks resolved through the class (no per-event
        bound-method allocation) and probed before the ``Iterator`` ABC
        check.  None of the engine's request primitives are iterators,
        so the reorder is observationally equivalent; the rare branches
        (``Timeout`` subclasses, sub-generators) fall back to
        :meth:`_step_rare`.  When a tracer is attached the instrumented
        :meth:`_step` drives processes instead.
        """
        probe = self.probe
        traced_step = (self._step if probe is not None and probe.waits
                       else None)
        on_time = None if probe is None else probe.event_time
        times = self._times
        buckets = self._buckets
        pop = heapq.heappop
        push = heapq.heappush
        n = 0
        try:
            while times:
                t = times[0]
                if until is not None and t > until:
                    self.now = until
                    return False
                pop(times)
                batch = buckets[t]
                self.now = t
                if on_time is not None:
                    on_time(t)
                i = 0
                while i < len(batch):  # len() rechecked: same-t appends
                    target = batch[i]
                    value = batch[i + 1]
                    i += 2
                    if type(target) is not Process:
                        target()
                        continue
                    if traced_step is not None:
                        traced_step(target, value)
                        continue
                    # -- inlined untraced trampoline -------------------
                    target._wait = None
                    stack = target.stack
                    while True:
                        try:
                            request = stack[-1].send(value)
                        except StopIteration as stop:
                            stack.pop()
                            if not stack:
                                target.done = True
                                target.result = stop.value
                                break
                            value = stop.value
                            continue
                        value = None
                        if type(request) is Timeout:
                            # self.now == t for the whole batch; a zero
                            # delay lands in the live bucket and runs in
                            # this same pass (scheduling order)
                            t2 = t + request.delay
                            b = buckets.get(t2)
                            if b is None:
                                buckets[t2] = [target, None]
                                push(times, t2)
                            else:
                                b.append(target)
                                b.append(None)
                            target._wait = request  # label formatted lazily
                            break
                        hook = getattr(type(request), "__sim_request__", None)
                        if hook is not None:
                            if hook(request, self, target):
                                value = getattr(request, "result", None)
                                continue
                            break  # blocked; the primitive will resume()
                        value = self._step_rare(target, request)
                        if value is _BLOCKED:
                            break
                del buckets[t]
                n += i >> 1
        finally:
            self.events_processed += n
        return True

    def run(self, until: float | None = None) -> float:
        """Execute events until the queue is empty (or ``until`` is reached).

        Returns the final simulated time.  Raises
        :class:`DeadlockError` when no event is pending but some
        process is still blocked.
        """
        processed_before = self.events_processed
        drained = self._drain(until)
        if self.probe is not None:
            # once drained, closes the wait spans of processes that
            # never resumed: a deadlock's stall attribution survives
            self.probe.run_end(self.events_processed - processed_before,
                               drained, self._processes)
        if not drained:
            return self.now  # ``until`` cutoff; events still pending

        stuck = {p.name: p.waiting_on for p in self._processes
                 if not p.done and p._wait is not None}
        if stuck:
            raise DeadlockError(
                "simulation deadlocked; blocked processes: "
                + ", ".join(f"{k} <- {v}" for k, v in sorted(stuck.items())),
                waiting=stuck,
            )
        return self.now

    @property
    def unfinished(self) -> list[Process]:
        return [p for p in self._processes if not p.done]
