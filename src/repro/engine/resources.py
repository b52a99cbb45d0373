"""Blocking primitives for the simulator: resources, queues, barriers.

- :class:`Resource` models an irrevocable pool (GPU SM threads): a
  kernel acquires its footprint, holds it for its whole duration, and
  releases on completion.  Waiters are served FIFO.  The resource also
  integrates time-weighted usage, which is how GPU utilization (paper
  Fig 6) is measured.
- :class:`BoundedQueue` is the producer-consumer queue of the training
  pipeline (paper §5, Fig 7) — ``put`` blocks when the queue is at
  capacity, which is how DSP throttles fast stages.
- :class:`Rendezvous` is the all-participants barrier at the heart of a
  collective kernel: the kernel "runs" only once every peer has
  launched, which is property (ii) behind the Fig 8 deadlock.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Any

from repro.engine.simulator import Process, Simulator
from repro.utils.errors import ReproError

#: the probe's buffered utilization samples reach the metrics registry
#: at this depth (and always at ``MetricsRegistry.finalize``)
METRIC_FLUSH_EVERY = 256


class _Request:
    """Base: stores the synchronous result for the simulator to pick up."""

    result: Any = None


class Resource:
    """A counted resource pool with FIFO waiters and usage accounting."""

    def __init__(self, sim: Simulator, capacity: int, name: str = "resource"):
        if capacity <= 0:
            raise ReproError("capacity must be positive")
        self.sim = sim
        self.capacity = capacity
        self.name = name
        self.used = 0
        self._waiters: deque[tuple[Process, int]] = deque()
        # time-weighted integrals for utilization metrics
        self._last_t = sim.now
        self._area = 0.0  # integral of used threads dt
        self._busy = 0.0  # integral of [used > 0] dt

    # -- accounting ----------------------------------------------------
    def _account(self) -> None:
        dt = self.sim.now - self._last_t
        if dt == 0.0:
            # Same-timestamp re-entry (acquire+release at one event time,
            # or occupancy() followed by busy_fraction()): integrating a
            # zero-width slice must not touch the integrals.  Guarding
            # here keeps repeated metric reads idempotent by
            # construction, not by floating-point luck.
            return
        self._area += self.used * dt
        self._busy += dt if self.used > 0 else 0.0
        self._last_t = self.sim.now

    def occupancy(self, total_time: float | None = None) -> float:
        """Mean fraction of capacity in use over the simulation."""
        self._account()
        t = self._last_t if total_time is None else total_time
        return self._area / self.capacity / t if t > 0 else 0.0

    def busy_fraction(self, total_time: float | None = None) -> float:
        """Fraction of time at least one holder was resident."""
        self._account()
        t = self._last_t if total_time is None else total_time
        return self._busy / t if t > 0 else 0.0

    # -- acquire/release -----------------------------------------------
    def acquire(self, n: int) -> "_Acquire":
        if n <= 0:
            raise ReproError("must acquire a positive amount")
        if n > self.capacity:
            raise ReproError(
                f"{self.name}: requested {n} exceeds capacity {self.capacity}"
            )
        return _Acquire(self, n)

    def release(self, n: int) -> None:
        if n <= 0 or n > self.used:
            raise ReproError(f"{self.name}: bad release of {n} (used={self.used})")
        self._account()
        self.used -= n
        if self.sim.probe is not None:
            self.sim.probe.resource_used(self)
        self._drain()

    def _drain(self) -> None:
        # FIFO: the head waiter blocks those behind it (irrevocable,
        # in-order SM allocation — what makes Fig 8 deadlocks possible)
        while self._waiters and self.used + self._waiters[0][1] <= self.capacity:
            proc, n = self._waiters.popleft()
            self._account()
            self.used += n
            if self.sim.probe is not None:
                self.sim.probe.resource_used(self)
            self.sim.resume(proc)


@dataclass
class _Acquire(_Request):
    resource: Resource
    n: int

    def __sim_request__(self, sim: Simulator, proc: Process) -> bool:
        r = self.resource
        if not r._waiters and r.used + self.n <= r.capacity:
            r._account()
            r.used += self.n
            if sim.probe is not None:
                sim.probe.resource_used(r)
            return True
        proc.waiting_on = ("acquire", r.name, self.n)  # lazy label
        r._waiters.append((proc, self.n))
        return False


class BoundedQueue:
    """FIFO queue with a capacity limit; put/get block as needed."""

    def __init__(self, sim: Simulator, capacity: int, name: str = "queue"):
        if capacity <= 0:
            raise ReproError("queue capacity must be positive")
        self.sim = sim
        self.capacity = capacity
        self.name = name
        self.items: deque[Any] = deque()
        self._putters: deque[tuple[Process, Any]] = deque()
        self._getters: deque[Process] = deque()
        #: total items that passed through (metrics)
        self.total_put = 0

    def __len__(self) -> int:
        return len(self.items)

    def put(self, item: Any) -> "_Put":
        return _Put(self, item)

    def get(self) -> "_Get":
        return _Get(self)

    def _push(self, item: Any) -> None:
        self.total_put += 1
        if self._getters:
            getter = self._getters.popleft()
            self.sim.resume(getter, item)
        else:
            self.items.append(item)
        if self.sim.probe is not None:
            self.sim.probe.queue_push(self)


@dataclass
class _Put(_Request):
    queue: BoundedQueue
    item: Any

    def __sim_request__(self, sim: Simulator, proc: Process) -> bool:
        q = self.queue
        # a slot is free if the buffer has room (waiting getters imply
        # an empty buffer, so the check below covers that case too)
        if len(q.items) < q.capacity:
            q._push(self.item)
            return True
        proc.waiting_on = ("put", q.name)  # lazy label
        q._putters.append((proc, self.item))
        return False


@dataclass
class _Get(_Request):
    queue: BoundedQueue

    def __sim_request__(self, sim: Simulator, proc: Process) -> bool:
        q = self.queue
        if q.items:
            self.result = q.items.popleft()
            if q._putters:
                putter, item = q._putters.popleft()
                q._push(item)
                sim.resume(putter)
            elif sim.probe is not None:
                sim.probe.queue_depth(q)
            return True
        proc.waiting_on = ("get", q.name)  # lazy label
        q._getters.append(proc)
        return False


class Rendezvous:
    """Barriers keyed by tag: all ``n_expected`` arrivals resume together."""

    def __init__(self, sim: Simulator, name: str = "rendezvous"):
        self.sim = sim
        self.name = name
        self._pending: dict[Any, list[Process]] = {}

    def arrive(self, tag: Any, n_expected: int) -> "_Arrive":
        if n_expected <= 0:
            raise ReproError("n_expected must be positive")
        return _Arrive(self, tag, n_expected)


@dataclass
class _Arrive(_Request):
    barrier: Rendezvous
    tag: Any
    n_expected: int

    def __sim_request__(self, sim: Simulator, proc: Process) -> bool:
        b = self.barrier
        waiting = b._pending.setdefault(self.tag, [])
        if len(waiting) + 1 == self.n_expected:
            del b._pending[self.tag]
            for p in waiting:
                sim.resume(p)
            if sim.probe is not None:
                sim.probe.barrier_release(b, self.tag, self.n_expected)
            return True  # last arrival proceeds immediately
        proc.waiting_on = ("barrier", b.name, self.tag)  # lazy label
        waiting.append(proc)
        return False
