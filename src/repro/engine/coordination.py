"""Centralized communication coordination (CCC).

Collective kernels deadlock when two GPUs launch them in different
orders (paper Fig 8): each GPU's first kernel holds SM resources while
waiting for its peer, and the peer's matching kernel can never launch.

CCC (paper §5) removes the root cause — divergent launch orders — by
having one *leader* GPU fix a single global order.  On the leader, a
collective is appended to the order the moment its worker is ready to
communicate; the order is broadcast, and every follower launches its
communication kernels in exactly that sequence, waiting if its own
worker for the next collective is not ready yet.

:class:`LaunchGate` implements the protocol.  Workers call::

    yield gate.wait_turn(gpu, tag)   # before acquiring SMs / launching
    ...launch, rendezvous, run...
    gate.launched(gpu, tag)          # after the kernel has started

With the gate, all GPUs launch in leader order and cross-order
deadlocks cannot form; without it (``gate=None`` in the workers) the
Fig 8 interleaving is reproducible in the engine tests.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Any

from repro.engine.simulator import Process, Simulator, Timeout
from repro.utils.errors import ReproError

#: outcomes of a guarded collective round (see :class:`CollectiveGuard`)
ROUND_OK = "ok"
ROUND_ABORTED = "aborted"
ROUND_ABANDONED = "abandoned"


class LaunchGate:
    """Serializes collective-kernel launch order across GPUs."""

    def __init__(self, sim: Simulator, num_gpus: int, leader: int = 0):
        if not 0 <= leader < num_gpus:
            raise ReproError("leader must be one of the GPUs")
        self.sim = sim
        self.num_gpus = num_gpus
        self.leader = leader
        #: the global launch order, fixed by leader submission order
        self.order: list[Any] = []
        self._position: dict[Any, int] = {}
        #: next order index each GPU may launch
        self._next: list[int] = [0] * num_gpus
        self._waiters: list[deque[tuple[Process, Any]]] = [
            deque() for _ in range(num_gpus)
        ]

    def wait_turn(self, gpu: int, tag: Any) -> "_WaitTurn":
        if not 0 <= gpu < self.num_gpus:
            raise ReproError(f"bad gpu id {gpu}")
        return _WaitTurn(self, gpu, tag)

    def launched(self, gpu: int, tag: Any) -> None:
        """Record that ``gpu`` has started the kernel for ``tag``."""
        pos = self._position.get(tag)
        if pos is None or pos != self._next[gpu]:
            raise ReproError(f"gpu {gpu} launched {tag!r} out of turn")
        self._next[gpu] += 1
        if self.sim.probe is not None:
            self.sim.probe.collective_launch(gpu, tag, pos)
        self._drain(gpu)

    # -- internals -------------------------------------------------------
    def _register(self, tag: Any) -> None:
        if tag not in self._position:
            self._position[tag] = len(self.order)
            self.order.append(tag)
            if self.sim.probe is not None:
                self.sim.probe.collective_order(tag, self._position[tag])
            for gpu in range(self.num_gpus):
                self._drain(gpu)

    def _ready(self, gpu: int, tag: Any) -> bool:
        pos = self._position.get(tag)
        return pos is not None and pos == self._next[gpu]

    def _drain(self, gpu: int) -> None:
        waiters = self._waiters[gpu]
        # scan for the (single) waiter whose turn has come
        for _ in range(len(waiters)):
            proc, tag = waiters.popleft()
            if self._ready(gpu, tag):
                self.sim.resume(proc)
            else:
                waiters.append((proc, tag))


@dataclass
class _WaitTurn:
    gate: LaunchGate
    gpu: int
    tag: Any
    result: Any = None

    def __sim_request__(self, sim: Simulator, proc: Process) -> bool:
        g = self.gate
        if self.gpu == g.leader:
            # leader submission defines the global order
            g._register(self.tag)
        if g._ready(self.gpu, self.tag):
            return True
        proc.waiting_on = ("ccc", self.gpu, self.tag)  # lazy label
        g._waiters[self.gpu].append((proc, self.tag))
        return False


class CollectiveGuard:
    """Watchdog over collective rendezvous rounds.

    A plain :class:`~repro.engine.resources.Rendezvous` waits forever:
    one hung participant (an injected ``collective-drop``, a crashed
    trainer) deadlocks every peer of the round.  The guard is the
    response side: rounds are keyed ``(tag, attempt)``, the first
    arrival of an attempt arms a timer, and if the round has not
    completed when the timer fires the attempt is *aborted* — all
    waiters resume with :data:`ROUND_ABORTED`, back off
    ``backoff * attempt`` and re-form the round at the next attempt.
    Late arrivals to an aborted attempt are answered synchronously so
    they fast-forward to the live attempt.  After ``max_retries``
    aborts the round is *abandoned*: everyone (including eventual late
    arrivals) gets :data:`ROUND_ABANDONED` and proceeds degraded —
    callers charge the round's duration but skip its wire bytes.
    Every round outcome is a probe event, visible on the timeline.

    Workers use it via ``yield from``::

        outcome = yield from guard.join(tag, k)
        # outcome is ROUND_OK or ROUND_ABANDONED; never hangs forever
    """

    def __init__(self, sim: Simulator, timeout: float,
                 max_retries: int = 3, backoff: float | None = None,
                 name: str = "collective-guard"):
        if timeout <= 0:
            raise ReproError("guard timeout must be positive")
        if max_retries < 0:
            raise ReproError("max_retries must be >= 0")
        self.sim = sim
        self.timeout = timeout
        self.max_retries = max_retries
        self.backoff = 0.25 * timeout if backoff is None else backoff
        self.name = name
        self._pending: dict[tuple, list[Process]] = {}
        self._aborted: set[tuple] = set()
        self._abandoned: set = set()
        self._next_attempt: dict = {}
        # counters for the resilience report
        self.rounds = 0
        self.aborts = 0
        self.retries = 0
        self.abandoned_rounds = 0

    def join(self, tag: Any, n_expected: int):
        """Generator: rendezvous on ``tag`` under watchdog protection."""
        if n_expected <= 0:
            raise ReproError("n_expected must be positive")
        attempt = self._next_attempt.get(tag, 0)
        while True:
            if tag in self._abandoned:
                return ROUND_ABANDONED
            if (tag, attempt) in self._aborted:
                attempt += 1  # fast-forward through dead attempts
                continue
            outcome = yield _GuardArrive(self, tag, attempt, n_expected)
            if outcome != ROUND_ABORTED:
                return outcome
            self.retries += 1
            attempt = max(attempt + 1, self._next_attempt.get(tag, 0))
            if self.backoff > 0:
                yield Timeout(self.backoff * attempt)

    # -- internals -------------------------------------------------------
    def _abort(self, key: tuple) -> None:
        waiting = self._pending.pop(key, None)
        if waiting is None:
            return  # the round completed before the timer fired
        tag, attempt = key
        self._aborted.add(key)
        self._next_attempt[tag] = attempt + 1
        self.aborts += 1
        abandoned = attempt + 1 > self.max_retries
        if abandoned:
            self._abandoned.add(tag)
            self.abandoned_rounds += 1
        outcome = ROUND_ABANDONED if abandoned else ROUND_ABORTED
        if self.sim.probe is not None:
            self.sim.probe.guard_round(
                self, "abandon" if abandoned else "abort", tag,
                attempt=attempt, arrived=len(waiting),
            )
        for p in waiting:
            self.sim.resume(p, outcome)


class _AbortTimer:
    """Scheduled callback that aborts a guarded attempt on expiry."""

    __slots__ = ("guard", "key")

    def __init__(self, guard: CollectiveGuard, key: tuple):
        self.guard = guard
        self.key = key

    def __call__(self) -> None:
        self.guard._abort(self.key)


@dataclass
class _GuardArrive:
    guard: CollectiveGuard
    tag: Any
    attempt: int
    n_expected: int
    result: Any = None

    def __sim_request__(self, sim: Simulator, proc: Process) -> bool:
        g = self.guard
        if self.tag in g._abandoned:
            self.result = ROUND_ABANDONED
            return True
        key = (self.tag, self.attempt)
        if key in g._aborted:
            self.result = ROUND_ABORTED
            return True
        waiting = g._pending.setdefault(key, [])
        if len(waiting) + 1 == self.n_expected:
            del g._pending[key]
            for p in waiting:
                sim.resume(p, ROUND_OK)
            g.rounds += 1
            if sim.probe is not None:
                sim.probe.guard_round(g, "complete", self.tag,
                                      attempt=self.attempt,
                                      parties=self.n_expected)
            self.result = ROUND_OK
            return True
        if not waiting:
            # first arrival of this attempt arms the watchdog
            sim.schedule(g.timeout, _AbortTimer(g, key))
        waiting.append(proc)
        proc.waiting_on = ("guarded", g.name, self.tag, self.attempt)
        return False
