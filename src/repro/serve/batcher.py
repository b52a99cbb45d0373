"""Per-GPU dynamic batching with bounded admission and load shedding.

Each GPU owns an :class:`AdmissionBatcher`: arriving requests enter a
bounded admission queue (arrivals beyond ``queue_capacity`` are **shed**
— an open-loop server must drop rather than queue unboundedly), and a
batch *closes* when either

- ``batch_max`` requests are pending, or
- the oldest pending request has waited ``timeout_s``

— the standard max-size / max-wait dynamic batcher.  Under light load
batches close on the timeout (small batches, latency-bound); as load
approaches saturation the queue backs up and batches close full
(throughput-bound) — that transition is the latency–throughput knee the
sweep driver measures.

The batcher is a simulator citizen: the consumer (the serving
pipeline's batcher process) blocks on :meth:`next_batch` exactly like a
:class:`~repro.engine.resources.BoundedQueue` getter, and the producer
side (:meth:`offer`) is called from the arrivals process at each
request's arrival instant.  Timeout closes are driven by simulator
timers, so no wall-clock is involved anywhere.

Live knobs
----------
``batch_max`` / ``timeout_s`` / ``queue_capacity`` are *instance*
attributes seeded from the frozen :class:`BatcherConfig`.  The serving
control plane (:mod:`repro.control`) retunes them mid-run through
:meth:`apply`; without a controller they never move, and every decision
reads the same values the config carried — the default path is
bit-identical to the pre-controller batcher.

Tenancy and pressure
--------------------
With a :class:`~repro.control.tenancy.TenantState` attached, admission
additionally enforces per-tenant quotas (shed reason ``"quota"``), and
a controller-raised ``pressure`` level sheds requests whose priority is
below it (shed reason ``"priority"``) before they ever occupy a queue
slot.  Both gates are skipped entirely when unused.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from repro.engine.simulator import Process, Simulator
from repro.serve.workload import Request
from repro.utils.errors import ReproError, count, non_negative

#: admission shed reasons, in check order
SHED_REASONS = ("priority", "quota", "capacity")


@dataclass(frozen=True)
class BatcherConfig:
    """Dynamic-batching knobs (per GPU)."""

    batch_max: int = 16
    timeout_s: float = 2e-3
    queue_capacity: int = 64

    def __post_init__(self) -> None:
        count("batch_max", self.batch_max)
        non_negative("timeout_s", self.timeout_s)
        count("queue_capacity", self.queue_capacity)


class AdmissionBatcher:
    """Bounded admission queue + max-size/max-wait batch former."""

    def __init__(self, sim: Simulator, gpu: int, config: BatcherConfig,
                 tenants=None):
        self.sim = sim
        self.gpu = gpu
        self.config = config
        # live knobs: the controller mutates these via apply(); the
        # frozen config stays the baseline it recovers toward
        self.batch_max = config.batch_max
        self.timeout_s = config.timeout_s
        self.queue_capacity = config.queue_capacity
        #: optional per-tenant quota accounting (TenantState)
        self.tenants = tenants
        #: controller pressure level: shed priority < pressure
        self.pressure = 0
        #: reason of the most recent shed (read by the arrivals loop)
        self.last_shed_reason: str | None = None
        self.name = f"admit-gpu{gpu}"
        self.pending: deque[Request] = deque()
        self.shed: list[Request] = []
        self.closing = False
        self._waiter: Process | None = None
        #: deadline of the armed timeout timer (None = no timer in flight)
        self._timer_deadline: float | None = None

    # -- producer side (arrivals process) ------------------------------
    def offer(self, req: Request) -> bool:
        """Admit ``req`` at the current simulated time; False = shed."""
        if self.pressure > req.priority:
            return self._shed(req, "priority")
        tenants = self.tenants
        if tenants is not None and req.tenant is not None:
            if (tenants.pending[req.tenant]
                    >= tenants.quota_slots[req.tenant]):
                return self._shed(req, "quota")
        if len(self.pending) >= self.queue_capacity:
            return self._shed(req, "capacity")
        self.pending.append(req)
        if tenants is not None and req.tenant is not None:
            tenants.pending[req.tenant] += 1
        if self.sim.probe is not None:
            self.sim.probe.admit(self, req)
        self._service()
        return True

    def close(self) -> None:
        """No more arrivals: drain remaining requests, then hand the
        consumer the ``None`` sentinel."""
        self.closing = True
        self._service()

    # -- consumer side (batcher process) --------------------------------
    def next_batch(self) -> "_NextBatch":
        """Simulator request: resolves to a list of requests, or to
        ``None`` once the batcher is closed and drained."""
        return _NextBatch(self)

    # -- control plane ----------------------------------------------------
    def apply(self, batch_max: int | None = None,
              timeout_s: float | None = None,
              pressure: int | None = None) -> None:
        """Retune live knobs at the current simulated instant.

        Takes effect immediately: a shrunken ``batch_max`` or
        ``timeout_s`` can close the pending batch right now, so the
        batcher re-services its consumer (and re-arms the timeout
        timer against the new deadline) after every change.
        """
        if batch_max is not None:
            count("batch_max", batch_max)
            self.batch_max = int(batch_max)
        if timeout_s is not None:
            non_negative("timeout_s", timeout_s)
            self.timeout_s = float(timeout_s)
        if pressure is not None:
            count("pressure", pressure, 0)
            self.pressure = int(pressure)
        self._service()

    # -- internals -------------------------------------------------------
    def _shed(self, req: Request, reason: str) -> bool:
        self.shed.append(req)
        self.last_shed_reason = reason
        if self.sim.probe is not None:
            self.sim.probe.shed(self, req, reason)
        return False

    def _ready(self) -> bool:
        if not self.pending:
            return False
        if len(self.pending) >= self.batch_max or self.closing:
            return True
        oldest = self.pending[0].arrival
        return self.sim.now - oldest >= self.timeout_s

    def _pop_batch(self) -> list[Request]:
        n = min(len(self.pending), self.batch_max)
        batch = [self.pending.popleft() for _ in range(n)]
        tenants = self.tenants
        if tenants is not None:
            for req in batch:
                if req.tenant is not None:
                    tenants.pending[req.tenant] -= 1
        if self.sim.probe is not None:
            self.sim.probe.admission_depth(self)
        return batch

    def _service(self) -> None:
        """Resume a blocked consumer if a batch can close right now,
        otherwise make sure a timeout timer is armed."""
        if self._waiter is None:
            return
        if self._ready():
            proc, self._waiter = self._waiter, None
            self.sim.resume(proc, self._pop_batch())
        elif self.closing and not self.pending:
            proc, self._waiter = self._waiter, None
            self.sim.resume(proc, None)
        elif self.pending:
            self._arm_timer()

    def _arm_timer(self) -> None:
        deadline = self.pending[0].arrival + self.timeout_s
        if self._timer_deadline is not None and self._timer_deadline <= deadline:
            return  # an earlier (or equal) timer will fire and re-arm
        self._timer_deadline = deadline
        self.sim.schedule(
            max(0.0, deadline - self.sim.now),
            lambda d=deadline: self._fire(d),
        )

    def _fire(self, deadline: float) -> None:
        if self._timer_deadline == deadline:
            self._timer_deadline = None
        # Close on the armed deadline itself: re-deriving "has the head
        # waited timeout_s" from sim.now can disagree with the deadline
        # by one ulp and re-arm a zero-delay timer forever.
        if (self._waiter is not None and self.pending
                and self.pending[0].arrival + self.timeout_s
                <= deadline):
            proc, self._waiter = self._waiter, None
            self.sim.resume(proc, self._pop_batch())
            return
        self._service()


@dataclass
class _NextBatch:
    """The blocking request yielded by the consumer process."""

    batcher: AdmissionBatcher
    result: object = None

    def __sim_request__(self, sim: Simulator, proc: Process) -> bool:
        b = self.batcher
        if b._waiter is not None:
            raise ReproError(f"{b.name}: only one consumer allowed")
        if b._ready():
            self.result = b._pop_batch()
            return True
        if b.closing and not b.pending:
            self.result = None
            return True
        proc.waiting_on = ("get", b.name)  # lazy; classified as queue-wait
        b._waiter = proc
        if b.pending:
            b._arm_timer()
        return False
