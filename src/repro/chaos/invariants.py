"""Always-on simulation invariants (zero-cost when not installed).

The :class:`InvariantChecker` is an *oracle*: independent bookkeeping
that re-verifies properties the engine is supposed to guarantee by
construction.  Installed with ``Simulator(invariants=checker)`` (or
``PipelineRunner`` / ``GNNServer(invariants=...)``), it is fed by the
simulator's probe (:mod:`repro.obs.probe`), which also puts each
violation on the run's trace and metrics timelines.

Checked invariants:

``clock-monotone``
    Event times never decrease (the scheduler contract).
``queue-bound``
    No :class:`~repro.engine.resources.BoundedQueue` ever holds more
    than its capacity.
``ccc-launch-order``
    Every GPU launches collectives at contiguous, increasing positions
    of one shared global order (the CCC legality property that prevents
    Fig 8 deadlocks) — tracked independently of the LaunchGate's own
    state.
``link-bytes``
    Wire bytes accumulated event-by-event equal the analytic total
    recomputed from completed stages at the end of the run (degraded
    collective rounds excepted — their skipped bytes are accounted).
``no-lost-batches``
    Every (gpu, stage, batch) triple either completed or was explicitly
    recorded as lost to an injected fault; nothing vanishes silently.
``tenant-quota``
    Multi-tenant admission never holds more of a tenant's requests in
    one admission queue than that tenant's quota slots allow (checked
    at every admission, independently of the batcher's own counters).
``scale-safety``
    The replica autoscaler never routes a request to a replica after
    that replica was retired — scale-down drains, it never drops
    in-flight work.
"""

from __future__ import annotations

from repro.utils.errors import InvariantViolation

#: relative tolerance for byte-conservation reconciliation
BYTES_RTOL = 1e-9


class InvariantChecker:
    """Independent run-time verification of engine invariants.

    ``strict=True`` (the default) raises
    :class:`~repro.utils.errors.InvariantViolation` at the first broken
    invariant; ``strict=False`` collects violations for inspection
    (used by tests that assert a violation *is* detected).
    """

    def __init__(self, strict: bool = True):
        self.strict = strict
        #: the probe of the simulator this checker is installed on
        self.probe = None
        self.violations: list[str] = []
        self.checks = 0
        self._last_time = 0.0
        # independent CCC order bookkeeping
        self._ccc_order: dict = {}   # tag -> first-seen position
        self._ccc_next: dict = {}    # gpu -> next position expected
        # event-driven byte accumulation per link class
        self.observed_bytes: dict = {}
        #: completed (gpu, stage, batch) triples
        self.completed: set = set()
        #: (gpu, stage, batch) -> reason, for batches lost to faults
        self.lost: dict = {}
        #: replica -> retirement time (autoscaler scale-safety audit)
        self._retired: dict = {}
        self.finalized = False

    # -- failure path ----------------------------------------------------
    def _fail(self, invariant: str, message: str) -> None:
        text = f"[{invariant}] {message}"
        self.violations.append(text)
        if self.probe is not None:
            self.probe.annotate(self._last_time, f"violation:{invariant}",
                                detail=message)
        if self.strict:
            raise InvariantViolation(text, invariant=invariant)

    @property
    def clean(self) -> bool:
        return not self.violations

    # -- hooks (called through the simulator's probe) ----------------------
    def on_event_time(self, t: float) -> None:
        # The bucketed scheduler fires this once per *distinct*
        # timestamp (a dispatch batch), not once per event, so
        # ``checks`` counts dispatch batches.  The heap-core test
        # oracle fires it per event: its totals differ, the
        # monotonicity guarantee does not.
        self.checks += 1
        if t < self._last_time:
            self._fail(
                "clock-monotone",
                f"time went backwards: {self._last_time:g} -> {t:g}",
            )
        self._last_time = t

    def on_queue_push(self, name: str, depth: int, capacity: int) -> None:
        self.checks += 1
        if depth > capacity:
            self._fail(
                "queue-bound",
                f"queue {name} holds {depth} items > capacity {capacity}",
            )

    def on_launch(self, gpu: int, tag, position: int) -> None:
        self.checks += 1
        seen = self._ccc_order.setdefault(tag, position)
        if seen != position:
            self._fail(
                "ccc-launch-order",
                f"collective {tag!r} launched at position {position} on "
                f"gpu {gpu} but at {seen} elsewhere",
            )
        expected = self._ccc_next.get(gpu, 0)
        if position != expected:
            self._fail(
                "ccc-launch-order",
                f"gpu {gpu} launched {tag!r} at position {position}, "
                f"expected {expected}",
            )
        self._ccc_next[gpu] = expected + 1

    def on_bytes(self, link: str, nbytes: float) -> None:
        self.observed_bytes[link] = self.observed_bytes.get(link, 0.0) + nbytes

    def on_stage_done(self, gpu: int, stage: str, batch: int) -> None:
        self.completed.add((gpu, stage, batch))

    def note_lost(self, gpu: int, stage: str, batch: int,
                  reason: str) -> None:
        """Record a (gpu, stage, batch) that will never complete and why."""
        self.lost[(gpu, stage, batch)] = reason

    def on_admit(self, queue: str, tenant: str, pending: int,
                 quota: int) -> None:
        """Multi-tenant admission audit: called by the batcher after
        admitting a request, with the tenant's post-admission pending
        count and its quota ceiling for this queue."""
        self.checks += 1
        if pending > quota:
            self._fail(
                "tenant-quota",
                f"{queue}: tenant {tenant!r} holds {pending} pending "
                f"requests > quota {quota}",
            )

    def on_retire(self, replica: int, t: float) -> None:
        """Autoscaler audit: replica stops accepting work at ``t``."""
        self._retired[replica] = t

    def on_assign(self, replica: int, arrival: float) -> None:
        """Autoscaler audit: a request arriving at ``arrival`` was
        routed to ``replica`` — must precede any retirement."""
        self.checks += 1
        t = self._retired.get(replica)
        if t is not None and arrival > t:
            self._fail(
                "scale-safety",
                f"request at t={arrival:g}s routed to replica "
                f"{replica} retired at t={t:g}s",
            )

    # -- end-of-run reconciliation ---------------------------------------
    def finalize(self, expected_bytes: dict | None = None,
                 expected_batches=None) -> None:
        """Reconcile end-of-run accounting.

        ``expected_bytes`` maps link class -> analytically recomputed
        wire bytes; ``expected_batches`` is the full set of
        (gpu, stage, batch) triples the run was supposed to complete.
        """
        self.finalized = True
        if expected_bytes is not None:
            links = set(expected_bytes) | set(self.observed_bytes)
            for link in sorted(links):
                want = expected_bytes.get(link, 0.0)
                got = self.observed_bytes.get(link, 0.0)
                self.checks += 1
                if abs(got - want) > BYTES_RTOL * max(1.0, abs(want)):
                    self._fail(
                        "link-bytes",
                        f"{link}: observed {got:.6g} B != expected "
                        f"{want:.6g} B",
                    )
        if expected_batches is not None:
            expected = set(expected_batches)
            self.checks += 1
            overlap = self.completed & set(self.lost)
            if overlap:
                self._fail(
                    "no-lost-batches",
                    f"{len(overlap)} triples both completed and lost, "
                    f"e.g. {sorted(overlap)[0]}",
                )
            missing = expected - self.completed - set(self.lost)
            if missing:
                self._fail(
                    "no-lost-batches",
                    f"{len(missing)} unaccounted triples, "
                    f"e.g. {sorted(missing)[0]}",
                )

    # -- reporting -------------------------------------------------------
    def summary(self) -> dict:
        return {
            "checks": self.checks,
            "clean": self.clean,
            "violations": list(self.violations),
            "lost_batches": len(self.lost),
            "finalized": self.finalized,
        }


__all__ = ["BYTES_RTOL", "InvariantChecker"]
