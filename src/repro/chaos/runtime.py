"""Per-run chaos wiring: plan -> injector + invariant checker.

:class:`ChaosRuntime` is the object callers thread through
``TrainingSystem.run_epoch(chaos=...)`` (or hand to
:class:`~repro.core.pipeline.PipelineRunner` via
``pipeline_kwargs()``).  It is deliberately *one-shot*: the invariant
checker accumulates per-run state, so build a fresh runtime for every
simulated run.

Every runtime arms a strict :class:`InvariantChecker` (a violation
raises) and leaves the collective watchdog at the pipeline's own
defaults: a timeout auto-scaled to the costliest batch, 3 retries, no
backoff.  When the plan is fault-free the runtime sets
``injector=None``, so the pristine replay path runs unchanged — the
bit-identity guarantee the property tests assert.
"""

from __future__ import annotations

from repro.chaos.faults import FaultPlan
from repro.chaos.injector import FaultInjector
from repro.chaos.invariants import InvariantChecker


class ChaosRuntime:
    """One run's worth of fault injection + invariant auditing."""

    def __init__(self, plan: FaultPlan | None = None):
        self.plan = plan if plan is not None else FaultPlan()
        self.injector = (
            None if self.plan.fault_free else FaultInjector(self.plan)
        )
        self.invariants = InvariantChecker()

    def pipeline_kwargs(self) -> dict:
        """Keyword arguments for :class:`~repro.core.pipeline.PipelineRunner`."""
        return {"injector": self.injector, "invariants": self.invariants}


__all__ = ["ChaosRuntime"]
