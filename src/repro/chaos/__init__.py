"""Deterministic fault injection and simulation invariant checking.

The chaos layer perturbs the *simulated substrate* — GPU stragglers,
NVLink/PCIe degradation and flaps, cache-peer loss, pipeline worker
crashes, stalled queues, delayed/dropped collective participants —
through typed, seed-derivable :class:`FaultPlan` schedules, and audits
every run with an always-on :class:`InvariantChecker` (clock
monotonicity, per-link byte conservation, queue bounds, CCC
launch-order legality, no lost batches).

Entry points
------------
- :class:`FaultPlan` / the fault event classes — the fault model
  (:mod:`repro.chaos.faults`);
- :class:`FaultInjector` — interprets a plan for the engine
  (:mod:`repro.chaos.injector`);
- :class:`InvariantChecker` — the simulation oracle
  (:mod:`repro.chaos.invariants`);
- :class:`ChaosRuntime` — one run's wiring, threaded through
  ``TrainingSystem.run_epoch(chaos=...)`` (:mod:`repro.chaos.runtime`);
- :func:`run_scenario` / :func:`resilience_report` — the named
  scenario suite behind ``repro chaos``
  (:mod:`repro.chaos.scenarios`, imported lazily because it pulls in
  :mod:`repro.core`).

Determinism contract: every perturbation is a pure function of
``(plan, sim.now)``, so the same seed and plan produce bit-identical
resilience reports regardless of worker count, tracer presence or run
order — and a fault-free plan leaves the simulation's yield sequence
untouched (bit-identical to a run without the chaos layer).
"""

from __future__ import annotations

from repro.chaos.faults import (
    EVENT_KINDS,
    FAULT_STAGES,
    CachePeerLoss,
    CollectiveDelay,
    CollectiveDrop,
    FaultEvent,
    FaultPlan,
    GpuStraggler,
    LinkDegrade,
    LinkFlap,
    QueueStall,
    WorkerCrash,
)
from repro.chaos.injector import FaultInjector
from repro.chaos.invariants import BYTES_RTOL, InvariantChecker
from repro.chaos.runtime import ChaosRuntime

#: names resolved lazily from :mod:`repro.chaos.scenarios` (it imports
#: repro.core, which this package must not pull in eagerly)
_SCENARIO_EXPORTS = (
    "SCENARIOS",
    "Scenario",
    "format_report",
    "resilience_report",
    "run_scenario",
)


def __getattr__(name: str):
    if name in _SCENARIO_EXPORTS:
        from repro.chaos import scenarios

        return getattr(scenarios, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "BYTES_RTOL",
    "EVENT_KINDS",
    "FAULT_STAGES",
    "CachePeerLoss",
    "ChaosRuntime",
    "CollectiveDelay",
    "CollectiveDrop",
    "FaultEvent",
    "FaultInjector",
    "FaultPlan",
    "GpuStraggler",
    "InvariantChecker",
    "LinkDegrade",
    "LinkFlap",
    "QueueStall",
    "WorkerCrash",
    *_SCENARIO_EXPORTS,
]
