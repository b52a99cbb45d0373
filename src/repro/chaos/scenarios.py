"""Named chaos scenarios and the resilience report behind ``repro chaos``.

Each scenario is a recipe that turns a *horizon* (the fault-free run's
simulated duration) and the GPU count into a :class:`FaultPlan`, so one
scenario stresses every system proportionally: a straggler window that
covers 60% of a DSP epoch also covers 60% of a DGL-UVA epoch, however
different their absolute epoch times are.

:func:`run_scenario` executes one ``(system, scenario)`` cell in two
passes, over two *fresh* systems in train mode (``run_epoch`` advances
RNG state, so they must not share one) and over one system reset
between passes in serve mode (:func:`serve_cell`, shared with
:func:`repro.control.control_cell`):

1. a fault-free pass with the invariant checker attached, yielding the
   horizon and the baseline timing;
2. the chaos pass under the scenario's plan, with the full
   injector + watchdog + invariant stack.

A pass that wedges on a crashed worker surfaces as outcome
``"stalled"`` (the diagnosed :class:`~repro.utils.errors.PipelineStall`
— itself a chaos deliverable); anything the invariant oracle rejects
surfaces as ``"invariant-violation"``.

:func:`resilience_report` fans the ``systems × scenarios`` matrix out
through :mod:`repro.parallel` (one :func:`run_scenario` run per cell)
and assembles one JSON-safe report.  Every cell is a pure function of
``(system name, scenario, RunConfig)``, so the report is bit-identical
across ``--workers`` settings and repeated runs — the determinism
contract the chaos tests pin down.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, NamedTuple

from repro.chaos.faults import (
    CachePeerLoss,
    CollectiveDrop,
    FaultPlan,
    GpuStraggler,
    LinkDegrade,
    LinkFlap,
    WorkerCrash,
)
from repro.chaos.injector import FaultInjector
from repro.chaos.runtime import ChaosRuntime
from repro.utils.errors import ConfigError, InvariantViolation, PipelineStall


@dataclass(frozen=True)
class Scenario:
    """A named fault recipe: ``build(horizon, num_gpus) -> FaultPlan``."""

    name: str
    mode: str  # "train" (epoch replay) | "serve" (online serving)
    build: Callable
    blurb: str


def _straggler(h: float, k: int) -> FaultPlan:
    return FaultPlan((
        GpuStraggler(0.1 * h, gpu=0, duration=0.6 * h, slowdown=4.0),
    ))


def _link_degrade(h: float, k: int) -> FaultPlan:
    return FaultPlan((
        LinkDegrade(0.1 * h, link="nvlink", duration=0.5 * h, factor=4.0),
        LinkDegrade(0.1 * h, link="pcie", duration=0.5 * h, factor=4.0),
    ))


def _link_flap(h: float, k: int) -> FaultPlan:
    return FaultPlan((
        LinkFlap(0.25 * h, link="nvlink", duration=0.1 * h),
        LinkFlap(0.55 * h, link="pcie", duration=0.1 * h),
    ))


def _sampler_crash(h: float, k: int) -> FaultPlan:
    return FaultPlan((WorkerCrash(0.4 * h, gpu=k - 1, stage="sample"),))


def _trainer_crash(h: float, k: int) -> FaultPlan:
    return FaultPlan((WorkerCrash(0.4 * h, gpu=0, stage="train"),))


def _collective_drop(h: float, k: int) -> FaultPlan:
    return FaultPlan((
        CollectiveDrop(0.2 * h, gpu=min(1, k - 1), duration=0.5 * h),
    ))


def _cache_peer_loss(h: float, k: int) -> FaultPlan:
    return FaultPlan((CachePeerLoss(0.0, gpu=0),))


def _net_degrade(h: float, k: int) -> FaultPlan:
    return FaultPlan((
        LinkDegrade(0.1 * h, link="network", duration=0.5 * h, factor=4.0),
    ))


def _net_flap(h: float, k: int) -> FaultPlan:
    return FaultPlan((
        LinkFlap(0.3 * h, link="network", duration=0.15 * h),
    ))


#: the scenario registry, keyed by CLI name
SCENARIOS: dict[str, Scenario] = {
    s.name: s
    for s in (
        Scenario("straggler", "train", _straggler,
                 "GPU 0 computes 4x slower for 60% of the epoch"),
        Scenario("link-degrade", "train", _link_degrade,
                 "NVLink and PCIe run 4x slower for half the epoch"),
        Scenario("link-flap", "train", _link_flap,
                 "short NVLink then PCIe blackouts mid-epoch"),
        Scenario("sampler-crash", "train", _sampler_crash,
                 "the last GPU's sampler worker exits mid-epoch"),
        Scenario("trainer-crash", "train", _trainer_crash,
                 "GPU 0's trainer exits mid-epoch (expected stall)"),
        Scenario("collective-drop", "train", _collective_drop,
                 "one GPU stops joining collectives for half the epoch"),
        Scenario("cache-peer-loss", "serve", _cache_peer_loss,
                 "GPU 0's cache shard is lost; serving fails over to UVA"),
        Scenario("net-degrade", "train", _net_degrade,
                 "the cross-server NIC runs 4x slower for half the epoch"
                 " (no-op on a single server)"),
        Scenario("net-flap", "serve", _net_flap,
                 "a cross-server network blackout mid-run"
                 " (no-op on a single server)"),
    )
}


def _get(scenario: str) -> Scenario:
    try:
        return SCENARIOS[scenario]
    except KeyError:
        raise ConfigError(
            f"unknown scenario {scenario!r}; known: {sorted(SCENARIOS)}"
        ) from None


def run_scenario(
    system_name: str,
    scenario: str,
    config,
    max_batches: int | None = 4,
    requests: int = 64,
    qps: float = 2000.0,
    controller=None,
) -> dict:
    """One ``(system, scenario)`` cell -> a JSON-safe result dict.

    ``controller`` (a :class:`repro.control.ControllerConfig`) makes
    serve-mode cells run a *third* pass — same faults, tuner on — and
    adds ``slo_minutes_violated_controller`` / ``controller_actions``
    to the cell, quantifying what closing the loop buys per scenario.
    Train-mode cells ignore it (there is no batcher to tune).
    """
    sc = _get(scenario)
    if sc.mode == "serve":
        return _run_serve_scenario(system_name, sc, config, requests, qps,
                                   controller=controller)
    return _run_train_scenario(system_name, sc, config, max_batches)


def _run_train_scenario(system_name: str, sc: Scenario, config,
                        max_batches: int | None) -> dict:
    from repro.core import build_system

    baseline_sys = build_system(system_name, config)
    base_chaos = ChaosRuntime(FaultPlan())
    baseline_sys.run_epoch(max_batches=max_batches, functional=False,
                           chaos=base_chaos)
    base = baseline_sys.last_pipeline_result
    # scenarios scale over the whole cluster, not one server's GPUs
    plan = sc.build(base.epoch_time, config.total_gpus)

    from repro.metrics import MetricsRegistry

    system = build_system(system_name, config)
    runtime = ChaosRuntime(plan)
    # ~20 windows over the fault-free horizon keeps per-window state
    # bounded however long (or short) the epoch simulates to
    registry = MetricsRegistry(window_s=max(base.epoch_time / 20.0, 1e-6))
    outcome, dead = "completed", ()
    try:
        system.run_epoch(max_batches=max_batches, functional=False,
                         chaos=runtime, metrics=registry)
    except PipelineStall as err:
        outcome, dead = "stalled", tuple(sorted(err.dead))
    except InvariantViolation:
        outcome = "invariant-violation"
    res = system.last_pipeline_result if outcome == "completed" else None
    out = {
        "system": system_name,
        "scenario": sc.name,
        "mode": "train",
        "outcome": outcome,
        "faults": plan.kind_counts(),
        "baseline_epoch_time": base.epoch_time,
        "epoch_time": None if res is None else res.epoch_time,
        "slowdown": (
            None if res is None or base.epoch_time <= 0
            else res.epoch_time / base.epoch_time
        ),
        "lost_batches": None if res is None else res.lost_batches,
        "degraded_rounds": None if res is None else res.degraded_rounds,
        "aborted_rounds": None if res is None else res.aborted_rounds,
        # fault activations / clearances / invariant violations that
        # landed on the chaos pass's metrics timeline
        "fault_events": len(registry.events),
        "invariants": runtime.invariants.summary(),
        "baseline_invariants": base_chaos.invariants.summary(),
    }
    if dead:
        out["dead_workers"] = list(dead)
    return out


class ServePass(NamedTuple):
    """One serve-cell pass: its report, the windowed SLO summary (the
    window equals the SLO), the fault/violation events on its metrics
    timeline and the invariant checker's summary."""

    report: object
    slo: dict
    fault_events: int
    invariants: dict


def serve_cell(system_name: str, config, scenario: str, workload_config,
               qps: float, serve_cfg=None, controller=None):
    """The three-pass serve cell -> ``(plan, base, faulted, controlled)``.

    ``base`` is fault-free and sets the plan's horizon; ``faulted`` runs
    under the scenario's plan (it *is* ``base`` for ``"none"``, and an
    :class:`~repro.utils.errors.InvariantViolation` it raises is
    returned in its place, skipping the last pass); ``controlled``
    repeats it with ``controller`` tuning the batcher (None without
    one).  The cell builds one system: each pass is one
    :func:`repro.serve.sweep.serve_stream`, which resets it first.
    """
    import numpy as np

    from repro.core import build_system
    from repro.serve import ServeConfig, make_workload
    from repro.serve.sweep import serve_stream

    system = build_system(system_name, config)
    workload = make_workload(workload_config,
                             np.arange(system.base_dataset.num_nodes))
    cfg = replace(serve_cfg or ServeConfig(), check_invariants=True)

    def serve(plan, cfg=cfg):
        server, report = serve_stream(
            system, workload.requests(qps), qps, cfg, metrics=True,
            injector=None if plan.fault_free else FaultInjector(plan),
        )
        return ServePass(report, report.metrics["slo"],
                         len(server.metrics.events),
                         server.invariants.summary())

    base = serve(FaultPlan())
    if scenario == "none":
        plan, faulted = FaultPlan(), base
    else:
        plan = _get(scenario).build(base.report.elapsed, config.total_gpus)
        try:
            faulted = serve(plan)
        except InvariantViolation as err:
            return plan, base, err, None
    controlled = (None if controller is None
                  else serve(plan, replace(cfg, controller=controller)))
    return plan, base, faulted, controlled


def _run_serve_scenario(system_name: str, sc: Scenario, config,
                        requests: int, qps: float,
                        controller=None) -> dict:
    from repro.serve import WorkloadConfig

    plan, base, chaos, ctl = serve_cell(
        system_name, config, sc.name,
        WorkloadConfig(num_requests=requests, seed=config.seed), qps,
        controller=controller,
    )
    outcome = "completed"
    if isinstance(chaos, InvariantViolation):
        outcome, chaos = "invariant-violation", None
    report = None if chaos is None else chaos.report
    out = {
        "system": system_name,
        "scenario": sc.name,
        "mode": "serve",
        "outcome": outcome,
        "faults": plan.kind_counts(),
        "baseline_elapsed": base.report.elapsed,
        "elapsed": None if report is None else report.elapsed,
        "slowdown": (
            None if report is None or base.report.elapsed <= 0
            else report.elapsed / base.report.elapsed
        ),
        "degraded": None if report is None else report.degraded,
        "completed": None if report is None else report.completed,
        "shed": None if report is None else report.shed,
        "p99_ms": None if report is None else report.p99 * 1e3,
        # the fault-free pass's p99: a degraded-load penalty shows here,
        # not in ``slowdown`` (the arrival window sets elapsed time)
        "baseline_p99_ms": base.report.p99 * 1e3,
        # windowed SLO health (p50/p95/p99 series + burn rates) of the
        # chaos pass, and the headline resilience figure of both passes
        "slo": None if chaos is None else chaos.slo,
        "slo_minutes_violated": (
            None if chaos is None else chaos.slo["slo_minutes_violated"]
        ),
        "baseline_slo_minutes_violated": base.slo["slo_minutes_violated"],
        "fault_events": 0 if chaos is None else chaos.fault_events,
        "invariants": None if chaos is None else chaos.invariants,
        "baseline_invariants": base.invariants,
    }
    if ctl is not None:
        # present only when the controller pass ran, so default-path
        # cell payloads stay byte-identical to pre-control outputs
        counts = (ctl.report.control or {}).get("action_counts", {})
        out.update(
            slo_minutes_violated_controller=ctl.slo["slo_minutes_violated"],
            controller_actions=sum(counts.values()),
            controller_action_counts=counts,
            controller_shed=ctl.report.shed,
        )
    return out


def resilience_report(
    systems,
    scenarios,
    config,
    max_batches: int | None = 4,
    requests: int = 64,
    qps: float = 2000.0,
    workers: int = 1,
    controller=None,
) -> dict:
    """Run the ``systems × scenarios`` matrix; one JSON-safe report.

    Each cell is one :func:`run_scenario` call submitted to
    :func:`repro.parallel.run_tasks`, so ``workers > 1`` fans the
    matrix out across processes with bit-identical results.
    ``controller`` adds the with-controller pass to serve-mode cells
    (see :func:`run_scenario`).
    """
    from repro.parallel import RunSpec, run_tasks

    scenarios = list(scenarios)
    for name in scenarios:
        _get(name)  # fail fast on typos, before any simulation runs
    specs = [
        RunSpec(run_scenario, f"{system}/{scenario}", {
            "system_name": system, "scenario": scenario, "config": config,
            "max_batches": max_batches, "requests": requests, "qps": qps,
            "controller": controller,
        })
        for system in systems
        for scenario in scenarios
    ]
    results = run_tasks(specs, workers=workers)

    by_system: dict = {}
    for res in results:
        by_system.setdefault(res["system"], {})[res["scenario"]] = res
    outcomes = [r["outcome"] for r in results]
    clean = all(
        (r.get("invariants") or {"clean": True})["clean"]
        and (r.get("baseline_invariants") or {"clean": True})["clean"]
        for r in results
    )
    return {
        "scenarios": scenarios,
        "systems": by_system,
        "summary": {
            "runs": len(results),
            "completed": outcomes.count("completed"),
            "stalled": outcomes.count("stalled"),
            "invariant_violations": outcomes.count("invariant-violation"),
            "invariants_clean": clean,
        },
    }


def format_report(payload: dict) -> str:
    """Render a resilience report as the ``repro chaos`` text table."""
    lines = [
        f"{'system':<10} {'scenario':<16} {'outcome':<20} {'slowdown':>9} "
        f"{'lost':>5} {'degr':>5} {'abrt':>5} {'SLO min':>8}  detail"
    ]
    for system, cells in payload["systems"].items():
        for scenario in payload["scenarios"]:
            r = cells[scenario]
            slow = r.get("slowdown")
            slow_s = "-" if slow is None else f"{slow:8.2f}x"
            lost = r.get("lost_batches")
            degr = (r.get("degraded_rounds") if r["mode"] == "train"
                    else r.get("degraded"))
            abrt = r.get("aborted_rounds")
            slo_min = r.get("slo_minutes_violated")
            slo_s = "-" if slo_min is None else f"{slo_min:8.4f}"
            detail = ""
            if r.get("dead_workers"):
                detail = "dead: " + ", ".join(r["dead_workers"])
            elif r["mode"] == "serve" and r.get("shed") is not None:
                detail = f"shed {r['shed']}"
            if "slo_minutes_violated_controller" in r:
                detail = (detail + " " if detail else "") + (
                    f"ctl SLO {r['slo_minutes_violated_controller']:.4f} "
                    f"({r.get('controller_actions', 0)} actions)"
                )
            lines.append(
                f"{system:<10} {scenario:<16} {r['outcome']:<20} "
                f"{slow_s:>9} "
                f"{'-' if lost is None else lost:>5} "
                f"{'-' if degr is None else degr:>5} "
                f"{'-' if abrt is None else abrt:>5} "
                f"{slo_s:>8}  {detail}"
            )
    s = payload["summary"]
    lines.append(
        f"\n{s['runs']} runs: {s['completed']} completed, "
        f"{s['stalled']} stalled, {s['invariant_violations']} invariant "
        f"violation(s); invariants "
        f"{'clean' if s['invariants_clean'] else 'DIRTY'}"
    )
    return "\n".join(lines)


__all__ = [
    "SCENARIOS",
    "Scenario",
    "format_report",
    "resilience_report",
    "run_scenario",
]
