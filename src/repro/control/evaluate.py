"""Controller-on vs static: the per-scenario SLO-minutes matrix.

The controller's acceptance question is concrete: across fault
scenarios and drifting workloads, does closing the loop reduce "SLO
minutes violated" (the :class:`~repro.metrics.SLOMonitor` resilience
figure) relative to the static configuration it started from — and
does it ever make things *worse*?  :func:`control_matrix` answers it
cell by cell: every cell runs the same workload under the same
:class:`~repro.chaos.FaultPlan` twice, static knobs vs controller, on
one system reset between passes
(:func:`repro.chaos.scenarios.serve_cell`), and reports both figures
plus the controller's action accounting.

Scenario plans come from the chaos registry
(:data:`repro.chaos.scenarios.SCENARIOS`): a scenario's recipe is a
pure function of the fault-free horizon, so the *serving* stream is
perturbed by the same straggler/link/blackout timing faults the
training matrix uses (fault kinds serving never consults — worker
crashes — simply leave the cell fault-equivalent, and the assertion
``controller <= static`` still must hold).  The pseudo-scenario
``"none"`` covers fault-free drift/burst workloads.

Every cell is a pure function of its arguments and fans out through
:mod:`repro.parallel` (one :func:`control_cell` run each), so the
matrix is byte-identical across ``--workers`` — the regression suite
pins cells of this matrix, including action counts.
"""

from __future__ import annotations

from repro.utils.errors import ConfigError, InvariantViolation

#: the named chaos scenarios every controller evaluation covers (the
#: seven core recipes, train- and serve-mode alike — their fault plans
#: all perturb a serving replay)
CORE_SCENARIOS = (
    "straggler",
    "link-degrade",
    "link-flap",
    "sampler-crash",
    "trainer-crash",
    "collective-drop",
    "cache-peer-loss",
)


def _check_scenarios(scenarios) -> None:
    """Fail fast on an unknown scenario name (``"none"`` is fault-free)."""
    from repro.chaos.scenarios import SCENARIOS

    for scenario in scenarios:
        if scenario != "none" and scenario not in SCENARIOS:
            raise ConfigError(
                f"unknown scenario {scenario!r}; known: "
                f"{['none', *sorted(SCENARIOS)]}"
            )


def control_cell(
    system_name: str,
    config,
    scenario: str,
    controller,
    workload_config=None,
    requests: int = 64,
    qps: float = 2000.0,
    serve_config=None,
) -> dict:
    """One matrix cell: static vs controlled serving under one plan
    (:func:`repro.chaos.scenarios.serve_cell`'s faulted and controlled
    passes)."""
    from repro.chaos.scenarios import serve_cell
    from repro.serve import WorkloadConfig

    _check_scenarios([scenario])
    wl_cfg = (workload_config if workload_config is not None
              else WorkloadConfig(num_requests=requests, seed=config.seed))
    plan, _, static, ctl = serve_cell(system_name, config, scenario, wl_cfg,
                                      qps, serve_config, controller)
    if isinstance(static, InvariantViolation):
        raise static
    control = ctl.report.control or {}
    actions = sum(control.get("action_counts", {}).values())
    static_min = static.slo["slo_minutes_violated"]
    ctl_min = ctl.slo["slo_minutes_violated"]
    return {
        "system": system_name,
        "scenario": scenario,
        "arrival": wl_cfg.arrival,
        "drift_phases": wl_cfg.drift_phases,
        "qps": qps,
        "faults": plan.kind_counts(),
        "static_slo_minutes": static_min,
        "controller_slo_minutes": ctl_min,
        "improvement_minutes": static_min - ctl_min,
        "improved": ctl_min <= static_min,
        "static_p99_ms": static.report.p99 * 1e3,
        "controller_p99_ms": ctl.report.p99 * 1e3,
        "static_shed": static.report.shed,
        "controller_shed": ctl.report.shed,
        "actions": actions,
        "action_counts": control.get("action_counts", {}),
        "final_knobs": control.get("final", {}),
    }


def control_matrix(
    system_name: str,
    config,
    controller,
    scenarios=CORE_SCENARIOS,
    workload_configs=None,
    requests: int = 64,
    qps: float = 2000.0,
    serve_config=None,
    workers: int = 1,
) -> dict:
    """The full evaluation: scenarios × workloads, fanned out.

    ``workload_configs`` maps label -> :class:`WorkloadConfig`; None
    runs each scenario once under the default Poisson stream.  Returns
    a JSON-safe report with per-cell figures and an aggregate summary.
    """
    from repro.parallel import RunSpec, run_tasks
    from repro.serve import WorkloadConfig

    scenarios = list(scenarios)
    _check_scenarios(scenarios)  # before any cell runs
    if workload_configs is None:
        workload_configs = {
            "poisson": WorkloadConfig(num_requests=requests,
                                      seed=config.seed)
        }
    specs = [
        RunSpec(control_cell, f"{scenario}/{wl_label}", {
            "system_name": system_name,
            "config": config,
            "scenario": scenario,
            "controller": controller,
            "workload_config": wl_cfg,
            "requests": requests,
            "qps": qps,
            "serve_config": serve_config,
        })
        for scenario in scenarios
        for wl_label, wl_cfg in workload_configs.items()
    ]
    labels = [s.label for s in specs]
    results = run_tasks(specs, workers=workers)
    cells = dict(zip(labels, results))
    improved = sum(1 for c in results if c["improved"])
    return {
        "system": system_name,
        "qps": qps,
        "controller_interval_ms": (
            None if controller is None or controller.interval_s is None
            else controller.interval_s * 1e3
        ),
        "cells": cells,
        "summary": {
            "cells": len(results),
            "improved_or_equal": improved,
            "regressed": len(results) - improved,
            "total_static_minutes": sum(
                c["static_slo_minutes"] for c in results
            ),
            "total_controller_minutes": sum(
                c["controller_slo_minutes"] for c in results
            ),
            "total_actions": sum(c["actions"] for c in results),
        },
    }


def format_control_matrix(payload: dict) -> str:
    """Render a control matrix as a text table."""
    lines = [
        f"{'cell':<28} {'static SLOmin':>13} {'ctl SLOmin':>11} "
        f"{'delta':>9} {'actions':>7}  verdict"
    ]
    for label, c in payload["cells"].items():
        verdict = "ok" if c["improved"] else "REGRESSED"
        lines.append(
            f"{label:<28} {c['static_slo_minutes']:>13.4f} "
            f"{c['controller_slo_minutes']:>11.4f} "
            f"{c['improvement_minutes']:>9.4f} {c['actions']:>7}  {verdict}"
        )
    s = payload["summary"]
    lines.append(
        f"\n{s['cells']} cells: {s['improved_or_equal']} improved-or-equal, "
        f"{s['regressed']} regressed; "
        f"SLO minutes {s['total_static_minutes']:.4f} -> "
        f"{s['total_controller_minutes']:.4f} "
        f"({s['total_actions']} controller actions)"
    )
    return "\n".join(lines)


__all__ = ["CORE_SCENARIOS", "control_cell", "control_matrix",
           "format_control_matrix"]
