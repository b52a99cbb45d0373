"""The serving control plane: online tuning, autoscaling, tenancy.

ROADMAP item 2: DSP's serving tier found its batcher knobs and its
saturation knee by *offline* QPS sweeps; this package closes the loop
online.  Three controllers, all deterministic pure functions of
``(workload, qps, config)`` and therefore byte-identical across
``--workers`` (the conformance suite in ``tests/control/`` pins this):

- :class:`ServeController` (:mod:`repro.control.controller`) — a
  hysteresis-banded AIMD tuner that retunes per-GPU batcher
  ``batch_max`` / ``max-wait`` against the streaming SLO burn rate;
- :class:`AutoscaleConfig` (:mod:`repro.control.autoscale`), passed
  as ``serve_once(..., replicas=...)`` — replica scaling with warm-up
  cost on scale-up and drain-don't-drop scale-down;
- :class:`TenancyConfig` (:mod:`repro.control.tenancy`) — priority
  classes and per-tenant admission quotas, with SLO-pressure shedding.

Everything is **off by default**: with no controller, tenancy or
autoscaler configured, serving output is bit-identical to the
pre-control code path.  See ``docs/control.md``.
"""

from repro.control.actions import (
    ACTION_KINDS,
    ControlAction,
    action_from_dict,
    actions_to_dicts,
)
from repro.control.autoscale import (
    AutoscaleConfig,
    assign_replicas,
)
from repro.control.controller import ControllerConfig, ServeController
from repro.control.evaluate import (
    CORE_SCENARIOS,
    control_cell,
    control_matrix,
    format_control_matrix,
)
from repro.control.tenancy import (
    TenancyConfig,
    TenantSpec,
    TenantState,
    tenant_summary,
)

__all__ = [
    "ACTION_KINDS",
    "AutoscaleConfig",
    "CORE_SCENARIOS",
    "ControlAction",
    "ControllerConfig",
    "ServeController",
    "TenancyConfig",
    "TenantSpec",
    "TenantState",
    "action_from_dict",
    "actions_to_dicts",
    "assign_replicas",
    "control_cell",
    "control_matrix",
    "format_control_matrix",
    "tenant_summary",
]
