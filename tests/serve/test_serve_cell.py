"""A serve cell builds its system once and resets it between passes.

``repro.chaos.scenarios.serve_cell`` (behind every serve-mode chaos
cell and every control cell) runs its baseline, faulted and controlled
passes on one system; these tests pin that a reset system serves
exactly like a freshly built one, and that a cell builds one system.
"""

from dataclasses import replace

import numpy as np
import pytest

import repro.core
from repro.chaos import SCENARIOS
from repro.chaos.injector import FaultInjector
from repro.chaos.scenarios import run_scenario
from repro.control import ControllerConfig, control_cell
from repro.core import RunConfig, build_system
from repro.serve import ServeConfig, WorkloadConfig, make_workload
from repro.serve.sweep import serve_stream

CFG = RunConfig(dataset="tiny", num_gpus=2, hidden_dim=16, batch_size=8,
                fanout=(5, 3), seed=3)
QPS = 3000.0


def _serve(system, workload, cfg, injector=None):
    return serve_stream(system, workload.requests(QPS), QPS, cfg,
                        metrics=True, injector=injector)[1]


@pytest.mark.parametrize("dynamic", [False, True], ids=["static", "dynamic"])
def test_reset_after_faulted_controlled_pass_equals_fresh_build(dynamic):
    config = replace(CFG, dynamic_cache=dynamic, feature_cache_bytes=3200)
    system = build_system("DSP", config)
    workload = make_workload(
        WorkloadConfig(num_requests=96, arrival="diurnal", seed=5),
        np.arange(system.base_dataset.num_nodes),
    )
    cfg = ServeConfig(slo_s=2e-3, check_invariants=True)
    plan = SCENARIOS["cache-peer-loss"].build(0.05, config.total_gpus)
    # a serve cell's passes: fault-free, faulted, faulted + controller
    _serve(system, workload, cfg)
    _serve(system, workload, cfg, injector=FaultInjector(plan))
    faulted = _serve(system, workload,
                     replace(cfg, controller=ControllerConfig()),
                     injector=FaultInjector(plan))
    assert faulted.degraded > 0  # the lost shard really was in play
    assert faulted.control["action_counts"]  # and the tuner acted
    reused = _serve(system, workload, cfg)
    fresh = _serve(build_system("DSP", config), workload, cfg)
    assert reused.to_dict() == fresh.to_dict()


@pytest.fixture
def builds(monkeypatch):
    """Count ``repro.core.build_system`` calls."""
    calls = []
    real = repro.core.build_system

    def counting(*args, **kwargs):
        calls.append(args[0])
        return real(*args, **kwargs)

    monkeypatch.setattr(repro.core, "build_system", counting)
    return calls


def test_serve_scenario_builds_one_system(builds):
    cell = run_scenario("DSP", "cache-peer-loss", CFG, requests=32,
                        controller=ControllerConfig())
    assert "slo_minutes_violated_controller" in cell
    assert builds == ["DSP"]


def test_control_cell_builds_one_system(builds):
    cell = control_cell("DSP", CFG, "straggler", ControllerConfig(),
                        requests=32, qps=QPS,
                        serve_config=ServeConfig(slo_s=2e-3))
    assert cell["faults"]
    assert builds == ["DSP"]
