"""Property tests: quiescence, quota safety, drain safety, fault fuzz.

Each property runs a real (small) simulation per example, so example
counts are deliberately low — these are randomized smoke sweeps over
the controller's safety envelope, not statistical estimates.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.chaos.faults import FaultPlan
from repro.chaos.injector import FaultInjector
from repro.control import (
    AutoscaleConfig,
    ControllerConfig,
    TenancyConfig,
    TenantSpec,
    assign_replicas,
)
from repro.serve import ServeConfig, WorkloadConfig, make_workload
from repro.serve.sweep import serve_once, serve_stream

from tests.control.conftest import CFG

SIM_SETTINGS = settings(
    max_examples=6,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@SIM_SETTINGS
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_tuner_quiesces_under_stationary_poisson(system, nodes, seed):
    """A healthy SLO (the 50ms default, far above the 2ms latency
    floor) under any stationary Poisson stream: the tuner never acts,
    and the served stream is identical to the uncontrolled one."""
    w = make_workload(WorkloadConfig(num_requests=48, seed=seed), nodes)
    ctl = serve_once(system, w, 2000.0,
                     ServeConfig(controller=ControllerConfig()))
    assert ctl.control["action_counts"] == {}
    static = serve_once(system, w, 2000.0, ServeConfig())
    ctl_payload = ctl.to_dict()
    ctl_payload.pop("control")
    assert ctl_payload == static.to_dict()


@SIM_SETTINGS
@given(seed=st.integers(min_value=0, max_value=10_000),
       quota=st.floats(min_value=0.02, max_value=0.5))
def test_quotas_never_exceeded(system, nodes, seed, quota):
    """Any quota split under a bursty stream: the strict invariant
    checker raises if a tenant's pending count ever passes its slots,
    and per-tenant accounting always conserves the offered stream."""
    tenancy = TenancyConfig(
        tenants=(TenantSpec("a", quota=quota),
                 TenantSpec("b", priority=1)),
        seed=seed,
    )
    w = make_workload(
        WorkloadConfig(num_requests=96, arrival="bursty", seed=seed),
        nodes,
    )
    report = serve_once(
        system, w, 6000.0,
        ServeConfig(tenancy=tenancy, check_invariants=True),
    )
    tenants = report.tenants
    assert sum(t["offered"] for t in tenants.values()) == 96
    for t in tenants.values():
        assert t["offered"] == t["completed"] + t["shed"]


@SIM_SETTINGS
@given(seed=st.integers(min_value=0, max_value=10_000),
       target=st.floats(min_value=2000.0, max_value=12_000.0))
def test_scale_down_never_drops_in_flight(nodes, seed, target):
    """Whatever the scaler does, every request is assigned to a
    replica that was active at its arrival — retirement only ever
    drains."""
    w = make_workload(
        WorkloadConfig(num_requests=192, arrival="diurnal", seed=seed),
        nodes,
    )
    reqs = w.requests(8000.0)
    scale = AutoscaleConfig(min_replicas=1, max_replicas=3,
                            target_qps_per_replica=target)
    assign, state = assign_replicas(reqs, scale, 8000.0)
    assert len(assign) == len(reqs)
    for req, rep in zip(reqs, assign):
        if rep in state.retired:
            assert req.arrival <= state.retired[rep]
        assert rep not in state.warming or \
            state.warming[rep] <= req.arrival


@SIM_SETTINGS
@given(plan_seed=st.integers(min_value=0, max_value=10_000))
def test_random_fault_plans_conserve_requests(system, nodes, plan_seed):
    """Fuzz the full stack: a random bounded FaultPlan under tenancy +
    controller still terminates, conserves the stream, and keeps the
    strict invariant oracle quiet."""
    plan = FaultPlan.random(plan_seed, num_gpus=CFG.total_gpus,
                            horizon=0.05, max_events=3)
    w = make_workload(WorkloadConfig(num_requests=64, seed=1), nodes)
    cfg = ServeConfig(
        slo_s=2e-3,
        controller=ControllerConfig(),
        tenancy=TenancyConfig.uniform(2, seed=plan_seed),
        check_invariants=True,
    )
    _, report = serve_stream(
        system, w.requests(3000.0), 3000.0, cfg, metrics=True,
        injector=None if plan.fault_free else FaultInjector(plan),
    )
    assert report.completed + report.shed == 64
    assert report.metrics["slo"]["slo_minutes_violated"] >= 0.0


@SIM_SETTINGS
@given(seed=st.integers(min_value=0, max_value=10_000),
       n=st.integers(min_value=1, max_value=5))
def test_tenant_labels_split_independent(seed, n):
    """Labelling is pure in (seed, rid): any sub-stream or reordering
    of a stream carries the same labels as the whole."""
    from repro.serve.workload import Request

    t = TenancyConfig.uniform(n, seed=seed)
    reqs = [Request(rid=i, node=i, arrival=i * 1e-3) for i in range(48)]
    whole = {r.rid: (r.tenant, r.priority) for r in t.assign(reqs)}
    half = {r.rid: (r.tenant, r.priority) for r in t.assign(reqs[24:])}
    rev = {r.rid: (r.tenant, r.priority)
           for r in t.assign(list(reversed(reqs)))}
    assert all(whole[rid] == lab for rid, lab in half.items())
    assert rev == whole


@SIM_SETTINGS
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_controlled_serve_is_pure(system, nodes, seed):
    """Same inputs, same everything: the controlled path replays to an
    identical report (including the action log) on every run."""
    w = make_workload(
        WorkloadConfig(num_requests=64, arrival="diurnal", seed=seed),
        nodes,
    )
    cfg = ServeConfig(slo_s=2e-3, controller=ControllerConfig())
    a = serve_once(system, w, 3000.0, cfg)
    b = serve_once(system, w, 3000.0, cfg)
    assert a.to_dict() == b.to_dict()
