"""Autoscaler: pinned scaling trace, warm-up cost, drain safety."""

import pytest

from repro.chaos.invariants import InvariantChecker
from repro.control import (
    AutoscaleConfig,
    ControllerConfig,
    assign_replicas,
)
from repro.control.autoscale import (
    COOLDOWN_INTERVALS,
    DEFAULT_INTERVALS,
    DOWN_THRESHOLD,
    EWMA,
    UP_THRESHOLD,
)
from repro.serve import ServeConfig, WorkloadConfig, make_workload, serve_once
from repro.utils import ConfigError

from tests.control.conftest import digest

#: per-replica capacity that makes the pinned diurnal stream exercise
#: both directions of the scaler (the qps/max default is too coarse)
TARGET = 6000.0


@pytest.fixture(scope="module")
def rich_diurnal(nodes):
    """A longer diurnal stream with clear peaks and troughs."""
    return make_workload(
        WorkloadConfig(num_requests=768, arrival="diurnal", seed=5), nodes
    )


@pytest.fixture(scope="module")
def scaled(system, rich_diurnal):
    scale = AutoscaleConfig(min_replicas=1, max_replicas=3,
                            target_qps_per_replica=TARGET)
    return serve_once(system, rich_diurnal, 8000.0,
                      ServeConfig(check_invariants=True), replicas=scale)


class TestConfigValidation:
    @pytest.mark.parametrize("kwargs", [
        {"min_replicas": 0},
        {"min_replicas": 3, "max_replicas": 2},
        {"target_qps_per_replica": 0.0},
    ])
    def test_bad_config_rejected(self, kwargs):
        with pytest.raises(ConfigError):
            AutoscaleConfig(**kwargs)

    def test_policy_constants_valid(self):
        """The scaling policy constants keep the bounds the removed
        config fields used to validate."""
        assert 0.0 < DOWN_THRESHOLD < UP_THRESHOLD <= 1.0
        assert 0.0 < EWMA <= 1.0
        assert COOLDOWN_INTERVALS >= 0
        assert DEFAULT_INTERVALS >= 1

    def test_empty_stream_rejected(self):
        with pytest.raises(ConfigError):
            assign_replicas([], AutoscaleConfig(), 1000.0)


class TestPinnedTrace:
    """The diurnal load cycle drives a full up/down/up/down trace."""

    def test_pinned_action_sequence(self, scaled):
        auto = scaled.control["autoscale"]
        trace = [(a["kind"], a["before"], a["after"])
                 for a in auto["actions"]]
        assert trace == [
            ("scale-up", 1, 2), ("scale-up", 2, 3), ("scale-down", 3, 1),
            ("scale-up", 1, 2), ("scale-up", 2, 3), ("scale-down", 3, 2),
        ]
        assert auto["final_replicas"] == 2

    def test_scale_down_never_sheds(self, scaled, rich_diurnal):
        assert scaled.shed == 0
        assert scaled.completed == len(rich_diurnal.nodes)

    def test_timeline_respects_bounds(self, scaled):
        for entry in scaled.control["autoscale"]["timeline"]:
            assert 1 <= entry["active"] + entry["warming"] <= 3
            assert entry["active"] >= 1

    def test_summary_shape(self, scaled):
        auto = scaled.control["autoscale"]
        assert set(auto) == {"interval_ms", "warmup_ms",
                             "target_qps_per_replica", "actions",
                             "timeline", "final_replicas",
                             "max_replicas_used"}
        assert auto["target_qps_per_replica"] == TARGET


class TestWarmup:
    def test_new_replica_unroutable_until_warm(self, rich_diurnal):
        """No request may land on a replica before its warm-up ends:
        scale-up at boundary t makes the replica routable only from
        the first interval boundary at or after t + warmup_s."""
        scale = AutoscaleConfig(min_replicas=1, max_replicas=3,
                                target_qps_per_replica=TARGET)
        reqs = rich_diurnal.requests(8000.0)
        assign, state = assign_replicas(reqs, scale, 8000.0)
        born = {}  # replica -> scale-up decision time
        for a in state.actions:
            if a.kind == "scale-up":
                for rep in range(int(a.before), int(a.after)):
                    born.setdefault(rep, a.t)
        interval = state.interval_s
        for req, rep in zip(reqs, assign):
            if rep in born:
                assert req.arrival >= born[rep] + state.warmup_s - interval

    def test_warmup_defaults_to_one_interval(self, rich_diurnal):
        reqs = rich_diurnal.requests(8000.0)
        _, state = assign_replicas(reqs, AutoscaleConfig(), 8000.0)
        assert state.warmup_s == state.interval_s


class TestSafety:
    def test_scale_safety_invariant_holds(self, rich_diurnal):
        """The invariant checker audits that no request is routed to a
        replica after its retirement — the pinned trace passes it."""
        scale = AutoscaleConfig(min_replicas=1, max_replicas=3,
                                target_qps_per_replica=TARGET)
        inv = InvariantChecker()
        assign_replicas(rich_diurnal.requests(8000.0), scale, 8000.0,
                        invariants=inv)
        inv.finalize()

    def test_retired_replica_drains_assigned_work(self, rich_diurnal):
        """Requests assigned before retirement still complete — no
        assignment points at a replica past its retirement instant."""
        scale = AutoscaleConfig(min_replicas=1, max_replicas=3,
                                target_qps_per_replica=TARGET)
        reqs = rich_diurnal.requests(8000.0)
        assign, state = assign_replicas(reqs, scale, 8000.0)
        assert state.retired  # the trace does retire replicas
        for req, rep in zip(reqs, assign):
            if rep in state.retired:
                assert req.arrival <= state.retired[rep]

    def test_degenerate_range_never_acts(self, system, rich_diurnal):
        report = serve_once(
            system, rich_diurnal, 8000.0,
            replicas=AutoscaleConfig(min_replicas=1, max_replicas=1),
        )
        auto = report.control["autoscale"]
        assert auto["actions"] == []
        assert auto["final_replicas"] == 1


class TestDeterminism:
    def test_assignment_is_pure(self, rich_diurnal):
        scale = AutoscaleConfig(min_replicas=1, max_replicas=3,
                                target_qps_per_replica=TARGET)
        reqs = rich_diurnal.requests(8000.0)
        a1, s1 = assign_replicas(reqs, scale, 8000.0)
        a2, s2 = assign_replicas(reqs, scale, 8000.0)
        assert a1 == a2
        assert s1.summary() == s2.summary()

    def test_autoscaled_serve_replays_identically(
            self, system, rich_diurnal, scaled):
        scale = AutoscaleConfig(min_replicas=1, max_replicas=3,
                                target_qps_per_replica=TARGET)
        again = serve_once(system, rich_diurnal, 8000.0,
                           ServeConfig(check_invariants=True), replicas=scale)
        assert digest(again.to_dict()) == digest(scaled.to_dict())

    def test_default_target_is_qps_over_max(self, rich_diurnal):
        _, state = assign_replicas(
            rich_diurnal.requests(8000.0),
            AutoscaleConfig(max_replicas=4), 8000.0,
        )
        assert state.target == pytest.approx(2000.0)


class TestControllerComposition:
    def test_per_replica_tuner_logs_surface(self, system, rich_diurnal):
        """Autoscaling + controller: each replica carries its own tuner
        summary under control['replicas']."""
        scale = AutoscaleConfig(min_replicas=1, max_replicas=3,
                                target_qps_per_replica=TARGET)
        report = serve_once(
            system, rich_diurnal, 8000.0,
            ServeConfig(slo_s=2e-3, controller=ControllerConfig()),
            replicas=scale,
        )
        replicas = report.control["replicas"]
        assert len(replicas) == report.control["autoscale"]["max_replicas_used"]
        for ctl in replicas:
            assert set(ctl) >= {"actions", "action_counts", "final"}
