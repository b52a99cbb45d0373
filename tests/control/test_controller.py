"""Unit and pinned-regime tests for the SLO-burn AIMD tuner."""

import pytest

from repro.control import ControllerConfig
from repro.control.actions import (
    ACTION_KINDS,
    ControlAction,
    action_from_dict,
)
from repro.control.controller import (
    BATCH_INCREASE,
    FULL_BATCH_FRAC,
    HIGH_BURN,
    LOW_BURN,
    MAX_BATCH_FACTOR,
    MIN_TIMEOUT_FRAC,
    PRESSURE_AFTER,
    RECOVER_AFTER,
    RECOVER_FRAC,
    TIMEOUT_DECREASE,
)
from repro.serve import ServeConfig
from repro.serve.sweep import serve_once
from repro.utils import ConfigError

from tests.control.conftest import TIGHT_SLO_S


class TestConfigValidation:
    @pytest.mark.parametrize("kwargs", [
        {"interval_s": 0.0},
        {"interval_s": -1.0},
        {"max_pressure": -1},
    ])
    def test_bad_config_rejected(self, kwargs):
        with pytest.raises(ConfigError):
            ControllerConfig(**kwargs)

    def test_defaults_valid(self):
        """The tuner policy constants keep the bounds the removed
        config fields used to validate."""
        assert 0.0 <= LOW_BURN < HIGH_BURN
        assert 0.0 < MIN_TIMEOUT_FRAC <= 1.0
        assert MAX_BATCH_FACTOR >= 1
        assert 0.0 < TIMEOUT_DECREASE < 1.0
        assert BATCH_INCREASE > 1.0
        assert 0.0 < RECOVER_FRAC <= 1.0
        assert RECOVER_AFTER >= 1
        assert 0.0 < FULL_BATCH_FRAC <= 1.0
        assert PRESSURE_AFTER >= 1
        cfg = ControllerConfig()
        assert cfg.interval_s is None  # derived from the registry
        assert cfg.max_pressure == 0


class TestActions:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigError):
            ControlAction(t=0.0, kind="warp-speed", knob="batch_max",
                          before=1, after=2, signal=0.0)

    def test_roundtrip(self):
        a = ControlAction(t=0.25, kind="max-wait-down", knob="timeout_s",
                          before=2e-3, after=1e-3, signal=1.7)
        assert action_from_dict(a.to_dict()) == a

    def test_kind_registry_is_closed(self):
        assert set(ACTION_KINDS) == {
            "batch-max-up", "batch-max-recover", "max-wait-down",
            "max-wait-recover", "pressure-up", "pressure-down",
            "scale-up", "scale-down",
        }


class TestPinnedRegime:
    """The pinned diurnal regime: SLO at the pipeline's latency floor.

    With the SLO equal to the 2ms batch max-wait, lone requests land
    exactly on the line and the static config burns budget; the
    controller's max-wait cuts are the only lever, and their effect is
    pinned here to the figure observed when the controller landed.
    """

    @pytest.fixture(scope="class")
    def passes(self, system, diurnal):
        static = serve_once(system, diurnal, 3000.0,
                            ServeConfig(slo_s=TIGHT_SLO_S), metrics=True)
        ctl = serve_once(
            system, diurnal, 3000.0,
            ServeConfig(slo_s=TIGHT_SLO_S, controller=ControllerConfig()),
            metrics=True,
        )
        return static, ctl

    def test_controller_strictly_improves_slo_minutes(self, passes):
        static, ctl = passes
        s = static.metrics["slo"]["slo_minutes_violated"]
        c = ctl.metrics["slo"]["slo_minutes_violated"]
        assert s > 0, "regime must make the static config burn budget"
        assert c < s

    def test_pinned_action_counts(self, passes):
        _, ctl = passes
        assert ctl.control["action_counts"] == {
            "max-wait-down": 2, "max-wait-recover": 4,
        }

    def test_recovery_returns_to_baseline(self, passes):
        """After the load trough, recovery steps walk the max-wait all
        the way back to the static baseline (quiescence at baseline)."""
        _, ctl = passes
        final = ctl.control["final"]
        base = ctl.control["baseline"]
        assert final["timeout_ms"] == base["timeout_ms"]
        assert final["batch_max"] == base["batch_max"]
        assert final["pressure"] == 0

    def test_knob_bounds_respected(self, passes):
        """No action ever takes a knob past its configured bound."""
        _, ctl = passes
        base_timeout = ctl.control["baseline"]["timeout_ms"]
        base_batch = ctl.control["baseline"]["batch_max"]
        for a in ctl.control["actions"]:
            if a["knob"] == "timeout_s":
                assert a["after"] * 1e3 >= (
                    MIN_TIMEOUT_FRAC * base_timeout - 1e-12)
                assert a["after"] * 1e3 <= base_timeout + 1e-12
            else:
                assert a["after"] <= MAX_BATCH_FACTOR * base_batch
                assert a["after"] >= base_batch

    def test_actions_are_time_ordered(self, passes):
        _, ctl = passes
        ts = [a["t_ms"] for a in ctl.control["actions"]]
        assert ts == sorted(ts)
        assert all(a["kind"] in ACTION_KINDS
                   for a in ctl.control["actions"])


class TestBatchGrowthRegime:
    def test_full_batches_grow_batch_max(self, system, nodes):
        """Throughput-bound intervals (batches closing full) double the
        batch cap instead of cutting the wait."""
        from repro.serve import WorkloadConfig, make_workload

        w = make_workload(WorkloadConfig(num_requests=1024, seed=7), nodes)
        cfg = ServeConfig(slo_s=1.5e-3, batch_max=4, queue_capacity=256,
                          controller=ControllerConfig())
        report = serve_once(system, w, 8000.0, cfg, metrics=True)
        counts = report.control["action_counts"]
        assert counts.get("batch-max-up", 0) >= 1
        ups = [a for a in report.control["actions"]
               if a["kind"] == "batch-max-up"]
        # multiplicative increase, capped at MAX_BATCH_FACTOR x baseline
        for a in ups:
            assert a["after"] == min(a["before"] * 2, 4 * 8)


class TestQuiescence:
    def test_no_actions_when_slo_is_healthy(self, system, poisson):
        """At the default 50ms SLO nothing violates, the burn rate
        stays pinned at zero, and the tuner never acts."""
        cfg = ServeConfig(controller=ControllerConfig())
        report = serve_once(system, poisson, 2000.0, cfg)
        assert report.control["action_counts"] == {}
        assert report.control["ticks"] >= 1
        assert report.control["final"]["batch_max"] == 16

    def test_summary_shape(self, system, poisson):
        report = serve_once(
            system, poisson, 2000.0,
            ServeConfig(controller=ControllerConfig()),
        )
        ctl = report.control
        assert set(ctl) == {"interval_ms", "ticks", "actions",
                            "action_counts", "final", "baseline"}
        assert ctl["interval_ms"] == pytest.approx(4 * 50.0)  # 4 windows
