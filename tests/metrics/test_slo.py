"""SLOMonitor and serve_summary on synthetic registries."""

import pytest

from repro.metrics import SLO_TARGET, MetricsRegistry, SLOMonitor, serve_summary


def _run(latencies_by_t, slo_s, window_s=1.0):
    """Feed (t, latency) completions through the serving convention:
    exact violations counted at completion time."""
    reg = MetricsRegistry(window_s=window_s)
    lat = reg.histogram("request_latency")
    done = reg.counter("requests_completed")
    viol = reg.counter("slo_violations")
    t_end = 0.0
    for t, v in latencies_by_t:
        lat.observe(t, v)
        done.inc(t)
        if v > slo_s:
            viol.inc(t)
        t_end = max(t_end, t)
    reg.finalize(t_end)
    return reg


class TestSLOMonitor:
    def test_clean_run_violates_nothing(self):
        reg = _run([(0.1 * i, 0.001) for i in range(30)], slo_s=0.005)
        s = SLOMonitor(reg, 0.005).summary()
        assert s["violations"] == 0
        assert s["attainment"] == 1.0
        assert s["slo_minutes_violated"] == 0.0
        assert all(not w["violated"] for w in s["windows"])

    def test_bad_window_counts_its_width_in_minutes(self):
        # window [1, 2): 10 completions, 5 violations -> burn 50x budget
        events = [(0.1 * i, 0.001) for i in range(10)]
        events += [(1.0 + 0.05 * i, 0.010 if i < 5 else 0.001)
                   for i in range(10)]
        reg = _run(events, slo_s=0.005)
        s = SLOMonitor(reg, 0.005).summary()
        assert s["violations"] == 5
        assert s["slo_minutes_violated"] == pytest.approx(1.0 / 60.0)
        flags = {w["t_ms"]: w["violated"] for w in s["windows"]}
        assert flags[0.0] is False and flags[1000.0] is True
        bad = [w for w in s["windows"] if w["violated"]][0]
        assert bad["burn_rate"] == pytest.approx(0.5 / 0.01)

    def test_burn_at_exactly_budget_is_not_violated(self):
        # 100 completions, 1 violation, target 0.99 -> burn exactly 1.0
        events = [(0.005 * i, 0.001) for i in range(99)] + [(0.4999, 0.010)]
        reg = _run(events, slo_s=0.005)
        s = SLOMonitor(reg, 0.005).summary()
        assert s["burn_rate"] == pytest.approx(1.0)
        assert s["slo_minutes_violated"] == 0.0

    def test_empty_registry(self):
        reg = MetricsRegistry(window_s=1.0)
        s = SLOMonitor(reg, 0.005).summary()
        assert s["windows"] == []
        assert s["completed"] == 0
        assert s["attainment"] == 1.0

    def test_rejects_bad_params(self):
        reg = MetricsRegistry(window_s=1.0)
        with pytest.raises(ValueError):
            SLOMonitor(reg, 0.0)

    def test_target_constant_is_a_valid_budget(self):
        # the error budget 1 - SLO_TARGET must be a proper fraction
        assert 0.0 < SLO_TARGET < 1.0


class TestServeSummary:
    def test_shed_aggregates_across_gpu_labels(self):
        reg = MetricsRegistry(window_s=1.0)
        reg.counter("requests_shed", gpu=0).inc(0.5, 1)
        reg.counter("requests_shed", gpu=1).inc(0.5, 2)
        reg.finalize(1.0)
        out = serve_summary(reg, slo_s=0.005)
        assert out["shed"]["total"] == 3.0
        assert out["shed"]["windows"] == [{"t": 0.0, "value": 3.0}]

    def test_optional_sections_absent_when_uninstrumented(self):
        reg = MetricsRegistry(window_s=1.0)
        reg.finalize(0.0)
        out = serve_summary(reg, slo_s=0.005)
        for key in ("stages", "admission_depth", "shed", "degraded",
                    "link_bytes", "cache", "events"):
            assert key not in out
        assert out["slo"]["completed"] == 0

    def test_events_exported_sorted(self):
        reg = MetricsRegistry(window_s=1.0)
        reg.event(0.5, "inject:gpu-straggler", gpu=0)
        reg.event(0.1, "violation:queue-bound")
        out = serve_summary(reg, slo_s=0.005)
        assert [e["name"] for e in out["events"]] == [
            "violation:queue-bound", "inject:gpu-straggler",
        ]
