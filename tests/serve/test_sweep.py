"""Tests for the QPS sweep driver and the saturation-knee picker."""

import numpy as np
import pytest

from repro.cluster import RouterConfig
from repro.control import AutoscaleConfig
from repro.core import RunConfig, build_system
from repro.serve import (
    ServeConfig,
    SweepPoint,
    WorkloadConfig,
    make_workload,
    max_sustainable_qps,
    qps_sweep,
)
from repro.serve.stats import build_report
from repro.serve.stats import RequestRecord
from repro.utils import ConfigError

CFG = RunConfig(dataset="tiny", num_gpus=2, hidden_dim=16, batch_size=8,
                fanout=(5, 3), seed=3)


def point(qps, p99, shed_rate=0.0, slo_s=0.01):
    """A synthetic sweep point with the given p99/shed."""
    recs = []
    for i in range(100):
        r = RequestRecord(rid=i, node=i, arrival=i / qps)
        if i < int(100 * shed_rate):
            r.shed = True
        else:
            r.done = r.arrival + p99
        recs.append(r)
    return SweepPoint(qps=qps, report=build_report("X", qps, slo_s, recs, 10))


class TestSweep:
    def test_points_sorted_and_complete(self):
        system = build_system("DSP", CFG)
        w = make_workload(WorkloadConfig(num_requests=32, seed=1),
                          np.arange(system.base_dataset.num_nodes))
        pts = qps_sweep(system, w, [4000.0, 1000.0], ServeConfig())
        assert [p.qps for p in pts] == [1000.0, 4000.0]
        assert all(p.report.completed > 0 for p in pts)

    def test_sweep_is_repeatable(self):
        """Sampler RNGs are reset per point: sweeping twice on the
        same system instance gives identical reports."""
        system = build_system("DSP", CFG)
        w = make_workload(WorkloadConfig(num_requests=32, seed=1),
                          np.arange(system.base_dataset.num_nodes))
        a = qps_sweep(system, w, [2000.0], ServeConfig())
        b = qps_sweep(system, w, [2000.0], ServeConfig())
        assert a[0].report.to_dict() == b[0].report.to_dict()

    @pytest.mark.parametrize("replicas", [
        None,
        RouterConfig(num_replicas=2),
        AutoscaleConfig(min_replicas=1, max_replicas=3),
    ], ids=["single", "router", "auto"])
    def test_one_serve_once_call_per_point(self, monkeypatch, replicas):
        """The sweep's point function looks ``serve_once`` up in its
        module at call time and calls it exactly once per point in every
        replicas mode — the hook a wrapper around the module attribute
        sees."""
        import repro.serve.sweep as sweep

        calls = []
        inner = sweep.serve_once

        def counting(system, workload, qps, *args, **kwargs):
            calls.append((qps, kwargs.get("replicas")))
            return inner(system, workload, qps, *args, **kwargs)

        monkeypatch.setattr(sweep, "serve_once", counting)
        system = build_system("DSP", CFG)
        w = make_workload(WorkloadConfig(num_requests=32, seed=1),
                          np.arange(system.base_dataset.num_nodes))
        qps_sweep(system, w, [4000.0, 1000.0], ServeConfig(),
                  replicas=replicas)
        assert calls == [(1000.0, replicas), (4000.0, replicas)]

    def test_empty_ladder_rejected(self):
        system = build_system("DSP", CFG)
        w = make_workload(WorkloadConfig(num_requests=8),
                          np.arange(system.base_dataset.num_nodes))
        with pytest.raises(ConfigError):
            qps_sweep(system, w, [], ServeConfig())


class TestKnee:
    def test_largest_qualifying_point_wins(self):
        pts = [point(100, 0.002), point(200, 0.005), point(400, 0.02)]
        assert max_sustainable_qps(pts, slo_s=0.01) == 200

    def test_shed_disqualifies(self):
        pts = [point(100, 0.002), point(200, 0.002, shed_rate=0.2)]
        assert max_sustainable_qps(pts, slo_s=0.01) == 100
        assert max_sustainable_qps(pts, slo_s=0.01, shed_tol=0.5) == 200

    def test_no_qualifying_point(self):
        assert max_sustainable_qps([point(100, 0.5)], slo_s=0.01) == 0.0

    def test_defaults_to_report_slo(self):
        pts = [point(100, 0.002, slo_s=0.001)]
        assert max_sustainable_qps(pts) == 0.0  # 2ms p99 > 1ms SLO
        assert max_sustainable_qps(pts, slo_s=0.01) == 100
