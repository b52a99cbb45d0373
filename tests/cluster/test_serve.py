"""Tests for replicated serving behind the cluster router."""

import json

import numpy as np
import pytest

from repro.cluster import RouterConfig, affinity_map, knee_vs_replicas
from repro.core import RunConfig, build_system
from repro.serve import ServeConfig, WorkloadConfig, make_workload, qps_sweep
from repro.serve.sweep import serve_once
from repro.utils.errors import ConfigError

CFG = RunConfig(dataset="tiny", num_gpus=2, hidden_dim=16, batch_size=8,
                fanout=(5, 3))
SERVE = ServeConfig(functional=True, check_invariants=True)


@pytest.fixture(scope="module")
def system():
    return build_system("DSP", CFG)


@pytest.fixture(scope="module")
def workload(system):
    return make_workload(WorkloadConfig(num_requests=64, seed=1),
                         system.data.train_nodes)


class TestSingleReplicaOracle:
    def test_one_replica_is_serve_once(self, system, workload):
        """R=1 must delegate to serve_once — bit-identical reports."""
        rep = serve_once(system, workload, 1000.0, SERVE,
                         replicas=RouterConfig(num_replicas=1))
        ref = serve_once(system, workload, 1000.0, config=SERVE)
        assert (json.dumps(rep.to_dict(), sort_keys=True)
                == json.dumps(ref.to_dict(), sort_keys=True))

    def test_tracer_rejected_with_replicas(self, system, workload):
        with pytest.raises(ConfigError):
            serve_once(system, workload, 1000.0, SERVE, tracer=object(),
                       replicas=RouterConfig(num_replicas=2))


class TestReplicatedServe:
    @pytest.mark.parametrize("policy", ["random", "least-loaded", "affinity"])
    def test_covers_every_request_once(self, system, workload, policy):
        rep = serve_once(
            system, workload, 1000.0, SERVE,
            replicas=RouterConfig(num_replicas=2, policy=policy),
        )
        assert rep.offered == 64
        assert rep.completed + rep.shed == rep.offered

    def test_deterministic(self, system, workload):
        router = RouterConfig(num_replicas=2)
        a = serve_once(system, workload, 2000.0, SERVE, replicas=router)
        b = serve_once(system, workload, 2000.0, SERVE, replicas=router)
        assert (json.dumps(a.to_dict(), sort_keys=True)
                == json.dumps(b.to_dict(), sort_keys=True))

    def test_metrics_merged_across_replicas(self, system, workload):
        rep = serve_once(
            system, workload, 2000.0, SERVE, metrics=True,
            replicas=RouterConfig(num_replicas=2),
        )
        assert rep.metrics is not None
        assert "slo_minutes_violated" in rep.metrics["slo"]
        assert len(rep.metrics["replicas"]) == 2

    def test_affinity_map_from_partition(self, system):
        amap = affinity_map(system, 2)
        assert amap is not None
        assert len(amap) == system.data.num_nodes
        assert amap.min() >= 0 and amap.max() < 2
        assert affinity_map(system, 1) is None


class TestSweepAndKnee:
    def test_workers_byte_identical(self, system, workload):
        router = RouterConfig(num_replicas=2)
        serial = qps_sweep(system, workload, [500, 2000], SERVE, workers=1,
                           replicas=router)
        parallel = qps_sweep(system, workload, [500, 2000], SERVE, workers=2,
                             replicas=router)
        a = json.dumps([p.report.to_dict() for p in serial], sort_keys=True)
        b = json.dumps([p.report.to_dict() for p in parallel], sort_keys=True)
        assert a == b

    def test_empty_ladder_rejected(self, system, workload):
        with pytest.raises(ConfigError):
            qps_sweep(system, workload, [],
                      replicas=RouterConfig(num_replicas=2))

    def test_knee_vs_replicas_shape(self, system, workload):
        knees = knee_vs_replicas(system, workload, [500.0, 2000.0], (2, 1),
                                 config=SERVE)
        assert sorted(knees) == [1, 2]
        assert all(np.isfinite(v) for v in knees.values())
