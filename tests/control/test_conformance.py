"""Defaults-off bit-identity and cross-worker conformance.

The control plane's hardest contract: with no controller, tenancy or
autoscaler configured, serving output is **bit-identical** to the code
before this subsystem existed.  The digests below were computed at the
pre-control HEAD and hard-coded; if one of these tests fails, a
default-path behaviour change leaked in.

The second half pins the controlled paths' determinism: the same seed
and workload replay to the identical action log, and every fan-out is
byte-identical across ``--workers``.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.cluster import RouterConfig
from repro.control import AutoscaleConfig, ControllerConfig, control_matrix
from repro.core import build_system
from repro.serve import ServeConfig, WorkloadConfig, make_workload, qps_sweep
from repro.serve.sweep import serve_once

from tests.control.conftest import CFG, TIGHT_SLO_S, digest

# -- digests computed at the pre-control HEAD --------------------------
HEAD_SERVE_ONCE = (
    "d6c72b206a5b920590fddb925b217637817910905b9df1b2c2ba52907d45ff97"
)
HEAD_SERVE_ONCE_METRICS = (
    "d50bd689ae45d6acc91b391f875637761440f3cf8d0ca11226c2bb8ceca911ed"
)
HEAD_QPS_SWEEP = (
    "be55cb3d6b05822afd6ff78e261d2380027ec9757d85271b47d9bb6519407bff"
)
HEAD_REPLICATED = (
    "8e94f4c4b5a51362005c6767f666a349611f9579c080437a21e3092cbb7f561c"
)
HEAD_DGL_UVA = (
    "9e99269a0cfdb991efb4960f2892e18a58f54109f9b588b4077c53d830d5320b"
)
HEAD_DIURNAL = (
    "856e7cbf88e81c3fcfff2e93cec0c2bda047a71238b6b9723ebd7a7a6b5d08a4"
)


class TestDefaultsOffBitIdentity:
    def test_serve_once_matches_head(self, system, poisson):
        report = serve_once(system, poisson, 2000.0, ServeConfig())
        assert digest(report.to_dict()) == HEAD_SERVE_ONCE

    def test_serve_once_metrics_matches_head(self, system, poisson):
        report = serve_once(system, poisson, 2000.0, ServeConfig(),
                            metrics=True)
        assert digest(report.to_dict()) == HEAD_SERVE_ONCE_METRICS

    def test_qps_sweep_matches_head(self, system, poisson):
        pts = qps_sweep(system, poisson, [500.0, 2000.0], ServeConfig())
        assert digest([p.report.to_dict() for p in pts]) == HEAD_QPS_SWEEP

    def test_serve_replicated_matches_head(self, system, poisson):
        report = serve_once(
            system, poisson, 8000.0,
            replicas=RouterConfig(num_replicas=2, policy="affinity", seed=3),
        )
        assert digest(report.to_dict()) == HEAD_REPLICATED

    def test_other_system_matches_head(self, poisson):
        system = build_system("DGL-UVA", CFG)
        report = serve_once(system, poisson, 2000.0, ServeConfig())
        assert digest(report.to_dict()) == HEAD_DGL_UVA

    def test_diurnal_workload_matches_head(self, system, nodes):
        w = make_workload(
            WorkloadConfig(num_requests=96, arrival="diurnal", seed=5),
            nodes,
        )
        report = serve_once(system, w, 4000.0, ServeConfig())
        assert digest(report.to_dict()) == HEAD_DIURNAL

    def test_default_report_has_no_control_keys(self, system, poisson):
        """Presence-gated JSON: the new keys only exist when the
        feature ran, so default payloads carry no trace of it."""
        payload = serve_once(system, poisson, 2000.0,
                             ServeConfig()).to_dict()
        assert "control" not in payload
        assert "tenants" not in payload


class TestDeterministicReplay:
    def test_action_log_replays_identically(self, system, diurnal):
        """Same seed + workload -> byte-identical action log."""
        cfg = ServeConfig(slo_s=TIGHT_SLO_S, controller=ControllerConfig())
        a = serve_once(system, diurnal, 3000.0, cfg, metrics=True)
        b = serve_once(system, diurnal, 3000.0, cfg, metrics=True)
        assert a.control["actions"] == b.control["actions"]
        assert a.control["actions"]  # the regime actually acts
        assert digest(a.to_dict()) == digest(b.to_dict())

    def test_controlled_report_replays_identically_on_fresh_system(
            self, system, diurnal):
        cfg = ServeConfig(slo_s=TIGHT_SLO_S, controller=ControllerConfig())
        a = serve_once(system, diurnal, 3000.0, cfg)
        b = serve_once(build_system("DSP", CFG), diurnal, 3000.0, cfg)
        assert digest(a.to_dict()) == digest(b.to_dict())


class TestWorkerByteIdentity:
    def test_controlled_sweep_identical_across_workers(
            self, system, diurnal):
        cfg = ServeConfig(slo_s=TIGHT_SLO_S, controller=ControllerConfig())
        serial = qps_sweep(system, diurnal, [2000.0, 3000.0], cfg,
                           workers=1)
        fanned = qps_sweep(system, diurnal, [2000.0, 3000.0], cfg,
                           workers=2)
        assert (digest([p.report.to_dict() for p in serial])
                == digest([p.report.to_dict() for p in fanned]))

    @pytest.mark.parametrize("replicas", [
        None,
        RouterConfig(num_replicas=2, policy="affinity", seed=3),
        AutoscaleConfig(min_replicas=1, max_replicas=3,
                        target_qps_per_replica=6000.0),
    ], ids=["single", "router", "auto"])
    def test_sweep_identical_across_workers(self, replicas):
        """Every replicas mode on a warmed dynamic cache: worker
        processes rebuild the system and must warm it exactly like the
        caller's, or the points drift apart."""
        system = build_system(
            "DSP", replace(CFG, dynamic_cache=True, feature_cache_bytes=3200.0)
        )
        workload = make_workload(
            WorkloadConfig(num_requests=192, arrival="diurnal", skew=1.5,
                           drift_phases=2, seed=5),
            np.arange(system.base_dataset.num_nodes),
        )
        warm = system.numbering.old_to_new[workload.nodes[:64]]
        serial = qps_sweep(system, workload, [4000.0, 8000.0], workers=1,
                           warm_nodes=warm, replicas=replicas)
        fanned = qps_sweep(system, workload, [4000.0, 8000.0], workers=2,
                           warm_nodes=warm, replicas=replicas)
        assert (digest([p.report.to_dict() for p in serial])
                == digest([p.report.to_dict() for p in fanned]))

    def test_replicated_controlled_serve_identical_across_processes(
            self, system, diurnal):
        """Replicated serving under the controller is a pure function
        of its spec: a fresh-process rebuild reproduces it exactly."""
        cfg = ServeConfig(slo_s=TIGHT_SLO_S, controller=ControllerConfig())
        router = RouterConfig(num_replicas=2, policy="affinity", seed=3)
        a = serve_once(system, diurnal, 8000.0, cfg, replicas=router)
        b = serve_once(build_system("DSP", CFG), diurnal, 8000.0, cfg,
                       replicas=router)
        assert digest(a.to_dict()) == digest(b.to_dict())
        assert len(a.control["replicas"]) == 2

    def test_control_matrix_identical_across_workers(self):
        wls = {"diurnal": WorkloadConfig(num_requests=64,
                                         arrival="diurnal", seed=5)}
        kwargs = dict(
            scenarios=("none", "cache-peer-loss"),
            workload_configs=wls,
            qps=3000.0,
            serve_config=ServeConfig(slo_s=TIGHT_SLO_S),
        )
        serial = control_matrix("DSP", CFG, ControllerConfig(),
                                workers=1, **kwargs)
        fanned = control_matrix("DSP", CFG, ControllerConfig(),
                                workers=2, **kwargs)
        assert digest(serial) == digest(fanned)
