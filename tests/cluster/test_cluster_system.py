"""End-to-end tests of multi-node training systems."""

import hashlib
import json

import numpy as np
import pytest

from repro.core import RunConfig, build_system
from repro.utils.errors import ConfigError

CFG2 = RunConfig(dataset="tiny", num_gpus=2, num_nodes=2, hidden_dim=16,
                 batch_size=8, fanout=(5, 3), partitioner="ldg")
#: 2 servers x 2 GPUs with the default partitioner, for the chaos pins
CHAOS_CFG = RunConfig(dataset="tiny", num_gpus=2, num_nodes=2, hidden_dim=16,
                      batch_size=8, fanout=(5, 3), seed=0)
#: sha256 of ``json.dumps(matrix, sort_keys=True)`` for DSP over every
#: scenario on ``CHAOS_CFG``: the multi-server pin, which sees what the
#: one-server matrices cannot (an asymmetric reshuffle, NIC transfers
#: under network faults)
CHAOS_SHA256 = "27d63be05c61cc001a756a132bb29db9d133eb83524cbd6fd3fc4b4130eda090"


class TestConfig:
    def test_total_gpus(self):
        assert CFG2.total_gpus == 4
        assert RunConfig(dataset="tiny").total_gpus == RunConfig(
            dataset="tiny").num_gpus

    def test_validation(self):
        with pytest.raises(ConfigError):
            RunConfig(dataset="tiny", num_nodes=0)
        with pytest.raises(ConfigError):
            RunConfig(dataset="tiny", nic="token-ring")
        with pytest.raises(ConfigError):
            # NVSHMEM needs a full NVLink mesh; a cluster has none
            RunConfig(dataset="tiny", num_nodes=2, comm_backend="nvshmem")


class TestMultiNodeDSP:
    @pytest.fixture(scope="class")
    def system(self):
        return build_system("DSP", CFG2)

    def test_spans_all_gpus(self, system):
        assert system.k == 4
        assert system.engine.k == 4
        assert system.cluster_topology is not None
        assert system.cluster_topology.num_servers == 2
        assert system.hierarchy is not None
        system.hierarchy.validate()

    def test_epoch_pays_network_bytes(self, system):
        m = system.run_epoch(max_batches=2, functional=True)
        assert m.epoch_time > 0.0
        assert m.network_bytes > 0.0  # cross-server traffic is real
        assert m.nvlink_bytes > 0.0  # intra-server shuffles remain

    def test_single_node_pays_none(self):
        single = build_system("DSP", CFG2.with_(num_nodes=1))
        m = single.run_epoch(max_batches=2, functional=True)
        assert m.network_bytes == 0.0
        assert single.cluster_topology is None

    def test_pull_variant_supports_cluster(self):
        system = build_system("DSP-Pull", CFG2)
        m = system.run_epoch(max_batches=2, functional=False)
        assert m.network_bytes > 0.0

    def test_infiniband_beats_ethernet(self):
        eth = build_system("DSP", CFG2)
        ib = build_system("DSP", CFG2.with_(nic="infiniband"))
        t_eth = eth.run_epoch(max_batches=2, functional=False).epoch_time
        t_ib = ib.run_epoch(max_batches=2, functional=False).epoch_time
        assert t_ib < t_eth

    def test_inference_lowered(self, system):
        from repro.core.inference import full_graph_inference

        preds, trace = full_graph_inference(system)
        assert preds.shape[0] == system.data.num_nodes
        costs = system.engine.trace_cost(trace)  # must price cleanly
        assert sum(c.network_bytes for c in costs) > 0.0

    def test_deterministic(self):
        a = build_system("DSP", CFG2).run_epoch(max_batches=2,
                                                functional=False)
        b = build_system("DSP", CFG2).run_epoch(max_batches=2,
                                                functional=False)
        assert a.epoch_time == b.epoch_time
        assert a.network_bytes == b.network_bytes


class TestBaselineGating:
    @pytest.mark.parametrize("name", ["DGL-UVA", "PyG", "Quiver"])
    def test_single_server_systems_refuse(self, name):
        with pytest.raises(ConfigError):
            build_system(name, CFG2)


class TestClusterChaos:
    def test_net_degrade_scenario(self):
        from repro.chaos.scenarios import run_scenario

        r = run_scenario("DSP", "net-degrade", CFG2, max_batches=2)
        assert r["outcome"] == "completed"
        assert r["slowdown"] >= 1.0
        assert r["invariants"]["clean"]

    def test_net_flap_serve_scenario(self):
        from repro.chaos.scenarios import run_scenario

        r = run_scenario("DSP", "net-flap", CFG2, requests=32, qps=2000.0)
        assert r["outcome"] == "completed"
        assert r["invariants"]["clean"]
        assert r["baseline_invariants"]["clean"]


class TestClusterChaosMatrix:
    @pytest.fixture(scope="class")
    def matrix(self):
        from repro.chaos import SCENARIOS, resilience_report

        return resilience_report(("DSP",), sorted(SCENARIOS), CHAOS_CFG,
                                 max_batches=2, requests=32, qps=2000.0)

    def test_cache_peer_loss_serves(self):
        """The failover loader's cross-server trace is priced lowered,
        like every other trace on a cluster engine."""
        from repro.chaos.scenarios import run_scenario

        r = run_scenario("DSP", "cache-peer-loss", CHAOS_CFG,
                         max_batches=2, requests=32, qps=2000.0)
        assert r["outcome"] == "completed"
        assert r["degraded"] > 0
        assert r["invariants"]["clean"]

    def test_invariants_clean(self, matrix):
        assert matrix["summary"]["invariant_violations"] == 0

    def test_pinned_digest(self, matrix):
        digest = hashlib.sha256(
            json.dumps(matrix, sort_keys=True).encode()).hexdigest()
        assert digest == CHAOS_SHA256
