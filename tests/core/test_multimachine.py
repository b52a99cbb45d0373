"""Tests for replicated multi-server DSP (paper §3.2)."""

import json
import pathlib

import numpy as np
import pytest

from repro.cluster import ReplicatedDSP
from repro.core import RunConfig
from repro.core.system import DSP
from repro.hw.network import NICSpec
from repro.utils import ConfigError


CFG = RunConfig(dataset="tiny", num_gpus=2, hidden_dim=16, batch_size=8,
                fanout=(5, 3), seed=4)

#: ``_epoch_costs()`` as committed data, generated with the standalone
#: multi-machine DSP class that :class:`ReplicatedDSP` replaced: the
#: cost-model oracle it must reproduce bit for bit
FROZEN = pathlib.Path(__file__).with_name("multimachine_costs.json")
FROZEN_FIELDS = ("epoch_time", "sample_time", "load_time", "train_time",
                 "nvlink_bytes", "pcie_bytes", "network_bytes")


def _replicated(cfg: RunConfig, machines: int,
                bandwidth: float | None = None) -> ReplicatedDSP:
    """``ReplicatedDSP`` on ``machines`` servers; a ``bandwidth`` that is
    no NIC preset replaces the engine's network spec."""
    system = ReplicatedDSP(cfg.with_(num_nodes=machines))
    if bandwidth is not None:
        system.engine.network = NICSpec(bandwidth=bandwidth)
    return system


def _epoch_costs() -> dict:
    """Cost-only epoch metrics over machines x feature cache x NIC."""
    out = {}
    for machines in (1, 2, 3):
        for cache in ("default", "zero"):
            cfg = CFG if cache == "default" else CFG.with_(
                feature_cache_bytes=0.0)
            for bw in (100e9, 1e8):
                mm = _replicated(cfg, machines, bandwidth=bw)
                m = mm.run_epoch(max_batches=3, functional=False)
                out[f"machines={machines}/cache={cache}/nic={bw:g}"] = {
                    name: getattr(m, name) for name in FROZEN_FIELDS
                }
    return out


class TestMultiMachine:
    def test_single_machine_matches_dsp_costs(self):
        mm = _replicated(CFG, 1)
        dsp = DSP(CFG)
        a = mm.run_epoch(max_batches=3, functional=False)
        b = dsp.run_epoch(max_batches=3, functional=False)
        for name in FROZEN_FIELDS:
            assert getattr(a, name) == getattr(b, name), name
        assert a.network_bytes == 0

    def test_network_traffic_appears_with_two_machines(self):
        mm = _replicated(CFG.with_(feature_cache_bytes=0.0), 2)
        m = mm.run_epoch(max_batches=3, functional=False)
        # with no feature cache, half the cold shard is remote
        assert m.network_bytes > 0

    def test_global_batch_scales_with_machines(self):
        mm2 = _replicated(CFG, 2)
        mm1 = _replicated(CFG, 1)
        assert len(mm2._global_batches()) == len(mm1._global_batches()) // 2

    def test_training_progresses(self):
        mm = _replicated(CFG.with_(lr=1e-2), 2)
        m1 = mm.run_epoch()
        for _ in range(3):
            m2 = mm.run_epoch()
        assert m2.loss < m1.loss

    def test_gradient_ring_in_trace(self):
        mm = _replicated(CFG, 2)
        batch = mm._global_batches()[0]
        per_gpu = mm._assign_seeds(batch)
        samples, _ = mm._sample(per_gpu)
        feats = [mm.data.features[s.all_nodes] for s in samples]
        trace, _, _ = mm._train_batch(samples, feats, functional=False)
        labels = [getattr(op, "label", "") for op in trace]
        assert "grad-network-ring" in labels

    def test_slow_network_slows_epoch(self):
        cfg = CFG.with_(feature_cache_bytes=0.0)
        fast = _replicated(cfg, 2, bandwidth=100e9)
        slow = _replicated(cfg, 2, bandwidth=1e8)
        a = fast.run_epoch(max_batches=3, functional=False)
        b = slow.run_epoch(max_batches=3, functional=False)
        assert b.epoch_time > a.epoch_time

    def test_invalid_machine_count(self):
        with pytest.raises(ConfigError):
            ReplicatedDSP(CFG.with_(num_nodes=0))

    def test_steps_match_single_server_allreduce(self):
        """Server 0's replicas step exactly like a ``num_gpus``-replica
        allreduce over the same samples: no other server's replicas
        dilute or stale the mean."""
        mm = _replicated(CFG, 2)
        ref = DSP(CFG)
        for batch in mm._global_batches()[:2]:
            samples, _ = mm._sample(mm._assign_seeds(batch))
            feats = [mm.data.features[s.all_nodes] for s in samples]
            mm._train_batch(samples, feats, functional=True)
            ref._train_batch(samples, feats, functional=True)
        assert len(mm.models) == CFG.num_gpus
        for got, want in zip(mm.models, ref.models):
            for a, b in zip(got.state(), want.state()):
                np.testing.assert_array_equal(a, b)


class TestFrozenEpochCosts:
    def test_matches_committed_data(self):
        assert _epoch_costs() == json.loads(FROZEN.read_text())
