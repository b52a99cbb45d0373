"""Tests for the multi-machine DSP extension."""

import json
import pathlib

import numpy as np
import pytest

from repro.core import RunConfig
from repro.core.multimachine import MultiMachineDSP
from repro.core.system import DSP
from repro.hw.network import NICSpec
from repro.utils import ConfigError


CFG = RunConfig(dataset="tiny", num_gpus=2, hidden_dim=16, batch_size=8,
                fanout=(5, 3), seed=4)

#: ``_epoch_costs()`` as committed data: the cost-model oracle a
#: re-expression of :class:`MultiMachineDSP` must reproduce bit for bit
FROZEN = pathlib.Path(__file__).with_name("multimachine_costs.json")
FROZEN_FIELDS = ("epoch_time", "sample_time", "load_time", "train_time",
                 "nvlink_bytes", "pcie_bytes", "network_bytes")


def _epoch_costs() -> dict:
    """Cost-only epoch metrics over machines x feature cache x NIC."""
    out = {}
    for machines in (1, 2, 3):
        for cache in ("default", "zero"):
            cfg = CFG if cache == "default" else CFG.with_(
                feature_cache_bytes=0.0)
            for bw in (100e9, 1e8):
                mm = MultiMachineDSP(cfg, num_machines=machines,
                                     network=NICSpec(bandwidth=bw))
                m = mm.run_epoch(max_batches=3, functional=False)
                out[f"machines={machines}/cache={cache}/nic={bw:g}"] = {
                    name: getattr(m, name) for name in FROZEN_FIELDS
                }
    return out


class TestMultiMachine:
    def test_single_machine_matches_dsp_costs(self):
        mm = MultiMachineDSP(CFG, num_machines=1)
        dsp = DSP(CFG)
        a = mm.run_epoch(max_batches=3, functional=False)
        b = dsp.run_epoch(max_batches=3, functional=False)
        assert a.epoch_time == pytest.approx(b.epoch_time, rel=1e-6)
        assert a.network_bytes == 0

    def test_network_traffic_appears_with_two_machines(self):
        mm = MultiMachineDSP(CFG.with_(feature_cache_bytes=0.0),
                             num_machines=2)
        m = mm.run_epoch(max_batches=3, functional=False)
        # with no feature cache, half the cold shard is remote
        assert m.network_bytes > 0

    def test_global_batch_scales_with_machines(self):
        mm2 = MultiMachineDSP(CFG, num_machines=2)
        mm1 = MultiMachineDSP(CFG, num_machines=1)
        assert len(mm2._global_batches()) == len(mm1._global_batches()) // 2

    def test_replica_count(self):
        mm = MultiMachineDSP(CFG, num_machines=3)
        assert len(mm.models) == 3 * CFG.num_gpus

    def test_replicas_synchronized_after_epoch(self):
        mm = MultiMachineDSP(CFG, num_machines=2)
        mm.run_epoch()
        ref = mm.models[0].state()
        for model in mm.models[1:]:
            for a, b in zip(ref, model.state()):
                np.testing.assert_allclose(a, b, rtol=1e-5)

    def test_training_progresses(self):
        mm = MultiMachineDSP(CFG.with_(lr=1e-2), num_machines=2)
        m1 = mm.run_epoch()
        for _ in range(3):
            m2 = mm.run_epoch()
        assert m2.loss < m1.loss

    def test_gradient_ring_in_trace(self):
        mm = MultiMachineDSP(CFG, num_machines=2)
        batch = mm._global_batches()[0]
        per_gpu = mm._assign_seeds(batch)
        samples, _ = mm._sample(per_gpu)
        feats = [mm.data.features[s.all_nodes] for s in samples]
        trace, _, _ = mm._train_batch(samples, feats, functional=False)
        labels = [getattr(op, "label", "") for op in trace]
        assert "grad-network-ring" in labels

    def test_slow_network_slows_epoch(self):
        cfg = CFG.with_(feature_cache_bytes=0.0)
        fast = MultiMachineDSP(cfg, num_machines=2,
                               network=NICSpec(bandwidth=100e9))
        slow = MultiMachineDSP(cfg, num_machines=2,
                               network=NICSpec(bandwidth=1e8))
        a = fast.run_epoch(max_batches=3, functional=False)
        b = slow.run_epoch(max_batches=3, functional=False)
        assert b.epoch_time > a.epoch_time

    def test_invalid_machine_count(self):
        with pytest.raises(ConfigError):
            MultiMachineDSP(CFG, num_machines=0)


class TestFrozenEpochCosts:
    def test_matches_committed_data(self):
        assert _epoch_costs() == json.loads(FROZEN.read_text())
