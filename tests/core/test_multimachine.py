"""Tests for replicated multi-server DSP (paper §3.2)."""

import dataclasses
import json
import pathlib

import numpy as np
import pytest

from repro.cache.loader import ID_BYTES
from repro.cluster import ReplicatedDSP
from repro.core import RunConfig
from repro.core.system import DSP
from repro.hw.network import NICSpec
from repro.sampling.ops import NetworkTransfer
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
        for a, b in zip(mm.model.state(), ref.model.state()):
            np.testing.assert_array_equal(a, b)


def _assert_same_ops(ops, want):
    assert len(ops) == len(want)
    for op, want_op in zip(ops, want):
        assert type(op) is type(want_op)
        for f in dataclasses.fields(op):
            np.testing.assert_array_equal(getattr(op, f.name),
                                          getattr(want_op, f.name))


class TestLoadIsTheLoaders:
    """On 2 servers the load is DSP's loader, every op of it, plus one
    network branch for the cold rows on the other server's shard."""

    def test_loader_ops_plus_network_branch(self):
        cfg = CFG.with_(num_nodes=2, compress="fp16", dynamic_cache=True,
                        feature_cache_bytes=3200, cache_window=2)
        mm, twin = ReplicatedDSP(cfg), ReplicatedDSP(cfg)
        wire = mm.loader.wire_row_bytes
        assert wire < mm.loader.row_bytes
        labels = set()
        for batch in mm._global_batches()[:9]:
            samples, _ = mm._sample(mm._assign_seeds(batch))
            reqs = [s.all_nodes for s in samples]
            _, trace, stats = mm._load(reqs)
            _, want, _ = twin.loader.load(reqs)
            (group, *rest), (want_group, *want_rest) = trace.ops, want.ops
            _assert_same_ops(rest, want_rest)  # the codec's decode kernel
            *branches, (net,) = group.branches
            assert len(branches) == len(want_group.branches)
            for branch, want_branch in zip(branches, want_group.branches):
                _assert_same_ops(branch, want_branch)
            assert isinstance(net, NetworkTransfer)
            # one id out and one row back, in the loader's wire format
            rows = net.matrix[0, 1:] / ID_BYTES
            np.testing.assert_array_equal(net.matrix[1:, 0], rows * wire)
            assert stats["cold_remote"] == rows.sum()
            (cold,) = [op for op in branches[1] if op.label == "feat-cold"]
            assert cold.items.sum() == stats["cold"]
            assert cold.item_bytes == wire
            labels |= {op.label for op in trace.flat_ops()}
        assert {"cache-fill", "feat-decode"} <= labels


class TestFrozenEpochCosts:
    def test_matches_committed_data(self):
        assert _epoch_costs() == json.loads(FROZEN.read_text())
