"""Cross-module integration and failure-injection tests."""

import numpy as np
import pytest

from repro.core import RunConfig, build_system
from repro.graph import load_dataset
from repro.sampling import random_walk
from repro.utils import CapacityError


CFG = RunConfig(dataset="tiny", num_gpus=4, hidden_dim=16, batch_size=16,
                fanout=(5, 3), seed=2)


class TestEndToEndConsistency:
    def test_dsp_and_uva_see_equivalent_data(self):
        """The renumbered dataset is the same data: same label histogram,
        same degree distribution, same feature values per node."""
        dsp = build_system("DSP", CFG)
        uva = build_system("DGL-UVA", CFG)
        assert np.array_equal(
            np.bincount(dsp.data.labels), np.bincount(uva.data.labels)
        )
        assert np.array_equal(
            np.sort(dsp.data.graph.degrees), np.sort(uva.data.graph.degrees)
        )
        v_new = 7
        v_old = int(dsp.numbering.new_to_old[v_new])
        assert np.array_equal(
            dsp.data.features[v_new], uva.data.features[v_old]
        )

    def test_train_split_identical_across_systems(self):
        """Systems train on exactly the same node split (modulo the
        renumbering), the precondition for Fig 9a's coinciding curves."""
        dsp = build_system("DSP", CFG)
        uva = build_system("DGL-UVA", CFG)
        assert np.array_equal(
            np.sort(dsp.numbering.new_to_old[dsp.data.train_nodes]),
            uva.data.train_nodes,
        )
        # and every epoch covers the same number of seeds
        assert sum(map(len, dsp._global_batches())) == sum(
            map(len, uva._global_batches())
        )

    def test_pipeline_functional_result_matches_sequential(self):
        """The pipeline reorders *time*, never data: after one epoch the
        model parameters are identical to DSP-Seq's."""
        a = build_system("DSP", CFG)
        b = build_system("DSP-Seq", CFG)
        a.run_epoch()
        b.run_epoch()
        for pa, pb in zip(a.model.state(), b.model.state()):
            np.testing.assert_allclose(pa, pb, rtol=1e-6)

    def test_biased_dsp_trains(self):
        cfg = CFG.with_(biased=True)
        m = build_system("DSP", cfg).run_epoch()
        assert np.isfinite(m.loss)

    def test_gat_model_end_to_end(self):
        cfg = CFG.with_(model="gat")
        m = build_system("DSP", cfg).run_epoch()
        assert np.isfinite(m.loss)

    def test_layerwise_scheme_end_to_end(self):
        cfg = CFG.with_(scheme="layer", fanout=(40, 40))
        m = build_system("DSP", cfg).run_epoch()
        assert np.isfinite(m.loss)
        assert m.epoch_time > 0

    def test_without_replacement_end_to_end(self):
        cfg = CFG.with_(replace=False)
        m = build_system("DSP", cfg).run_epoch()
        assert np.isfinite(m.loss)

    def test_random_walk_on_dsp_layout(self):
        dsp = build_system("DSP", CFG)
        starts = [
            np.arange(dsp.sampler.part_offsets[g],
                      dsp.sampler.part_offsets[g] + 4)
            for g in range(4)
        ]
        paths, trace = random_walk(dsp.sampler, starts, length=3, seed=0)
        graph = dsp.data.graph
        for mat in paths:
            for row in mat:
                for t in range(3):
                    if row[t + 1] >= 0:
                        assert row[t + 1] in graph.neighbors(int(row[t]))


class TestCheckpointing:
    def test_roundtrip(self, tmp_path):
        a = build_system("DSP", CFG)
        a.run_epoch()
        ckpt = tmp_path / "model.npz"
        a.save_checkpoint(ckpt)

        b = build_system("DSP", CFG)
        b.load_checkpoint(ckpt)
        assert b.batches_seen == a.batches_seen
        for pa, pb in zip(a.model.state(), b.model.state()):
            np.testing.assert_array_equal(pa, pb)

    def test_resume_continues_training(self, tmp_path):
        a = build_system("DSP", CFG)
        m1 = a.run_epoch()
        ckpt = tmp_path / "model.npz"
        a.save_checkpoint(ckpt)
        b = build_system("DSP", CFG)
        b.load_checkpoint(ckpt)
        m2 = b.run_epoch()
        assert np.isfinite(m2.loss)
        assert b.batches_seen > a.batches_seen - 1


class TestFailureInjection:
    def test_oversized_feature_budget_raises(self):
        cfg = CFG.with_(feature_cache_bytes=1e15)
        with pytest.raises(CapacityError):
            build_system("DSP", cfg)

    def test_corrupt_dataset_cache_recovers(self, tmp_path, monkeypatch):
        """A truncated .npz in the cache must be regenerated, not crash."""
        monkeypatch.setenv("REPRO_DATA_DIR", str(tmp_path))
        from repro.graph.datasets import (
            DATASET_SPECS, _load_cached, _spec_key,
        )

        _load_cached.cache_clear()
        spec = DATASET_SPECS["tiny"]
        path = tmp_path / f"{_spec_key(spec)}.npz"
        path.write_bytes(b"not a real npz file")
        ds = load_dataset("tiny")
        assert ds.num_nodes == spec.num_nodes
        _load_cached.cache_clear()

    def test_eval_on_empty_nodes(self):
        dsp = build_system("DSP", CFG)
        acc = dsp.evaluate(np.array([], dtype=np.int64))
        assert np.isnan(acc)

    def test_zero_fanout_layer(self):
        """A zero fan-out layer yields empty blocks but must not crash."""
        cfg = CFG.with_(fanout=(3, 0))
        m = build_system("DSP", cfg).run_epoch(max_batches=1, functional=False)
        assert m.epoch_time > 0

    def test_tiny_memory_gpu_still_plans(self):
        """Planner degrades gracefully when almost nothing fits."""
        from repro.cache.policies import rank_by_degree
        from repro.core.layout import plan_layout
        from repro.graph import metis_partition, renumber_by_partition
        from repro.hw import Cluster

        ds = load_dataset("tiny")
        part = metis_partition(ds.graph, 2, rng=0)
        rgraph, _, nb = renumber_by_partition(ds.graph, part)
        pds = ds.permuted(nb.old_to_new, rgraph)
        cluster = Cluster.dgx1(2, scale=1e6)  # ~16 KB GPUs
        layout = plan_layout(
            pds, nb.part_offsets, cluster, rank_by_degree(rgraph),
            graph=rgraph,
        )
        assert layout.topology_coverage < 1.0
        # only a sliver cached, and the plan never exceeds capacity
        assert layout.store.total_cached < ds.num_nodes // 4
        for mem in layout.memory:
            assert mem.used <= mem.capacity
