"""Tests for the collective sampling primitive."""

import hashlib

import numpy as np
import pytest

from repro.graph import dcsbm_graph, metis_partition, renumber_by_partition
from repro.graph.datasets import load_dataset
from repro.sampling import CollectiveSampler, CSPConfig
from repro.sampling.ops import AllToAll
from repro.utils import ConfigError


def build_sampler(num_gpus=4, seed=0, weighted=False):
    graph = dcsbm_graph(600, 12_000, num_communities=4, rng=7)
    if weighted:
        rng = np.random.default_rng(1)
        graph = graph.with_node_weights(
            rng.random(graph.num_nodes).astype(np.float32)
        )
    part = metis_partition(graph, num_gpus, rng=seed)
    rgraph, rpart, nb = renumber_by_partition(graph, part)
    sampler = CollectiveSampler.from_partitioned(rgraph, nb.part_offsets, seed=seed)
    return sampler, rgraph, nb


def seeds_for(sampler, per_gpu=20, seed=3):
    rng = np.random.default_rng(seed)
    out = []
    for g in range(sampler.num_gpus):
        lo, hi = sampler.part_offsets[g], sampler.part_offsets[g + 1]
        out.append(rng.choice(np.arange(lo, hi), size=per_gpu, replace=False))
    return out


class TestNodeWise:
    def test_structure(self):
        sampler, rgraph, _ = build_sampler()
        seeds = seeds_for(sampler)
        cfg = CSPConfig(fanout=(3, 2))
        samples, trace, stats = sampler.sample(seeds, cfg)
        assert len(samples) == 4
        for g, s in enumerate(samples):
            assert s.num_layers == 2
            assert np.array_equal(s.blocks[0].dst_nodes, seeds[g])
            # block 1's dst is everything block 0 touched
            assert np.array_equal(s.blocks[1].dst_nodes, s.blocks[0].all_nodes)

    def test_samples_are_true_neighbors(self):
        sampler, rgraph, _ = build_sampler()
        seeds = seeds_for(sampler)
        samples, _, _ = sampler.sample(seeds, CSPConfig(fanout=(4,)))
        for s in samples:
            b = s.blocks[0]
            for i, v in enumerate(b.dst_nodes):
                nbrs = set(rgraph.neighbors(int(v)).tolist())
                assert set(b.src_of(i).tolist()) <= nbrs

    def test_fanout_respected(self):
        sampler, rgraph, _ = build_sampler()
        seeds = seeds_for(sampler)
        samples, _, _ = sampler.sample(seeds, CSPConfig(fanout=(5,)))
        deg = rgraph.degrees
        for s in samples:
            b = s.blocks[0]
            counts = np.diff(b.offsets)
            for i, v in enumerate(b.dst_nodes):
                expect = 5 if deg[v] > 0 else 0
                assert counts[i] == expect

    def test_trace_has_three_stages_per_layer(self):
        sampler, _, _ = build_sampler()
        seeds = seeds_for(sampler)
        _, trace, _ = sampler.sample(seeds, CSPConfig(fanout=(3, 2)))
        labels = [getattr(op, "label", "") for op in trace]
        assert labels == [
            "shuffle-L0", "sample-L0", "reshuffle-L0",
            "shuffle-L1", "sample-L1", "reshuffle-L1",
        ]

    def test_shuffle_traffic_is_ids_only(self):
        """Task push: shuffle moves 8 bytes per remote frontier node."""
        sampler, _, _ = build_sampler()
        seeds = seeds_for(sampler)
        _, trace, stats = sampler.sample(seeds, CSPConfig(fanout=(3,)))
        shuffle = next(op for op in trace if op.label == "shuffle-L0")
        remote_tasks = stats.tasks_total - stats.local_tasks
        assert shuffle.matrix.sum() == pytest.approx(remote_tasks * 8)

    def test_seed_copartition_makes_layer0_local(self):
        """Seeds placed on their owner make layer-0 shuffle free."""
        sampler, _, _ = build_sampler()
        seeds = seeds_for(sampler)
        _, trace, _ = sampler.sample(seeds, CSPConfig(fanout=(3,)))
        shuffle = next(op for op in trace if op.label == "shuffle-L0")
        assert shuffle.matrix.sum() == 0

    def test_locality_beats_random_with_metis(self):
        sampler, _, _ = build_sampler()
        seeds = seeds_for(sampler)
        _, _, stats = sampler.sample(seeds, CSPConfig(fanout=(5, 5)))
        assert stats.locality > 1.0 / sampler.num_gpus  # better than random

    def test_single_gpu_all_local(self):
        sampler, _, _ = build_sampler(num_gpus=1)
        seeds = seeds_for(sampler, per_gpu=30)
        samples, trace, stats = sampler.sample(seeds, CSPConfig(fanout=(3, 2)))
        assert stats.locality == 1.0
        for op in trace:
            if isinstance(op, AllToAll):
                assert op.matrix.sum() == 0

    def test_deterministic(self):
        a, _, _ = build_sampler(seed=5)[0].sample(
            seeds_for(build_sampler(seed=5)[0]), CSPConfig(fanout=(3,))
        )
        b, _, _ = build_sampler(seed=5)[0].sample(
            seeds_for(build_sampler(seed=5)[0]), CSPConfig(fanout=(3,))
        )
        for x, y in zip(a, b):
            assert np.array_equal(x.blocks[0].src_nodes, y.blocks[0].src_nodes)

    def test_biased_zero_weight_excluded(self):
        sampler, rgraph, _ = build_sampler(weighted=True)
        seeds = seeds_for(sampler)
        samples, _, _ = sampler.sample(
            seeds, CSPConfig(fanout=(4,), biased=True)
        )
        # all sampled nodes must be real neighbours (sanity under bias)
        for s in samples:
            b = s.blocks[0]
            for i, v in enumerate(b.dst_nodes):
                assert set(b.src_of(i)) <= set(rgraph.neighbors(int(v)))

    def test_without_replacement_distinct(self):
        sampler, _, _ = build_sampler()
        seeds = seeds_for(sampler)
        samples, _, _ = sampler.sample(
            seeds, CSPConfig(fanout=(6,), replace=False)
        )
        for s in samples:
            b = s.blocks[0]
            for i in range(b.num_dst):
                src = b.src_of(i)
                assert len(np.unique(src)) == len(src)


class TestLayerWise:
    def test_budget_respected(self):
        sampler, _, _ = build_sampler()
        seeds = seeds_for(sampler, per_gpu=10)
        samples, trace, _ = sampler.sample(
            seeds, CSPConfig(fanout=(30, 30), scheme="layer")
        )
        for s in samples:
            for b in s.blocks:
                assert b.num_edges <= 30

    def test_weight_exchange_in_trace(self):
        sampler, _, _ = build_sampler()
        seeds = seeds_for(sampler, per_gpu=10)
        _, trace, _ = sampler.sample(
            seeds, CSPConfig(fanout=(20,), scheme="layer")
        )
        labels = [op.label for op in trace]
        assert "weights-req" in labels and "weights-resp" in labels

    def test_quota_proportional_to_degree(self):
        """Eq. (2): heavy nodes get most of the layer budget."""
        sampler, rgraph, _ = build_sampler()
        seeds = seeds_for(sampler, per_gpu=50)
        samples, _, _ = sampler.sample(
            seeds, CSPConfig(fanout=(500,), scheme="layer")
        )
        deg = rgraph.degrees
        for s in samples:
            b = s.blocks[0]
            counts = np.diff(b.offsets)
            d = deg[b.dst_nodes]
            heavy = d >= np.median(d)
            if heavy.any() and (~heavy).any():
                assert counts[heavy].mean() >= counts[~heavy].mean()


#: sha256 of layer-wise (``replace=True``) blocks on ``tiny`` for
#: k in {1, 2, 4} x unbiased/biased, three mini-batches each; pins the
#: Eq. (2) quota draw from every GPU's own RNG stream
LAYERWISE_SHA256 = (
    "36a92a004063b527ff14613bd4aaa18ac3b54e87c2e4f6b3fb31a27bfb12c3b8"
)


def _layerwise_digest() -> str:
    graph = load_dataset("tiny").graph
    h = hashlib.sha256()
    for k in (1, 2, 4):
        for biased in (False, True):
            g = graph
            if biased:
                g = g.with_node_weights(
                    np.random.default_rng(1).random(g.num_nodes)
                    .astype(np.float32)
                )
            rgraph, _, nb = renumber_by_partition(g, metis_partition(g, k, rng=0))
            sampler = CollectiveSampler.from_partitioned(
                rgraph, nb.part_offsets, seed=5
            )
            cfg = CSPConfig(fanout=(40, 25), scheme="layer", biased=biased)
            rng = np.random.default_rng(9)
            for _ in range(3):
                seeds = [
                    rng.choice(np.arange(nb.part_offsets[p],
                                         nb.part_offsets[p + 1]),
                               size=12, replace=False)
                    for p in range(k)
                ]
                samples, _, _ = sampler.sample(seeds, cfg)
                for s in samples:
                    for b in s.blocks:
                        for a in (b.dst_nodes, b.src_nodes, b.offsets):
                            h.update(a.tobytes())
    return h.hexdigest()


def test_layerwise_blocks_pinned():
    assert _layerwise_digest() == LAYERWISE_SHA256


class TestValidation:
    def test_wrong_seed_count(self):
        sampler, _, _ = build_sampler()
        with pytest.raises(ConfigError):
            sampler.sample([np.array([0])], CSPConfig(fanout=(2,)))

    def test_bad_config(self):
        with pytest.raises(ConfigError):
            CSPConfig(fanout=())
        with pytest.raises(ConfigError):
            CSPConfig(fanout=(2,), scheme="magic")
        with pytest.raises(ConfigError):
            CSPConfig(fanout=(-1,))

    def test_mismatched_offsets(self):
        sampler, rgraph, nb = build_sampler()
        with pytest.raises(ConfigError):
            CollectiveSampler(sampler.patches, nb.part_offsets[:-1])
