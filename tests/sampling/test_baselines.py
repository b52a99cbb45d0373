"""Tests for the UVA / CPU / Pull-Data sampler baselines."""

import dataclasses
import hashlib

import numpy as np
import pytest

from repro.graph import dcsbm_graph, metis_partition, renumber_by_partition
from repro.graph.datasets import load_dataset
from repro.sampling import (
    CollectiveSampler,
    CPUSampler,
    CSPConfig,
    PullDataSampler,
    UVASampler,
)
from repro.sampling.ops import AllToAll, HostWork, LocalKernel, PCIeCopy, UVAGather
from repro.utils import ConfigError


@pytest.fixture(scope="module")
def setting():
    graph = dcsbm_graph(600, 12_000, num_communities=4, rng=7)
    rng = np.random.default_rng(1)
    wgraph = graph.with_node_weights(rng.random(graph.num_nodes).astype(np.float32))
    part = metis_partition(wgraph, 4, rng=0)
    rgraph, _, nb = renumber_by_partition(wgraph, part)
    seeds = []
    srng = np.random.default_rng(3)
    for g in range(4):
        lo, hi = nb.part_offsets[g], nb.part_offsets[g + 1]
        seeds.append(srng.choice(np.arange(lo, hi), size=20, replace=False))
    return rgraph, nb, seeds


CFG = CSPConfig(fanout=(5, 3))


class TestUVASampler:
    def test_functional_output_valid(self, setting):
        rgraph, nb, seeds = setting
        s = UVASampler(rgraph, 4, seed=0)
        samples, trace, stats = s.sample(seeds, CFG)
        for g, smp in enumerate(samples):
            assert np.array_equal(smp.blocks[0].dst_nodes, seeds[g])
            b = smp.blocks[0]
            for i, v in enumerate(b.dst_nodes):
                assert set(b.src_of(i)) <= set(rgraph.neighbors(int(v)))

    def test_zero_locality(self, setting):
        rgraph, nb, seeds = setting
        _, _, stats = UVASampler(rgraph, 4, seed=0).sample(seeds, CFG)
        assert stats.locality == 0.0

    def test_trace_is_uva_plus_kernels(self, setting):
        rgraph, nb, seeds = setting
        _, trace, _ = UVASampler(rgraph, 4, seed=0).sample(seeds, CFG)
        kinds = {type(op) for op in trace}
        assert kinds == {UVAGather, LocalKernel}

    def test_biased_reads_whole_adjacency(self, setting):
        rgraph, nb, seeds = setting
        s = UVASampler(rgraph, 4, seed=0)
        _, t_unbiased, _ = s.sample(seeds, CFG)
        _, t_biased, _ = UVASampler(rgraph, 4, seed=0).sample(
            seeds, CSPConfig(fanout=(5, 3), biased=True)
        )
        assert t_biased.uva_payload_bytes() > 2 * t_unbiased.uva_payload_bytes()

    def test_wire_bytes_amplified(self, setting):
        rgraph, nb, seeds = setting
        _, trace, _ = UVASampler(rgraph, 4, seed=0).sample(seeds, CFG)
        assert trace.uva_wire_bytes() == pytest.approx(
            trace.uva_payload_bytes() * 50 / 8
        )

    def test_rejects_layerwise(self, setting):
        rgraph, nb, seeds = setting
        with pytest.raises(ConfigError):
            UVASampler(rgraph, 4).sample(seeds, CSPConfig(fanout=(5,), scheme="layer"))


class TestCPUSampler:
    def test_functional_output_valid(self, setting):
        rgraph, nb, seeds = setting
        samples, trace, _ = CPUSampler(rgraph, 4, seed=0).sample(seeds, CFG)
        b = samples[0].blocks[0]
        for i, v in enumerate(b.dst_nodes):
            assert set(b.src_of(i)) <= set(rgraph.neighbors(int(v)))

    def test_trace_is_hostwork_plus_copy(self, setting):
        rgraph, nb, seeds = setting
        _, trace, _ = CPUSampler(rgraph, 4, seed=0).sample(seeds, CFG)
        kinds = [type(op) for op in trace]
        assert kinds.count(HostWork) == 2  # one per layer
        assert kinds[-1] is PCIeCopy

    def test_copy_bytes_match_sample_size(self, setting):
        rgraph, nb, seeds = setting
        samples, trace, _ = CPUSampler(rgraph, 4, seed=0).sample(seeds, CFG)
        copy = next(op for op in trace if isinstance(op, PCIeCopy))
        assert copy.nbytes.sum() == pytest.approx(sum(s.nbytes for s in samples))


class TestPullDataSampler:
    def test_functional_output_valid(self, setting):
        rgraph, nb, seeds = setting
        s = PullDataSampler.from_partitioned(rgraph, nb.part_offsets, seed=0)
        samples, trace, stats = s.sample(seeds, CFG)
        for g, smp in enumerate(samples):
            b = smp.blocks[0]
            assert np.array_equal(b.dst_nodes, seeds[g])
            for i, v in enumerate(b.dst_nodes):
                assert set(b.src_of(i)) <= set(rgraph.neighbors(int(v)))

    def test_pull_moves_more_bytes_than_push(self, setting):
        """The Fig 11 / Fig 1 claim: pulling adjacency lists loses."""
        rgraph, nb, seeds = setting
        push = CollectiveSampler.from_partitioned(rgraph, nb.part_offsets, seed=0)
        pull = PullDataSampler.from_partitioned(rgraph, nb.part_offsets, seed=0)
        cfg = CSPConfig(fanout=(5, 3), biased=True)
        _, push_trace, _ = push.sample(seeds, cfg)
        _, pull_trace, _ = pull.sample(seeds, cfg)
        assert (
            pull_trace.nvlink_payload_bytes()
            > 1.5 * push_trace.nvlink_payload_bytes()
        )

    def test_biased_doubles_pull_traffic(self, setting):
        rgraph, nb, seeds = setting
        pull = PullDataSampler.from_partitioned(rgraph, nb.part_offsets, seed=0)
        _, t1, _ = pull.sample(seeds, CSPConfig(fanout=(5,)))
        pull2 = PullDataSampler.from_partitioned(rgraph, nb.part_offsets, seed=0)
        _, t2, _ = pull2.sample(seeds, CSPConfig(fanout=(5,), biased=True))
        resp1 = sum(op.matrix.sum() for op in t1
                    if isinstance(op, AllToAll) and "resp" in op.label)
        resp2 = sum(op.matrix.sum() for op in t2
                    if isinstance(op, AllToAll) and "resp" in op.label)
        assert resp2 == pytest.approx(2 * resp1)

    def test_same_locality_as_csp(self, setting):
        rgraph, nb, seeds = setting
        push = CollectiveSampler.from_partitioned(rgraph, nb.part_offsets, seed=0)
        pull = PullDataSampler.from_partitioned(rgraph, nb.part_offsets, seed=0)
        _, _, s_push = push.sample(seeds, CFG)
        _, _, s_pull = pull.sample(seeds, CFG)
        assert s_push.tasks_total == s_pull.tasks_total
        assert s_push.local_tasks == s_pull.local_tasks


#: sha256 of the CPU and UVA samplers' blocks, op traces and stats on
#: ``tiny`` for k in {1, 2, 4} x unbiased/biased, three mini-batches
#: each; pins the per-GPU draws and the ops each layer emits
HOST_SAMPLERS_SHA256 = (
    "32bee18074efe41c1374ab95d61382147e03ec96aeef94fa32459953ee73a46e"
)


def _host_samplers_digest() -> str:
    graph = load_dataset("tiny").graph
    h = hashlib.sha256()
    for cls in (CPUSampler, UVASampler):
        for k in (1, 2, 4):
            for biased in (False, True):
                g = graph
                if biased:
                    g = g.with_node_weights(
                        np.random.default_rng(1).random(g.num_nodes)
                        .astype(np.float32)
                    )
                sampler = cls(g, k, seed=5)
                cfg = CSPConfig(fanout=(6, 4), biased=biased)
                rng = np.random.default_rng(9)
                for _ in range(3):
                    seeds = [rng.choice(g.num_nodes, size=12, replace=False)
                             for _ in range(k)]
                    samples, trace, stats = sampler.sample(seeds, cfg)
                    for s in samples:
                        for b in s.blocks:
                            for a in (b.dst_nodes, b.src_nodes, b.offsets):
                                h.update(a.tobytes())
                    for op in trace:
                        h.update(type(op).__name__.encode())
                        for f in dataclasses.fields(op):
                            v = getattr(op, f.name)
                            h.update(v.tobytes() if isinstance(v, np.ndarray)
                                     else repr(v).encode())
                    h.update(repr(stats).encode())
    return h.hexdigest()


def test_host_samplers_pinned():
    assert _host_samplers_digest() == HOST_SAMPLERS_SHA256
