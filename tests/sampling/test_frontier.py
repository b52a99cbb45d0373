"""Tests for Block / MiniBatchSample structures."""

import numpy as np
import pytest

from repro.sampling.frontier import Block, MiniBatchSample, next_frontier
from repro.utils import ReproError


def block(dst, src, counts):
    offsets = np.concatenate([[0], np.cumsum(counts)])
    return Block(np.asarray(dst), np.asarray(src), offsets)


class TestBlock:
    def test_src_of(self):
        b = block([5, 7], [1, 2, 3], [2, 1])
        assert b.src_of(0).tolist() == [1, 2]
        assert b.src_of(1).tolist() == [3]
        assert b.num_dst == 2 and b.num_edges == 3

    def test_all_nodes_unique_sorted(self):
        b = block([5, 7], [7, 5, 1], [2, 1])
        assert b.all_nodes.tolist() == [1, 5, 7]

    def test_nbytes_positive(self):
        assert block([1], [2], [1]).nbytes > 0

    def test_offsets_validation(self):
        with pytest.raises(ReproError):
            Block(np.array([1]), np.array([2]), np.array([0, 2]))
        with pytest.raises(ReproError):
            Block(np.array([1]), np.array([2]), np.array([1, 1]))
        with pytest.raises(ReproError):
            Block(np.array([1, 2]), np.array([3]), np.array([0, 1]))
        with pytest.raises(ReproError):
            Block(np.array([1, 2]), np.array([3]), np.array([0, 1, 0]))

    def test_empty_block(self):
        b = block([], [], [])
        assert b.num_dst == 0 and b.num_edges == 0

    @pytest.mark.parametrize("seed", range(5))
    def test_local_index_matches_binary_search(self, seed):
        rng = np.random.default_rng(seed)
        dst = np.sort(rng.choice(5000, size=40, replace=False))
        counts = rng.integers(0, 6, size=len(dst))
        src = rng.integers(0, 5000, size=counts.sum())
        b = block(dst, src, counts)
        dst_idx, src_idx, seg = b.local_index
        assert np.array_equal(dst_idx, np.searchsorted(b.all_nodes, dst))
        assert np.array_equal(src_idx, np.searchsorted(b.all_nodes, src))
        assert np.array_equal(seg, np.repeat(np.arange(len(dst)), counts))
        assert all(a.dtype == np.int64 for a in b.local_index)
        assert b.local_index is b.local_index  # computed once per block

    def test_local_index_empty_block(self):
        empty = np.zeros(0, dtype=np.int64)
        b = Block(empty, empty, np.zeros(1, dtype=np.int64))
        assert all(len(a) == 0 for a in b.local_index)


class TestMiniBatchSample:
    def test_all_nodes_union(self):
        b0 = block([0], [1, 2], [2])
        b1 = block(b0.all_nodes, [3, 4, 5], [1, 1, 1])
        s = MiniBatchSample(seeds=np.array([0]), blocks=(b0, b1))
        assert s.all_nodes.tolist() == [0, 1, 2, 3, 4, 5]
        assert s.num_layers == 2
        assert s.total_sampled_edges == 5

    def test_block0_must_match_seeds(self):
        b0 = block([0], [1], [1])
        with pytest.raises(ReproError):
            MiniBatchSample(seeds=np.array([9]), blocks=(b0,))

    def test_needs_blocks(self):
        with pytest.raises(ReproError):
            MiniBatchSample(seeds=np.array([0]), blocks=())

    def test_next_frontier_is_all_nodes(self):
        b = block([3], [1, 9], [2])
        assert next_frontier(b).tolist() == [1, 3, 9]
