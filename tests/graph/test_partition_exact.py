"""The multilevel partitioner's shortcuts, against the plain forms.

- ``metis_partition`` stores every level's weights as int32, while the
  kernel oracles in ``test_partition_kernels.py`` feed float64 weights.
  Matching, contraction and refinement on the int32 copy of a level
  must give the same mapping, coarse graph, assignment and generator
  state as on the float64 level.
- The mutual rounds jitter only each row's maximum-weight entries, and
  draw the jitter a chunk at a time (``_draws_at``); with weights large
  enough to absorb the jitter, the last maximal entry must still win.
"""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.graph import dcsbm_graph, load_dataset, metis_partition
from repro.graph import partition as P
from repro.utils.errors import PartitionError
from tests.graph.test_partition_kernels import _ref_heavy_edge_matching

GRAPHS = {
    "tiny": lambda: load_dataset("tiny").graph,
    "dcsbm": lambda: dcsbm_graph(3000, 24000, rng=5),
}


def _int32(adj: sp.csr_matrix) -> sp.csr_matrix:
    return sp.csr_matrix((adj.data.astype(np.int32), adj.indices, adj.indptr), shape=adj.shape)


@pytest.mark.parametrize("name", sorted(GRAPHS))
@pytest.mark.parametrize("seed", [0, 7])
def test_kernels_agree_on_int32_weights(name, seed):
    adj = P._symmetrized_adjacency(GRAPHS[name]())
    node_w = np.ones(adj.shape[0], dtype=np.int64)
    for _ in range(3):
        small = _int32(adj)
        a, b = np.random.default_rng(seed), np.random.default_rng(seed)
        mapping, n_coarse = P._heavy_edge_matching(adj, a)
        got_mapping, got_n = P._heavy_edge_matching(small, b)
        assert got_n == n_coarse
        assert np.array_equal(got_mapping, mapping)
        assert a.bit_generator.state == b.bit_generator.state

        start = np.random.default_rng(seed + 1).integers(0, 3, size=adj.shape[0])
        want = P._refine(adj, node_w, start, 3, a)
        got = P._refine(small, node_w, start, 3, b)
        assert np.array_equal(got, want)
        assert a.bit_generator.state == b.bit_generator.state

        coarse, coarse_w = P._contract(adj, node_w, mapping, n_coarse)
        got_coarse, got_w = P._contract(small, node_w, mapping, n_coarse, np.int32)
        assert got_coarse.data.dtype == np.int32
        assert np.array_equal(got_coarse.indptr, coarse.indptr)
        assert np.array_equal(got_coarse.indices, coarse.indices)
        assert np.array_equal(got_coarse.data, coarse.data)
        assert np.array_equal(got_w, coarse_w)
        adj, node_w = coarse, coarse_w


@pytest.mark.parametrize("seed", [0, 5])
def test_drowned_jitter_keeps_the_last_maximal_entry(seed):
    """Weights of 2**34 and up absorb the < 1e-6 jitter: every jittered
    key in a row ties, and the row's last maximal entry must win, as in
    the sequential reference."""
    adj = P._symmetrized_adjacency(GRAPHS["dcsbm"]())
    adj.data *= 2.0**34
    a, b = np.random.default_rng(seed), np.random.default_rng(seed)
    mapping, n_coarse = P._heavy_edge_matching(adj, a)
    want_mapping, want_n = _ref_heavy_edge_matching(adj, b)
    assert n_coarse == want_n
    assert np.array_equal(mapping, want_mapping)
    assert a.bit_generator.state == b.bit_generator.state


@pytest.mark.parametrize("size", [0, 1, 5, P._PACK_CHUNK, 2 * P._PACK_CHUNK + 3])
def test_draws_at_matches_full_draw(size):
    pos = np.flatnonzero(np.random.default_rng(size).random(size) < 0.3)
    a, b = np.random.default_rng(42), np.random.default_rng(42)
    assert np.array_equal(P._draws_at(a, size, pos), b.random(size)[pos])
    assert a.bit_generator.state == b.bit_generator.state


def test_total_weight_must_fit_int32(monkeypatch):
    graph = load_dataset("tiny").graph
    heavy = P._symmetrized_adjacency(graph)
    heavy.data[:] = 2**31 / heavy.nnz + 1
    monkeypatch.setattr(P, "_symmetrized_adjacency", lambda g: heavy)
    with pytest.raises(PartitionError, match="2\\*\\*31"):
        metis_partition(graph, 2, rng=0)
