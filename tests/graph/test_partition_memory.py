"""Memory of the multilevel partitioner.

``metis_partition`` keeps every coarsening level for uncoarsening,
packed into the narrowest dtypes that hold its column ids and weights
exactly (``_PackedCSR``).  These tests pin the dtype edges of that
packing, check that a packed level contracts and unpacks to exactly the
CSR the partitioner built, and bound the partitioner's traced peak
(numpy reports its buffers to ``tracemalloc``).
"""

import tracemalloc

import numpy as np
import pytest

import repro.graph.partition as P
from repro.cluster.partition import hierarchical_partition
from repro.graph import dcsbm_graph, load_dataset

#: traced peak of a 2-way ``metis_partition`` of the dense graph below,
#: in bytes per input edge.  Packed levels measure 41; int32 ids plus
#: int32 weights on every level measure 60.
DENSE_BYTES_PER_EDGE = 50

#: traced peak of ``hierarchical_partition(papers, 2, 4, seed=100)``, in
#: MiB.  Packed levels measure 166; int32 levels measure 262.
PAPERS_PEAK_MIB = 200


def _level(n: int, top_w: int):
    """A canonical int32 level on ``n`` nodes: one entry in the last
    column, one of weight ``top_w``."""
    rows = np.array([0, n - 1, 1, 2], dtype=np.int64)
    cols = np.array([n - 1, 0, 2, 1], dtype=np.int64)
    weights = np.array([top_w, top_w, 1, 1], dtype=np.int64)
    return P._coalesce(rows, cols, n, weights, dtype=np.int32)


def _assert_same_csr(got, want):
    assert got.shape == want.shape
    for field in ("indptr", "indices", "data"):
        a, b = getattr(got, field), getattr(want, field)
        assert a.dtype == b.dtype, field
        assert np.array_equal(a, b), field


@pytest.mark.parametrize("n, top_w, ids, weights", [
    (65_536, 255, np.uint16, np.uint8),
    (65_536, 256, np.uint16, np.uint16),
    (65_537, 65_535, np.int32, np.uint16),  # no unsigned type narrower than int32
    (65_537, 65_536, np.int32, np.int32),
])
def test_pack_round_trips_at_dtype_edges(n, top_w, ids, weights):
    adj = _level(n, top_w)
    assert adj.indices.dtype == np.int32 and adj.data.dtype == np.int32
    packed = P._PackedCSR.pack(adj)
    assert packed.indices.dtype == ids
    assert packed.data.dtype == weights
    assert packed.indptr is adj.indptr
    assert int(packed.indices.max()) == n - 1
    assert int(packed.data.max()) == top_w
    _assert_same_csr(packed.unpack(), adj)


def test_packed_level_contracts_like_the_unpacked_one():
    adj = P._symmetrized_adjacency(dcsbm_graph(3000, 24000, rng=5))
    adj.data = adj.data.astype(np.int32)
    node_w = np.ones(adj.shape[0], dtype=np.int64)
    for seed in range(3):
        mapping, n_coarse = P._heavy_edge_matching(adj, np.random.default_rng(seed))
        packed = P._PackedCSR.pack(adj)
        assert packed.indices.dtype == np.uint16 and packed.data.dtype == np.uint8
        want, want_w = P._contract(adj, node_w, mapping, n_coarse, np.int32)
        got, got_w = P._contract(packed, node_w, mapping, n_coarse, np.int32)
        _assert_same_csr(got, want)
        assert np.array_equal(got_w, want_w)
        _assert_same_csr(packed.unpack(), adj)
        adj, node_w = want, want_w


def _traced_peak(fn, *args, **kwargs) -> int:
    tracemalloc.start()
    try:
        fn(*args, **kwargs)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_metis_peak_on_a_dense_graph():
    """The coarse levels of a power-law graph stay dense, so the kept
    level stack sets the partitioner's peak."""
    graph = dcsbm_graph(10_000, 300_000, power=2.1, theta_cap_exp=0.7, rng=7)
    peak = _traced_peak(P.metis_partition, graph, 2, rng=0)
    assert peak <= DENSE_BYTES_PER_EDGE * graph.num_edges


@pytest.mark.slow
def test_papers_hierarchical_peak():
    """The benchmark's server cut: inline or forked inner cuts alike
    (the server cut, always in this process, sets the peak)."""
    graph = load_dataset("papers").graph
    peak = _traced_peak(hierarchical_partition, graph, 2, 4, seed=100)
    assert peak <= PAPERS_PEAK_MIB * 2**20
