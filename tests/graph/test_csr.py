"""Unit tests for the CSR graph structure."""

import numpy as np
import pytest

from repro.graph import CSRGraph
from repro.utils import ReproError


def small_graph(weighted: bool = False) -> CSRGraph:
    # edges (src -> dst): dst's adjacency list holds src
    src = np.array([1, 2, 0, 2, 3, 0])
    dst = np.array([0, 0, 1, 1, 2, 3])
    w = np.arange(1.0, 7.0, dtype=np.float32) if weighted else None
    return CSRGraph.from_edges(src, dst, num_nodes=4, edge_weights=w)


class TestConstruction:
    def test_from_edges_basic(self):
        g = small_graph()
        assert g.num_nodes == 4
        assert g.num_edges == 6
        assert sorted(g.neighbors(0).tolist()) == [1, 2]
        assert sorted(g.neighbors(1).tolist()) == [0, 2]
        assert g.neighbors(2).tolist() == [3]
        assert g.neighbors(3).tolist() == [0]

    def test_degrees(self):
        g = small_graph()
        assert g.degrees.tolist() == [2, 2, 1, 1]
        assert g.average_degree == pytest.approx(1.5)

    def test_isolated_nodes_allowed(self):
        g = CSRGraph.from_edges(np.array([0]), np.array([1]), num_nodes=5)
        assert g.num_nodes == 5
        assert g.degrees.tolist() == [0, 1, 0, 0, 0]

    def test_empty_graph(self):
        g = CSRGraph.from_edges(np.array([]), np.array([]), num_nodes=3)
        assert g.num_nodes == 3
        assert g.num_edges == 0

    def test_dedup_removes_parallel_edges(self):
        src = np.array([1, 1, 1])
        dst = np.array([0, 0, 0])
        g = CSRGraph.from_edges(src, dst, num_nodes=2)
        assert g.num_edges == 1
        g2 = CSRGraph.from_edges(src, dst, num_nodes=2, dedup=False)
        assert g2.num_edges == 3

    def test_self_loops_kept(self):
        g = CSRGraph.from_edges(np.array([0]), np.array([0]), num_nodes=1)
        assert g.neighbors(0).tolist() == [0]

    def test_rejects_out_of_range(self):
        with pytest.raises(ReproError):
            CSRGraph.from_edges(np.array([0]), np.array([5]), num_nodes=2)
        with pytest.raises(ReproError):
            CSRGraph.from_edges(np.array([-1]), np.array([0]), num_nodes=2)

    def test_rejects_bad_indptr(self):
        with pytest.raises(ReproError):
            CSRGraph(indptr=np.array([1, 2]), indices=np.array([0]))
        with pytest.raises(ReproError):
            CSRGraph(indptr=np.array([0, 2, 1]), indices=np.array([0, 1]))
        with pytest.raises(ReproError):
            CSRGraph(indptr=np.array([0, 3]), indices=np.array([0]))

    def test_rejects_negative_weights(self):
        with pytest.raises(ReproError):
            CSRGraph(
                indptr=np.array([0, 1]),
                indices=np.array([0]),
                edge_weights=np.array([-1.0]),
            )

    def test_weight_shape_mismatch(self):
        with pytest.raises(ReproError):
            CSRGraph(
                indptr=np.array([0, 1]),
                indices=np.array([0]),
                edge_weights=np.array([1.0, 2.0]),
            )


class TestWeights:
    def test_neighbor_weights(self):
        g = small_graph(weighted=True)
        assert g.neighbor_weights(2).tolist() == [5.0]
        assert g.neighbor_weights(3).tolist() == [6.0]

    def test_unweighted_returns_none(self):
        assert small_graph().neighbor_weights(0) is None

    def test_with_node_weights_materializes_on_edges(self):
        g = small_graph()
        node_w = np.array([10.0, 20.0, 30.0, 40.0], dtype=np.float32)
        gw = g.with_node_weights(node_w)
        # adjacency of 0 is [1, 2] -> weights of nodes 1 and 2
        got = dict(zip(gw.neighbors(0).tolist(), gw.neighbor_weights(0).tolist()))
        assert got == {1: 20.0, 2: 30.0}

    def test_with_node_weights_wrong_shape(self):
        with pytest.raises(ReproError):
            small_graph().with_node_weights(np.ones(3))


class TestTransforms:
    def test_reverse_twice_is_identity(self):
        g = small_graph()
        rr = g.reverse().reverse()
        assert rr.num_edges == g.num_edges
        for v in range(g.num_nodes):
            assert sorted(rr.neighbors(v).tolist()) == sorted(g.neighbors(v).tolist())

    def test_reverse_swaps_direction(self):
        g = small_graph()
        r = g.reverse()
        # edge 1->0 in original means 0's adjacency holds 1;
        # after reversing, 1's adjacency holds 0.
        assert 0 in r.neighbors(1).tolist()

    def test_induced_subgraph(self):
        g = small_graph()
        sub, nodes = g.induced_subgraph(np.array([0, 1, 2]))
        assert nodes.tolist() == [0, 1, 2]
        assert sub.num_nodes == 3
        # edge 3->2 dropped (node 3 excluded); 0's neighbors {1,2} kept
        assert sorted(sub.neighbors(0).tolist()) == [1, 2]
        assert sub.neighbors(2).tolist() == []

    def test_permute_preserves_structure(self):
        g = small_graph()
        perm = np.array([2, 0, 3, 1])  # new id of old node v
        p = g.permute(perm)
        assert p.num_edges == g.num_edges
        for old in range(4):
            expect = sorted(perm[u] for u in g.neighbors(old))
            assert sorted(p.neighbors(perm[old]).tolist()) == expect

    def test_permute_rejects_non_permutation(self):
        g = small_graph()
        with pytest.raises(ReproError):
            g.permute(np.array([0, 0, 1, 2]))
        with pytest.raises(ReproError):
            g.permute(np.array([0, 1, 2]))

    def test_topology_nbytes_positive(self):
        g = small_graph(weighted=True)
        unweighted = small_graph()
        assert g.topology_nbytes > unweighted.topology_nbytes > 0


# the edge-list formulations induced_subgraph and permute compute without
# a sort: rebuild through from_edges, which orders edges by a stable sort
def _ref_induced_subgraph(g: CSRGraph, nodes: np.ndarray):
    nodes = np.unique(np.asarray(nodes, dtype=np.int64))
    remap = np.full(g.num_nodes, -1, dtype=np.int64)
    remap[nodes] = np.arange(len(nodes))
    dst = np.repeat(np.arange(g.num_nodes, dtype=np.int64), g.degrees)
    src = g.indices
    mask = (remap[dst] >= 0) & (remap[src] >= 0)
    w = None if g.edge_weights is None else g.edge_weights[mask]
    sub = CSRGraph.from_edges(
        remap[src[mask]], remap[dst[mask]], len(nodes), edge_weights=w, dedup=False
    )
    return sub, nodes


def _ref_permute(g: CSRGraph, perm: np.ndarray) -> CSRGraph:
    dst = np.repeat(np.arange(g.num_nodes, dtype=np.int64), g.degrees)
    return CSRGraph.from_edges(
        perm[g.indices], perm[dst], g.num_nodes, edge_weights=g.edge_weights, dedup=False
    )


def _assert_same(got: CSRGraph, want: CSRGraph) -> None:
    for field in ("indptr", "indices", "edge_weights"):
        a, b = getattr(got, field), getattr(want, field)
        if b is None:
            assert a is None
            continue
        assert a.dtype == b.dtype, field
        assert np.array_equal(a, b), field


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("weighted", [False, True])
def test_induced_subgraph_and_permute_match_edge_list_rebuild(seed, weighted):
    """Bit for bit, on graphs with self-loops, parallel edges, empty
    rows and unsorted neighbour lists."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 60))
    m = int(rng.integers(0, 300))
    src, dst = rng.integers(0, n, m), rng.integers(0, n, m)
    w = rng.random(m).astype(np.float32) if weighted else None
    g = CSRGraph.from_edges(src, dst, n, edge_weights=w, dedup=False)
    for nodes in (rng.choice(n, int(rng.integers(0, n + 1)), replace=False), np.arange(n)):
        got, got_ids = g.induced_subgraph(nodes)
        want, want_ids = _ref_induced_subgraph(g, nodes)
        _assert_same(got, want)
        assert np.array_equal(got_ids, want_ids)
    perm = rng.permutation(n)
    _assert_same(g.permute(perm), _ref_permute(g, perm))
