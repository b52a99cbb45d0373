"""Pinned partition outputs and the symmetrised-adjacency oracle.

Flat partitions are cached on disk under a key that carries no code
version, so a partitioner change that moved any assignment would hide
behind stale cache files.  The digests below pin ``metis_partition``
and ``hierarchical_partition`` outputs; the oracle test pins
``_symmetrized_adjacency`` to the sparse-algebra formulation
(``A + A.T``, zero diagonal, explicit zeros dropped) bit for bit.
"""

import hashlib

import numpy as np
import pytest
import scipy.sparse as sp

from repro.cluster.partition import hierarchical_partition
from repro.graph import CSRGraph, dcsbm_graph, load_dataset, metis_partition
from repro.graph.partition import _symmetrized_adjacency


def _tiny():
    return load_dataset("tiny").graph


def _dcsbm():
    return dcsbm_graph(3000, 24000, rng=5)


GRAPHS = {"tiny": _tiny, "dcsbm": _dcsbm}

#: sha256 of the int64 assignment bytes (flat: 4 parts, seed 3)
FLAT = {
    "tiny": "9f663c9700d518c421d1ab3dde7e5acb9fef3305ac712c0ca811260d7930e97d",
    "dcsbm": "af57c020f3485f98758cd65d12428f7fea4497657b49a3c9cf3db9588f7f038a",
}

#: sha256 of server then GPU assignment bytes (2 servers x 2 GPUs, seed 3)
HIERARCHICAL = {
    "tiny": "06cb887d4e1caa38cbee316513d7d2cc5989d0010eef49bd12642221e9a18fc4",
    "dcsbm": "1f7bfa5f5ff78b5d8712dc36fa86a3864d74832e040cf23be1be114ae6195d82",
}


def _digest(*arrays: np.ndarray) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype=np.int64).tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("name", sorted(GRAPHS))
def test_flat_metis_pinned(name):
    part = metis_partition(GRAPHS[name](), 4, rng=3)
    assert _digest(part.assignment) == FLAT[name]


@pytest.mark.parametrize("name", sorted(GRAPHS))
def test_hierarchical_pinned(name):
    h = hierarchical_partition(GRAPHS[name](), 2, 2, seed=3)
    assert _digest(h.server.assignment, h.gpu.assignment) == HIERARCHICAL[name]


def _oracle(graph: CSRGraph) -> sp.csr_matrix:
    n = graph.num_nodes
    dst = np.repeat(np.arange(n, dtype=np.int64), graph.degrees)
    data = np.ones(graph.num_edges, dtype=np.float64)
    a = sp.coo_matrix((data, (dst, graph.indices)), shape=(n, n)).tocsr()
    a = a + a.T
    a.setdiag(0)
    a.eliminate_zeros()
    return a.tocsr()


def _with_loops_and_duplicates(seed: int) -> CSRGraph:
    rng = np.random.default_rng(seed)
    n = 40
    src = rng.integers(0, n, size=300)
    dst = rng.integers(0, n, size=300)
    src[:20] = dst[:20]  # self-loops
    return CSRGraph.from_edges(src, dst, n, dedup=False)


@pytest.mark.parametrize("make", [
    _tiny,
    _dcsbm,
    lambda: _with_loops_and_duplicates(0),
    lambda: _with_loops_and_duplicates(1),
    lambda: CSRGraph.from_edges(np.array([0, 1]), np.array([0, 1]), 3),
    lambda: CSRGraph.from_edges(np.array([], dtype=np.int64),
                                np.array([], dtype=np.int64), 4),
], ids=["tiny", "dcsbm", "loops-dups-0", "loops-dups-1", "only-loops",
        "no-edges"])
def test_symmetrized_adjacency_matches_oracle(make):
    graph = make()
    got, want = _symmetrized_adjacency(graph), _oracle(graph)
    assert got.shape == want.shape
    for field in ("indptr", "indices", "data"):
        a, b = getattr(got, field), getattr(want, field)
        assert a.dtype == b.dtype, field
        assert np.array_equal(a, b), field
