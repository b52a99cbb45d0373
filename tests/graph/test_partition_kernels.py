"""The multilevel partitioner's kernels against their sequential forms.

``_heavy_edge_matching``, ``_contract`` and ``_refine`` are vectorised
rewrites of straightforward implementations: a per-node greedy matching
loop, a COO -> CSR contraction with duplicate summing, and a refinement
that rebuilds the node-to-part connectivity with a sparse matmul on
every pass.  Those implementations are kept below, verbatim, as
references.  Every check is bitwise: CSR ``indptr``/``indices``/``data``
with their dtypes, the matching's ``mapping``, the refined assignment,
and the generator state after each call (the rewrites must consume the
same random draws, or every later draw shifts).
"""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

from repro.graph import CSRGraph, dcsbm_graph, load_dataset, metis_partition
from repro.graph import partition as P


# ----------------------------------------------------------------------
# reference kernels
# ----------------------------------------------------------------------
def _ref_heavy_edge_matching(adj, rng):
    n = adj.shape[0]
    matched_with = np.full(n, -1, dtype=np.int64)
    indptr, indices, data = adj.indptr, adj.indices, adj.data

    for _ in range(2):
        free = matched_with < 0
        if not free.any():
            break
        # jitter weights so argmax tie-breaking varies per round
        jitter = rng.random(len(data)) * 1e-6
        choice = _ref_rowwise_argmax_neighbor(
            indptr, indices, data + jitter, eligible=free
        )
        # a nomination is valid only from a free node to a free node
        choice[~free] = -1
        valid = choice >= 0
        mutual = np.zeros(n, dtype=bool)
        idx = np.flatnonzero(valid)
        mutual[idx] = choice[choice[idx]] == idx
        pair = np.flatnonzero(mutual & (choice > np.arange(n)))
        matched_with[pair] = choice[pair]
        matched_with[choice[pair]] = pair

    free_nodes = rng.permutation(np.flatnonzero(matched_with < 0))
    for v in free_nodes:
        if matched_with[v] >= 0:
            continue
        lo, hi = indptr[v], indptr[v + 1]
        nbrs = indices[lo:hi]
        ok = matched_with[nbrs] < 0
        ok &= nbrs != v
        if not ok.any():
            continue
        cand = nbrs[ok]
        u = int(cand[np.argmax(data[lo:hi][ok])])
        matched_with[v] = u
        matched_with[u] = v

    rep = np.where(matched_with >= 0, np.minimum(np.arange(n), matched_with), np.arange(n))
    uniq, mapping = np.unique(rep, return_inverse=True)
    return mapping.astype(np.int64), len(uniq)


def _ref_rowwise_argmax_neighbor(indptr, indices, data, eligible):
    n = len(indptr) - 1
    out = np.full(n, -1, dtype=np.int64)
    w = np.where(eligible[indices], data, -np.inf)
    deg = np.diff(indptr)
    nonempty = np.flatnonzero(deg > 0)
    if len(nonempty) == 0:
        return out
    rowmax = np.full(n, -np.inf)
    rowmax[nonempty] = np.maximum.reduceat(w, indptr[nonempty])
    row_of = np.repeat(np.arange(n, dtype=np.int64), deg)
    cand = np.flatnonzero(np.isfinite(w) & (w == rowmax[row_of]))
    out[row_of[cand]] = indices[cand]
    return out


def _ref_contract(adj, node_w, mapping, n_coarse):
    coo = adj.tocoo()
    rows = mapping[coo.row]
    cols = mapping[coo.col]
    keep = rows != cols
    coarse = sp.coo_matrix(
        (coo.data[keep], (rows[keep], cols[keep])), shape=(n_coarse, n_coarse)
    ).tocsr()
    coarse.sum_duplicates()
    coarse_w = np.bincount(mapping, weights=node_w, minlength=n_coarse).astype(np.int64)
    return coarse, coarse_w


def _ref_refine(adj, node_w, assignment, num_parts, imbalance, passes, rng):
    n = adj.shape[0]
    assignment = assignment.copy()
    total = float(node_w.sum())
    cap = imbalance * total / num_parts

    for _ in range(passes):
        onehot = sp.csr_matrix(
            (np.ones(n), (np.arange(n), assignment)), shape=(n, num_parts)
        )
        conn = np.asarray((adj @ onehot).todense())  # n x k connectivity weight
        own = conn[np.arange(n), assignment]
        conn_other = conn.copy()
        conn_other[np.arange(n), assignment] = -np.inf
        best_part = np.argmax(conn_other, axis=1)
        best = conn_other[np.arange(n), best_part]
        gain = best - own

        part_w = np.bincount(assignment, weights=node_w, minlength=num_parts)
        movable = np.isfinite(best) & (gain > 0)
        moved = 0
        for v in rng.permutation(np.flatnonzero(movable)):
            tgt = int(best_part[v])
            w = float(node_w[v])
            if part_w[tgt] + w <= cap:
                part_w[assignment[v]] -= w
                part_w[tgt] += w
                assignment[v] = tgt
                moved += 1
        for part in np.flatnonzero(part_w > cap):
            over = np.flatnonzero(assignment == part)
            order = np.argsort(-gain[over])
            for v in over[order]:
                if part_w[part] <= cap:
                    break
                w = float(node_w[v])
                tgt = int(best_part[v])
                if not np.isfinite(best[v]) or part_w[tgt] + w > cap:
                    tgt = int(np.argmin(part_w))
                if tgt == part:
                    continue
                if part_w[tgt] + w <= cap or part_w[tgt] + w < part_w[part]:
                    part_w[part] -= w
                    part_w[tgt] += w
                    assignment[v] = tgt
                    moved += 1
        if moved == 0 and (part_w <= cap).all():
            break
        if moved == 0:
            break
    return assignment


def _ref_metis(graph, num_parts, seed):
    """``metis_partition`` composed from the reference kernels."""
    rng = np.random.default_rng(seed)
    adj = P._symmetrized_adjacency(graph)
    node_w = np.ones(graph.num_nodes, dtype=np.int64)
    coarsest_size = max(64 * num_parts, 256)
    levels = []
    while adj.shape[0] > coarsest_size:
        mapping, n_coarse = _ref_heavy_edge_matching(adj, rng)
        if n_coarse >= adj.shape[0] * 0.95:
            break
        levels.append((adj, node_w, mapping))
        adj, node_w = _ref_contract(adj, node_w, mapping, n_coarse)
    assignment = P._greedy_growing(adj, node_w, num_parts, rng)
    assignment = _ref_refine(adj, node_w, assignment, num_parts, 1.05, 8, rng)
    for fine_adj, fine_w, mapping in reversed(levels):
        assignment = _ref_refine(
            fine_adj, fine_w, assignment[mapping], num_parts, 1.05, 8, rng
        )
    return assignment


# ----------------------------------------------------------------------
# inputs
# ----------------------------------------------------------------------
def _loops_and_duplicates(seed):
    rng = np.random.default_rng(seed)
    src = rng.integers(0, 40, size=300)
    dst = rng.integers(0, 40, size=300)
    src[:20] = dst[:20]
    return CSRGraph.from_edges(src, dst, 40, dedup=False)


def _equal_weights():
    """Every undirected pair carries weight 2: argmax ties everywhere."""
    rng = np.random.default_rng(9)
    src = rng.integers(0, 600, size=3000)
    dst = rng.integers(0, 600, size=3000)
    keep = src != dst
    both_src = np.concatenate([src[keep], dst[keep]])
    both_dst = np.concatenate([dst[keep], src[keep]])
    return CSRGraph.from_edges(both_src, both_dst, 600)


GRAPHS = {
    "tiny": lambda: load_dataset("tiny").graph,
    "dcsbm": lambda: dcsbm_graph(3000, 24000, rng=5),
    "loops-dups": lambda: _loops_and_duplicates(0),
    "only-loops": lambda: CSRGraph.from_edges(np.array([0, 1]), np.array([0, 1]), 3),
    "no-edges": lambda: CSRGraph.from_edges(
        np.array([], dtype=np.int64), np.array([], dtype=np.int64), 4
    ),
    "equal-weights": _equal_weights,
}


def _assert_csr_equal(got, want):
    assert got.shape == want.shape
    for field in ("indptr", "indices", "data"):
        a, b = getattr(got, field), getattr(want, field)
        assert a.dtype == b.dtype, field
        assert np.array_equal(a, b), field


def _assert_no_diagonal(adj):
    rows = np.repeat(np.arange(adj.shape[0]), np.diff(adj.indptr))
    assert not np.any(rows == adj.indices)


def _check_level(adj, seed, num_parts=4):
    """Match, contract and refine one level with both implementations.

    Returns the coarse adjacency and node weights for the next level.
    """
    _assert_no_diagonal(adj)
    n = adj.shape[0]
    node_w = np.random.default_rng(seed).integers(1, 4, size=n).astype(np.int64)

    got_rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    mapping, n_coarse = P._heavy_edge_matching(adj, got_rng)
    ref_mapping, ref_n = _ref_heavy_edge_matching(adj, want_rng)
    assert n_coarse == ref_n
    assert mapping.dtype == ref_mapping.dtype
    assert np.array_equal(mapping, ref_mapping)
    assert got_rng.bit_generator.state == want_rng.bit_generator.state

    coarse, coarse_w = P._contract(adj, node_w, mapping, n_coarse)
    ref_coarse, ref_w = _ref_contract(adj, node_w, mapping, n_coarse)
    _assert_csr_equal(coarse, ref_coarse)
    assert coarse_w.dtype == ref_w.dtype
    assert np.array_equal(coarse_w, ref_w)
    _assert_no_diagonal(coarse)

    k = min(num_parts, n)
    if k >= 2:
        start = np.random.default_rng(seed + 1).integers(0, k, size=n)
        got = P._refine(adj, node_w, start, k, got_rng)
        want = _ref_refine(adj, node_w, start, k, 1.05, 8, want_rng)
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)
        assert got_rng.bit_generator.state == want_rng.bit_generator.state
    return coarse, coarse_w


@pytest.mark.parametrize("name", sorted(GRAPHS))
@pytest.mark.parametrize("seed", [0, 3])
def test_kernels_match_reference(name, seed):
    adj = P._symmetrized_adjacency(GRAPHS[name]())
    for _ in range(3):
        if adj.shape[0] == 0:
            break
        adj, _ = _check_level(adj, seed)


def test_kernels_match_reference_products():
    """Two coarsening levels at the size the benchmark partitions."""
    adj = P._symmetrized_adjacency(load_dataset("products").graph)
    for level in range(2):
        adj, _ = _check_level(adj, seed=level, num_parts=8)


@pytest.mark.parametrize("name", ["tiny", "dcsbm", "loops-dups", "equal-weights"])
@pytest.mark.parametrize("num_parts", [2, 3, 8])
def test_metis_matches_reference(name, num_parts):
    graph = GRAPHS[name]()
    got = metis_partition(graph, num_parts, rng=11).assignment
    assert np.array_equal(got, _ref_metis(graph, num_parts, 11))


@st.composite
def weighted_symmetric(draw):
    n = draw(st.integers(1, 40))
    m = draw(st.integers(0, 120))
    src = np.array(draw(st.lists(st.integers(0, n - 1), min_size=m, max_size=m)), dtype=np.int64)
    dst = np.array(draw(st.lists(st.integers(0, n - 1), min_size=m, max_size=m)), dtype=np.int64)
    w = np.array(draw(st.lists(st.integers(1, 6), min_size=m, max_size=m)), dtype=np.float64)
    a = sp.coo_matrix((w, (src, dst)), shape=(n, n)).tocsr()
    a = (a + a.T).tocsr()
    a.setdiag(0)
    a.eliminate_zeros()
    return a.tocsr()


@given(weighted_symmetric(), st.integers(0, 2**31 - 1))
@settings(max_examples=60, deadline=None)
def test_kernels_match_reference_weighted(adj, seed):
    for _ in range(2):
        if adj.shape[0] == 0:
            break
        adj, _ = _check_level(adj, seed, num_parts=3)


@pytest.mark.parametrize("name", sorted(GRAPHS))
def test_wide_key_fallback_matches_reference(name, monkeypatch):
    """Keys too wide to pack take the lexsort path, with the same output."""
    graph = GRAPHS[name]()
    packed = P._symmetrized_adjacency(graph)
    monkeypatch.setattr(P, "_KEY_BITS", 0)  # no key fits
    adj = P._symmetrized_adjacency(graph)
    _assert_csr_equal(adj, packed)
    for _ in range(2):
        if adj.shape[0] == 0:
            break
        adj, _ = _check_level(adj, seed=1)
