"""Graph partitioning.

DSP partitions the graph topology into well-connected, balanced patches
(one per GPU) with METIS (paper §3.1).  METIS itself is not available
here, so :func:`metis_partition` implements the same *multilevel*
recipe METIS uses [Karypis & Kumar, 1998]:

1. **Coarsen** the (symmetrized) graph by repeated heavy-edge matching,
2. compute an **initial partition** of the coarsest graph by greedy
   region growing, and
3. **uncoarsen**, refining at every level with balance-constrained
   boundary moves (a vectorized Kernighan–Lin/FM-style pass).

Hash and range partitioners are provided as locality-free baselines for
the partitioning ablation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from repro.graph.csr import CSRGraph
from repro.utils.errors import PartitionError
from repro.utils.rng import make_rng

#: LDG part capacity, as a multiple of the ideal part size
LDG_SLACK = 1.05
#: METIS balance cap: max part weight <= IMBALANCE * ideal
IMBALANCE = 1.05
#: refinement passes per level (a pass that moves nothing ends them)
REFINE_PASSES = 8
#: greedy-matching visits whose picks are computed in one numpy pass
_GREEDY_CHUNK = 128
#: bits a packed (row, col, weight) sort key may use (int64 minus sign)
_KEY_BITS = 63


@dataclass(frozen=True)
class Partition:
    """A k-way node partition.

    ``assignment[v]`` is the part (GPU) that owns node ``v``.
    """

    assignment: np.ndarray
    num_parts: int

    def __post_init__(self) -> None:
        a = np.ascontiguousarray(self.assignment, dtype=np.int64)
        object.__setattr__(self, "assignment", a)
        if self.num_parts <= 0:
            raise PartitionError("num_parts must be positive")
        if len(a) and (a.min() < 0 or a.max() >= self.num_parts):
            raise PartitionError("assignment out of range")

    @property
    def num_nodes(self) -> int:
        return len(self.assignment)

    @property
    def part_sizes(self) -> np.ndarray:
        return np.bincount(self.assignment, minlength=self.num_parts)

    def nodes_of(self, part: int) -> np.ndarray:
        """Global ids of the nodes owned by ``part``."""
        return np.flatnonzero(self.assignment == part)

    def imbalance(self) -> float:
        """max part size / ideal part size (1.0 = perfectly balanced)."""
        sizes = self.part_sizes
        ideal = self.num_nodes / self.num_parts
        return float(sizes.max() / ideal) if ideal > 0 else 1.0


def edge_cut(graph: CSRGraph, partition: Partition) -> int:
    """Number of directed edges whose endpoints lie in different parts."""
    if partition.num_nodes != graph.num_nodes:
        raise PartitionError("partition does not match graph")
    dst = np.repeat(np.arange(graph.num_nodes, dtype=np.int64), graph.degrees)
    a = partition.assignment
    return int(np.count_nonzero(a[graph.indices] != a[dst]))


def hash_partition(num_nodes: int, num_parts: int, seed: int = 0) -> Partition:
    """Locality-free baseline: pseudo-random assignment, balanced in expectation."""
    rng = make_rng(seed)
    # balanced by construction: shuffle a round-robin assignment
    assignment = np.arange(num_nodes, dtype=np.int64) % num_parts
    rng.shuffle(assignment)
    return Partition(assignment, num_parts)


def range_partition(num_nodes: int, num_parts: int) -> Partition:
    """Contiguous equal ranges of the existing node numbering."""
    bounds = np.linspace(0, num_nodes, num_parts + 1).astype(np.int64)
    assignment = np.zeros(num_nodes, dtype=np.int64)
    for part in range(num_parts):
        assignment[bounds[part] : bounds[part + 1]] = part
    return Partition(assignment, num_parts)


def ldg_partition(
    graph: CSRGraph,
    num_parts: int,
    rng: np.random.Generator | int | None = None,
) -> Partition:
    """Linear Deterministic Greedy streaming partitioning.

    One pass over the nodes (random order): each node joins the part
    holding most of its already-placed neighbours, discounted by how
    full the part is — ``score = |N(v) in part| * (1 - size/capacity)``
    [Stanton & Kliot, KDD'12].  Far cheaper than multilevel partitioning
    (a single pass, no coarsening) at somewhat worse cut quality; the
    practical choice when the graph itself arrives as a stream.
    """
    if num_parts <= 0:
        raise PartitionError("num_parts must be positive")
    if num_parts > graph.num_nodes:
        raise PartitionError("more parts than nodes")
    rng = make_rng(rng)
    n = graph.num_nodes
    capacity = LDG_SLACK * n / num_parts
    assignment = np.full(n, -1, dtype=np.int64)
    sizes = np.zeros(num_parts, dtype=np.float64)
    indptr, indices = graph.indptr, graph.indices

    for v in rng.permutation(n):
        nbrs = indices[indptr[v] : indptr[v + 1]]
        placed = assignment[nbrs]
        placed = placed[placed >= 0]
        gains = np.bincount(placed, minlength=num_parts).astype(np.float64)
        score = gains * np.maximum(1.0 - sizes / capacity, 0.0)
        # break score ties toward the emptiest part (keeps balance)
        best = np.flatnonzero(score == score.max())
        part = int(best[np.argmin(sizes[best])])
        assignment[v] = part
        sizes[part] += 1.0
    return Partition(assignment, num_parts)


# ----------------------------------------------------------------------
# multilevel partitioner
# ----------------------------------------------------------------------
# Every kernel below is exact: adjacency weights are integer-valued
# float64 (edge counts and sums of them), so any summation order gives
# the same float, and the random draws are the ones a plain sequential
# implementation makes, in the same order.
def metis_partition(
    graph: CSRGraph,
    num_parts: int,
    rng: np.random.Generator | int | None = None,
) -> Partition:
    """METIS-like multilevel k-way partitioning.

    Minimizes the edge cut subject to ``max part weight <= IMBALANCE *
    ideal`` (node weight = number of original nodes collapsed into a
    coarse node, so balance refers to *original* node counts, which is
    what DSP needs: equal patches per GPU).
    """
    if num_parts <= 0:
        raise PartitionError("num_parts must be positive")
    if num_parts > graph.num_nodes:
        raise PartitionError("more parts than nodes")
    rng = make_rng(rng)
    if num_parts == 1:
        return Partition(np.zeros(graph.num_nodes, dtype=np.int64), 1)

    adj = _symmetrized_adjacency(graph)
    node_w = np.ones(graph.num_nodes, dtype=np.int64)
    coarsest_size = max(64 * num_parts, 256)

    # ---- coarsening phase ------------------------------------------------
    levels: list[tuple[sp.csr_matrix, np.ndarray, np.ndarray]] = []
    while adj.shape[0] > coarsest_size:
        mapping, n_coarse = _heavy_edge_matching(adj, rng)
        if n_coarse >= adj.shape[0] * 0.95:  # matching stalled
            break
        levels.append((adj, node_w, mapping))
        adj, node_w = _contract(adj, node_w, mapping, n_coarse)

    # ---- initial partition on coarsest graph -----------------------------
    assignment = _greedy_growing(adj, node_w, num_parts, rng)
    assignment = _refine(adj, node_w, assignment, num_parts, rng)

    # ---- uncoarsening + refinement ---------------------------------------
    while levels:  # popping frees each coarse level once a finer one takes over
        fine_adj, fine_w, mapping = levels.pop()
        assignment = _refine(fine_adj, fine_w, assignment[mapping], num_parts, rng)

    return Partition(assignment, num_parts)


def _symmetrized_adjacency(graph: CSRGraph) -> sp.csr_matrix:
    """Undirected weighted adjacency: weight = #directed edges between the pair."""
    n = graph.num_nodes
    dst = np.repeat(np.arange(n, dtype=np.int64), graph.degrees)
    # both directions, duplicates summed and self-loops (no cut weight)
    # dropped: the entries of A + A.T off the diagonal
    return _coalesce(
        np.concatenate([dst, graph.indices]), np.concatenate([graph.indices, dst]), n
    )


def _coalesce(
    rows: np.ndarray, cols: np.ndarray, n: int, weights: np.ndarray | None = None
) -> sp.csr_matrix:
    """``n x n`` CSR of the off-diagonal entries, duplicate pairs summed.

    ``rows`` and ``cols`` are int64 and are overwritten; ``weights`` are
    integer-valued (default: 1 per entry).  The result is the canonical
    CSR scipy's COO -> CSR conversion builds (sorted indices, one entry
    per pair, int32 indices while they fit), from one sort: each entry
    is packed into an int64 key ``row | col | weight``, so after an
    in-place sort a pair's entries are adjacent and carry their weights
    along.  Keys wider than ``_KEY_BITS`` fall back to a stable argsort
    of the ``row | col`` key.
    """
    keep = rows != cols
    nnz = int(np.count_nonzero(keep))
    col_bits = max(n - 1, 0).bit_length()
    if 2 * col_bits > 63:
        raise PartitionError(f"{n} nodes: (row, col) keys overflow int64")
    w_bits = 0 if weights is None or nnz == 0 else int(weights.max()).bit_length()
    rows <<= col_bits
    rows |= cols
    del cols
    if 2 * col_bits + w_bits <= _KEY_BITS:
        key = rows
        key <<= w_bits
        if weights is not None:
            key |= weights.astype(np.int64)
        del rows
        key = key[keep]
        key.sort()
        if weights is not None:
            weights = key & ((1 << w_bits) - 1)
            key >>= w_bits
    else:
        key = rows[keep]
        del rows
        order = np.argsort(key, kind="stable")
        key = key[order]
        if weights is not None:
            weights = weights[keep][order]
    # key: sorted (row, col) of every entry; a pair's weight is its
    # first entry plus its repeats (few: most pairs occur once)
    first = _run_heads(key)
    repeats = np.flatnonzero(~first)
    repeated = key[repeats]
    key = key[first]
    if weights is None:
        data, extra = np.ones(len(key)), 1.0
    else:  # float repeats take add.at's fast path
        data, extra = weights[first].astype(np.float64), weights[repeats].astype(np.float64)
    np.add.at(data, np.searchsorted(key, repeated), extra)
    idx = np.int32 if max(n, nnz) <= np.iinfo(np.int32).max else np.int64
    indptr = np.searchsorted(key, np.arange(n + 1) << col_bits).astype(idx)
    indices = (key & ((1 << col_bits) - 1)).astype(idx)
    return sp.csr_matrix((data, indices, indptr), shape=(n, n))


def _run_heads(key: np.ndarray) -> np.ndarray:
    """Mask of the first element of every run of equal values in ``key``."""
    first = np.empty(len(key), dtype=bool)
    first[:1] = True
    np.not_equal(key[1:], key[:-1], out=first[1:])
    return first


def _heavy_edge_matching(
    adj: sp.csr_matrix, rng: np.random.Generator
) -> tuple[np.ndarray, int]:
    """Vectorized mutual heavy-edge matching.

    Each node nominates its heaviest neighbour (ties broken by a random
    per-round key); mutually nominating pairs are matched.  A few rounds
    are run so nodes whose first choice got taken can re-nominate.
    Returns (fine node -> coarse node mapping, number of coarse nodes).
    """
    n = adj.shape[0]
    matched_with = np.full(n, -1, dtype=np.int64)
    indptr, indices, data = adj.indptr, adj.indices, adj.data
    deg = np.diff(indptr)
    nonempty = np.flatnonzero(deg)

    for round_ in range(2):
        free = matched_with < 0
        if not free.any():
            break
        # jitter weights so argmax tie-breaking varies per round
        # (in place: data + rng.random(nnz) * 1e-6, bit for bit)
        w = rng.random(len(data))
        w *= 1e-6
        w += data
        if round_:  # only free neighbours are eligible
            w[~free[indices]] = -np.inf
        choice = _rowwise_argmax_neighbor(indptr, indices, w, deg, nonempty)
        # a nomination is valid only from a free node to a free node
        choice[~free] = -1
        valid = choice >= 0
        mutual = np.zeros(n, dtype=bool)
        idx = np.flatnonzero(valid)
        mutual[idx] = choice[choice[idx]] == idx
        pair = np.flatnonzero(mutual & (choice > np.arange(n)))
        matched_with[pair] = choice[pair]
        matched_with[choice[pair]] = pair

    # Mutual matching leaves most of a *dense* power-law graph unmatched
    # (everyone nominates the same hubs), so finish with a sequential
    # greedy pass: visit remaining free nodes in random order, match each
    # with its heaviest still-free neighbour.
    _greedy_matching(adj, matched_with, rng.permutation(np.flatnonzero(matched_with < 0)))

    # canonical representative = min(v, match(v)); vectorized relabel
    rep = np.where(matched_with >= 0, np.minimum(np.arange(n), matched_with), np.arange(n))
    uniq, mapping = np.unique(rep, return_inverse=True)
    return mapping.astype(np.int64), len(uniq)


def _rowwise_argmax_neighbor(
    indptr: np.ndarray,
    indices: np.ndarray,
    w: np.ndarray,
    deg: np.ndarray,
    nonempty: np.ndarray,
) -> np.ndarray:
    """For each row, a neighbour of maximum finite weight (-1 if none).

    ``w`` is -inf at ineligible entries; ``nonempty`` lists the rows
    with ``deg > 0``.  Ties go to the last maximal entry of the row.
    """
    n = len(indptr) - 1
    out = np.full(n, -1, dtype=np.int64)
    if len(nonempty) == 0:
        return out
    rowmax = np.full(n, -np.inf)
    rowmax[nonempty] = np.maximum.reduceat(w, indptr[nonempty])
    cand = np.flatnonzero(w == np.repeat(rowmax, deg))
    out[np.searchsorted(indptr, cand, side="right") - 1] = indices[cand]
    out[rowmax == -np.inf] = -1  # every neighbour ineligible
    return out


def _greedy_matching(
    adj: sp.csr_matrix, matched_with: np.ndarray, visits: np.ndarray
) -> None:
    """Sequential greedy matching, in place: each free node of ``visits``,
    in order, takes its first heaviest still-free neighbour (CSR order).

    Visits run in chunks.  One numpy pass computes every visitor's pick
    against the free set at chunk start; the chunk is then walked in
    order.  Nodes only ever go from free to taken, so a pick that is
    still free when its visitor comes up is the sequential pick too; a
    pick taken earlier in the same chunk is recomputed for that node.
    """
    indptr, indices, data = adj.indptr, adj.indices, adj.data
    free = matched_with < 0
    isolated = np.diff(indptr) == 0
    for lo in range(0, len(visits), _GREEDY_CHUNK):
        chunk = visits[lo : lo + _GREEDY_CHUNK]
        chunk = chunk[free[chunk] & ~isolated[chunk]]
        picks = _first_heaviest_free(indptr, indices, data, free, chunk)
        for v, u in zip(chunk.tolist(), picks.tolist()):
            if u < 0 or not free[v]:
                continue
            if not free[u]:
                a, b = indptr[v], indptr[v + 1]
                nbrs = indices[a:b]
                ok = free[nbrs]
                if not ok.any():
                    continue
                u = int(nbrs[ok][np.argmax(data[a:b][ok])])
            free[v] = free[u] = False
            matched_with[v] = u
            matched_with[u] = v


def _first_heaviest_free(
    indptr: np.ndarray,
    indices: np.ndarray,
    data: np.ndarray,
    free: np.ndarray,
    rows: np.ndarray,
) -> np.ndarray:
    """For each of the non-empty ``rows``, its first maximum-weight free
    neighbour in CSR order (-1 if none is free)."""
    picks = np.full(len(rows), -1, dtype=np.int64)
    if len(rows) == 0:
        return picks
    pos, deg = _row_positions(indptr, rows)
    nbrs = indices[pos]
    ok = free[nbrs]
    w = np.where(ok, data[pos], -np.inf)
    starts = np.cumsum(deg) - deg
    hit = w == np.repeat(np.maximum.reduceat(w, starts), deg)
    hit &= ok
    hit = np.flatnonzero(hit)
    # hits are in row order: keep the first of each row's run
    row = np.searchsorted(starts, hit, side="right") - 1
    first = _run_heads(row)
    picks[row[first]] = nbrs[hit[first]]
    return picks


def _row_positions(indptr: np.ndarray, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Positions in the CSR arrays of ``rows``' entries, row after row,
    and each row's entry count."""
    lo = indptr[rows].astype(np.int64)
    deg = indptr[rows + 1] - lo
    ends = np.cumsum(deg)
    total = int(ends[-1]) if len(ends) else 0
    return np.arange(total) + np.repeat(lo - (ends - deg), deg), deg


def _contract(
    adj: sp.csr_matrix, node_w: np.ndarray, mapping: np.ndarray, n_coarse: int
) -> tuple[sp.csr_matrix, np.ndarray]:
    """Collapse matched pairs; edge weights between coarse nodes are summed."""
    coarse = _coalesce(
        np.repeat(mapping, np.diff(adj.indptr)), mapping[adj.indices], n_coarse, adj.data
    )
    coarse_w = np.bincount(mapping, weights=node_w, minlength=n_coarse).astype(np.int64)
    return coarse, coarse_w


def _greedy_growing(
    adj: sp.csr_matrix,
    node_w: np.ndarray,
    num_parts: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Initial partition: BFS-grow regions from random seeds up to the ideal weight."""
    n = adj.shape[0]
    total = int(node_w.sum())
    ideal = total / num_parts
    assignment = np.full(n, -1, dtype=np.int64)
    indptr, indices = adj.indptr, adj.indices

    order = rng.permutation(n)
    cursor = 0

    def next_seed() -> int:
        nonlocal cursor
        while cursor < n and assignment[order[cursor]] >= 0:
            cursor += 1
        return int(order[cursor]) if cursor < n else -1

    for part in range(num_parts - 1):
        frontier: list[int] = []
        weight = 0
        while weight < ideal:
            if not frontier:
                seed = next_seed()  # jump components when the BFS dries up
                if seed < 0:
                    break
                frontier.append(seed)
            v = frontier.pop()
            if assignment[v] >= 0:
                continue
            assignment[v] = part
            weight += int(node_w[v])
            for u in indices[indptr[v] : indptr[v + 1]]:
                if assignment[u] < 0:
                    frontier.append(int(u))
    assignment[assignment < 0] = num_parts - 1
    return assignment


def _refine(
    adj: sp.csr_matrix,
    node_w: np.ndarray,
    assignment: np.ndarray,
    num_parts: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Balance-constrained boundary refinement.

    Each pass reads, for every node, its connectivity to every part,
    then greedily moves positive-gain boundary nodes in random order
    while keeping every part under the balance cap.  Severely
    overweight parts are also drained by moving their best boundary
    nodes out even at zero/negative gain.  The connectivity is built
    once and then updated from the moved nodes' rows alone.
    """
    n, k = adj.shape[0], num_parts
    indptr, indices, data = adj.indptr, adj.indices, adj.data
    assignment = assignment.copy()
    total = float(node_w.sum())
    cap = IMBALANCE * total / num_parts
    nodes = np.arange(n)
    conn = adj @ np.eye(k)[assignment]  # n x k connectivity weight

    for _ in range(REFINE_PASSES):
        own = conn[nodes, assignment]
        conn_other = conn.copy()
        conn_other[nodes, assignment] = -np.inf
        best_part = np.argmax(conn_other, axis=1)
        best = conn_other[nodes, best_part]
        gain = best - own

        before = assignment.copy()
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
        # rebalance overweight parts regardless of gain: prefer the
        # best-connected target, fall back to the lightest part
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
        if moved == 0:
            break  # no progress is possible; avoid spinning
        # each moved node's weight leaves its old part and joins its new
        # one in every neighbour's row (adjacency is symmetric)
        changed = np.flatnonzero(assignment != before)
        pos, deg = _row_positions(indptr, changed)
        nbr_k = indices[pos].astype(np.int64) * k
        w = data[pos]
        conn += np.bincount(
            np.concatenate([nbr_k + np.repeat(assignment[changed], deg),
                            nbr_k + np.repeat(before[changed], deg)]),
            weights=np.concatenate([w, -w]),
            minlength=n * k,
        ).reshape(n, k)
    return assignment
