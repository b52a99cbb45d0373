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
    slack: float = 1.05,
) -> Partition:
    """Linear Deterministic Greedy streaming partitioning.

    One pass over the nodes (random order): each node joins the part
    holding most of its already-placed neighbours, discounted by how
    full the part is — ``score = |N(v) in part| * (1 - size/capacity)``
    [Stanton & Kluot, KDD'12].  Far cheaper than multilevel partitioning
    (a single pass, no coarsening) at somewhat worse cut quality; the
    practical choice when the graph itself arrives as a stream.
    """
    if num_parts <= 0:
        raise PartitionError("num_parts must be positive")
    if num_parts > graph.num_nodes:
        raise PartitionError("more parts than nodes")
    rng = make_rng(rng)
    n = graph.num_nodes
    capacity = slack * n / num_parts
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
def metis_partition(
    graph: CSRGraph,
    num_parts: int,
    rng: np.random.Generator | int | None = None,
    imbalance: float = 1.05,
    coarsest_size: int | None = None,
    refine_passes: int = 8,
) -> Partition:
    """METIS-like multilevel k-way partitioning.

    Minimizes the edge cut subject to ``max part weight <= imbalance *
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
    if coarsest_size is None:
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
    assignment = _refine(adj, node_w, assignment, num_parts, imbalance, refine_passes, rng)

    # ---- uncoarsening + refinement ---------------------------------------
    for fine_adj, fine_w, mapping in reversed(levels):
        assignment = assignment[mapping]
        assignment = _refine(
            fine_adj, fine_w, assignment, num_parts, imbalance, refine_passes, rng
        )

    return Partition(assignment, num_parts)


def _symmetrized_adjacency(graph: CSRGraph) -> sp.csr_matrix:
    """Undirected weighted adjacency: weight = #directed edges between the pair."""
    n = graph.num_nodes
    # scipy indexes with int32 whenever the shape allows; building the
    # COO in that dtype saves it an int64 copy of every index
    idx = np.int32 if n <= np.iinfo(np.int32).max else np.int64
    dst = np.repeat(np.arange(n, dtype=idx), graph.degrees)
    src = graph.indices.astype(idx)
    keep = dst != src  # self-loops carry no cut weight
    dst, src = dst[keep], src[keep]
    # both directions in one COO; tocsr() sums the duplicates, so each
    # pair's weight counts its edges either way — the entries of
    # A + A.T with the diagonal dropped
    rows = np.concatenate([dst, src])
    cols = np.concatenate([src, dst])
    del dst, src, keep
    data = np.ones(len(rows), dtype=np.float64)
    a = sp.coo_matrix((data, (rows, cols)), shape=(n, n)).tocsr()
    # summing duplicates leaves views into the pre-sum buffers; the
    # copy frees them before coarsening, which holds every level
    return a.copy()


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

    for _ in range(2):
        free = matched_with < 0
        if not free.any():
            break
        # jitter weights so argmax tie-breaking varies per round
        jitter = rng.random(len(data)) * 1e-6
        choice = _rowwise_argmax_neighbor(
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

    # Mutual matching leaves most of a *dense* power-law graph unmatched
    # (everyone nominates the same hubs), so finish with a sequential
    # greedy pass: visit remaining free nodes in random order, match each
    # with its heaviest still-free neighbour.
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

    # canonical representative = min(v, match(v)); vectorized relabel
    rep = np.where(matched_with >= 0, np.minimum(np.arange(n), matched_with), np.arange(n))
    uniq, mapping = np.unique(rep, return_inverse=True)
    return mapping.astype(np.int64), len(uniq)


def _rowwise_argmax_neighbor(
    indptr: np.ndarray,
    indices: np.ndarray,
    data: np.ndarray,
    eligible: np.ndarray,
) -> np.ndarray:
    """For each row, the eligible neighbour with maximum weight (-1 if none)."""
    n = len(indptr) - 1
    out = np.full(n, -1, dtype=np.int64)
    w = np.where(eligible[indices], data, -np.inf)
    deg = np.diff(indptr)
    nonempty = np.flatnonzero(deg > 0)
    if len(nonempty) == 0:
        return out
    # O(nnz) row maxima via reduceat, then scatter any position attaining
    # the row max (ties are equivalent for matching purposes).
    rowmax = np.full(n, -np.inf)
    rowmax[nonempty] = np.maximum.reduceat(w, indptr[nonempty])
    row_of = np.repeat(np.arange(n, dtype=np.int64), deg)
    cand = np.flatnonzero(np.isfinite(w) & (w == rowmax[row_of]))
    out[row_of[cand]] = indices[cand]
    return out


def _contract(
    adj: sp.csr_matrix, node_w: np.ndarray, mapping: np.ndarray, n_coarse: int
) -> tuple[sp.csr_matrix, np.ndarray]:
    """Collapse matched pairs; edge weights between coarse nodes are summed."""
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
    imbalance: float,
    passes: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Balance-constrained boundary refinement.

    Each pass computes, for every node, its connectivity to every part
    (one sparse matmul), then greedily moves positive-gain boundary
    nodes in random order while keeping every part under the balance
    cap.  Severely overweight parts are also drained by moving their
    best boundary nodes out even at zero/negative gain.
    """
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
        if moved == 0 and (part_w <= cap).all():
            break
        if moved == 0:
            break  # no progress is possible; avoid spinning
    return assignment
