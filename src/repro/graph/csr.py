"""Compressed sparse row graph storage.

DSP stores each graph patch in CSR format where every node records its
*in-neighbours* in the adjacency list to facilitate sampling (paper §6):
a GNN layer aggregates a node's embedding from the nodes that point at
it, so sampling "neighbours of v" means sampling from v's in-edges.

The structure is deliberately minimal and fully vectorized: two integer
arrays (``indptr`` / ``indices``) plus an optional per-edge weight array
used by biased sampling (§4.2, weights are stored alongside edges during
data preparation so sampling GPUs read them locally).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.utils.errors import ReproError


@dataclass(frozen=True)
class CSRGraph:
    """An immutable directed graph in CSR (in-neighbour) layout.

    Attributes
    ----------
    indptr:
        ``int64[num_nodes + 1]``; the adjacency list of node ``v`` is
        ``indices[indptr[v]:indptr[v + 1]]``.
    indices:
        ``int64[num_edges]`` neighbour ids.  Ids are *global* node ids —
        the paper stores global ids in adjacency lists to avoid id
        conversion for sampled nodes (§6) and we do the same.
    edge_weights:
        Optional ``float32[num_edges]`` non-negative weights used by
        biased sampling.  ``None`` means unweighted (unbiased sampling).
    """

    indptr: np.ndarray
    indices: np.ndarray
    edge_weights: np.ndarray | None = None

    def __post_init__(self) -> None:
        indptr = np.ascontiguousarray(self.indptr, dtype=np.int64)
        indices = np.ascontiguousarray(self.indices, dtype=np.int64)
        object.__setattr__(self, "indptr", indptr)
        object.__setattr__(self, "indices", indices)
        if indptr.ndim != 1 or indices.ndim != 1:
            raise ReproError("indptr and indices must be 1-D arrays")
        if len(indptr) == 0 or indptr[0] != 0:
            raise ReproError("indptr must start with 0")
        if indptr[-1] != len(indices):
            raise ReproError(
                f"indptr[-1]={indptr[-1]} does not match len(indices)={len(indices)}"
            )
        if np.any(np.diff(indptr) < 0):
            raise ReproError("indptr must be non-decreasing")
        if self.edge_weights is not None:
            w = np.ascontiguousarray(self.edge_weights, dtype=np.float32)
            object.__setattr__(self, "edge_weights", w)
            if w.shape != indices.shape:
                raise ReproError("edge_weights must have one entry per edge")
            if np.any(w < 0):
                raise ReproError("edge weights must be non-negative")

    # ------------------------------------------------------------------
    # basic properties
    # ------------------------------------------------------------------
    @property
    def num_nodes(self) -> int:
        return len(self.indptr) - 1

    @property
    def num_edges(self) -> int:
        return len(self.indices)

    @property
    def degrees(self) -> np.ndarray:
        """In-degree of every node, ``int64[num_nodes]``."""
        return np.diff(self.indptr)

    @property
    def average_degree(self) -> float:
        return self.num_edges / max(self.num_nodes, 1)

    def neighbors(self, v: int) -> np.ndarray:
        """The in-neighbour list of node ``v`` (a view, do not mutate)."""
        return self.indices[self.indptr[v] : self.indptr[v + 1]]

    def neighbor_weights(self, v: int) -> np.ndarray | None:
        if self.edge_weights is None:
            return None
        return self.edge_weights[self.indptr[v] : self.indptr[v + 1]]

    @property
    def topology_nbytes(self) -> int:
        """Bytes needed to store the topology (what sits in GPU memory)."""
        n = self.indptr.nbytes + self.indices.nbytes
        if self.edge_weights is not None:
            n += self.edge_weights.nbytes
        return n

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_edges(
        cls,
        src: np.ndarray,
        dst: np.ndarray,
        num_nodes: int,
        edge_weights: np.ndarray | None = None,
        dedup: bool = True,
    ) -> "CSRGraph":
        """Build the in-neighbour CSR from a directed edge list.

        An edge ``(src[i], dst[i])`` makes ``src[i]`` an in-neighbour of
        ``dst[i]``, i.e. it lands in ``dst[i]``'s adjacency list.
        Self-loops are kept; parallel edges are removed when ``dedup``.
        """
        src = np.asarray(src, dtype=np.int64)
        dst = np.asarray(dst, dtype=np.int64)
        if src.shape != dst.shape:
            raise ReproError("src and dst must have the same length")
        if len(src) and (src.min() < 0 or dst.min() < 0):
            raise ReproError("node ids must be non-negative")
        if len(src) and max(src.max(), dst.max()) >= num_nodes:
            raise ReproError("edge endpoint exceeds num_nodes")

        if dedup and len(src):
            # unique (dst, src) pairs; keeps first weight for duplicates
            key = dst * np.int64(num_nodes) + src
            _, keep = np.unique(key, return_index=True)
            keep.sort()
            src, dst = src[keep], dst[keep]
            if edge_weights is not None:
                edge_weights = np.asarray(edge_weights)[keep]

        order = np.argsort(dst, kind="stable")
        src, dst = src[order], dst[order]
        if edge_weights is not None:
            edge_weights = np.asarray(edge_weights, dtype=np.float32)[order]
        counts = np.bincount(dst, minlength=num_nodes)
        indptr = np.zeros(num_nodes + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        return cls(indptr=indptr, indices=src, edge_weights=edge_weights)

    def with_weights(self, weights: np.ndarray) -> "CSRGraph":
        """Return a copy of this graph with the given per-edge weights."""
        return CSRGraph(self.indptr, self.indices, weights)

    def with_node_weights(self, node_weights: np.ndarray) -> "CSRGraph":
        """Attach per-*node* weights by expanding them onto edges.

        Biased sampling draws neighbour ``u`` of ``v`` with probability
        proportional to ``w_u`` (§4.2).  DSP materializes ``w_u`` on the
        edge ``e_{v,u}`` so weights are local to the sampling GPU; this
        helper performs that materialization.
        """
        node_weights = np.asarray(node_weights, dtype=np.float32)
        if node_weights.shape != (self.num_nodes,):
            raise ReproError("need one weight per node")
        return self.with_weights(node_weights[self.indices])

    # ------------------------------------------------------------------
    # transforms
    # ------------------------------------------------------------------
    def reverse(self) -> "CSRGraph":
        """Reverse every edge (in-neighbour CSR becomes out-neighbour CSR)."""
        dst = np.repeat(np.arange(self.num_nodes, dtype=np.int64), self.degrees)
        return CSRGraph.from_edges(
            src=dst,
            dst=self.indices,
            num_nodes=self.num_nodes,
            edge_weights=self.edge_weights,
            dedup=False,
        )

    def induced_subgraph(self, nodes: np.ndarray) -> tuple["CSRGraph", np.ndarray]:
        """Subgraph induced by ``nodes``; returns (subgraph, old ids).

        Node ``i`` of the subgraph corresponds to ``nodes[i]``.  Edges
        whose endpoint falls outside ``nodes`` are dropped; each kept
        node's neighbours stay in their order.
        """
        nodes = np.unique(np.asarray(nodes, dtype=np.int64))
        remap = np.full(self.num_nodes, -1, dtype=np.int64)
        remap[nodes] = np.arange(len(nodes))
        # only the kept rows are read: O(their edges), no sort
        pos, deg = _row_positions(self.indptr, nodes)
        cols = remap[self.indices[pos]]
        keep = cols >= 0
        kept = np.zeros(len(keep) + 1, dtype=np.int64)
        np.cumsum(keep, out=kept[1:])
        ends = np.zeros(len(nodes) + 1, dtype=np.int64)
        np.cumsum(deg, out=ends[1:])
        w = None if self.edge_weights is None else self.edge_weights[pos[keep]]
        return CSRGraph(kept[ends], cols[keep], w), nodes

    def permute(self, perm: np.ndarray) -> "CSRGraph":
        """Renumber nodes: new id of old node ``v`` is ``perm[v]``.

        Row ``perm[v]`` of the result is old row ``v``, neighbours in
        their order.
        """
        perm = np.asarray(perm, dtype=np.int64)
        if perm.shape != (self.num_nodes,):
            raise ReproError("perm must be a permutation of all node ids")
        check = np.zeros(self.num_nodes, dtype=bool)
        check[perm] = True
        if not check.all():
            raise ReproError("perm must be a permutation of all node ids")
        old = np.empty_like(perm)
        old[perm] = np.arange(self.num_nodes)
        pos, deg = _row_positions(self.indptr, old)
        indptr = np.zeros(self.num_nodes + 1, dtype=np.int64)
        np.cumsum(deg, out=indptr[1:])
        w = None if self.edge_weights is None else self.edge_weights[pos]
        return CSRGraph(indptr, perm[self.indices[pos]], w)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        w = "weighted" if self.edge_weights is not None else "unweighted"
        return (
            f"CSRGraph(nodes={self.num_nodes}, edges={self.num_edges}, "
            f"avg_degree={self.average_degree:.1f}, {w})"
        )


def _row_positions(indptr: np.ndarray, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Positions in the CSR arrays of ``rows``' entries, row after row,
    and each row's entry count."""
    lo = indptr[rows].astype(np.int64)
    deg = indptr[rows + 1] - lo
    ends = np.cumsum(deg)
    total = int(ends[-1]) if len(ends) else 0
    return np.arange(total) + np.repeat(lo - (ends - deg), deg), deg
