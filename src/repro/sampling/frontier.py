"""Mini-batch sample structures.

A graph sample for a K-layer GNN (paper §2, Fig 3) is a sequence of
*blocks*, one per layer.  A block is the bipartite graph between the
layer's frontier nodes (``dst``) and their sampled neighbours
(``src``): block 0 has the seed nodes as ``dst``; block ``k + 1``'s
``dst`` is everything that appeared in block ``k``.

All node ids are global ids — the paper stores global ids in adjacency
lists precisely so sampled output can be reused directly as the next
frontier and for feature fetching (§6).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from repro.utils.errors import ReproError


@dataclass(frozen=True)
class Block:
    """One sampled layer: ``dst_nodes[i]`` drew ``src_of(i)`` as neighbours."""

    dst_nodes: np.ndarray  # int64[n_dst], global ids, unique
    src_nodes: np.ndarray  # int64[total_sampled], concatenated per dst
    offsets: np.ndarray  # int64[n_dst + 1] into src_nodes

    def __post_init__(self) -> None:
        if len(self.offsets) != len(self.dst_nodes) + 1:
            raise ReproError("offsets must have n_dst + 1 entries")
        if self.offsets[0] != 0 or self.offsets[-1] != len(self.src_nodes):
            raise ReproError("offsets must span src_nodes exactly")
        if np.any(np.diff(self.offsets) < 0):
            raise ReproError("offsets must be non-decreasing")

    @property
    def num_dst(self) -> int:
        return len(self.dst_nodes)

    @property
    def num_edges(self) -> int:
        return len(self.src_nodes)

    def src_of(self, i: int) -> np.ndarray:
        """Sampled neighbours of the i-th dst node."""
        return self.src_nodes[self.offsets[i] : self.offsets[i + 1]]

    @cached_property
    def all_nodes(self) -> np.ndarray:
        """Unique global ids appearing anywhere in the block."""
        return np.unique(np.concatenate([self.dst_nodes, self.src_nodes]))

    @cached_property
    def local_index(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(dst row, edge src row, edge dst segment) w.r.t. ``all_nodes``.

        The block in the row numbering a GNN layer aggregates over,
        computed once per block: one lookup table from global id to
        ``all_nodes`` row replaces a binary search per edge.
        """
        nodes = self.all_nodes
        lut = np.empty(int(nodes[-1]) + 1 if len(nodes) else 0, dtype=np.int64)
        lut[nodes] = np.arange(len(nodes), dtype=np.int64)
        seg = np.repeat(np.arange(self.num_dst, dtype=np.int64),
                        np.diff(self.offsets))
        return lut[self.dst_nodes], lut[self.src_nodes], seg

    @property
    def nbytes(self) -> int:
        """Wire size of the block structure (ids + offsets)."""
        return self.dst_nodes.nbytes + self.src_nodes.nbytes + self.offsets.nbytes


@dataclass(frozen=True)
class MiniBatchSample:
    """A complete graph sample: seeds plus one block per GNN layer.

    ``blocks[0]`` is the first sampling hop (seeds as dst);
    ``blocks[-1]`` is the deepest.  The GNN consumes them deepest-first.
    """

    seeds: np.ndarray
    blocks: tuple[Block, ...]

    def __post_init__(self) -> None:
        if not self.blocks:
            raise ReproError("a sample needs at least one block")
        if not np.array_equal(self.blocks[0].dst_nodes, np.asarray(self.seeds)):
            raise ReproError("block 0 dst must be the seed nodes")

    @property
    def num_layers(self) -> int:
        return len(self.blocks)

    @cached_property
    def all_nodes(self) -> np.ndarray:
        """Every node whose feature vector the loader must fetch.

        For the example of Fig 3(b) this is {A, B, C, E, G, H, K}: the
        union of all blocks' nodes (paper §3.2, Loader).
        """
        return np.unique(np.concatenate([b.all_nodes for b in self.blocks]))

    @property
    def total_sampled_edges(self) -> int:
        return sum(b.num_edges for b in self.blocks)

    @property
    def nbytes(self) -> int:
        return sum(b.nbytes for b in self.blocks) + np.asarray(self.seeds).nbytes


def next_frontier(block: Block) -> np.ndarray:
    """Frontier for the next layer: every node seen in this block.

    Including the dst nodes keeps self-information flowing through
    deeper layers (the GNN aggregates over N(v) *and* v, Eq. (1)).
    """
    return block.all_nodes
