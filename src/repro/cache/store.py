"""Cache stores: who holds which feature vector.

A store answers one vectorized query, :meth:`CacheStore.locate`: for a
batch of node ids and a requesting GPU, classify each id as

- ``LOCAL``  — cached on the requesting GPU itself,
- ``REMOTE`` — cached on another GPU (reachable over NVLink; the store
  also reports which GPU), or
- ``COLD``   — only in host memory (UVA over PCIe).

The classification is exactly the paper's per-GPU *feature position
list* (§6), just batched.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum

import numpy as np

from repro.utils.errors import ConfigError


class Placement(IntEnum):
    LOCAL = 0
    REMOTE = 1
    COLD = 2


@dataclass(frozen=True)
class Location:
    """Vectorized placement answer for one request batch."""

    placement: np.ndarray  # Placement[num_requested]
    holder: np.ndarray  # gpu id for LOCAL/REMOTE entries, -1 for COLD

    def count(self, p: Placement) -> int:
        return int(np.count_nonzero(self.placement == p))


class CacheStore:
    """Interface: subclasses decide placement of every node's feature."""

    num_gpus: int

    def locate(self, nodes: np.ndarray, gpu: int) -> Location:
        raise NotImplementedError

    def cached_nodes(self, gpu: int) -> np.ndarray:
        """Global ids cached on ``gpu`` (for memory accounting)."""
        raise NotImplementedError

    def cache_nbytes(
        self, gpu: int, feature_dim: int, bytes_per_elem: float = 4.0
    ) -> int:
        """Device bytes the cache occupies on ``gpu``.

        ``bytes_per_elem`` parameterizes the stored precision so
        quantized caches (fp16/int8 residency) account memory
        correctly; the default matches float32 storage.
        """
        if bytes_per_elem <= 0:
            raise ConfigError("bytes_per_elem must be positive")
        return int(
            round(len(self.cached_nodes(gpu)) * feature_dim * bytes_per_elem)
        )


class PartitionedCache(CacheStore):
    """DSP's partitioned cache (§3.1).

    Each GPU caches the hottest nodes *of its own graph patch*, up to
    ``budget_nodes`` per GPU.  Different GPUs therefore cache different
    vectors and the aggregate cache grows with the GPU count, all of it
    reachable over NVLink.
    """

    def __init__(
        self,
        part_offsets: np.ndarray,
        hot_order: np.ndarray,
        budget_nodes: int,
    ):
        part_offsets = np.asarray(part_offsets, dtype=np.int64)
        self.part_offsets = part_offsets
        self.num_gpus = len(part_offsets) - 1
        num_nodes = int(part_offsets[-1])
        if budget_nodes < 0:
            raise ConfigError("budget must be non-negative")
        if len(hot_order) != num_nodes:
            raise ConfigError("hot_order must rank every node")

        # per-part hotness rank: position of each node in the global
        # hot order, then per part keep the budget_nodes best
        rank = np.empty(num_nodes, dtype=np.int64)
        rank[hot_order] = np.arange(num_nodes)
        #: layout-time hotness rank (lower = hotter); the dynamic cache
        #: policy uses it as the deterministic tie-break
        self.rank = rank
        self.budget_nodes = int(budget_nodes)
        self.cached = np.zeros(num_nodes, dtype=bool)
        for g in range(self.num_gpus):
            lo, hi = part_offsets[g], part_offsets[g + 1]
            local = np.arange(lo, hi)
            take = min(budget_nodes, len(local))
            if take > 0:
                best = local[np.argsort(rank[lo:hi], kind="stable")[:take]]
                self.cached[best] = True
        self.owner = (
            np.searchsorted(part_offsets, np.arange(num_nodes), side="right") - 1
        )

    def locate(self, nodes: np.ndarray, gpu: int) -> Location:
        nodes = np.asarray(nodes, dtype=np.int64)
        cached = self.cached[nodes]
        holder = np.where(cached, self.owner[nodes], -1)
        placement = np.full(len(nodes), Placement.COLD, dtype=np.int64)
        placement[cached & (holder == gpu)] = Placement.LOCAL
        placement[cached & (holder != gpu)] = Placement.REMOTE
        return Location(placement, holder)

    def cached_nodes(self, gpu: int) -> np.ndarray:
        lo, hi = self.part_offsets[gpu], self.part_offsets[gpu + 1]
        return np.flatnonzero(self.cached[lo:hi]) + lo

    @property
    def total_cached(self) -> int:
        return int(self.cached.sum())


class ReplicatedCache(CacheStore):
    """Quiver-style replicated cache: same hot set on every GPU.

    Hits are always local; the aggregate distinct cache is one GPU's
    budget regardless of the GPU count.
    """

    def __init__(self, num_nodes: int, num_gpus: int, hot_order: np.ndarray,
                 budget_nodes: int):
        if budget_nodes < 0:
            raise ConfigError("budget must be non-negative")
        if len(hot_order) != num_nodes:
            raise ConfigError("hot_order must rank every node")
        self.num_gpus = num_gpus
        self.cached = np.zeros(num_nodes, dtype=bool)
        self.cached[hot_order[:budget_nodes]] = True

    def locate(self, nodes: np.ndarray, gpu: int) -> Location:
        nodes = np.asarray(nodes, dtype=np.int64)
        cached = self.cached[nodes]
        placement = np.where(cached, Placement.LOCAL, Placement.COLD).astype(np.int64)
        holder = np.where(cached, gpu, -1)
        return Location(placement, holder)

    def cached_nodes(self, gpu: int) -> np.ndarray:
        return np.flatnonzero(self.cached)

    @property
    def total_cached(self) -> int:
        return int(self.cached.sum())


class NoCache(CacheStore):
    """DGL-UVA: every feature vector is cold (host memory only)."""

    def __init__(self, num_nodes: int, num_gpus: int):
        self.num_nodes = num_nodes
        self.num_gpus = num_gpus

    def locate(self, nodes: np.ndarray, gpu: int) -> Location:
        nodes = np.asarray(nodes, dtype=np.int64)
        return Location(
            np.full(len(nodes), Placement.COLD, dtype=np.int64),
            np.full(len(nodes), -1, dtype=np.int64),
        )

    def cached_nodes(self, gpu: int) -> np.ndarray:
        return np.empty(0, dtype=np.int64)


class DegradedStore(CacheStore):
    """A cache store view with some peers' shards gone.

    DSP's cache is partitioned (§3.1), so a lost peer takes its shard
    with it.  Entries whose holder is in ``lost`` (the requesting GPU
    itself included) answer COLD: host memory still has every row, so
    they fail over to UVA and only timing degrades.
    """

    def __init__(self, store: CacheStore, lost):
        self.store = store
        self.lost = frozenset(lost)
        self.num_gpus = store.num_gpus

    def locate(self, nodes: np.ndarray, gpu: int) -> Location:
        loc = self.store.locate(nodes, gpu)
        dead = np.isin(loc.holder, np.fromiter(self.lost, dtype=np.int64))
        if not dead.any():
            return loc
        placement = loc.placement.copy()
        holder = loc.holder.copy()
        placement[dead] = Placement.COLD
        holder[dead] = -1
        return Location(placement, holder)

    def cached_nodes(self, gpu: int) -> np.ndarray:
        if gpu in self.lost:
            return np.empty(0, dtype=np.int64)
        return self.store.cached_nodes(gpu)
