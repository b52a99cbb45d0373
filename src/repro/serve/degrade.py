"""Graceful degradation for serving: cache-peer loss failover.

DSP's feature cache is *partitioned* (§3.1): each GPU holds a distinct
shard, so losing a peer takes its shard with it — requests that would
have been served over NVLink must fail over to the UVA cold path
(host memory over PCIe), exactly like a cold miss.  Functionally
nothing changes (host memory still has every row); only placement and
therefore timing degrade.

:class:`DegradedStore` wraps any :class:`~repro.cache.store.CacheStore`
and reclassifies entries held by lost peers as COLD.
:func:`degraded_loader` builds a failover
:class:`~repro.cache.loader.FeatureLoader` over it — with the plan
cache disabled, because memoized placement plans do not encode which
peers are alive.
"""

from __future__ import annotations

import numpy as np

from repro.cache.loader import FeatureLoader
from repro.cache.store import CacheStore, Location, Placement


class DegradedStore(CacheStore):
    """A cache store view with some peers' shards gone.

    Entries whose holder is in ``lost`` (including the requesting GPU
    itself) answer COLD, so the loader routes them over UVA.
    """

    def __init__(self, store: CacheStore, lost):
        self.store = store
        self.lost = frozenset(lost)
        self.num_gpus = store.num_gpus

    def locate(self, nodes: np.ndarray, gpu: int) -> Location:
        loc = self.store.locate(nodes, gpu)
        if not self.lost:
            return loc
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


def degraded_loader(system, lost) -> FeatureLoader | None:
    """A failover loader for ``system`` with ``lost`` cache peers.

    Returns ``None`` when there is nothing to degrade: the system has
    no GPU cache store (host-gather baselines), nothing was lost, or
    the lost peers held no cached rows (e.g. DGL-UVA's ``NoCache`` —
    those systems are *immune* to cache-peer loss).  Callers keep
    using the system's own load path then.
    """
    base = getattr(system, "loader", None)
    store = getattr(base, "store", None)
    if store is None or not lost:
        return None
    if not any(len(store.cached_nodes(g)) for g in lost):
        return None
    return FeatureLoader(base.features, DegradedStore(store, lost))


__all__ = ["DegradedStore", "degraded_loader"]
