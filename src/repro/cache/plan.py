"""Feature-path plan caching: memoized placement plans per frontier block.

For a fixed cache store, everything :meth:`FeatureLoader.load` computes
besides the feature gather itself is a pure function of the pair
``(requesting gpu, request array)``: the deduplicated node list, the
local/remote/cold split and the per-holder remote-hit counts that seed
the all-to-all byte matrices.  Serving workloads repeat those inputs
constantly — Zipf-popular seeds produce the same frontier blocks batch
after batch, and every point of a QPS sweep replays the same workload
against a re-seeded sampler — so the plan can be cached and the
``unique``/``locate``/``bincount`` replanning skipped (the static-cache
planner idea of PaGraph/GNNLab, amortized across batches).

Keys are the *interned identity* of the frontier block: the raw little-
endian bytes of the int64 request array plus the requesting GPU.  Two
byte-identical requests share a plan; anything else misses.  The cache
is LRU-bounded both by entry count and by payload bytes so training
epochs (which rarely repeat a block) cannot grow it without bound.

The cached plan is exactly the data the un-cached path computes, so
loader outputs are bit-identical with the cache on or off — that
equivalence is part of the test suite (``tests/cache/test_plan_cache``).
Plans are only valid for the placement they were computed against: when
a loader's store is swapped (replica failover, topology change), the
loader calls :meth:`PlanCache.invalidate` so stale plans keyed to the
old layout can never be served (``tests/cache/test_plan_invalidation``).
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from repro.utils.errors import ConfigError

__all__ = ["FeaturePlan", "PlanCache"]


@dataclass(frozen=True)
class FeaturePlan:
    """Placement plan for one (gpu, frontier block) pair.

    Everything ``FeatureLoader.load`` needs except the feature rows:
    the deduplicated node ids, the hot/cold split counts and the
    remote-hit count per holder GPU (one row of the k x k byte-matrix
    skeleton).
    """

    nodes: np.ndarray  # deduplicated, sorted request ids (read-only)
    n_local: int
    n_remote: int
    n_cold: int
    remote_row: np.ndarray  # remote hits per holder GPU [k], int64
    #: True where ``nodes`` is NOT local to the requesting GPU — the
    #: rows that travel a link and get the codec roundtrip.  Only
    #: computed (non-None) when the loader has a lossy codec attached.
    miss_mask: np.ndarray | None = None

    @property
    def nbytes(self) -> int:
        n = int(self.nodes.nbytes + self.remote_row.nbytes)
        if self.miss_mask is not None:
            n += int(self.miss_mask.nbytes)
        return n


class PlanCache:
    """LRU cache of :class:`FeaturePlan` keyed on frontier-block bytes."""

    def __init__(self, max_entries: int = 4096,
                 max_bytes: int = 64 * 1024 * 1024):
        if max_entries <= 0:
            raise ConfigError("max_entries must be positive")
        if max_bytes <= 0:
            raise ConfigError("max_bytes must be positive")
        self.max_entries = max_entries
        self.max_bytes = max_bytes
        self._plans: OrderedDict[tuple[int, bytes], FeaturePlan] = OrderedDict()
        self._costs: dict[tuple[int, bytes], int] = {}
        self._nbytes = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.invalidations = 0

    @staticmethod
    def key(gpu: int, request: np.ndarray) -> tuple[int, bytes]:
        """Interned identity of one frontier block: GPU + raw bytes."""
        return (gpu, request.tobytes())

    def lookup(self, key: tuple[int, bytes]) -> FeaturePlan | None:
        """The cached plan for ``key`` (touches LRU order), else None."""
        plan = self._plans.get(key)
        if plan is None:
            self.misses += 1
            return None
        self._plans.move_to_end(key)
        self.hits += 1
        return plan

    def store(self, key: tuple[int, bytes], plan: FeaturePlan) -> None:
        """Insert a freshly computed plan, evicting LRU entries to fit."""
        cost = plan.nbytes + len(key[1])
        if cost > self.max_bytes:
            return  # a single oversized block would evict everything
        if key in self._plans:  # duplicate insert: refresh in place
            del self._plans[key]
            self._nbytes -= self._costs.pop(key)
        self._plans[key] = plan
        self._costs[key] = cost
        self._nbytes += cost
        while (len(self._plans) > self.max_entries
               or self._nbytes > self.max_bytes):
            old_key, _ = self._plans.popitem(last=False)
            self._nbytes -= self._costs.pop(old_key)
            self.evictions += 1

    def clear(self) -> None:
        """Forget every plan (required after mutating the store)."""
        self._plans.clear()
        self._costs.clear()
        self._nbytes = 0

    def invalidate(self) -> None:
        """Placement changed: drop every plan and count the event.

        Called by :class:`~repro.cache.loader.FeatureLoader` whenever
        its store is rebound (replica failover, topology change) — a
        plan computed against the old layout would silently misroute
        the local/remote/cold split, so none may survive.  Counters
        other than ``invalidations`` are preserved: the cache keeps
        describing this run, it just starts cold again.
        """
        self.clear()
        self.invalidations += 1

    def reset(self) -> None:
        """Forget every plan AND zero the counters, returning the cache
        to its freshly-built state.  Used between serve runs so hit/miss
        accounting (and the metrics built on it) describes one run only,
        independent of which process previously used this cache."""
        self.clear()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.invalidations = 0

    def stats(self) -> dict:
        """Counters for the obs layer: hits, misses, hit rate, size."""
        total = self.hits + self.misses
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "invalidations": self.invalidations,
            "entries": len(self._plans),
            "nbytes": self._nbytes,
            "hit_rate": self.hits / total if total else 0.0,
        }

    def __len__(self) -> int:
        return len(self._plans)
