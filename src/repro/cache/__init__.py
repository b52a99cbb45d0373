"""Feature caching and loading.

Node feature vectors dominate the data volume of GNN training (Table 3:
up to 67 GB), so where they live decides the epoch time.  This package
implements the placement policies the paper compares:

- :class:`~repro.cache.store.PartitionedCache` — DSP's design (§3.1):
  every GPU caches a *different* set of hot vectors (the hottest nodes
  of its own graph patch), so the aggregate NVLink-reachable cache is
  ``num_gpus`` times larger than any single GPU's budget.
- :class:`~repro.cache.store.ReplicatedCache` — Quiver's design: all
  GPUs cache the same globally hottest vectors; hits are local but the
  aggregate cache is only one GPU's budget.
- :class:`~repro.cache.store.NoCache` — DGL-UVA: everything in host
  memory, fetched via UVA.

Hot-node ranking criteria (§2, "Feature caching"): in-degree (DSP's
default), PageRank, reverse PageRank, plus a random control.

:class:`~repro.cache.loader.FeatureLoader` performs the per-mini-batch
fetch: deduplicate requests, serve cached vectors with an NVLink
all-to-all (or local gather), serve cold vectors via UVA, and run the
two paths in parallel since they use different links (§3.2).

Two opt-in layers ride on top (``docs/caching.md``):

- :class:`~repro.cache.dynamic.DynamicCachePolicy` — access-frequency
  promotion/demotion of the partitioned cache (EWMA over window
  request counts, workload-history warmup, frontier prefetch);
- :mod:`repro.cache.codec` — cold-path feature compression: non-local
  rows travel fp16/int8-compressed and decode on arrival.
"""

from repro.cache.codec import CODECS, FeatureCodec, get_codec
from repro.cache.dynamic import DynamicCacheConfig, DynamicCachePolicy
from repro.cache.policies import (
    HOT_POLICIES,
    rank_by_degree,
    rank_by_pagerank,
    rank_by_reverse_pagerank,
    rank_random,
)
from repro.cache.store import (
    CacheStore,
    NoCache,
    PartitionedCache,
    ReplicatedCache,
)
from repro.cache.loader import FeatureLoader, HostGatherLoader

__all__ = [
    "CODECS",
    "DynamicCacheConfig",
    "DynamicCachePolicy",
    "FeatureCodec",
    "get_codec",
    "HOT_POLICIES",
    "rank_by_degree",
    "rank_by_pagerank",
    "rank_by_reverse_pagerank",
    "rank_random",
    "CacheStore",
    "NoCache",
    "PartitionedCache",
    "ReplicatedCache",
    "FeatureLoader",
    "HostGatherLoader",
]
