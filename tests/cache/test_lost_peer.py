"""A lost cache peer is an argument of the one load path.

``system._load(requests, lost={g})`` plans against a view of the store
in which GPU ``g``'s shard is gone, so its rows fail over to the cold
path.  Only placement may change: the codec (wire bytes, decode
kernel), the allocator stall and the dynamic-policy feed are the
fault-free load's.
"""

import dataclasses

import numpy as np
import pytest

from repro.cache import DynamicCacheConfig, DynamicCachePolicy, FeatureLoader
from repro.cache.store import PartitionedCache
from repro.core import SYSTEMS, RunConfig, build_system
from repro.sampling.ops import UVAGather

CFG = RunConfig(dataset="tiny", num_gpus=2, hidden_dim=16, batch_size=8,
                fanout=(5, 3), seed=4, feature_cache_bytes=3200,
                dynamic_cache=True, cache_window=2)

#: ops whose sizes follow the local / remote / cold split
PLACEMENT_OPS = {"feat-pos-req", "feat-hot", "feat-local", "feat-cold",
                 "feat-decode"}


def _requests(system, batches: int = 4):
    out = []
    for seeds in system._global_batches()[:batches]:
        samples, _ = system._sample(system._assign_seeds(seeds))
        out.append([s.all_nodes for s in samples])
    return out


def _assert_same_op(op, want):
    assert type(op) is type(want)
    for f in dataclasses.fields(op):
        np.testing.assert_array_equal(getattr(op, f.name),
                                      getattr(want, f.name), err_msg=f.name)


@pytest.mark.parametrize("codec", ["none", "fp16", "int8"])
@pytest.mark.parametrize("name", sorted(SYSTEMS))
def test_lost_peer_changes_only_placement(name, codec):
    cfg = CFG.with_(compress=codec)
    free, hurt = build_system(name, cfg), build_system(name, cfg)
    store = getattr(free.loader, "store", None)
    holds_rows = store is not None and len(store.cached_nodes(0)) > 0
    cold_free = cold_hurt = 0
    for reqs in _requests(free):
        feats, trace, stats = free._load(reqs)
        got_feats, got_trace, got_stats = hurt._load(reqs, lost=frozenset({0}))
        ops, got_ops = list(trace.flat_ops()), list(got_trace.flat_ops())
        assert [op.label for op in got_ops] == [op.label for op in ops]
        for op, want in zip(got_ops, ops):
            if op.label not in PLACEMENT_OPS:
                _assert_same_op(op, want)  # allocator, dynamic feed, host
            elif isinstance(op, UVAGather):
                assert op.item_bytes == want.item_bytes  # the codec's wire
        assert got_stats.keys() == stats.keys()
        assert got_stats.get("dynamic") == stats.get("dynamic")
        total = stats["local"] + stats["remote"] + stats["cold"]
        assert (got_stats["local"] + got_stats["remote"]
                + got_stats["cold"]) == total
        for a, b in zip(got_feats, feats):
            assert a.shape == b.shape
            if codec == "none":
                np.testing.assert_array_equal(a, b)
        if not holds_rows:
            assert got_stats == stats
        cold_free += stats["cold"]
        cold_hurt += got_stats["cold"]
    if holds_rows:
        assert cold_hurt > cold_free  # the lost shard really failed over
    else:
        assert cold_hurt == cold_free


def _policy_loader():
    rng = np.random.default_rng(3)
    n, k = 96, 3
    features = rng.normal(size=(n, 8)).astype(np.float32)
    offsets = np.linspace(0, n, k + 1).astype(np.int64)
    store = PartitionedCache(offsets, rng.permutation(n), budget_nodes=6)
    policy = DynamicCachePolicy(store, DynamicCacheConfig(
        window=2, prefetch_quota=4, hysteresis=0.0))
    return FeatureLoader(features, store, dynamic=policy)


def test_degraded_loads_feed_the_dynamic_policy():
    """A degraded load feeds the policy exactly as a fault-free one:
    same scores, promotions and placement, lost shard included (the
    measured choice in docs/caching.md)."""
    free, hurt = _policy_loader(), _policy_loader()
    rng = np.random.default_rng(9)
    hot = rng.choice(96, size=20, replace=False)
    for _ in range(10):
        reqs = [np.unique(rng.choice(hot, size=8)) for _ in range(3)]
        _, _, stats = free.load(reqs)
        _, _, got = hurt.load(reqs, lost=frozenset({0}))
        assert got["dynamic"] == stats["dynamic"]
    assert hurt.dynamic.stats() == free.dynamic.stats()
    assert hurt.dynamic.promotions > 0
    np.testing.assert_array_equal(hurt.store.cached, free.store.cached)
    np.testing.assert_array_equal(hurt.dynamic.score, free.dynamic.score)
