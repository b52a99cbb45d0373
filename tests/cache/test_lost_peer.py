"""A lost cache peer is an argument of the one load path.

``system._load(requests, lost={g})`` plans against a view of the store
in which GPU ``g``'s shard is gone, so its rows fail over to the cold
path.  Only placement may change, and the dynamic policy promotes no
row into the lost patch: the codec (wire bytes, decode kernel), the
allocator stall and the promotions into live patches are the fault-free
load's.  A system refuses the settings it does not honour.
"""

import dataclasses

import numpy as np
import pytest

from repro.cache import DynamicCacheConfig, DynamicCachePolicy, FeatureLoader
from repro.cache.store import PartitionedCache
from repro.core import SYSTEMS, RunConfig, build_system
from repro.core.system import unhonoured
from repro.sampling.ops import UVAGather
from repro.utils.errors import ConfigError

CFG = RunConfig(dataset="tiny", num_gpus=2, hidden_dim=16, batch_size=8,
                fanout=(5, 3), seed=4, feature_cache_bytes=3200,
                dynamic_cache=True, cache_window=2)

#: ops whose sizes follow the local / remote / cold split
PLACEMENT_OPS = {"feat-pos-req", "feat-hot", "feat-local", "feat-cold",
                 "feat-decode"}


def _config(name: str, codec: str) -> RunConfig:
    """CFG with ``codec``, less the cache settings ``name`` does not
    honour: every system keeps lost-peer coverage on the codec-free
    cell."""
    cfg = CFG.with_(compress=codec)
    return cfg.with_(**{f: getattr(RunConfig, f)
                        for f in unhonoured(SYSTEMS[name], cfg)
                        if f != "compress"})


def _fill(trace, k: int) -> np.ndarray:
    """The rows a load's dynamic policy promoted into each patch."""
    fills = [op.items for op in trace.flat_ops() if op.label == "cache-fill"]
    return fills[0] if fills else np.zeros(k)


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
    cfg = _config(name, codec)
    if unhonoured(SYSTEMS[name], cfg):
        with pytest.raises(ConfigError) as err:
            build_system(name, cfg)
        assert err.value.field == "compress"
        return
    free, hurt = build_system(name, cfg), build_system(name, cfg)
    holds_rows = len(free.loader.store.cached_nodes(0)) > 0
    cold_free = cold_hurt = skipped = 0
    for reqs in _requests(free):
        feats, trace, stats = free._load(reqs)
        got_feats, got_trace, got_stats = hurt._load(reqs, lost=frozenset({0}))
        fill, got_fill = _fill(trace, free.k), _fill(got_trace, free.k)
        np.testing.assert_array_equal(got_fill[1:], fill[1:])
        assert got_fill[0] == 0
        skipped += fill[0]
        for op in got_trace.flat_ops():
            if op.label == "cache-fill":  # fills ride the codec's wire
                assert op.item_bytes == free.loader.wire_row_bytes
        ops = [op for op in trace.flat_ops() if op.label != "cache-fill"]
        got_ops = [op for op in got_trace.flat_ops()
                   if op.label != "cache-fill"]
        assert [op.label for op in got_ops] == [op.label for op in ops]
        for op, want in zip(got_ops, ops):
            if op.label not in PLACEMENT_OPS:
                _assert_same_op(op, want)  # allocator, host
            elif isinstance(op, UVAGather):
                assert op.item_bytes == want.item_bytes  # the codec's wire
        assert got_stats.keys() == stats.keys()
        if "dynamic" in stats:
            assert got_stats["dynamic"]["promoted"] == got_fill.sum()
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
    # the fault-free policy did promote into the patch the lost one skips
    assert (skipped > 0) == (free.loader.dynamic is not None)


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
    """A degraded load feeds the policy every request, as a fault-free
    one does: same scores, and the same promotions into live patches.
    The lost patch takes none: no load can read it (docs/caching.md)."""
    free, hurt = _policy_loader(), _policy_loader()
    lost_lo, lost_hi = hurt.store.part_offsets[:2]
    lost_before = hurt.store.cached[lost_lo:lost_hi].copy()
    rng = np.random.default_rng(9)
    hot = rng.choice(96, size=20, replace=False)
    skipped = 0
    for _ in range(10):
        reqs = [np.unique(rng.choice(hot, size=8)) for _ in range(3)]
        _, trace, stats = free.load(reqs)
        _, got_trace, got = hurt.load(reqs, lost=frozenset({0}))
        fill, got_fill = _fill(trace, 3), _fill(got_trace, 3)
        np.testing.assert_array_equal(got_fill[1:], fill[1:])
        assert got_fill[0] == 0
        assert got["dynamic"]["promoted"] == got_fill.sum()
        assert stats["dynamic"]["promoted"] == fill.sum()
        skipped += fill[0]
    assert skipped > 0  # the fault-free policy did promote into patch 0
    assert hurt.dynamic.promotions > 0
    np.testing.assert_array_equal(hurt.store.cached[lost_hi:],
                                  free.store.cached[lost_hi:])
    np.testing.assert_array_equal(hurt.store.cached[lost_lo:lost_hi],
                                  lost_before)
    np.testing.assert_array_equal(hurt.dynamic.score, free.dynamic.score)
