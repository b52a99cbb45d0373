"""Plans follow a placement change (store swap).

A :class:`~repro.cache.loader.FeaturePlan` encodes the placement it was
computed against — the local/remote/cold split and per-holder rows.  If
the loader's store is swapped (replica failover, topology change) and a
plan of the old layout were reused, the byte matrices would describe
the *old* layout.  These tests pin that every load after a swap is
planned against the new store.
"""

import dataclasses

import numpy as np

from repro.cache.loader import FeatureLoader
from repro.cache.store import PartitionedCache, ReplicatedCache


def _setup(num_nodes: int = 64, k: int = 2):
    rng = np.random.default_rng(0)
    features = rng.normal(size=(num_nodes, 4)).astype(np.float32)
    offsets = np.linspace(0, num_nodes, k + 1).astype(np.int64)
    hot = np.arange(num_nodes)
    store_a = PartitionedCache(offsets, hot, budget_nodes=num_nodes // 4)
    store_b = ReplicatedCache(num_nodes, k, hot, budget_nodes=8)
    requests = [rng.integers(0, num_nodes, size=16) for _ in range(k)]
    return features, store_a, store_b, requests


def _assert_same_load(got, want):
    """Rows, stats and every field of every op are equal."""
    feats, trace, stats = got
    want_feats, want_trace, want_stats = want
    assert stats == want_stats
    for a, b in zip(feats, want_feats):
        np.testing.assert_array_equal(a, b)
    (group,), (want_group,) = list(trace), list(want_trace)
    assert len(group.branches) == len(want_group.branches)
    for branch, want_branch in zip(group.branches, want_group.branches):
        assert len(branch) == len(want_branch)
        for op, want_op in zip(branch, want_branch):
            assert type(op) is type(want_op)
            for f in dataclasses.fields(op):
                np.testing.assert_array_equal(getattr(op, f.name),
                                              getattr(want_op, f.name))


class TestInvalidation:
    def test_direct_assignment_caught_on_next_load(self):
        """Swapping ``loader.store`` by assignment takes effect on the
        very next load: its split is the new store's, not the old."""
        features, store_a, store_b, requests = _setup()
        loader = FeatureLoader(features, store_a)
        _, _, stats_a = loader.load(requests)
        loader.store = store_b
        _, _, stats_b = loader.load(requests)
        assert stats_b != stats_a
        assert stats_b == FeatureLoader(features, store_b).load(requests)[2]

    def test_stale_plans_never_served(self):
        """After a store swap the loader's load — even of a block it
        planned before the swap — matches a fresh loader on the new
        store in rows, stats and every op matrix."""
        features, store_a, store_b, requests = _setup()
        loader = FeatureLoader(features, store_a)
        loader.load(requests)  # plan this block against store A
        loader.store = store_b
        _assert_same_load(loader.load(requests),
                          FeatureLoader(features, store_b).load(requests))

    def test_disabled_cache_tolerates_swap(self):
        """Swapping back and forth between stores keeps every load equal
        to a fresh loader's on the store in place at the time."""
        features, store_a, store_b, requests = _setup()
        loader = FeatureLoader(features, store_a)
        for store in (store_b, store_a, store_b):
            loader.store = store
            _assert_same_load(loader.load(requests),
                              FeatureLoader(features, store).load(requests))
