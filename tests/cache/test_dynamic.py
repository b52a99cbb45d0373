"""Tests for the access-frequency dynamic cache policy.

Covers the policy's contracts (docs/caching.md): windowed EWMA
promotion, per-patch budget preservation, workload-history warmup,
doorkeeper-gated frontier prefetch, hysteresis against churn, reset
between sweep points, and that the load after a placement-changing
batch is planned against the new placement.
"""

import hashlib

import numpy as np
import pytest

from repro.cache.dynamic import (
    DynamicCacheConfig,
    DynamicCachePolicy,
    _head_mask,
    _split_top,
)
from repro.cache.loader import FeatureLoader
from repro.cache.store import PartitionedCache, ReplicatedCache
from repro.utils import ConfigError

N = 64
K = 2


def make_store(budget: int = 8, seed: int = 0) -> PartitionedCache:
    rng = np.random.default_rng(seed)
    offsets = np.linspace(0, N, K + 1).astype(np.int64)
    return PartitionedCache(offsets, rng.permutation(N), budget_nodes=budget)


def make_policy(budget: int = 8, **cfg) -> DynamicCachePolicy:
    cfg.setdefault("window", 2)
    cfg.setdefault("prefetch_quota", 0)
    cfg.setdefault("hysteresis", 0.0)
    return DynamicCachePolicy(make_store(budget), DynamicCacheConfig(**cfg))


def residents_per_patch(store: PartitionedCache) -> list[int]:
    return [len(store.cached_nodes(g)) for g in range(store.num_gpus)]


class TestConfig:
    @pytest.mark.parametrize("kw", [
        {"window": 0},
        {"ewma": 0.0},
        {"ewma": 1.5},
        {"max_moves": -1},
        {"prefetch_quota": -1},
        {"prior": -0.1},
        {"hysteresis": -0.1},
    ])
    def test_rejects_bad_knobs(self, kw):
        with pytest.raises(ConfigError):
            DynamicCacheConfig(**kw)

    def test_needs_partitioned_store(self):
        rep = ReplicatedCache(N, K, np.arange(N), budget_nodes=8)
        with pytest.raises(ConfigError):
            DynamicCachePolicy(rep)

    def test_warmup_id_out_of_range(self):
        with pytest.raises(ConfigError):
            make_policy().warm(np.array([N]))


class TestRebalance:
    def test_sustained_traffic_promotes(self):
        """Repeatedly-requested cold nodes displace idle residents
        after a window boundary."""
        policy = make_policy(budget=4, window=2, ewma=0.5)
        store = policy.store
        cold = np.array([n for n in range(8) if not store.cached[n]])[:2]
        for _ in range(2):
            policy.observe([cold, np.array([], dtype=np.int64)])
        assert store.cached[cold].all()
        assert policy.promotions >= len(cold)

    def test_budget_invariant(self):
        """Per-patch resident counts never drift from the planned
        budget, whatever the traffic does."""
        policy = make_policy(budget=6, window=1, prefetch_quota=4)
        store = policy.store
        before = residents_per_patch(store)
        rng = np.random.default_rng(7)
        for _ in range(12):
            reqs = [rng.integers(0, N, size=10) for _ in range(K)]
            policy.observe([np.unique(r) for r in reqs])
        assert residents_per_patch(store) == before

    def test_idle_policy_never_moves(self):
        """No traffic => the EWMA decays every score equally and the
        static-rank tie-break keeps the layout placement bit-stable."""
        policy = make_policy(budget=8, window=1)
        before = policy.store.cached.copy()
        empty = [np.array([], dtype=np.int64)] * K
        for _ in range(5):
            policy.observe(empty)
        np.testing.assert_array_equal(policy.store.cached, before)
        assert policy.promotions == 0 and policy.demotions == 0

    def test_hysteresis_blocks_marginal_swaps(self):
        """A challenger that beats the coldest resident by less than
        the margin stays out; with margin 0 it gets in."""
        for margin, expect_moved in ((10.0, False), (0.0, True)):
            policy = make_policy(budget=4, window=1, ewma=1.0,
                                 hysteresis=margin, prior=0.0)
            store = policy.store
            cold = np.array(
                [n for n in range(N // K) if not store.cached[n]][:1]
            )
            policy.observe([cold, np.array([], dtype=np.int64)])
            assert bool(store.cached[cold[0]]) is expect_moved

    def test_max_moves_caps_promotions(self):
        policy = make_policy(budget=4, window=1, ewma=1.0, max_moves=1,
                             prior=0.0)
        store = policy.store
        cold = np.array(
            [n for n in range(N // K) if not store.cached[n]][:3]
        )
        policy.observe([cold, np.array([], dtype=np.int64)])
        assert int(store.cached[cold].sum()) == 1

    def test_observe_returns_fill_counts(self):
        policy = make_policy(budget=4, window=1, ewma=1.0, prior=0.0)
        store = policy.store
        cold = np.array(
            [n for n in range(N // K) if not store.cached[n]][:2]
        )
        fill = policy.observe([cold, np.array([], dtype=np.int64)])
        assert fill.shape == (K,)
        assert fill[0] == len(cold) and fill[1] == 0
        assert policy.last_promoted == len(cold)
        assert policy.last_demoted == len(cold)  # the patch budget holds


class TestWarmup:
    def test_warm_promotes_history_hot_nodes(self):
        policy = make_policy(budget=4, prior=0.0)
        store = policy.store
        hist_hot = np.array(
            [n for n in range(N // K) if not store.cached[n]][:3]
        )
        promoted = policy.warm(np.repeat(hist_hot, 5))
        assert store.cached[hist_hot].all()
        assert promoted >= len(hist_hot)

    def test_warm_rebaselines_and_zeroes_counters(self):
        policy = make_policy(budget=4, prior=0.0)
        policy.warm(np.arange(N // K))
        assert policy.stats() == {
            "promotions": 0, "demotions": 0, "rebalances": 0,
            "prefetches": 0, "loads": 0,
        }
        np.testing.assert_array_equal(
            policy._baseline_cached, policy.store.cached
        )


class TestPrefetch:
    def test_doorkeeper_blocks_first_touch(self):
        """A never-seen frontier node is not staged, however hot the
        request makes it look."""
        policy = make_policy(budget=4, window=100, prefetch_quota=8,
                             prior=0.0)
        store = policy.store
        cold = np.array(
            [n for n in range(N // K) if not store.cached[n]][:2]
        )
        policy.observe([cold, np.array([], dtype=np.int64)])
        assert not store.cached[cold].any()
        assert policy.prefetches == 0

    def test_seen_hot_node_staged_mid_window(self):
        """Once past the doorkeeper with score above the patch floor,
        a cold node is staged without waiting for the window."""
        policy = make_policy(budget=4, window=100, prefetch_quota=8,
                             prior=0.0)
        store = policy.store
        cold = np.array(
            [n for n in range(N // K) if not store.cached[n]][:2]
        )
        for _ in range(3):  # touch 1 (doorkeeper), then admit
            policy.observe([cold, np.array([], dtype=np.int64)])
        assert store.cached[cold].all()
        assert policy.prefetches >= len(cold)
        assert residents_per_patch(store)[0] == 4

    def test_quota_bounds_stagings_per_load(self):
        policy = make_policy(budget=8, window=100, prefetch_quota=2,
                             prior=0.0)
        store = policy.store
        cold = np.array(
            [n for n in range(N // K) if not store.cached[n]][:6]
        )
        policy.observe([cold, np.array([], dtype=np.int64)])
        policy.observe([cold, np.array([], dtype=np.int64)])
        assert int(store.cached[cold].sum()) == 2


class TestReset:
    def test_reset_restores_placement_and_scores(self):
        policy = make_policy(budget=4, window=1, ewma=1.0, prior=0.0)
        store = policy.store
        baseline = store.cached.copy()
        score0 = policy.score.copy()
        cold = np.array(
            [n for n in range(N // K) if not store.cached[n]][:2]
        )
        policy.observe([cold, np.array([], dtype=np.int64)])
        assert np.any(store.cached != baseline)
        policy.reset()
        np.testing.assert_array_equal(store.cached, baseline)
        np.testing.assert_array_equal(policy.score, score0)
        assert policy.stats()["loads"] == 0

    def test_on_change_fires_on_moves_only(self):
        events = []
        policy = make_policy(budget=4, window=1, ewma=1.0, prior=0.0)
        policy.on_change.append(lambda: events.append("moved"))
        empty = [np.array([], dtype=np.int64)] * K
        policy.observe(empty)
        assert events == []
        cold = np.array(
            [n for n in range(N // K) if not policy.store.cached[n]][:1]
        )
        policy.observe([cold, np.array([], dtype=np.int64)])
        assert events == ["moved"]
        policy.reset()
        assert events == ["moved", "moved"]


class TestPlanInvalidation:
    """A placement-changing batch: the next load's plan describes the
    *new* local/remote/cold split, never the old one."""

    def _loader(self, **cfg):
        rng = np.random.default_rng(1)
        store = make_store(budget=4)
        features = rng.normal(size=(N, 8)).astype(np.float32)
        cfg.setdefault("window", 1)
        cfg.setdefault("ewma", 1.0)
        cfg.setdefault("prior", 0.0)
        cfg.setdefault("prefetch_quota", 0)
        cfg.setdefault("hysteresis", 0.0)
        policy = DynamicCachePolicy(store, DynamicCacheConfig(**cfg))
        return FeatureLoader(features, store, dynamic=policy), store

    def test_stale_plan_never_reused_after_reshuffle(self):
        """The same request block is re-planned after a promotion: the
        rows it classified as cold are now served locally."""
        loader, store = self._loader()
        cold = np.array(
            [n for n in range(N // K) if not store.cached[n]][:2]
        )
        reqs = [cold, np.array([], dtype=np.int64)]
        _, _, stats_before = loader.load(reqs)
        assert stats_before["cold"] == len(cold)
        out, _, stats_after = loader.load(reqs)
        assert stats_after["cold"] == 0
        assert stats_after["local"] == len(cold)
        np.testing.assert_array_equal(out[0], loader.features[cold])


class TestDeterminism:
    def test_same_stream_same_placement(self):
        rng_a, rng_b = (np.random.default_rng(3) for _ in range(2))
        pols = [make_policy(budget=6, window=2, prefetch_quota=4)
                for _ in range(2)]
        for rng, policy in ((rng_a, pols[0]), (rng_b, pols[1])):
            for _ in range(9):
                reqs = [np.unique(rng.integers(0, N, size=12))
                        for _ in range(K)]
                policy.observe(reqs)
        np.testing.assert_array_equal(
            pols[0].store.cached, pols[1].store.cached
        )
        np.testing.assert_array_equal(pols[0].score, pols[1].score)
        assert pols[0].stats() == pols[1].stats()


class TestExactSelection:
    """The partition-based selection equals the full-patch lexsort it
    replaced: same set, same order, same tie-breaks."""

    @staticmethod
    def _scores(rng, n, kind):
        if kind == "equal":
            return np.full(n, 0.5)
        if kind == "ties":  # few distinct values: ties everywhere
            return rng.integers(0, 3, size=n).astype(np.float64)
        return rng.normal(size=n)

    @pytest.mark.parametrize("kind", ["equal", "ties", "distinct"])
    @pytest.mark.parametrize("seed", range(6))
    def test_split_matches_full_lexsort(self, kind, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 40))
        s = self._scores(rng, n, kind)
        rank = rng.permutation(n)
        cached = rng.random(n) < 0.4
        for k in (0, 1, n - 1, n, n + 3, int(rng.integers(0, n + 1))):
            order = np.lexsort((rank, -s))
            want, rest = order[:max(k, 0)], order[max(k, 0):]
            challengers, victims = _split_top(s, rank, k, cached)
            np.testing.assert_array_equal(challengers, want[~cached[want]])
            np.testing.assert_array_equal(victims, rest[cached[rest]][::-1])

    @pytest.mark.parametrize("kind", ["equal", "ties", "distinct"])
    @pytest.mark.parametrize("seed", range(6))
    def test_head_mask_matches_full_lexsort(self, kind, seed):
        """Also with ties in the tie key itself (stable: index order)."""
        rng = np.random.default_rng(100 + seed)
        n = int(rng.integers(1, 40))
        key = self._scores(rng, n, kind)
        tie = rng.integers(0, 4, size=n)
        for k in (0, 1, n - 1, n, n + 3, int(rng.integers(0, n + 1))):
            expect = np.zeros(n, dtype=bool)
            expect[np.lexsort((tie, key))[:max(k, 0)]] = True
            np.testing.assert_array_equal(_head_mask(key, tie, k), expect)


def _placement_digest(prior: float, ewma: float, max_moves) -> str:
    """sha256 chain of ``store.cached`` after every observe() on a
    seeded Zipf stream whose hot set drifts every 12 loads."""
    n, k, budget = 600, 3, 40
    rng = np.random.default_rng(2024)
    offsets = np.linspace(0, n, k + 1).astype(np.int64)
    store = PartitionedCache(offsets, rng.permutation(n), budget_nodes=budget)
    policy = DynamicCachePolicy(store, DynamicCacheConfig(
        window=2, prefetch_quota=8, hysteresis=0.0, prior=prior, ewma=ewma,
        max_moves=max_moves,
    ))
    weights = 1.0 / np.arange(1, n + 1) ** 1.1
    weights /= weights.sum()
    hot = rng.permutation(n)
    digest = b""
    for step in range(48):
        if step % 12 == 0:
            hot = np.roll(hot, n // 7)
        reqs = [np.unique(hot[rng.choice(n, size=60, p=weights)])
                for _ in range(k)]
        policy.observe(reqs)
        digest = hashlib.sha256(digest + store.cached.tobytes()).digest()
    assert policy.promotions > 0 and policy.prefetches > 0
    return digest.hex()


#: placement trajectories pinned from the full-patch-lexsort policy
PLACEMENT_DIGESTS = {
    "prior":
        "fb3b026b01ab625de1f7ff393dd7387ede0518e1fcf65a90e9874852253d683d",
    "no-prior-ties":
        "e26dbc949ebfef831c05aa31f833ee9759c3c917c1a9f2680efb9a140b0785d2",
}


class TestPlacementTrajectory:
    @pytest.mark.parametrize("name,prior,ewma,max_moves", [
        ("prior", 1.0, 0.5, None),
        ("no-prior-ties", 0.0, 1.0, 5),
    ])
    def test_trajectory_pinned(self, name, prior, ewma, max_moves):
        assert _placement_digest(prior, ewma, max_moves) == \
            PLACEMENT_DIGESTS[name]
