"""GNS-style cached-node biased sampling (opt-in CSP hook).

Contracts (docs/caching.md): bias off — whether never set, set to 0,
or set then cleared — is the *exact* original sampling path, bit for
bit, on both the flat round and the chunked reference oracle; bias on
skews neighbour draws toward cache-resident nodes without changing
which nodes can be sampled; ``refresh_cache_bias`` tracks the store's
current resident set (the dynamic policy calls it via ``on_change``).
"""

from dataclasses import fields
from functools import lru_cache

import numpy as np
import pytest

from repro.cache.store import PartitionedCache
from repro.graph import dcsbm_graph, metis_partition, renumber_by_partition
from repro.sampling import CollectiveSampler, CSPConfig
from repro.utils import ConfigError
from tests.sampling.reference_csp import use_reference_round

K = 4


@lru_cache(maxsize=None)
def _graph_and_offsets():
    graph = dcsbm_graph(600, 12_000, num_communities=4, rng=7)
    part = metis_partition(graph, K, rng=0)
    rgraph, _, nb = renumber_by_partition(graph, part)
    return rgraph, tuple(int(x) for x in nb.part_offsets)


def _sampler(seed: int = 0) -> CollectiveSampler:
    rgraph, offsets = _graph_and_offsets()
    return CollectiveSampler.from_partitioned(
        rgraph, np.asarray(offsets, dtype=np.int64), seed=seed
    )


def _store(budget: int = 40) -> PartitionedCache:
    _, offsets = _graph_and_offsets()
    offsets = np.asarray(offsets, dtype=np.int64)
    n = int(offsets[-1])
    rng = np.random.default_rng(5)
    return PartitionedCache(offsets, rng.permutation(n),
                            budget_nodes=budget)


def _seeds(sampler, rng):
    out = []
    for g in range(sampler.num_gpus):
        lo, hi = sampler.part_offsets[g], sampler.part_offsets[g + 1]
        out.append(rng.choice(np.arange(lo, hi), size=12, replace=False))
    return out


def _run(sampler, seeds, fanout=(5, 3)):
    """``(samples, trace, stats)`` of one sampling round."""
    return sampler.sample(seeds, CSPConfig(fanout=fanout))


def _assert_same(result_a, result_b):
    (samples_a, trace_a, stats_a) = result_a
    (samples_b, trace_b, stats_b) = result_b
    assert stats_a == stats_b
    # the op trace is what the cost model prices: every op's type,
    # label and byte/work arrays must agree too
    assert len(trace_a) == len(trace_b)
    for op_a, op_b in zip(trace_a, trace_b):
        assert type(op_a) is type(op_b) and op_a.label == op_b.label
        for f in fields(op_a):
            np.testing.assert_array_equal(getattr(op_a, f.name),
                                          getattr(op_b, f.name))
    for a, b in zip(samples_a, samples_b):
        np.testing.assert_array_equal(a.all_nodes, b.all_nodes)
        for la, lb in zip(a.blocks, b.blocks):
            np.testing.assert_array_equal(la.src_nodes, lb.src_nodes)
            np.testing.assert_array_equal(la.dst_nodes, lb.dst_nodes)
            np.testing.assert_array_equal(la.offsets, lb.offsets)


class TestDisabledIsIdentity:
    @pytest.mark.parametrize("fast", [True, False])
    def test_zero_bias_bit_identical(self, fast):
        rng = np.random.default_rng(3)
        seeds = _seeds(_sampler(), rng)
        plain, biased = _sampler(), _sampler()
        if not fast:
            use_reference_round(plain)
            use_reference_round(biased)
        biased.set_cache_bias(_store(), 0.0)
        _assert_same(_run(plain, seeds), _run(biased, seeds))

    def test_set_then_clear_bit_identical(self):
        rng = np.random.default_rng(4)
        seeds = _seeds(_sampler(), rng)
        plain, cleared = _sampler(), _sampler()
        cleared.set_cache_bias(_store(), 0.8)
        cleared.set_cache_bias(_store(), 0.0)
        _assert_same(_run(plain, seeds), _run(cleared, seeds))

    def test_negative_bias_rejected(self):
        with pytest.raises(ConfigError):
            _sampler().set_cache_bias(_store(), -0.5)

    def test_bias_needs_cached_mask(self):
        with pytest.raises(ConfigError):
            _sampler().set_cache_bias(object(), 0.5)


class TestEnabled:
    def test_fast_and_reference_agree_under_bias(self):
        """The biased weights flow through both implementations of the
        shuffle/sample/reshuffle round identically."""
        rng = np.random.default_rng(6)
        seeds = _seeds(_sampler(), rng)
        store = _store()
        fast, ref = _sampler(), use_reference_round(_sampler())
        fast.set_cache_bias(store, 2.0)
        ref.set_cache_bias(store, 2.0)
        _assert_same(_run(fast, seeds), _run(ref, seeds))

    def test_bias_skews_draws_toward_cached(self):
        """Over many batches, cached neighbours appear more often with
        the bias on than off."""
        store = _store()
        plain, biased = _sampler(), _sampler()
        biased.set_cache_bias(store, 8.0)
        hits = {"plain": 0, "biased": 0}
        totals = {"plain": 0, "biased": 0}
        rng = np.random.default_rng(9)
        for _ in range(8):
            seeds = _seeds(plain, rng)
            for name, sampler in (("plain", plain), ("biased", biased)):
                samples, _, _ = _run(sampler, seeds)
                for s in samples:
                    for block in s.blocks:
                        src = block.src_nodes
                        hits[name] += int(store.cached[src].sum())
                        totals[name] += len(src)
        rate_plain = hits["plain"] / totals["plain"]
        rate_biased = hits["biased"] / totals["biased"]
        assert rate_biased > rate_plain

    def test_refresh_tracks_store_mutation(self):
        """After the resident set changes, refresh rebuilds the weights
        from the *current* mask."""
        store = _store()
        sampler = _sampler()
        sampler.set_cache_bias(store, 8.0)
        before = [p.weights.copy() for p in sampler._bias_patches]
        store.cached[:] = ~store.cached
        sampler.refresh_cache_bias()
        after = [p.weights for p in sampler._bias_patches]
        assert any(
            not np.array_equal(a, b) for a, b in zip(before, after)
        )
