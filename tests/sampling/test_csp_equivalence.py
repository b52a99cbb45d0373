"""Flat-batch fast path vs chunked reference: bit-for-bit equivalence.

The CSP shuffle/sample/reshuffle round has two implementations (see
``docs/performance.md``): the flat-batch ``CollectiveSampler._one_layer``
every system uses, and the seed's per-(owner, origin) chunked round
kept as a test oracle in ``reference_csp.py``.  Both consume the per-owner
RNG streams in the same order, so with equal seeds they must return
byte-identical :class:`MiniBatchSample` blocks, ``OpTrace`` matrices
and ``CSPStats`` — this suite asserts exactly that across every
supported sampling mode and GPU count, on randomized, unevenly-sized
(including empty) per-GPU seed batches.
"""

import zlib
from functools import lru_cache

import numpy as np
import pytest

from repro.graph import dcsbm_graph, metis_partition, renumber_by_partition
from repro.sampling import CollectiveSampler, CSPConfig
from tests.sampling.reference_csp import (
    reference_one_layer,
    use_reference_round,
)

GPU_COUNTS = (1, 2, 4, 8)


@lru_cache(maxsize=None)
def _graph_and_offsets(k: int, weighted: bool):
    graph = dcsbm_graph(600, 12_000, num_communities=4, rng=7)
    if weighted:
        rng = np.random.default_rng(1)
        graph = graph.with_node_weights(
            rng.random(graph.num_nodes).astype(np.float32)
        )
    part = metis_partition(graph, k, rng=0)
    rgraph, _, nb = renumber_by_partition(graph, part)
    return rgraph, tuple(int(x) for x in nb.part_offsets)


def _sampler_pair(k: int, weighted: bool, seed: int = 0):
    """Two samplers with identical RNG streams; one runs the reference."""
    rgraph, offsets = _graph_and_offsets(k, weighted)
    offsets = np.asarray(offsets, dtype=np.int64)
    fast = CollectiveSampler.from_partitioned(rgraph, offsets, seed=seed)
    ref = CollectiveSampler.from_partitioned(rgraph, offsets, seed=seed)
    return fast, use_reference_round(ref)


def _random_seeds(sampler, rng, allow_empty=True):
    """Unevenly-sized per-GPU seed batches (empty batches included)."""
    out = []
    for g in range(sampler.num_gpus):
        lo, hi = sampler.part_offsets[g], sampler.part_offsets[g + 1]
        n = int(rng.integers(0 if allow_empty else 1, 25))
        out.append(rng.choice(np.arange(lo, hi), size=n, replace=False))
    return out


def _assert_identical(fast_result, ref_result):
    (sa, ta, fa), (sb, tb, fb) = fast_result, ref_result
    assert fa == fb  # CSPStats is a frozen dataclass of ints
    for x, y in zip(sa, sb):
        assert np.array_equal(x.seeds, y.seeds)
        assert np.array_equal(x.all_nodes, y.all_nodes)
        assert x.all_nodes.dtype == y.all_nodes.dtype
        for bx, by in zip(x.blocks, y.blocks):
            assert np.array_equal(bx.dst_nodes, by.dst_nodes)
            assert np.array_equal(bx.src_nodes, by.src_nodes)
            assert np.array_equal(bx.offsets, by.offsets)
            assert bx.src_nodes.dtype == by.src_nodes.dtype
            assert np.array_equal(bx.all_nodes, by.all_nodes)
            assert bx.all_nodes.dtype == by.all_nodes.dtype
    assert len(ta.ops) == len(tb.ops)
    for oa, ob in zip(ta.ops, tb.ops):
        assert type(oa) is type(ob)
        assert getattr(oa, "label", "") == getattr(ob, "label", "")
        for attr in ("matrix", "work", "items"):
            if hasattr(oa, attr):
                assert np.array_equal(getattr(oa, attr), getattr(ob, attr))


@pytest.mark.parametrize("k", GPU_COUNTS)
@pytest.mark.parametrize("scheme", ["node", "layer"])
@pytest.mark.parametrize("biased", [False, True])
@pytest.mark.parametrize("replace", [True, False])
def test_fast_path_bit_identical(k, scheme, biased, replace):
    # str hashes are salted per process: derive the case's seed stably,
    # so every run draws the same batches and a failure replays
    case = zlib.crc32(f"{k}/{scheme}/{biased}/{replace}".encode())
    cfg = CSPConfig(
        fanout=(6, 4), scheme=scheme, biased=biased, replace=replace
    )
    for i in range(3):
        fast, ref = _sampler_pair(k, weighted=biased, seed=i)
        seeds = _random_seeds(fast, np.random.default_rng([case, i]))
        _assert_identical(fast.sample(seeds, cfg), ref.sample(seeds, cfg))


@pytest.mark.parametrize("k", (2, 4))
def test_fast_path_identical_over_consecutive_batches(k):
    """RNG streams stay aligned across batches, not just the first."""
    fast, ref = _sampler_pair(k, weighted=False)
    rng_a = np.random.default_rng(11)
    rng_b = np.random.default_rng(11)
    cfg = CSPConfig(fanout=(5, 3, 2))
    for _ in range(3):
        seeds = _random_seeds(fast, rng_a)
        _assert_identical(
            fast.sample(seeds, cfg),
            ref.sample(_random_seeds(ref, rng_b), cfg),
        )


def test_all_empty_frontiers():
    fast, ref = _sampler_pair(4, weighted=False)
    seeds = [np.empty(0, dtype=np.int64) for _ in range(4)]
    cfg = CSPConfig(fanout=(3, 2))
    _assert_identical(fast.sample(seeds, cfg), ref.sample(seeds, cfg))


def test_zero_fanout_layer():
    fast, ref = _sampler_pair(2, weighted=False)
    rng = np.random.default_rng(5)
    seeds = _random_seeds(fast, rng, allow_empty=False)
    cfg = CSPConfig(fanout=(4, 0))
    _assert_identical(fast.sample(seeds, cfg), ref.sample(seeds, cfg))


def test_fast_path_is_the_default():
    """The oracle binds onto one instance; samplers run the flat round."""
    fast, ref = _sampler_pair(2, weighted=False)
    assert fast._one_layer.__func__ is CollectiveSampler._one_layer
    assert ref._one_layer.__func__ is reference_one_layer
