"""Tests for the feature loaders."""

import numpy as np
import pytest

from repro.cache import (
    FeatureLoader,
    HostGatherLoader,
    NoCache,
    PartitionedCache,
    ReplicatedCache,
)
from repro.cache.dynamic import DynamicCacheConfig, DynamicCachePolicy
from repro.cache.loader import ID_BYTES
from repro.cache.store import Placement
from repro.core.cost import CostEngine
from repro.hw import Cluster
from repro.sampling.ops import (
    AllToAll,
    HostWork,
    LocalKernel,
    OpTrace,
    ParallelGroup,
    PCIeCopy,
    UVAGather,
)
from repro.utils import ConfigError


@pytest.fixture
def setting():
    rng = np.random.default_rng(0)
    features = rng.normal(size=(12, 8)).astype(np.float32)
    part_offsets = np.array([0, 4, 8, 12])
    hot_order = np.arange(12)
    store = PartitionedCache(part_offsets, hot_order, budget_nodes=2)
    return features, store


class TestFeatureLoader:
    def test_functional_values_exact(self, setting):
        features, store = setting
        loader = FeatureLoader(features, store)
        reqs = [np.array([0, 4, 11]), np.array([5]), np.array([9, 9, 2])]
        out, _, _ = loader.load(reqs)
        assert np.array_equal(out[0], features[[0, 4, 11]])
        assert np.array_equal(out[2], features[[2, 9]])  # deduped + sorted

    def test_stats_classification(self, setting):
        features, store = setting
        loader = FeatureLoader(features, store)
        # gpu0 asks: 0 local-hot, 4 remote-hot, 11 cold
        _, _, stats = loader.load([np.array([0, 4, 11]),
                                   np.array([], dtype=np.int64),
                                   np.array([], dtype=np.int64)])
        assert {k: stats[k] for k in ("local", "remote", "cold")} == \
            {"local": 1, "remote": 1, "cold": 1}
        row = 8 * 4  # dim 8 x fp32
        assert stats["local_bytes"] == row
        assert stats["remote_bytes"] == row
        assert stats["cold_bytes"] == row

    def test_trace_parallel_hot_cold(self, setting):
        features, store = setting
        loader = FeatureLoader(features, store)
        _, trace, _ = loader.load([np.array([0, 4, 11]),
                                   np.array([], dtype=np.int64),
                                   np.array([], dtype=np.int64)])
        assert len(trace) == 1
        group = trace.ops[0]
        assert isinstance(group, ParallelGroup)
        assert len(group.branches) == 2

    def test_hot_bytes_exact(self, setting):
        features, store = setting
        loader = FeatureLoader(features, store)
        # gpu0 requests node 4 and 5, both cached on gpu1
        _, trace, _ = loader.load([np.array([4, 5]),
                                   np.array([], dtype=np.int64),
                                   np.array([], dtype=np.int64)])
        hot = [op for op in trace.flat_ops()
               if isinstance(op, AllToAll) and op.label == "feat-hot"]
        assert hot[0].matrix[1, 0] == 2 * 8 * 4  # 2 rows x dim 8 x fp32
        assert trace.nvlink_payload_bytes() == 2 * 8 * 4 + 2 * 8  # + id requests

    def test_cold_items_exact(self, setting):
        features, store = setting
        loader = FeatureLoader(features, store)
        _, trace, _ = loader.load([np.array([2, 3]),  # cold (budget=2/part)
                                   np.array([], dtype=np.int64),
                                   np.array([], dtype=np.int64)])
        cold = [op for op in trace.flat_ops() if isinstance(op, UVAGather)]
        assert cold[0].items[0] == 2
        assert trace.uva_payload_bytes() == 2 * 8 * 4

    def test_replicated_cache_no_nvlink(self, setting):
        features, _ = setting
        store = ReplicatedCache(12, 3, np.arange(12), budget_nodes=6)
        loader = FeatureLoader(features, store)
        _, trace, stats = loader.load([np.array([0, 5, 11])] * 3)
        assert trace.nvlink_payload_bytes() == 0
        assert stats["remote"] == 0
        assert stats["local"] == 3 * 2

    def test_nocache_all_uva(self, setting):
        features, _ = setting
        loader = FeatureLoader(features, NoCache(12, 3))
        _, trace, stats = loader.load([np.arange(12)] * 3)
        assert {k: stats[k] for k in ("local", "remote", "cold")} == \
            {"local": 0, "remote": 0, "cold": 36}
        assert trace.uva_payload_bytes() == 36 * 8 * 4

    def test_wrong_request_count(self, setting):
        features, store = setting
        with pytest.raises(ConfigError):
            FeatureLoader(features, store).load([np.array([0])])

    def test_bad_feature_shape(self, setting):
        _, store = setting
        with pytest.raises(ConfigError):
            FeatureLoader(np.zeros(5, dtype=np.float32), store)


class TestHostGatherLoader:
    def test_functional_and_trace(self):
        rng = np.random.default_rng(1)
        features = rng.normal(size=(10, 4)).astype(np.float32)
        loader = HostGatherLoader(features, num_gpus=2)
        out, trace, stats = loader.load([np.array([1, 3]), np.array([5])])
        assert np.array_equal(out[0], features[[1, 3]])
        kinds = [type(op) for op in trace]
        assert kinds == [HostWork, PCIeCopy]
        copy = trace.ops[1]
        assert copy.nbytes.tolist() == [2 * 16, 1 * 16]
        assert stats["cold"] == 3

    def test_gather_kind(self):
        features = np.zeros((4, 2), dtype=np.float32)
        loader = HostGatherLoader(features, num_gpus=1)
        _, trace, _ = loader.load([np.array([0])])
        assert trace.ops[0].kind == "gather"


def _priced(engine, trace) -> list:
    """A trace as the cost engine prices it, in comparable form."""
    return [
        (c.label, c.per_gpu.tolist(), c.stage, c.threads, c.collective,
         c.host, c.nvlink_bytes, c.pcie_bytes, c.uva_payload,
         c.network_bytes)
        for c in engine.trace_cost(trace)
    ]


class _Reads:
    """A feature matrix that counts its row reads."""

    def __init__(self, a):
        self.a, self.ndim, self.shape, self.dtype = a, a.ndim, a.shape, a.dtype
        self.reads = 0

    def __getitem__(self, index):
        self.reads += 1
        return self.a[index]


class TestPlanOnlyLoad:
    """A load whose rows are never indexed copies no row but is
    otherwise the same load: trace, stats, running totals and dynamic
    placement all derive from the plan.  Rows indexed late — after later
    loads moved the dynamic placement — equal rows indexed at once."""

    N, K = 96, 3

    def _loader(self, codec, dynamic, wrap=lambda a: a):
        rng = np.random.default_rng(5)
        features = rng.normal(size=(self.N, 8)).astype(np.float32)
        offsets = np.linspace(0, self.N, self.K + 1).astype(np.int64)
        store = PartitionedCache(offsets, rng.permutation(self.N),
                                 budget_nodes=6)
        policy = None
        if dynamic:
            policy = DynamicCachePolicy(store, DynamicCacheConfig(
                window=2, prefetch_quota=4, hysteresis=0.0))
        return FeatureLoader(wrap(features), store, codec=codec,
                             dynamic=policy)

    def _stream(self, repeat):
        rng = np.random.default_rng(9)
        hot = rng.choice(self.N, size=20, replace=False)
        for step in range(10):
            reqs = []
            for g in range(self.K):
                raw = np.concatenate([rng.choice(hot, size=8),
                                      rng.integers(0, self.N, size=4)])
                # mostly CSP-style sorted unique, sometimes raw, and
                # now and then an idle GPU
                if (step + g) % 5 == 4:
                    raw = raw[:0]
                reqs.append(raw if (step + g) % 3 == 0 else np.unique(raw))
            yield reqs
            if repeat:
                yield reqs  # the same block again

    @pytest.mark.parametrize("repeat", [True, False])
    @pytest.mark.parametrize("dynamic", [False, True])
    @pytest.mark.parametrize("codec", ["none", "fp16", "int8"])
    def test_same_trace_and_stats(self, codec, dynamic, repeat):
        engine = CostEngine(Cluster.dgx1(self.K))
        full = self._loader(codec, dynamic)
        plan_only = self._loader(codec, dynamic, wrap=_Reads)
        loads = []
        for reqs in self._stream(repeat):
            feats_a, trace_a, stats_a = full.load(reqs)
            eager = [feats_a[g] for g in range(self.K)]
            feats_b, trace_b, stats_b = plan_only.load(reqs)
            assert len(feats_a) == len(feats_b) == self.K
            assert _priced(engine, trace_a) == _priced(engine, trace_b)
            assert stats_a == stats_b
            loads.append((eager, feats_b))
        assert plan_only.features.reads == 0
        assert full.totals == plan_only.totals
        np.testing.assert_array_equal(full.store.cached,
                                      plan_only.store.cached)
        if dynamic:
            assert full.dynamic.stats() == plan_only.dynamic.stats()
            assert full.dynamic.promotions > 0
        for eager, late in loads:
            for g in range(self.K):
                assert late[g].tobytes() == eager[g].tobytes()

    def test_host_gather_plan_only(self):
        features = np.arange(20, dtype=np.float32).reshape(10, 2)
        loader = HostGatherLoader(_Reads(features), num_gpus=2)
        reqs = [np.array([3, 1, 3]), np.array([5])]
        out, trace, stats = loader.load(reqs)
        assert loader.features.reads == 0
        np.testing.assert_array_equal(trace.ops[0].tasks, [16.0, 8.0])
        assert stats["cold"] == 3
        assert len(out) == 2
        assert np.array_equal(out[0], features[[1, 3]])
        assert np.array_equal(out[1], features[[5]])


class TestPlanDedup:
    @pytest.mark.parametrize("req", [
        [9, 2, 5, 2],          # shuffled with a duplicate
        [2, 2, 5, 9],          # sorted, not unique
        [9, 5, 2],             # strictly decreasing
        [1, 4, 4],             # trailing duplicate
    ])
    def test_unsorted_or_duplicated_goes_through_unique(self, setting, req):
        features, store = setting
        req = np.array(req, dtype=np.int64)
        plan = FeatureLoader(features, store)._plan(0, req, store)
        np.testing.assert_array_equal(plan.nodes, np.unique(req))

    def test_sorted_unique_request_passes_through(self, setting):
        features, store = setting
        req = np.array([0, 3, 4, 11], dtype=np.int64)
        plan = FeatureLoader(features, store)._plan(0, req, store)
        np.testing.assert_array_equal(plan.nodes, req)

    @pytest.mark.parametrize("req", [[0, 3, 4, 11], [11, 0, 4, 4]])
    def test_cached_plan_nodes_read_only(self, setting, req):
        """Plan nodes (shared with the dynamic feed) cannot be written
        through, and planning never flips the caller's own array to
        read-only, even after a load."""
        features, store = setting
        loader = FeatureLoader(features, store)
        req = np.array(req, dtype=np.int64)
        loader.load([req, req, req])
        plan = loader._plan(0, req, store)
        assert not plan.nodes.flags.writeable
        with pytest.raises(ValueError):
            plan.nodes[0] = 1
        assert req.flags.writeable
        req[0] = req[0]  # still writable in place


def _reference_load(
    loader: FeatureLoader, requests_per_gpu: list[np.ndarray]
) -> tuple[list[np.ndarray], OpTrace, dict]:
    """The seed implementation of :meth:`FeatureLoader.load`, verbatim.

    Kept as the equivalence oracle for the vectorized loader:
    duplicated ``loc.count`` calls and a per-holder Python loop.
    """
    k = loader.store.num_gpus
    out: list[np.ndarray] = []
    pos_req = np.zeros((k, k), dtype=np.float64)
    feat_resp = np.zeros((k, k), dtype=np.float64)
    local_bytes = np.zeros(k, dtype=np.float64)
    cold_items = np.zeros(k, dtype=np.float64)
    stats = {"local": 0, "remote": 0, "cold": 0}

    for g, req in enumerate(requests_per_gpu):
        nodes = np.unique(np.asarray(req, dtype=np.int64))
        out.append(loader.features[nodes])
        loc = loader.store.locate(nodes, g)
        stats["local"] += loc.count(Placement.LOCAL)
        stats["remote"] += loc.count(Placement.REMOTE)
        stats["cold"] += loc.count(Placement.COLD)

        local_bytes[g] = loc.count(Placement.LOCAL) * loader.row_bytes
        cold_items[g] = loc.count(Placement.COLD)
        remote = loc.placement == Placement.REMOTE
        if remote.any():
            holders, counts = np.unique(loc.holder[remote], return_counts=True)
            for o, c in zip(holders, counts):
                pos_req[g, o] += c * ID_BYTES
                feat_resp[o, g] += c * loader.row_bytes

    hot_branch = [
        AllToAll(pos_req, label="feat-pos-req"),
        AllToAll(feat_resp, label="feat-hot"),
        LocalKernel("gather", local_bytes, label="feat-local"),
    ]
    cold_branch = [
        UVAGather(cold_items, item_bytes=loader.row_bytes, label="feat-cold")
    ]
    trace = OpTrace()
    trace.add(
        ParallelGroup(branches=(tuple(hot_branch), tuple(cold_branch)),
                      label="feature-load")
    )
    stats["local_bytes"] = stats["local"] * loader.row_bytes
    stats["remote_bytes"] = stats["remote"] * loader.row_bytes
    stats["cold_bytes"] = stats["cold"] * loader.row_bytes
    return out, trace, stats


def test_vectorized_loader_matches_seed_implementation():
    rng = np.random.default_rng(0)
    n, k = 4_000, 4
    offsets = np.linspace(0, n, k + 1).astype(np.int64)
    store = PartitionedCache(offsets, rng.permutation(n), budget_nodes=n // 8)
    features = rng.random((n, 16)).astype(np.float32)
    loader = FeatureLoader(features, store)
    requests = [rng.integers(0, n, size=600) for _ in range(k)]

    out_a, trace_a, stats_a = loader.load(requests)
    out_b, trace_b, stats_b = _reference_load(loader, requests)
    assert stats_a == stats_b
    for a, b in zip(out_a, out_b):
        assert np.array_equal(a, b)
    (group_a,), (group_b,) = trace_a.ops, trace_b.ops
    for branch_a, branch_b in zip(group_a.branches, group_b.branches):
        for op_a, op_b in zip(branch_a, branch_b):
            assert type(op_a) is type(op_b) and op_a.label == op_b.label
            for attr in ("matrix", "work", "items"):
                if hasattr(op_a, attr):
                    assert np.array_equal(
                        getattr(op_a, attr), getattr(op_b, attr)
                    )


#: sha256 of the per-request predictions of a functional serve run,
#: pinned from the loader that gathered rows on every load
SERVE_PREDICTION_DIGESTS = {
    "none":
        "71461dae57d8de2a337bf4ce784afed5b682b87e7e5d2fab7a7874be7b6674b1",
    "int8":
        "79b9acf3bbcdc353e433b8232809d3511f22abe8a6342f3929b0e0ec8b26e687",
}


def _serve_predictions(compress: str, monkeypatch) -> tuple[list, float]:
    import repro.serve.sweep as sweep
    from repro.core import RunConfig, build_system
    from repro.serve import (
        GNNServer,
        ServeConfig,
        WorkloadConfig,
        make_workload,
        serve_once,
    )

    servers = []

    class Recording(GNNServer):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            servers.append(self)

    system = build_system("DSP", RunConfig(
        dataset="tiny", num_gpus=2, hidden_dim=16, batch_size=8,
        fanout=(5, 3), seed=3, dynamic_cache=True, feature_cache_bytes=3200,
        compress=compress,
    ))
    system.run_epoch()  # a trained model: predictions follow the rows
    workload = make_workload(WorkloadConfig(num_requests=64, seed=7),
                             np.arange(system.base_dataset.num_nodes))
    monkeypatch.setattr(sweep, "GNNServer", Recording)
    report = serve_once(system, workload, 2000.0, ServeConfig(functional=True))
    (server,) = servers
    return [r.prediction for r in server.last_records], report.accuracy


@pytest.mark.parametrize("compress", sorted(SERVE_PREDICTION_DIGESTS))
def test_functional_serve_predictions_pinned(compress, monkeypatch):
    import hashlib

    preds, accuracy = _serve_predictions(compress, monkeypatch)
    assert any(p is not None for p in preds)
    assert 0.0 <= accuracy <= 1.0
    digest = hashlib.sha256(repr(preds).encode()).hexdigest()
    assert digest == SERVE_PREDICTION_DIGESTS[compress]
