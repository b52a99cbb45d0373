"""Tests for hierarchical CSP trace lowering (cluster collectives)."""

import numpy as np
import pytest

from repro.cluster import lower_trace
from repro.cluster.csp import _split_alltoall, _split_allreduce
from repro.sampling.ops import (
    AllReduce,
    AllToAll,
    NetworkTransfer,
    OpTrace,
    ParallelGroup,
)
from repro.utils.errors import ReproError

S, G = 2, 2
K = S * G


def dense(seed: int = 0) -> np.ndarray:
    rng = np.random.default_rng(seed)
    m = rng.uniform(10.0, 100.0, size=(K, K))
    np.fill_diagonal(m, 0.0)
    return m


def block_diagonal(m: np.ndarray) -> bool:
    blocks = m.reshape(S, G, S, G)
    for a in range(S):
        for b in range(S):
            if a != b and blocks[a, :, b, :].any():
                return False
    return True


def cross_bytes(m: np.ndarray) -> float:
    blocks = m.reshape(S, G, S, G)
    ids = np.arange(S)
    return float(m.sum() - blocks[ids, :, ids, :].sum())


class TestSplitAllToAll:
    def test_byte_conservation(self):
        m = dense()
        ops = _split_alltoall(m, S, G, "x")
        intra, net, scatter = ops
        cross = cross_bytes(m)
        within = m.sum() - cross
        assert intra.matrix.sum() == pytest.approx(within + cross)
        assert net.matrix.sum() == pytest.approx(cross)
        assert scatter.matrix.sum() == pytest.approx(cross)

    def test_stages_are_block_diagonal(self):
        """Both intra stages must be priceable on the block-diagonal
        topology — no cross-server NVLink entries survive lowering."""
        ops = _split_alltoall(dense(), S, G, "x")
        assert block_diagonal(ops[0].matrix)
        assert block_diagonal(ops[2].matrix)

    def test_network_stage_shape_and_labels(self):
        ops = _split_alltoall(dense(), S, G, "shuffle")
        assert isinstance(ops[1], NetworkTransfer)
        assert ops[1].matrix.shape == (S, S)
        assert [op.label for op in ops] == [
            "shuffle-intra", "shuffle-net", "shuffle-scatter"
        ]

    def test_local_only_matrix_passes_through(self):
        m = np.zeros((K, K))
        m[0, 1] = m[2, 3] = 64.0  # within-server only
        ops = _split_alltoall(m, S, G, "x")
        assert len(ops) == 1
        assert isinstance(ops[0], AllToAll)
        assert np.array_equal(ops[0].matrix, m)

    def test_gateway_funnel(self):
        """Every sender's cross-server bytes ride to its server's
        gateway (local GPU 0) in stage 1."""
        m = np.zeros((K, K))
        m[1, 2] = 100.0  # GPU 1 (server 0) -> GPU 2 (server 1)
        intra, net, *rest = _split_alltoall(m, S, G, "x")
        assert intra.matrix[1, 0] == 100.0  # funnel to gateway GPU 0
        assert net.matrix[0, 1] == 100.0
        # destination is server 1's own gateway: no scatter op needed
        assert not rest

    def test_scatter_only_when_non_gateway_destination(self):
        m = np.zeros((K, K))
        m[1, 3] = 100.0  # destination GPU 3 is not server 1's gateway
        ops = _split_alltoall(m, S, G, "x")
        assert len(ops) == 3
        assert ops[2].matrix[2, 3] == 100.0  # gateway 2 -> GPU 3

    def test_bad_shape_raises(self):
        with pytest.raises(ReproError):
            _split_alltoall(np.zeros((3, 3)), S, G, "x")


class TestSplitAllReduce:
    def test_ring_bytes(self):
        nbytes = 1e6
        ops = _split_allreduce(AllReduce(nbytes, label="grad"), S, G)
        rs, net, ag = ops
        # intra phases: each GPU ships (G-1)/G of its shard to the local
        # successor; network ring: each server ships 2(S-1)/S once
        assert rs.matrix.sum() == pytest.approx(K * (G - 1) / G * nbytes)
        assert net.matrix.sum() == pytest.approx(S * 2 * (S - 1) / S * nbytes)
        assert ag.matrix.sum() == pytest.approx(K * (G - 1) / G * nbytes)
        assert block_diagonal(rs.matrix)
        assert block_diagonal(ag.matrix)

    def test_single_gpu_servers_skip_intra_phases(self):
        ops = _split_allreduce(AllReduce(1e6, label="grad"), 4, 1)
        assert len(ops) == 1
        assert isinstance(ops[0], NetworkTransfer)


class TestLowerTrace:
    def test_single_server_identity_object(self):
        trace = OpTrace()
        trace.add(AllToAll(dense(), label="x"))
        assert lower_trace(trace, 1, K) is trace

    def test_lowered_trace_structure(self):
        trace = OpTrace()
        trace.add(AllToAll(dense(), label="x"))
        trace.add(AllReduce(1e6, label="grad"))
        lowered = lower_trace(trace, S, G)
        kinds = [type(op).__name__ for op in lowered]
        assert kinds == ["AllToAll", "NetworkTransfer", "AllToAll",
                        "AllToAll", "NetworkTransfer", "AllToAll"]

    def test_parallel_group_recursed(self):
        trace = OpTrace()
        trace.add(ParallelGroup(
            branches=((AllToAll(dense(), label="hot"),), ()),
            label="feature-load",
        ))
        lowered = lower_trace(trace, S, G)
        (group,) = list(lowered)
        assert isinstance(group, ParallelGroup)
        hot = group.branches[0]
        assert [type(op).__name__ for op in hot] == [
            "AllToAll", "NetworkTransfer", "AllToAll"
        ]
        assert group.branches[1] == ()

    def test_deterministic(self):
        trace = OpTrace()
        trace.add(AllToAll(dense(), label="x"))
        a = lower_trace(trace, S, G)
        b = lower_trace(trace, S, G)
        for op_a, op_b in zip(a, b):
            assert np.array_equal(op_a.matrix, op_b.matrix)

    def test_lowered_trace_is_priceable(self):
        """The cluster engine lowers what it prices: the raw trace and
        its lowering cost the same.  A plain engine on the flat topology
        still refuses the raw trace (cross-server NVLink)."""
        from dataclasses import fields

        from repro.cluster import ClusterCostEngine
        from repro.core.cost import CostEngine
        from repro.hw import ClusterTopology, NICSpec, Topology
        from repro.hw.network import multi_server_cluster
        from repro.utils.errors import ConfigError

        ct = ClusterTopology(num_servers=S, server=Topology.dgx1(G),
                             nic=NICSpec.preset("ethernet"))
        cluster = multi_server_cluster(ct)
        engine = ClusterCostEngine(cluster, ct)
        trace = OpTrace()
        trace.add(AllToAll(dense(), label="x"))
        trace.add(AllReduce(1e6, label="grad"))
        raw = engine.trace_cost(trace)
        lowered = engine.trace_cost(lower_trace(trace, S, G))
        assert len(raw) == len(lowered) == 6
        for a, b in zip(raw, lowered):
            for f in fields(a):
                assert np.array_equal(getattr(a, f.name), getattr(b, f.name))
        assert sum(c.network_bytes for c in raw) == pytest.approx(
            cross_bytes(dense()) + S * 2 * (S - 1) / S * 1e6
        )
        assert all(c.stage >= 0.0 for c in raw)
        with pytest.raises(ConfigError):
            CostEngine(cluster).trace_cost(trace)
