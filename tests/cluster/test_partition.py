"""Tests for hierarchical (server -> GPU) partitioning."""

import numpy as np
import pytest

import repro.cluster.partition as cluster_partition
from repro import parallel
from repro.cluster import HierarchicalPartition, hierarchical_partition
from repro.cluster.partition import _cut
from repro.graph.datasets import load_dataset
from repro.graph.partition import Partition
from repro.utils.errors import PartitionError

GRAPH = load_dataset("tiny").graph


def _digest(hp: HierarchicalPartition) -> tuple:
    return hp.server.assignment.tobytes(), hp.gpu.assignment.tobytes()


def _spy_run_tasks(monkeypatch) -> list:
    """Record the worker count of every inner-cut ``run_tasks`` call."""
    calls = []
    run_tasks = cluster_partition.run_tasks

    def spy(specs, workers=1):
        calls.append(workers)
        return run_tasks(specs, workers)

    monkeypatch.setattr(cluster_partition, "run_tasks", spy)
    return calls


def _fan_out(monkeypatch) -> list:
    """Make every inner cut fan out over two worker processes."""
    monkeypatch.setattr(cluster_partition, "_FORK_MIN_EDGES", 0)
    monkeypatch.setattr(cluster_partition, "default_workers", lambda: 2)
    return _spy_run_tasks(monkeypatch)


def _hierarchical_in_worker(seed):
    return _digest(hierarchical_partition(GRAPH, 2, 2, seed=seed))


class TestInnerCutFanOut:
    """The per-server inner cuts run inline on small graphs and in
    worker processes on large ones, to the same assignment."""

    def test_small_graphs_run_inline(self, monkeypatch):
        calls = _spy_run_tasks(monkeypatch)
        hierarchical_partition(GRAPH, 2, 2, seed=0)
        assert calls == [1]

    @pytest.mark.parametrize("method", ["metis", "ldg", "hash"])
    @pytest.mark.parametrize("servers,gpus", [(2, 2), (3, 2), (2, 4)])
    def test_fanned_out_equals_inline(self, monkeypatch, method, servers, gpus):
        inline = _digest(hierarchical_partition(GRAPH, servers, gpus, method, seed=5))
        calls = _fan_out(monkeypatch)
        fanned = _digest(hierarchical_partition(GRAPH, servers, gpus, method, seed=5))
        assert calls == [2]
        assert fanned == inline

    def test_nested_inside_a_worker(self, monkeypatch):
        """A hierarchical partition built inside a ``run_tasks`` worker
        (e.g. a fanned-out epoch of a multi-server system) forks its own
        inner-cut pool from there."""
        want = [_digest(hierarchical_partition(GRAPH, 2, 2, seed=s)) for s in (3, 4)]
        _fan_out(monkeypatch)
        specs = [parallel.RunSpec(_hierarchical_in_worker, f"seed {s}", {"seed": s})
                 for s in (3, 4)]
        assert parallel.run_tasks(specs, workers=2) == want


class TestHierarchicalPartition:
    @pytest.mark.parametrize("method", ["metis", "ldg", "hash"])
    def test_validates_clean(self, method):
        hp = hierarchical_partition(GRAPH, 2, 2, method=method, seed=0)
        hp.validate()  # nesting + byte conservation, must not raise
        hp.validate(row_bytes=512.0)

    def test_nesting_invariant(self):
        hp = hierarchical_partition(GRAPH, 2, 4, method="metis", seed=1)
        assert np.array_equal(hp.gpu.assignment // 4, hp.server.assignment)
        assert hp.num_servers == 2
        assert hp.num_gpus == 8
        assert hp.server_of_gpu(0) == 0
        assert hp.server_of_gpu(7) == 1

    def test_byte_conservation_across_levels(self):
        hp = hierarchical_partition(GRAPH, 2, 2, method="ldg", seed=0)
        rollup = hp.gpu.part_sizes.reshape(2, 2).sum(axis=1)
        assert np.array_equal(rollup, hp.server.part_sizes)
        assert hp.gpu.part_sizes.sum() == GRAPH.num_nodes

    @pytest.mark.parametrize("method", ["metis", "ldg"])
    def test_imbalance_bounded(self, method):
        hp = hierarchical_partition(GRAPH, 2, 2, method=method, seed=0)
        server_imb, gpu_imb = hp.imbalance()
        assert 1.0 <= server_imb <= 1.5
        assert 1.0 <= gpu_imb <= 1.5

    @pytest.mark.parametrize("method", ["metis", "ldg", "hash"])
    def test_single_server_is_flat_oracle(self, method):
        """A 1-server cluster must reproduce the flat partitioner
        bit-identically — same seed, same assignment array."""
        hp = hierarchical_partition(GRAPH, 1, 4, method=method, seed=7)
        flat = _cut(GRAPH, 4, method, 7)
        assert np.array_equal(hp.gpu.assignment, flat.assignment)
        assert not hp.server.assignment.any()

    def test_deterministic(self):
        a = hierarchical_partition(GRAPH, 2, 2, method="metis", seed=3)
        b = hierarchical_partition(GRAPH, 2, 2, method="metis", seed=3)
        assert np.array_equal(a.gpu.assignment, b.gpu.assignment)

    def test_seed_matters(self):
        a = hierarchical_partition(GRAPH, 2, 2, method="hash", seed=0)
        b = hierarchical_partition(GRAPH, 2, 2, method="hash", seed=1)
        assert not np.array_equal(a.gpu.assignment, b.gpu.assignment)

    def test_rejects_bad_shapes(self):
        with pytest.raises(PartitionError):
            hierarchical_partition(GRAPH, 0, 2)
        with pytest.raises(PartitionError):
            hierarchical_partition(GRAPH, 2, 2, method="voronoi")

    def test_rejects_server_smaller_than_its_gpus(self):
        # 4 nodes over 2 servers cannot feed 8 GPUs each
        from repro.graph.csr import CSRGraph

        small = CSRGraph.from_edges(
            np.array([0, 1, 2, 3]), np.array([1, 2, 3, 0]), num_nodes=4
        )
        with pytest.raises(PartitionError):
            hierarchical_partition(small, 2, 8, method="hash", seed=0)

    def test_constructor_checks_nesting_shapes(self):
        n = GRAPH.num_nodes
        server = Partition(np.zeros(n, dtype=np.int64), 1)
        gpu = Partition(np.zeros(n, dtype=np.int64), 3)
        with pytest.raises(PartitionError):
            HierarchicalPartition(server, gpu, 2)  # 3 != 1 * 2

    def test_validate_catches_broken_nesting(self):
        hp = hierarchical_partition(GRAPH, 2, 2, method="hash", seed=0)
        broken = np.array(hp.gpu.assignment)
        victim = int(np.flatnonzero(hp.server.assignment == 0)[0])
        broken[victim] = 3  # server-0 node assigned to a server-1 GPU
        bad = HierarchicalPartition(
            hp.server, Partition(broken, 4), hp.gpus_per_server
        )
        with pytest.raises(PartitionError):
            bad.validate()
