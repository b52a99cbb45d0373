"""Hierarchical (server -> GPU) graph partitioning.

GSplit and FastSample both partition in two levels: a server-level cut
minimizes traffic over the slow cross-server network, then each
server's node set is cut again into per-GPU patches for the NVLink
tier.  This module reuses the flat partitioners of
:mod:`repro.graph.partition` at both levels:

1. cut the whole graph into ``S`` server parts;
2. cut the subgraph *induced* by each server's nodes into ``G`` local
   patches (cross-server edges are invisible to the inner cut — they
   are already paid for at the network tier); the inner cuts are
   independent and, on large graphs, run in parallel worker processes;
3. map local patch ``g`` of server ``s`` to global GPU ``s * G + g``.

The result nests by construction and :meth:`HierarchicalPartition.validate`
re-checks the byte-conservation invariants: every node appears in
exactly one GPU patch, each server part is the disjoint union of its
``G`` patches, and total bytes are conserved across the two levels.

A single-server "cluster" degenerates to the flat partitioner
bit-identically: the server cut is the trivial all-zeros partition (no
RNG draws) and the one induced subgraph is the whole graph under the
identity mapping, so the inner cut sees exactly the arrays the flat
path sees.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.graph.csr import CSRGraph
from repro.graph.partition import (
    Partition,
    hash_partition,
    ldg_partition,
    metis_partition,
)
from repro.parallel import RunSpec, default_workers, run_tasks
from repro.utils.errors import PartitionError

#: induced-subgraph edges (all servers) from which the per-server
#: inner cuts run in parallel processes instead of inline
_FORK_MIN_EDGES = 1 << 20


def _cut(graph: CSRGraph, num_parts: int, method: str, seed: int) -> Partition:
    """One flat cut, dispatched exactly like ``DSP._prepare`` does."""
    if method == "hash":
        return hash_partition(graph.num_nodes, num_parts, seed=seed)
    if method == "ldg":
        return ldg_partition(graph, num_parts, rng=seed)
    if method == "metis":
        return metis_partition(graph, num_parts, rng=seed)
    raise PartitionError(f"unknown partitioner {method!r}")


def _server_seed(seed: int, server: int) -> int:
    """Independent inner-cut seed per server (pure function of both)."""
    seq = np.random.SeedSequence(entropy=seed, spawn_key=(server,))
    return int(seq.generate_state(1, dtype=np.uint64)[0] % np.iinfo(np.int64).max)


@dataclass(frozen=True)
class HierarchicalPartition:
    """A nested two-level cut: ``S`` servers, ``G`` GPU patches each.

    ``server.assignment[v]`` is node ``v``'s server;
    ``gpu.assignment[v]`` is its global GPU in server-major order, so
    ``gpu.assignment // gpus_per_server == server.assignment``
    everywhere (the nesting invariant).
    """

    server: Partition
    gpu: Partition
    gpus_per_server: int

    def __post_init__(self) -> None:
        if self.gpus_per_server < 1:
            raise PartitionError("gpus_per_server must be positive")
        if self.gpu.num_parts != self.server.num_parts * self.gpus_per_server:
            raise PartitionError(
                "gpu partition must have num_servers * gpus_per_server parts"
            )
        if self.gpu.num_nodes != self.server.num_nodes:
            raise PartitionError("levels must partition the same node set")

    @property
    def num_servers(self) -> int:
        return self.server.num_parts

    @property
    def num_gpus(self) -> int:
        return self.gpu.num_parts

    def server_of_gpu(self, gpu: int) -> int:
        return gpu // self.gpus_per_server

    def imbalance(self) -> tuple[float, float]:
        """(server-level, GPU-level) max/ideal part-size ratios."""
        return self.server.imbalance(), self.gpu.imbalance()

    def validate(self, row_bytes: float = 1.0) -> None:
        """Byte-conservation audit of the two-level cut.

        Checks, with ``row_bytes`` bytes per node: (1) nesting — every
        node's GPU lies inside its server; (2) level conservation —
        each server part holds exactly the bytes of its ``G`` patches;
        (3) global conservation — both levels account for every byte of
        the graph exactly once.  Raises :class:`PartitionError` on any
        violation.
        """
        g = self.gpus_per_server
        if np.any(self.gpu.assignment // g != self.server.assignment):
            raise PartitionError("GPU patches do not nest inside server parts")
        server_bytes = self.server.part_sizes * row_bytes
        gpu_bytes = self.gpu.part_sizes * row_bytes
        rollup = gpu_bytes.reshape(self.num_servers, g).sum(axis=1)
        if not np.array_equal(rollup, server_bytes):
            raise PartitionError(
                f"bytes not conserved across levels: per-server "
                f"{server_bytes.tolist()} != patch roll-up {rollup.tolist()}"
            )
        total = self.server.num_nodes * row_bytes
        if not (server_bytes.sum() == gpu_bytes.sum() == total):
            raise PartitionError(
                f"bytes not conserved globally: graph={total}, "
                f"servers={server_bytes.sum()}, gpus={gpu_bytes.sum()}"
            )


def hierarchical_partition(
    graph: CSRGraph,
    num_servers: int,
    gpus_per_server: int,
    method: str = "metis",
    seed: int = 0,
) -> HierarchicalPartition:
    """Two-level cut of ``graph``: servers first, then per-GPU patches.

    ``method`` is applied at both levels ("metis" | "ldg" | "hash").
    The inner cuts use per-server seeds derived from ``seed`` so the
    result is a pure function of the arguments, whether they run
    inline or, once the induced subgraphs hold ``_FORK_MIN_EDGES``
    edges, one :func:`repro.parallel.run_tasks` worker per server; with
    one server the inner seed is ``seed`` itself and the GPU level is
    bit-identical to the flat partitioner (the single-server oracle).
    """
    if num_servers < 1 or gpus_per_server < 1:
        raise PartitionError("need at least one server and one GPU per server")
    n = graph.num_nodes
    if num_servers == 1:
        gpu = _cut(graph, gpus_per_server, method, seed)
        server = Partition(np.zeros(n, dtype=np.int64), 1)
        return HierarchicalPartition(server, gpu, gpus_per_server)

    server = _cut(graph, num_servers, method, seed)
    specs, old_ids, edges = [], [], 0
    for s in range(num_servers):
        nodes = server.nodes_of(s)
        if len(nodes) < gpus_per_server:
            raise PartitionError(
                f"server {s} holds {len(nodes)} nodes — fewer than its "
                f"{gpus_per_server} GPUs; use fewer parts or a larger graph"
            )
        sub, ids = graph.induced_subgraph(nodes)
        specs.append(RunSpec(_cut, f"server {s} of {num_servers}", {
            "graph": sub, "num_parts": gpus_per_server, "method": method,
            "seed": _server_seed(seed, s),
        }))
        old_ids.append(ids)
        edges += sub.num_edges
    # the inner cuts are independent: one process each, unless forking
    # would cost more than the cuts themselves
    workers = default_workers() if edges >= _FORK_MIN_EDGES else 1
    assignment = np.zeros(n, dtype=np.int64)
    for s, (ids, cut) in enumerate(zip(old_ids, run_tasks(specs, workers))):
        assignment[ids] = s * gpus_per_server + cut.assignment
    hp = HierarchicalPartition(
        server=server,
        gpu=Partition(assignment, num_servers * gpus_per_server),
        gpus_per_server=gpus_per_server,
    )
    hp.validate()
    return hp
