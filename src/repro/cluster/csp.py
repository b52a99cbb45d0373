"""Hierarchical CSP: lower single-server collectives to cluster ops.

The collective sampler and feature loader are topology-agnostic — they
emit ``k x k`` :class:`~repro.sampling.ops.AllToAll` matrices over all
``k = S * G`` GPUs as if one NVLink mesh connected them.  On a cluster
there is no such mesh, so :class:`~repro.cluster.engine.ClusterCostEngine`
rewrites every trace it prices with this pass (GSplit's two-stage
shuffle, FastSample's hierarchical exchange):

- **AllToAll** becomes up to three barrier-separated ops:

  1. an intra-server all-to-all that delivers the within-server payload
     *and* funnels each GPU's cross-server bytes to its server's
     gateway GPU over NVLink (all servers shuffle concurrently — their
     link sets are disjoint, so one block-diagonal matrix prices them
     in parallel);
  2. one batched ``S x S`` :class:`~repro.sampling.ops.NetworkTransfer`
     moving the aggregated cross-server payload NIC-to-NIC;
  3. an intra-server scatter from each gateway to the final
     destination GPUs.

- **AllReduce** becomes the hierarchical ring: an intra-server
  reduce-scatter ring, a cross-server ring allreduce of the scattered
  shards (``2 (S-1)/S`` of the gradient through every NIC), and an
  intra-server allgather ring.

Every other op type is already cluster-correct on the block-diagonal
topology (per-GPU kernels, UVA/PCIe channels are per-server resources;
host work is handled by :class:`repro.cluster.engine.ClusterCostEngine`)
and passes through unchanged.  With ``num_servers == 1`` the input
trace is returned *as the same object* — the single-server oracle.

Byte conservation is asserted on every lowered AllToAll: the lowered
network matrix must carry exactly the cross-server payload of the
original matrix, and the intra-server stages exactly the within-server
payload plus the gateway funnel/scatter bytes.
"""

from __future__ import annotations

import numpy as np

from repro.sampling.ops import (
    AllReduce,
    AllToAll,
    NetworkTransfer,
    OpTrace,
    ParallelGroup,
)
from repro.utils.errors import ReproError


def _split_alltoall(matrix: np.ndarray, num_servers: int,
                    gpus_per_server: int, label: str) -> list:
    """Rewrite one global all-to-all into the two-stage shuffle."""
    s, g = num_servers, gpus_per_server
    k = s * g
    m = np.asarray(matrix, dtype=np.float64)
    if m.shape != (k, k):
        raise ReproError(
            f"alltoall matrix is {m.shape}, expected ({k}, {k}) for "
            f"{s} servers x {g} GPUs"
        )
    blocks = m.reshape(s, g, s, g)
    server_ids = np.arange(s)
    within = blocks[server_ids, :, server_ids, :]  # (s, g, g) diagonal blocks
    cross_total = float(m.sum() - within.sum())
    if cross_total == 0.0:
        return [AllToAll(m, label=label)]

    # stage 1: within-server payload + funnel cross-server bytes to the
    # gateway (local GPU 0) of the sending server
    stage1 = np.zeros((s, g, s, g))
    stage1[server_ids, :, server_ids, :] = within
    outbound = blocks.sum(axis=3)  # (s, g, s): bytes from (s, g) to server s'
    outbound[server_ids, :, server_ids] = 0.0
    to_gateway = outbound.sum(axis=2)  # (s, g)
    stage1[server_ids, :, server_ids, 0] += to_gateway

    # stage 2: one batched NIC-to-NIC exchange of the aggregated payload
    net = blocks.sum(axis=(1, 3))  # (s, s)
    net[server_ids, server_ids] = 0.0

    # stage 3: each receiving gateway scatters to the destination GPUs
    inbound = blocks.sum(axis=1)  # (s, s', g'): bytes into (s', g') from s
    inbound[server_ids, server_ids, :] = 0.0
    from_gateway = inbound.sum(axis=0)  # (s', g')
    stage3 = np.zeros((s, g, s, g))
    stage3[server_ids, 0, server_ids, :] = from_gateway

    # byte conservation across the lowering (cheap, always on)
    if not np.isclose(net.sum(), cross_total):
        raise ReproError(
            f"{label}: network bytes {net.sum()} != cross-server "
            f"payload {cross_total}"
        )
    if not np.isclose(stage1.sum(), within.sum() + cross_total):
        raise ReproError(f"{label}: stage-1 bytes not conserved")
    if not np.isclose(stage3.sum(), cross_total):
        raise ReproError(f"{label}: stage-3 bytes not conserved")

    ops = [AllToAll(stage1.reshape(k, k), label=f"{label}-intra"),
           NetworkTransfer(net, label=f"{label}-net")]
    if from_gateway[:, 1:].any():
        ops.append(AllToAll(stage3.reshape(k, k), label=f"{label}-scatter"))
    return ops


def _ring_matrix(num_servers: int, gpus_per_server: int,
                 per_gpu_bytes: float) -> np.ndarray:
    """Block-diagonal intra-server ring: each GPU sends to its local
    successor (all servers ring concurrently on disjoint links)."""
    s, g = num_servers, gpus_per_server
    k = s * g
    m = np.zeros((k, k))
    for srv in range(s):
        for local in range(g):
            src = srv * g + local
            dst = srv * g + (local + 1) % g
            if src != dst:
                m[src, dst] = per_gpu_bytes
    return m


def _split_allreduce(op: AllReduce, num_servers: int,
                     gpus_per_server: int) -> list:
    """Hierarchical allreduce: intra reduce-scatter, NIC ring, allgather."""
    s, g = num_servers, gpus_per_server
    nbytes = float(op.nbytes)
    ops: list = []
    if g > 1:
        phase = _ring_matrix(s, g, (g - 1) / g * nbytes)
        ops.append(AllToAll(phase, label=f"{op.label}-reduce-scatter"))
    # every server pushes 2 (S-1)/S of the (shard-partitioned) gradient
    # through its NIC — the same ring volume a flat ring charges
    ring = np.zeros((s, s))
    per = 2.0 * (s - 1) / s * nbytes
    for srv in range(s):
        ring[srv, (srv + 1) % s] = per
    ops.append(NetworkTransfer(ring, label=f"{op.label}-net-ring"))
    if g > 1:
        phase = _ring_matrix(s, g, (g - 1) / g * nbytes)
        ops.append(AllToAll(phase, label=f"{op.label}-allgather"))
    return ops


def _lower_op(op, num_servers: int, gpus_per_server: int) -> list:
    if isinstance(op, AllToAll):
        return _split_alltoall(op.matrix, num_servers, gpus_per_server,
                               op.label)
    if isinstance(op, AllReduce):
        return _split_allreduce(op, num_servers, gpus_per_server)
    if isinstance(op, ParallelGroup):
        branches = tuple(
            tuple(
                out
                for branch_op in branch
                for out in _lower_op(branch_op, num_servers, gpus_per_server)
            )
            for branch in op.branches
        )
        return [ParallelGroup(branches, label=op.label)]
    return [op]


def lower_trace(trace: OpTrace, num_servers: int,
                gpus_per_server: int) -> OpTrace:
    """Lower a single-server op trace to hierarchical cluster form.

    Identity (the same :class:`OpTrace` object) when
    ``num_servers <= 1`` — the bit-identical single-server oracle.
    """
    if num_servers <= 1:
        return trace
    lowered = OpTrace()
    for op in trace:
        for out in _lower_op(op, num_servers, gpus_per_server):
            lowered.add(out)
    return lowered
