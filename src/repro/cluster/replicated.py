"""Replicated DSP across servers (paper §3.2, last paragraph).

"To utilize GPUs on multiple machines, DSP replicates the graph
topology and hot features across the machines and partitions the cold
features among the machines.  Thus, the machines only communicate for
cold features and model synchronization."

:class:`ReplicatedDSP` is that mode (FastSample's hybrid partitioning)
on the ordinary :class:`~repro.core.config.RunConfig`: ``num_nodes``
servers of ``num_gpus`` GPUs each, joined by the ``nic`` preset.
Sampling and hot loading are single-server DSP on every server; a cold
row on another server's shard crosses the network (one request, one
row back) instead of local UVA; gradients ring over NVLink, then over
the NICs.  Servers do symmetric work, so the simulated hardware is one
DGX-1 (server 0) plus its NIC traffic.  The global mini-batch grows
with the server count, and server 0's ``num_gpus`` replicas train
functionally on server 0's slice of every global batch.
"""

from __future__ import annotations

import numpy as np

from repro.cache.loader import ID_BYTES, dedup
from repro.cache.store import Placement
from repro.cluster.csp import nic_ring
from repro.core.system import DSP
from repro.hw.devices import Cluster
from repro.sampling.ops import (
    NetworkTransfer,
    OpTrace,
    ParallelGroup,
    UVAGather,
)


class ReplicatedDSP(DSP):
    """DSP replicated on ``config.num_nodes`` identical servers."""

    name = "DSP-replicated"

    def _make_cluster(self) -> Cluster:
        """One DGX-1: server 0 stands for every server."""
        return Cluster.dgx1(self.config.num_gpus,
                            scale=self.base_dataset.spec.scale)

    def _assign_seeds(self, seeds: np.ndarray) -> list[np.ndarray]:
        """Server 0 takes its slice, then co-partitions per GPU."""
        return super()._assign_seeds(seeds[:: self.config.num_nodes])

    def _load(self, requests, gather=True):
        """Hot path as in DSP; every cold row crosses the PCIe (from host
        memory, or from the NIC on its last hop), and one on another
        server's shard (node ``v``'s on server ``v % num_nodes``) adds a
        network round trip to that server."""
        feats, trace, stats = super()._load(requests, gather=gather)
        M = self.config.num_nodes
        if M == 1:
            return feats, trace, stats
        row = self.loader.row_bytes
        req = np.zeros((M, M))
        pcie_items = np.zeros(self.k)
        remote_rows = 0
        for g, nodes in enumerate(requests):
            nodes = dedup(nodes)
            loc = self.loader.store.locate(nodes, g)
            cold = nodes[loc.placement == Placement.COLD]
            per_server = np.bincount(cold % M, minlength=M)
            pcie_items[g] = len(cold)  # this trace follows server 0
            req[0, 1:] += per_server[1:] * ID_BYTES
            req[1:, 0] += per_server[1:] * row
            remote_rows += int(per_server[1:].sum())
        # rebuild the load op: hot branch unchanged, cold PCIe + network
        hot_branch = trace.ops[0].branches[0]
        cold_branch = (
            UVAGather(pcie_items, item_bytes=row, label="feat-cold-pcie"),
        )
        net_branch = (NetworkTransfer(req, label="feat-cold-remote"),)
        new = OpTrace()
        new.add(ParallelGroup(branches=(hot_branch, cold_branch, net_branch),
                              label="feature-load-mm"))
        stats = dict(stats)
        stats["cold_remote"] = remote_rows
        return feats, new, stats

    def _train_batch(self, samples, feats, functional):
        """Server 0's replicas take a BSP step on server 0's slice; the
        trace adds the cross-server gradient ring."""
        trace, loss, acc = super()._train_batch(samples, feats, functional)
        M = self.config.num_nodes
        if M > 1:
            trace.add(NetworkTransfer(nic_ring(M, self.grad_nbytes),
                                      label="grad-network-ring"))
        return trace, loss, acc
