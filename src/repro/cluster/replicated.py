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
with the server count, and server 0's ``num_gpus`` GPUs train
functionally on server 0's slice of every global batch.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from repro.cache.loader import ID_BYTES
from repro.cache.store import Placement
from repro.cluster.csp import nic_ring
from repro.core.system import DSP
from repro.hw.devices import Cluster
from repro.sampling.ops import NetworkTransfer


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

    def _load(self, requests, lost=frozenset()):
        """DSP's load, plus a network branch: a cold row on another
        server's shard (node ``v``'s on server ``v % num_nodes``) costs
        one request and one row, in the loader's wire format, to that
        server.  Every cold row still crosses the PCIe (from host
        memory, or from the NIC on its last hop): the loader's own cold
        path prices it."""
        feats, trace, stats = super()._load(requests, lost=lost)
        M = self.config.num_nodes
        if M == 1:
            return feats, trace, stats
        cold = np.concatenate([p.nodes[p.placement == Placement.COLD]
                               for p in self.loader.last_plans])
        remote = np.bincount(cold % M, minlength=M)[1:]
        req = np.zeros((M, M))
        req[0, 1:] = remote * ID_BYTES
        req[1:, 0] = remote * self.loader.wire_row_bytes
        group = trace.ops[0]
        net_branch = (NetworkTransfer(req, label="feat-cold-remote"),)
        trace.ops[0] = replace(group, branches=group.branches + (net_branch,))
        stats["cold_remote"] = int(remote.sum())
        return feats, trace, stats

    def _train_batch(self, samples, feats, functional):
        """Server 0's GPUs take a BSP step on server 0's slice; the
        trace adds the cross-server gradient ring."""
        trace, loss, acc = super()._train_batch(samples, feats, functional)
        M = self.config.num_nodes
        if M > 1:
            trace.add(NetworkTransfer(nic_ring(M, self.grad_nbytes),
                                      label="grad-network-ring"))
        return trace, loss, acc
