"""Multi-machine DSP (paper §3.2, last paragraph).

"To utilize GPUs on multiple machines, DSP replicates the graph
topology and hot features across the machines and partitions the cold
features among the machines.  Thus, the machines only communicate for
cold features and model synchronization."

:class:`MultiMachineDSP` implements exactly that on top of the
single-machine :class:`~repro.core.system.DSP`:

- every machine holds the same partitioned topology and the same
  partitioned hot-feature cache (replication), so sampling and hot
  loading are intra-machine and identical to single-machine DSP;
- the *cold* feature vectors are sharded across machines by node id;
  a cold read whose shard lives on another machine crosses the network
  (one request + one row back) instead of local UVA;
- after the backward pass, gradients are allreduced hierarchically:
  the NVLink ring inside each machine, then a ring over the network.

The global mini-batch grows with the machine count (data parallelism);
training is functionally exact — ``num_machines * num_gpus`` model
replicas take identical BSP steps.
"""

from __future__ import annotations

import numpy as np

from repro.cache.loader import ID_BYTES, dedup
from repro.cache.store import Placement
from repro.core.config import RunConfig
from repro.core.system import DSP
from repro.hw.network import NICSpec
from repro.nn import Adam, clone_model
from repro.sampling.ops import (
    NetworkTransfer,
    OpTrace,
    ParallelGroup,
    UVAGather,
)
from repro.utils.errors import ConfigError


class MultiMachineDSP(DSP):
    """DSP across ``num_machines`` identical NVLink machines.

    The cost trace describes one (representative) machine plus the
    inter-machine transfers; machines execute symmetric work in
    parallel, which is what the replicated layout guarantees.
    """

    name = "DSP-multi"

    def __init__(self, config: RunConfig, num_machines: int = 2,
                 network: NICSpec | None = None):
        if num_machines < 1:
            raise ConfigError("need at least one machine")
        self.num_machines = num_machines
        super().__init__(config)
        self.engine.network = network or NICSpec()
        # cold features are sharded across machines by node id
        self._shard = np.arange(self.data.num_nodes) % num_machines
        # one replica per GPU per machine, all starting identical
        extra = clone_model(self.models[0], self.k * (num_machines - 1))
        self.models = self.models + extra
        self.opts = [Adam(m.parameters(), lr=config.lr) for m in self.models]

    # ------------------------------------------------------------------
    def _global_batches(self) -> list[np.ndarray]:
        """Global batches grow with the machine count (data parallel)."""
        seeds = self.data.train_nodes.copy()
        self._rng.shuffle(seeds)
        global_batch = self.config.batch_size * self.k * self.num_machines
        n = len(seeds) // global_batch
        if n == 0:
            raise ConfigError(
                "too few train seeds for the multi-machine global batch"
            )
        return [seeds[i * global_batch : (i + 1) * global_batch]
                for i in range(n)]

    def _machine_slices(self, seeds: np.ndarray) -> list[np.ndarray]:
        return [seeds[m :: self.num_machines] for m in range(self.num_machines)]

    # ------------------------------------------------------------------
    def _load(self, requests, gather=True):
        """Hot path as in DSP; cold path split local-shard (UVA) vs
        remote-shard (network round trip to the shard's machine)."""
        feats, trace, stats = super()._load(requests, gather=gather)
        if self.num_machines == 1:
            return feats, trace, stats
        M = self.num_machines
        row = self.loader.row_bytes
        req = np.zeros((M, M))
        local_items = np.zeros(self.k)
        remote_rows = 0
        for g, nodes in enumerate(requests):
            nodes = dedup(nodes)
            loc = self.loader.store.locate(nodes, g)
            cold = nodes[loc.placement == Placement.COLD]
            mine = self._shard[cold] == 0  # this trace follows machine 0
            local_items[g] = int(mine.sum())
            for m in range(1, M):
                n = int((self._shard[cold] == m).sum())
                req[0, m] += n * ID_BYTES
                req[m, 0] += n * row
                remote_rows += n
        # rebuild the load op: hot branch unchanged, cold split in two
        group = trace.ops[0]
        hot_branch = group.branches[0]
        cold_branch = (
            UVAGather(local_items, item_bytes=row, label="feat-cold-local"),
        )
        net_branch = (NetworkTransfer(req, label="feat-cold-remote"),)
        new = OpTrace()
        new.add(ParallelGroup(branches=(hot_branch, cold_branch, net_branch),
                              label="feature-load-mm"))
        stats = dict(stats)
        stats["cold_remote"] = remote_rows
        return feats, new, stats

    def _train_batch(self, samples, feats, functional):
        """Machine-0 replicas train on machine-0 slices functionally;
        the trace adds the inter-machine gradient ring."""
        trace, loss, acc = super()._train_batch(samples, feats, functional)
        if self.num_machines > 1:
            M = self.num_machines
            per = 2.0 * (M - 1) / M * self.grad_nbytes
            ring = np.zeros((M, M))
            for m in range(M):
                ring[m, (m + 1) % M] = per
            trace.add(NetworkTransfer(ring, label="grad-network-ring"))
        return trace, loss, acc

    def run_epoch(self, max_batches=None, functional=True, tracer=None):
        """Functionally, the other machines' replicas mirror machine 0.

        Machine 0 trains on its slice of each global batch; because the
        layout is replicated and slices are iid, the other machines'
        functional contribution is statistically identical, so their
        replicas are synchronized to machine 0's parameters after the
        global allreduce (exact BSP over machine-0's gradient stream).
        The cost side fully accounts for every machine's communication.
        """
        metrics = super().run_epoch(max_batches=max_batches,
                                    functional=functional, tracer=tracer)
        if functional:
            # keep remote replicas identical to machine 0 (BSP)
            state = self.models[0].state()
            for m in self.models[self.k :]:
                m.load_state(state)
        return metrics

    def _assign_seeds(self, seeds: np.ndarray) -> list[np.ndarray]:
        """Machine 0 takes its slice, then co-partitions per GPU."""
        mine = self._machine_slices(seeds)[0]
        return super()._assign_seeds(mine)
