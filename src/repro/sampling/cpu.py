"""CPU sampling baseline (PyG, DGL-CPU; paper §1).

Graph topology and sampling both live on the host: every GPU's
mini-batch is sampled by CPU threads (all GPUs contend for the same
cores — the scalability wall of Table 4/6), and the finished graph
samples are shipped to the GPUs over PCIe as bulk copies.

:class:`HostGraphSampler` is the per-GPU sampling loop this baseline
shares with the UVA one (:mod:`repro.sampling.uva`); they differ only
in the ops that price it.
"""

from __future__ import annotations

import numpy as np

from repro.graph.csr import CSRGraph
from repro.sampling.csp import CSPConfig, CSPStats
from repro.sampling.frontier import Block, MiniBatchSample, next_frontier
from repro.sampling.local import GraphPatch, sample_neighbors
from repro.sampling.ops import HostWork, OpTrace, PCIeCopy
from repro.utils.errors import ConfigError
from repro.utils.rng import make_rng, spawn_rngs


class HostGraphSampler:
    """Independent node-wise sampling per GPU over the whole graph,
    whose topology stays in host memory.

    A subclass names its ``baseline`` and adds the ops that price each
    layer (:meth:`_layer_ops`) and the finished samples
    (:meth:`_finish_ops`).
    """

    baseline = ""

    def __init__(self, graph: CSRGraph, num_gpus: int, seed: int = 0):
        if num_gpus <= 0:
            raise ConfigError("need at least one GPU")
        self.patch = GraphPatch.full(graph)
        self.num_gpus = num_gpus
        self.rngs = spawn_rngs(make_rng(seed), num_gpus)

    def sample(
        self,
        seeds_per_gpu: list[np.ndarray],
        config: CSPConfig,
    ) -> tuple[list[MiniBatchSample], OpTrace, CSPStats]:
        """Sample one mini-batch; each GPU draws from its own stream."""
        if len(seeds_per_gpu) != self.num_gpus:
            raise ConfigError("need one seed array per GPU")
        if config.scheme != "node":
            raise ConfigError(
                f"the {self.baseline} baseline implements node-wise sampling"
            )
        trace = OpTrace()
        k = self.num_gpus
        seeds = [np.asarray(s, dtype=np.int64) for s in seeds_per_gpu]

        frontiers = list(seeds)
        blocks_per_gpu: list[list[Block]] = [[] for _ in range(k)]
        tasks_total = sampled_total = 0
        for layer, fanout in enumerate(config.fanout):
            drawn = np.zeros(k, dtype=np.float64)
            for g in range(k):
                frontier = frontiers[g]
                src, counts = sample_neighbors(
                    self.patch,
                    frontier,
                    fanout,
                    rng=self.rngs[g],
                    replace=config.replace,
                    biased=config.biased,
                )
                offsets = np.concatenate([[0], np.cumsum(counts)])
                blocks_per_gpu[g].append(Block(frontier, src, offsets))
                tasks_total += len(frontier)
                sampled_total += len(src)
                drawn[g] = float(len(src))
            self._layer_ops(trace, layer, frontiers, drawn, config.biased)
            frontiers = [next_frontier(blocks_per_gpu[g][-1]) for g in range(k)]

        samples = [
            MiniBatchSample(seeds=seeds[g], blocks=tuple(blocks_per_gpu[g]))
            for g in range(k)
        ]
        self._finish_ops(trace, samples)
        # the host holds the whole graph: no sample is GPU-local
        return samples, trace, CSPStats(tasks_total, sampled_total, 0)

    def _layer_ops(self, trace: OpTrace, layer: int, frontiers, drawn,
                   biased: bool) -> None:
        """Price one layer: ``drawn[g]`` neighbours sampled for GPU
        ``g`` around ``frontiers[g]``."""
        raise NotImplementedError

    def _finish_ops(self, trace: OpTrace, samples) -> None:
        """Price the finished samples (default: nothing to ship)."""


class CPUSampler(HostGraphSampler):
    """Host-side sampling; samples are DMA-copied to each GPU."""

    baseline = "CPU"

    def _layer_ops(self, trace, layer, frontiers, drawn, biased):
        trace.add(HostWork(drawn, label=f"cpu-sample-L{layer}"))

    def _finish_ops(self, trace, samples):
        # one bulk H2D copy of the finished graph sample per GPU
        nbytes = np.array([float(s.nbytes) for s in samples])
        trace.add(PCIeCopy(nbytes, to_device=True, label="sample-h2d"))
