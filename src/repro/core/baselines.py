"""The four baseline system architectures of the paper (§7.1).

Each baseline is the same training loop as DSP but with that system's
data placement, sampler, loader and allocator:

=========  ==========  ==================  ===================  =========
system     sampling    topology location   features             allocator
=========  ==========  ==================  ===================  =========
PyG        CPU (slow)  host                host + bulk PCIe     pooled
DGL-CPU    CPU         host                host + bulk PCIe     pooled
DGL-UVA    GPU + UVA   host (UVA)          host (UVA, no cache) pooled
Quiver     GPU + UVA   host (UVA)          replicated GPU cache raw CUDA
=========  ==========  ==================  ===================  =========

PyG's sampler is a constant factor slower than DGL's (both are
host-side, but DGL's C++ sampler is better optimized — visible in
Table 6's PyG vs DGL-CPU rows).  Quiver pays raw cudaMalloc/cudaFree
per batch, which is why it trails DGL-UVA despite caching (§7.2).
The table is each architecture: of DSP's settings only Quiver honours
one, its cache budget (``honours``).
"""

from __future__ import annotations

from repro.cache.loader import FeatureLoader, HostGatherLoader
from repro.cache.policies import rank_by_degree
from repro.cache.store import NoCache, ReplicatedCache
from repro.core.system import DSP, TrainingSystem
from repro.hw.memory import AllocatorKind
from repro.sampling.cpu import CPUSampler
from repro.sampling.ops import HostWork, OpTrace, Overhead
from repro.sampling.pulldata import PullDataSampler
from repro.sampling.uva import UVASampler


class _CPUSystem(TrainingSystem):
    """Shared skeleton of PyG and DGL-CPU."""

    #: relative sampling throughput vs the DGL C++ sampler
    sampler_efficiency = 1.0

    def _prepare(self) -> None:
        super()._prepare()
        self.sampler = CPUSampler(self.data.graph, self.k, seed=self.config.seed)
        self.loader = HostGatherLoader(self.data.features, self.k)

    def _sample(self, seeds_per_gpu):
        samples, trace, _ = self.sampler.sample(seeds_per_gpu, self.csp_config)
        if self.sampler_efficiency != 1.0:
            scaled = OpTrace()
            for op in trace:
                if isinstance(op, HostWork) and op.kind == "sample":
                    scaled.add(
                        HostWork(
                            op.tasks / self.sampler_efficiency,
                            kind=op.kind,
                            label=op.label,
                        )
                    )
                else:
                    scaled.add(op)
            trace = scaled
        return samples, trace


class PyG(_CPUSystem):
    """PyTorch Geometric 2.0 architecture: CPU sampling, host features."""

    name = "PyG"
    sampler_efficiency = 0.4


class DGLCPU(_CPUSystem):
    """DGL 0.8 with its default CPU sampler (the paper's DGL-CPU)."""

    name = "DGL-CPU"


class DGLUVA(TrainingSystem):
    """DGL with UVA sampling: everything in host memory, no cache."""

    name = "DGL-UVA"

    def _prepare(self) -> None:
        super()._prepare()
        self.sampler = UVASampler(self.data.graph, self.k, seed=self.config.seed)
        self.loader = FeatureLoader(
            self.data.features, NoCache(self.data.num_nodes, self.k)
        )


class Quiver(TrainingSystem):
    """UVA sampling + replicated feature cache + raw CUDA allocation.

    cudaMalloc/cudaFree synchronize the device and serialize in the
    driver, so the per-batch penalty grows with the number of GPUs —
    which is why Quiver's sampling scales worse than DGL-UVA's in
    Table 6 even though both use the same UVA kernels.
    """

    name = "Quiver"
    allocator = AllocatorKind.RAW_CUDA
    honours = frozenset({"feature_cache_bytes"})
    #: raw (re)allocations per batch in the sampler / loader paths
    SAMPLE_ALLOCS = 8
    LOAD_ALLOCS = 3

    def _batch_overhead(self) -> float:
        return 0.0  # accounted inside the sample/load stages below

    def _alloc_stall(self, allocs: int) -> float:
        from repro.hw.memory import RAW_ALLOC_S

        # driver-serialized across GPUs: cost scales with the GPU count
        return allocs * RAW_ALLOC_S * self.k * self.batch_shrink

    def _sample(self, seeds_per_gpu):
        samples, trace = super()._sample(seeds_per_gpu)
        trace.add(Overhead(self._alloc_stall(self.SAMPLE_ALLOCS),
                           label="cudaMalloc-sample"))
        return samples, trace

    def _load(self, requests, lost=frozenset()):
        feats, trace, stats = super()._load(requests, lost=lost)
        trace.add(Overhead(self._alloc_stall(self.LOAD_ALLOCS),
                           label="cudaMalloc-load"))
        return feats, trace, stats

    def _prepare(self) -> None:
        cfg = self.config
        super()._prepare()
        self.sampler = UVASampler(self.data.graph, self.k, seed=cfg.seed)
        row_bytes = self.data.feature_dim * self.data.features.dtype.itemsize
        budget_bytes = cfg.feature_cache_bytes
        if budget_bytes is None:
            # raw cudaMalloc management fragments memory and needs big
            # safety headroom, so Quiver can devote less of the GPU to
            # its cache than DSP's planned layout can
            budget_bytes = self.cluster.gpu.memory_bytes * 0.5
        budget_nodes = int(budget_bytes // row_bytes)
        store = ReplicatedCache(
            self.data.num_nodes,
            self.k,
            rank_by_degree(self.data.graph),
            budget_nodes=budget_nodes,
        )
        self.loader = FeatureLoader(self.data.features, store)


class PullDSP(DSP):
    """DSP's layout and cache, with Pull-Data sampling swapped in.

    The alternative CSP design of Fig 11: remote frontier nodes pull
    whole adjacency lists instead of pushing sampling tasks.  Training
    and serving comparisons use it to isolate the sampling-primitive
    choice — everything else (partition, cache, pipeline) is DSP's.
    Pull-Data draws from the unbiased patches, so the GNS cache bias is
    refused rather than ignored.
    """

    name = "DSP-Pull"
    honours = DSP.honours - {"cache_bias"}
    sampler_cls = PullDataSampler
