"""Run configuration shared by all systems."""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.utils.errors import ConfigError

#: the paper's default sampling fan-out (§7.1)
DEFAULT_FANOUT = (15, 10, 5)


@dataclass(frozen=True)
class RunConfig:
    """Everything that defines one training run.

    The paper's workload (§7.1) is a 3-layer GraphSAGE, hidden 256,
    per-GPU batch 1024, fan-out [15, 10, 5].  The library defaults keep
    everything except the per-GPU batch, which shrinks with the
    ~1000x-smaller datasets (fixed per-batch overheads are rescaled
    accordingly, see :class:`repro.core.cost.CostEngine`).
    """

    dataset: str = "products"
    num_gpus: int = 8
    model: str = "sage"  # "sage" | "gcn" | "gat"
    hidden_dim: int = 256  # the paper's hidden width (§7.1)
    batch_size: int = 32  # seeds per GPU per iteration
    fanout: tuple[int, ...] = DEFAULT_FANOUT
    scheme: str = "node"
    biased: bool = False
    replace: bool = True
    lr: float = 3e-3
    queue_capacity: int = 2  # paper §5: capacity 2 suffices
    ccc: bool = True  # centralized communication coordination
    #: worker instances per GPU for the sampler/loader stages; DSP uses
    #: one of each (the multi-instance alternative costs memory and
    #: contention, §5) — the ablation benchmark sweeps these
    sampler_workers: int = 1
    loader_workers: int = 1
    hot_policy: str = "degree"
    #: graph partitioner for DSP's patches: "metis" (default), "ldg"
    #: (one-pass streaming) or "hash" (the locality-free control)
    partitioner: str = "metis"
    #: inter-GPU communication library (paper §3.2): "nccl" works on any
    #: topology; "nvshmem" has lower launch overhead but needs a full
    #: NVLink mesh and is rejected on topologies without one
    comm_backend: str = "nccl"
    #: per-GPU feature-cache budget in bytes; None = whatever memory
    #: remains after the topology (DSP) or a Quiver-like default
    feature_cache_bytes: float | None = None
    #: per-GPU topology budget in bytes; None = cache the whole patch
    #: if it fits (Fig 10 sweeps this against feature_cache_bytes)
    topology_cache_bytes: float | None = None
    #: servers in the cluster; ``num_gpus`` counts GPUs *per server*, so
    #: the total GPU count is ``num_nodes * num_gpus``.  Only DSP-family
    #: systems support ``num_nodes > 1`` (see ``docs/cluster.md``)
    num_nodes: int = 1
    #: cross-server NIC preset: "ethernet" (100 GbE) or "infiniband"
    #: (HDR); every system's cost engine prices network transfers on
    #: it, and single-server systems emit none
    nic: str = "ethernet"
    #: access-frequency dynamic feature caching (DSP family only; see
    #: ``docs/caching.md``) — off by default, in which case the cache
    #: is the paper's static layout-time placement
    dynamic_cache: bool = False
    #: loader calls per dynamic promotion/demotion window
    cache_window: int = 8
    #: EWMA weight of the newest window's request counts
    cache_ewma: float = 0.5
    #: max frontier-prefetch promotions per patch per load (0 = off)
    cache_prefetch: int = 32
    #: GNS-style cached-node sampling bias (0 = off, bit-identical to
    #: a sampler without the hook)
    cache_bias: float = 0.0
    #: cold-path feature codec: "none" | "fp16" | "int8"
    compress: str = "none"
    seed: int = 0

    def __post_init__(self) -> None:
        if self.num_gpus < 1:
            raise ConfigError("need at least one GPU")
        if self.model not in ("sage", "gcn", "gat"):
            raise ConfigError(f"unknown model {self.model!r}")
        if self.batch_size < 1:
            raise ConfigError("batch_size must be positive")
        if self.hidden_dim < 1:
            raise ConfigError("hidden_dim must be positive")
        if self.queue_capacity < 1:
            raise ConfigError("queue_capacity must be positive")
        if not self.fanout:
            raise ConfigError("fanout must be non-empty")
        if self.partitioner not in ("metis", "ldg", "hash"):
            raise ConfigError(f"unknown partitioner {self.partitioner!r}")
        if self.sampler_workers < 1 or self.loader_workers < 1:
            raise ConfigError("worker counts must be positive")
        if self.num_nodes < 1:
            raise ConfigError("num_nodes must be positive")
        if self.nic not in ("ethernet", "infiniband"):
            raise ConfigError(f"unknown nic {self.nic!r}")
        if self.cache_window < 1:
            raise ConfigError("cache_window must be positive")
        if not 0.0 < self.cache_ewma <= 1.0:
            raise ConfigError("cache_ewma must be in (0, 1]")
        if self.cache_prefetch < 0:
            raise ConfigError("cache_prefetch must be non-negative")
        if self.cache_bias < 0:
            raise ConfigError("cache_bias must be non-negative")
        if self.compress not in ("none", "fp16", "int8"):
            raise ConfigError(f"unknown codec {self.compress!r}")
        if self.num_nodes > 1 and self.comm_backend == "nvshmem":
            raise ConfigError(
                "nvshmem needs a full NVLink mesh; multi-node clusters "
                "have no cross-server NVLink — use comm_backend='nccl'"
            )

    @property
    def total_gpus(self) -> int:
        """GPUs across the whole cluster (``num_nodes * num_gpus``)."""
        return self.num_nodes * self.num_gpus

    @property
    def num_layers(self) -> int:
        return len(self.fanout)

    def with_(self, **kwargs) -> "RunConfig":
        """A modified copy (convenience for sweeps)."""
        return replace(self, **kwargs)
