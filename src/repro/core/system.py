"""End-to-end training systems: the common skeleton and DSP itself.

A :class:`TrainingSystem` really trains (numpy models, real samples,
real features) and simultaneously prices every mini-batch against the
hardware model.  Subclasses define the architecture: where the
topology/features live, which sampler and loader run, what per-batch
software overhead applies, and whether the pipeline is used.
"""

from __future__ import annotations

import numpy as np

from repro.cache.loader import FeatureLoader, FeatureRows
from repro.cache.policies import get_policy
from repro.core.config import RunConfig
from repro.core.cost import CostEngine
from repro.core.layout import DSPLayout, plan_layout
from repro.core.metrics import EpochMetrics, RunResult
from repro.core.pipeline import PipelineRunner
from repro.graph.datasets import Dataset, load_dataset, load_partition
from repro.graph.reorder import renumber_by_partition
from repro.hw.devices import Cluster
from repro.hw.memory import AllocatorKind, alloc_overhead
from repro.hw.network import NICSpec
from repro.nn import (
    GAT,
    GCN,
    Adam,
    GraphSAGE,
    Tensor,
    accuracy,
    allreduce_gradients,
    cross_entropy,
    gradient_nbytes,
)
from repro.sampling.csp import CollectiveSampler
from repro.sampling.frontier import MiniBatchSample
from repro.sampling.ops import AllReduce, LocalKernel, OpTrace, UVAGather
from repro.utils.errors import ConfigError
from repro.utils.rng import make_rng, spawn_rngs

MODELS = {"sage": GraphSAGE, "gcn": GCN, "gat": GAT}


def _nanmean(values: list[float]) -> float:
    clean = [v for v in values if not np.isnan(v)]
    return float(np.mean(clean)) if clean else float("nan")

#: transient device buffers (re)allocated per mini-batch — blocks,
#: frontier arrays, feature staging, activations (rough CUDA count)
ALLOCATIONS_PER_BATCH = 60

#: Stage-share correction for the scaled-down datasets.  On the paper's
#: 100M-node graphs a seed's 3-hop sample touches ~700 distinct nodes;
#: on our ~1000x-smaller graphs heavy dedup cuts that to ~75, so the
#: sampled/loaded volume *per seed* is ~9x smaller while the GNN
#: compute per deduplicated node is unchanged.  Left uncorrected, the
#: trainer stage would dwarf sampling/loading and flatten every
#: communication-side experiment (Fig 10/12).  This constant rescales
#: trainer FLOPs so the sample/load/train shares match the paper's
#: (~30/35/35 at 8 GPUs); it is applied identically to every system, so
#: no comparison is biased.
COMPUTE_DEDUP_CORRECTION = 0.15


class TrainingSystem:
    """Base: functional training + cost accounting for one architecture."""

    name = "base"
    allocator = AllocatorKind.POOLED
    pipelined = False
    #: whether the architecture can span multiple servers; only the
    #: DSP family lowers its collectives hierarchically (docs/cluster.md)
    multinode = False

    def __init__(self, config: RunConfig):
        self.config = config
        if config.num_nodes > 1 and not self.multinode:
            raise ConfigError(
                f"{self.name} runs on a single server; only DSP-family "
                f"systems support num_nodes > 1"
            )
        self.base_dataset = load_dataset(config.dataset)
        #: the cluster-level topology (NICs + per-server meshes) when the
        #: simulated hardware spans servers, else None — _make_cluster
        #: fills it in
        self.cluster_topology = None
        self.cluster = self._make_cluster()
        # per-batch constant overheads shrink with the batch (see CostEngine)
        self.batch_shrink = config.batch_size / 1024.0
        self.engine = self._make_engine()
        #: GPUs this system trains on: the whole simulated hardware
        self.k = self.cluster.num_gpus
        self.csp_config = config.csp_config()
        self._rng = make_rng(config.seed)
        #: set once :meth:`warm_cache` has seeded the dynamic policy
        self._warm_applied = False
        self._prepare()  # sets self.data, self.sampler, self.loader

        #: one parameter set for the k GPUs' replicas: BSP steps all with
        #: one mean gradient, and no system uses dropout, so they never differ
        self.model = MODELS[config.model](
            self.data.feature_dim,
            config.hidden_dim,
            self.data.num_classes,
            num_layers=config.num_layers,
            seed=config.seed,
        )
        self.opt = Adam(self.model.parameters(), lr=config.lr)
        self.grad_nbytes = gradient_nbytes(self.model)
        self.batches_seen = 0

    # -- architecture hooks (subclasses override) -----------------------
    def _make_cluster(self) -> Cluster:
        """The simulated hardware.  A single node is the paper's DGX-1;
        ``num_nodes > 1`` spans S block-diagonal copies joined by NICs."""
        cfg = self.config
        scale = self.base_dataset.spec.scale
        if cfg.num_nodes == 1:
            return Cluster.dgx1(cfg.num_gpus, scale=scale)
        from repro.hw.interconnect import Topology
        from repro.hw.network import ClusterTopology, multi_server_cluster

        self.cluster_topology = ClusterTopology(
            num_servers=cfg.num_nodes,
            server=Topology.dgx1(cfg.num_gpus),
            nic=NICSpec.preset(cfg.nic),
        )
        return multi_server_cluster(self.cluster_topology, scale=scale)

    def _make_engine(self) -> CostEngine:
        """The op-pricing engine, with the configured NIC as its network
        link; hardware that spans servers gets per-server host CPUs."""
        cfg = self.config
        if self.cluster_topology is None:
            return CostEngine(
                self.cluster,
                launch_scale=self.batch_shrink,
                network=NICSpec.preset(cfg.nic),
                backend=cfg.comm_backend,
            )
        from repro.cluster.engine import ClusterCostEngine

        return ClusterCostEngine(
            self.cluster,
            self.cluster_topology,
            launch_scale=self.batch_shrink,
            backend=cfg.comm_backend,
        )

    def _prepare(self) -> None:
        raise NotImplementedError

    def _assign_seeds(self, seeds: np.ndarray) -> list[np.ndarray]:
        """Default: round-robin split of the global batch across GPUs."""
        return [seeds[g :: self.k] for g in range(self.k)]

    def _sample(self, seeds_per_gpu) -> tuple[list[MiniBatchSample], OpTrace]:
        samples, trace, _ = self.sampler.sample(seeds_per_gpu, self.csp_config)
        return samples, trace

    def _load(
        self, requests, lost: frozenset = frozenset()
    ) -> tuple[FeatureRows, OpTrace, dict]:
        """Price the batch's feature load; its rows gather per GPU
        when indexed.  ``lost`` cache peers' rows fail over to the cold
        path."""
        return self.loader.load(requests, lost=lost)

    def _batch_overhead(self) -> float:
        """Per-batch software overhead (allocator costs, §7.2)."""
        return (
            alloc_overhead(self.allocator, ALLOCATIONS_PER_BATCH)
            * self.batch_shrink
        )

    # -- the training loop ----------------------------------------------
    def _global_batches(self) -> list[np.ndarray]:
        seeds = self.data.train_nodes.copy()
        self._rng.shuffle(seeds)
        global_batch = self.config.batch_size * self.config.total_gpus
        n = len(seeds) // global_batch
        if n == 0:
            raise ConfigError(
                f"dataset {self.data.name!r} has too few train seeds for "
                f"batch {global_batch}"
            )
        return [
            seeds[i * global_batch : (i + 1) * global_batch] for i in range(n)
        ]

    def _train_batch(
        self, samples: list[MiniBatchSample],
        feats: FeatureRows | None, functional: bool,
    ) -> tuple[OpTrace, float, float]:
        """Run (or price) one BSP step; returns (trace, loss, accuracy).

        Only ``functional`` reads ``feats[g]``, one GPU at a time: GPU
        ``g``'s rows and graph die before GPU ``g + 1``'s gather.  The
        allreduce averages each GPU's gradient list into the one
        parameter set for one optimizer step; a GPU without seeds adds
        what its replica still holds, the previous step's mean.
        """
        flops = np.zeros(self.k)
        losses, accs, weights = [], [], []
        total_seeds = sum(len(s.seeds) for s in samples)
        params = self.model.parameters()
        idle = [p.grad for p in params]
        grads = []
        for g, sample in enumerate(samples):
            # forward + backward ~ 3x forward FLOPs
            flops[g] = (
                3.0 * self.model.forward_flops(sample)
                * COMPUTE_DEDUP_CORRECTION
            )
            if not functional:
                continue
            if len(sample.seeds) == 0:
                grads.append(idle)
                continue
            labels = self.data.labels[sample.seeds]
            out = self.model(sample, Tensor(feats[g]))
            loss = cross_entropy(out, labels)
            # BSP exactness: scale so the allreduce *mean* equals the
            # global-batch gradient even when per-GPU batches differ
            scale = len(sample.seeds) * self.k / total_seeds
            self.opt.zero_grad()
            (loss * scale).backward()
            grads.append([p.grad for p in params])
            losses.append(loss.item() * len(sample.seeds))
            accs.append(accuracy(out, labels) * len(sample.seeds))
            weights.append(len(sample.seeds))
            del out, loss  # GPU g's graph dies before g + 1 gathers
        if functional and weights:
            allreduce_gradients(params, grads)
            self.opt.step()
        trace = OpTrace()
        trace.add(LocalKernel("compute", flops, label="train-compute"))
        trace.add(AllReduce(self.grad_nbytes, label="grad-allreduce"))
        mean_loss = sum(losses) / sum(weights) if weights else float("nan")
        mean_acc = sum(accs) / sum(weights) if weights else float("nan")
        return trace, mean_loss, mean_acc

    def run_epoch(
        self, max_batches: int | None = None, functional: bool = True,
        tracer=None, metrics=None, chaos=None,
    ) -> EpochMetrics:
        """One epoch: functional training + cost accounting.

        ``functional=False`` skips the numpy forward/backward (model
        parameters freeze) but keeps sampling, loading and all cost
        accounting — an order of magnitude faster for pure performance
        experiments.  ``max_batches`` truncates the epoch and
        extrapolates the time linearly (steady-state batches are iid).

        ``tracer`` (a :class:`repro.obs.Tracer`) and ``metrics`` (a
        :class:`repro.metrics.MetricsRegistry`) record the pipeline
        replay of the measured batches only — the epoch before the
        ``max_batches`` extrapolation and the per-batch allocator
        overhead (see ``docs/observability.md``).

        ``chaos`` (a :class:`repro.chaos.ChaosRuntime`, duck-typed via
        its ``pipeline_kwargs()``) injects faults into the pipeline
        replay and audits it with the invariant checker; the replayed
        :class:`~repro.core.pipeline.PipelineResult` (with its chaos
        accounting) is kept on ``self.last_pipeline_result``.
        """
        if max_batches is not None and max_batches < 1:
            raise ConfigError("max_batches must be >= 1")
        batches = self._global_batches()
        measured = batches if max_batches is None else batches[:max_batches]

        stage_costs: list[dict] = []
        batch_info: list[dict] = []
        losses, accs = [], []
        nvlink = pcie = network = 0.0
        sample_t = load_t = train_t = 0.0
        cache_stats = {"local": 0, "remote": 0, "cold": 0}

        for seeds in measured:
            per_gpu = self._assign_seeds(seeds)
            samples, s_trace = self._sample(per_gpu)
            requests = [s.all_nodes for s in samples]
            feats, l_trace, stats = self._load(requests)
            t_trace, loss, acc = self._train_batch(samples, feats, functional)
            self.batches_seen += 1
            losses.append(loss)
            accs.append(acc)
            for key in cache_stats:
                cache_stats[key] += stats.get(key, 0)
            # path counts for the cache counters (not the dynamic moves)
            batch_info.append({"cache": {key: v for key, v in stats.items()
                                         if key != "dynamic"}})

            costs = {
                "sample": self.engine.trace_cost(s_trace),
                "load": self.engine.trace_cost(l_trace),
                "train": self.engine.trace_cost(t_trace),
            }
            stage_costs.append(costs)
            sample_t += sum(c.stage for c in costs["sample"])
            load_t += sum(c.stage for c in costs["load"])
            train_t += sum(c.stage for c in costs["train"])
            for cs in costs.values():
                nvlink += sum(c.nvlink_bytes for c in cs)
                pcie += sum(c.pcie_bytes for c in cs)
                network += sum(c.network_bytes for c in cs)

        overhead = self._batch_overhead() * len(measured)
        scale_up = len(batches) / len(measured)
        chaos_kwargs = {} if chaos is None else chaos.pipeline_kwargs()
        if self.pipelined:
            result = PipelineRunner(
                self.cluster,
                stage_costs,
                queue_capacity=self.config.queue_capacity,
                ccc=self.config.ccc,
                sampler_workers=self.config.sampler_workers,
                loader_workers=self.config.loader_workers,
                tracer=tracer,
                metrics=metrics,
                batch_info=batch_info,
                **chaos_kwargs,
            ).run()
        else:
            result = PipelineRunner(
                self.cluster, stage_costs, sequential=True,
                tracer=tracer, metrics=metrics, batch_info=batch_info,
                **chaos_kwargs,
            ).run()
        #: the replayed pipeline outcome of the latest epoch, including
        #: chaos accounting (lost batches, degraded rounds, invariants)
        self.last_pipeline_result = result
        epoch_time = (result.epoch_time + overhead) * scale_up
        utilization = result.utilization

        val_acc = float("nan")
        if functional:
            val_acc = self.evaluate(self.data.val_nodes)
        return EpochMetrics(
            epoch_time=epoch_time,
            sample_time=sample_t * scale_up,
            load_time=load_t * scale_up,
            train_time=train_t * scale_up,
            nvlink_bytes=nvlink * scale_up,
            pcie_bytes=pcie * scale_up,
            network_bytes=network * scale_up,
            loss=_nanmean(losses),
            train_accuracy=_nanmean(accs),
            val_accuracy=val_acc,
            num_batches=len(batches),
            utilization=utilization,
            cache_stats=cache_stats,
        )

    def train(self, epochs: int, **kwargs) -> RunResult:
        """Run ``epochs`` epochs and collect their metrics."""
        result = RunResult(self.name, self.config.dataset, self.k)
        for _ in range(epochs):
            result.epochs.append(self.run_epoch(**kwargs))
        return result

    # -- checkpointing ------------------------------------------------------
    def save_checkpoint(self, path) -> None:
        """Persist model parameters and training progress to ``path``.

        BSP keeps every replica identical, so the one parameter set is
        the whole model.  Use :meth:`load_checkpoint` to resume.
        """
        import os

        arrays = {f"param_{i}": a for i, a in enumerate(self.model.state())}
        arrays["batches_seen"] = np.array([self.batches_seen])
        tmp = str(path) + ".tmp"
        np.savez(tmp, **arrays)
        os.replace(tmp if tmp.endswith(".npz") else tmp + ".npz", str(path))

    def load_checkpoint(self, path) -> None:
        """Restore parameters and progress."""
        with np.load(str(path)) as z:
            n = len([k for k in z.files if k.startswith("param_")])
            state = [z[f"param_{i}"] for i in range(n)]
            self.batches_seen = int(z["batches_seen"][0])
        self.model.load_state(state)

    # -- serving points -----------------------------------------------------
    def reset_point(self) -> None:
        """Return the state a serving run mutates to its baseline.

        Sampler RNG streams go back to their built state (every point
        samples the same neighbourhoods), and the dynamic cache policy
        and the store it mutates to the post-warmup placement.  Every
        serving point and every replica pass calls this first, which
        makes a point's report independent of which points (or which
        worker) ran before it.
        """
        rngs = getattr(self.sampler, "rngs", None)
        if rngs is not None:
            self.sampler.rngs = spawn_rngs(make_rng(self.config.seed),
                                           len(rngs))
        dyn = getattr(self.loader, "dynamic", None)
        if dyn is not None:
            dyn.reset()

    def warm_cache(self, nodes) -> int | None:
        """Seed the dynamic cache policy from workload history, once.

        ``nodes`` are renumbered node ids.  The warmed placement becomes
        the baseline :meth:`reset_point` restores.  Later calls on the
        same system are no-ops, so every process serving a sweep warms
        its own copy exactly once.  Returns the rows promoted, or
        ``None`` when there is no dynamic policy or it was already
        warmed.
        """
        dyn = getattr(self.loader, "dynamic", None)
        if dyn is None or self._warm_applied:
            return None
        self._warm_applied = True
        return dyn.warm(nodes)

    # -- evaluation -------------------------------------------------------
    def evaluate(self, nodes: np.ndarray, batch: int = 256) -> float:
        """Accuracy on ``nodes`` using the trained model."""
        model = self.model
        correct = total = 0
        for i in range(0, len(nodes), batch):
            chunk = nodes[i : i + batch]
            per_gpu = self._assign_seeds(chunk)
            samples, _ = self._sample(per_gpu)
            for sample in samples:
                if len(sample.seeds) == 0:
                    continue
                x = Tensor(self.data.features[sample.all_nodes])
                out = model(sample, x, training=False)
                labels = self.data.labels[sample.seeds]
                correct += accuracy(out, labels) * len(labels)
                total += len(labels)
        return correct / total if total else float("nan")


class DSP(TrainingSystem):
    """The paper's system: partitioned topology + CSP + partitioned
    cache + producer-consumer pipeline."""

    name = "DSP"
    pipelined = True
    multinode = True

    def _prepare(self) -> None:
        cfg = self.config
        ds = self.base_dataset
        self.hierarchy = None
        if self.cluster_topology is not None:
            # two-level cut: cross-server edges are minimized first so
            # the slow network tier carries the least shuffle traffic
            from repro.cluster.partition import hierarchical_partition

            self.hierarchy = hierarchical_partition(
                ds.graph, cfg.num_nodes, cfg.num_gpus,
                method=cfg.partitioner, seed=cfg.seed,
            )
            partition = self.hierarchy.gpu
        elif cfg.partitioner == "hash":
            from repro.graph.partition import hash_partition

            partition = hash_partition(ds.num_nodes, self.k, seed=cfg.seed)
        elif cfg.partitioner == "ldg":
            from repro.graph.partition import ldg_partition

            partition = ldg_partition(ds.graph, self.k, rng=cfg.seed)
        else:
            partition = load_partition(cfg.dataset, self.k, seed=cfg.seed)
        rgraph, _, numbering = renumber_by_partition(ds.graph, partition)
        if cfg.biased:
            # §4.2: node weights are materialized onto edges up front
            w = self._rng.random(ds.num_nodes).astype(np.float32)
            rgraph = rgraph.with_node_weights(w)
        self.data: Dataset = ds.permuted(numbering.old_to_new, rgraph)
        self.numbering = numbering

        hot_order = get_policy(cfg.hot_policy)(rgraph)
        # every extra worker instance keeps another mini-batch's buffers
        # in flight, eating into the cache budget (§5)
        from repro.core.layout import WORKSPACE_FRACTION

        workspace = WORKSPACE_FRACTION * (
            1 + 0.5 * (cfg.sampler_workers - 1) + 0.5 * (cfg.loader_workers - 1)
        )
        self.layout: DSPLayout = plan_layout(
            self.data,
            numbering.part_offsets,
            self.cluster,
            hot_order,
            feature_cache_bytes=cfg.feature_cache_bytes,
            topology_cache_bytes=cfg.topology_cache_bytes,
            graph=rgraph,
            workspace_fraction=min(workspace, 0.9),
        )
        self.sampler = CollectiveSampler(
            self.layout.patches, numbering.part_offsets, seed=cfg.seed
        )
        dynamic = None
        if cfg.dynamic_cache:
            from repro.cache.dynamic import DynamicCachePolicy

            dynamic = DynamicCachePolicy(self.layout.store,
                                         cfg.dynamic_cache_config())
        codec = None if cfg.compress == "none" else cfg.compress
        self.loader = FeatureLoader(
            self.data.features, self.layout.store, codec=codec,
            dynamic=dynamic,
        )
        if cfg.cache_bias > 0:
            # GNS-style biased sampling toward cached nodes; samplers
            # without the hook (e.g. PullDSP's host sampler) skip it
            if hasattr(self.sampler, "set_cache_bias"):
                self.sampler.set_cache_bias(self.layout.store, cfg.cache_bias)
            if dynamic is not None:
                dynamic.on_change.append(self._refresh_cache_bias)
        self._topo_cold = self.layout.topo_cold_global()
        self._has_cold_topo = bool(self._topo_cold.any())

    def _refresh_cache_bias(self) -> None:
        """Rebuild the sampler's biased edge weights after the dynamic
        policy moved nodes in or out of the cache."""
        refresh = getattr(self.sampler, "refresh_cache_bias", None)
        if refresh is not None:
            refresh()

    def _assign_seeds(self, seeds: np.ndarray) -> list[np.ndarray]:
        """Co-partition seeds with graph patches (§3.1).

        One stable sort by owner instead of k boolean-mask passes; the
        relative seed order within each GPU is unchanged.
        """
        owners = self.sampler.owner_of(seeds)
        order = np.argsort(owners, kind="stable")
        bounds = np.cumsum(np.bincount(owners, minlength=self.k))[:-1]
        return np.split(seeds[order], bounds)

    def _sample(self, seeds_per_gpu):
        samples, trace, _ = self.sampler.sample(seeds_per_gpu, self.csp_config)
        if self._has_cold_topo:
            self._add_cold_topology_ops(samples, trace)
        return samples, trace

    def _add_cold_topology_ops(self, samples, trace: OpTrace) -> None:
        """UVA reads for adjacency lists that did not fit in GPU memory.

        The owning GPU reads the sampled entries (plus the two indptr
        bounds) of each cold frontier node from host memory (§6).
        """
        for layer in range(self.config.num_layers):
            items = np.zeros(self.k)
            for g in range(self.k):
                block = samples[g].blocks[layer]
                cold = self._topo_cold[block.dst_nodes]
                if not cold.any():
                    continue
                owners = self.sampler.owner_of(block.dst_nodes[cold])
                counts = np.diff(block.offsets)[cold]
                items += np.bincount(
                    owners, weights=counts + 2.0, minlength=self.k
                )
            if items.any():
                trace.add(
                    UVAGather(items, item_bytes=8, label=f"topo-cold-L{layer}")
                )


class DSPSeq(DSP):
    """DSP with the pipeline disabled (Fig 6 / Fig 12 comparison)."""

    name = "DSP-Seq"
    pipelined = False


def build_system(name: str, config: RunConfig) -> TrainingSystem:
    """Instantiate a system by its paper name."""
    try:
        cls = SYSTEMS[name]
    except KeyError:
        raise ConfigError(
            f"unknown system {name!r}; available: {sorted(SYSTEMS)}"
        ) from None
    return cls(config)


from repro.core.baselines import PyG, DGLCPU, DGLUVA, PullDSP, Quiver  # noqa: E402

SYSTEMS = {
    "DSP": DSP,
    "DSP-Seq": DSPSeq,
    "DSP-Pull": PullDSP,
    "PyG": PyG,
    "DGL-CPU": DGLCPU,
    "DGL-UVA": DGLUVA,
    "Quiver": Quiver,
}
