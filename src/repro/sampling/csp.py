"""The Collective Sampling Primitive (CSP), paper §4.

CSP constructs graph samples on a topology partitioned over GPUs,
layer by layer, each layer in three synchronous stages:

1. **shuffle** — every frontier node is sent to the GPU owning its
   adjacency list (a task *push*: 8 bytes per node instead of the whole
   adjacency list);
2. **sample** — each GPU runs ONE fused kernel over all tasks it
   received for the layer;
3. **reshuffle** — sampled neighbour ids travel back to the GPU that
   requested them.

Nodes whose adjacency list is local skip both transfers (the diagonal
of the all-to-all matrices), which is why co-partitioning seeds with
graph patches matters (§3.1).  The returned
:class:`~repro.sampling.ops.OpTrace` records the exact all-to-all byte
matrices and kernel work counts for the cost engine, while the returned
:class:`~repro.sampling.frontier.MiniBatchSample` objects carry the
functional result used for feature loading and training.

The shuffle/sample/reshuffle round (:meth:`CollectiveSampler._one_layer`)
is a **flat batch**: all GPUs' frontiers are concatenated once, owners
are computed with a single range check, one global (owner,
origin)-stable permutation groups the tasks, both k x k byte matrices
fall out of 2-D bincounts, and exactly k ``sample_neighbors`` calls run
on contiguous slices.  This mirrors the paper's "one fused kernel over
a flat task list per GPU" (§4.1).  The seed's per-(owner, origin)
chunked round is kept under ``tests/sampling/reference_csp.py`` as the
executable specification: it draws from the per-owner RNG streams in
the same order, so the two are bit-identical
(``tests/sampling/test_csp_equivalence.py`` proves it;
``docs/performance.md`` states the compatibility contract).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.sampling.frontier import Block, MiniBatchSample, next_frontier
from repro.sampling.local import GraphPatch, _ranges, sample_neighbors
from repro.sampling.ops import AllToAll, LocalKernel, OpTrace
from repro.utils.errors import ConfigError
from repro.utils.rng import make_rng, spawn_rngs

#: wire bytes per node id / per count / per weight entry
ID_BYTES = 8


@dataclass(frozen=True)
class CSPConfig:
    """Configurable parameters of CSP (paper Table 2).

    ``fanout[k]`` is the per-node neighbour count for node-wise
    sampling, or the layer's total budget for layer-wise sampling.
    """

    fanout: tuple[int, ...]
    scheme: str = "node"  # "node" or "layer"
    biased: bool = False
    replace: bool = True

    def __post_init__(self) -> None:
        if self.scheme not in ("node", "layer"):
            raise ConfigError(f"unknown scheme {self.scheme!r}")
        if not self.fanout or any(f < 0 for f in self.fanout):
            raise ConfigError("fanout must be non-empty and non-negative")

    @property
    def num_layers(self) -> int:
        return len(self.fanout)


@dataclass(frozen=True)
class CSPStats:
    """Aggregate counters of one CSP invocation."""

    tasks_total: int
    sampled_total: int
    local_tasks: int  # tasks whose adjacency list was already local

    @property
    def locality(self) -> float:
        return self.local_tasks / self.tasks_total if self.tasks_total else 1.0


class CollectiveSampler:
    """CSP over a set of graph patches (one per GPU)."""

    def __init__(
        self,
        patches: list[GraphPatch],
        part_offsets: np.ndarray,
        seed: int = 0,
    ):
        if not patches:
            raise ConfigError("need at least one patch")
        part_offsets = np.asarray(part_offsets, dtype=np.int64)
        if len(part_offsets) != len(patches) + 1:
            raise ConfigError("part_offsets must have num_gpus + 1 entries")
        for g, patch in enumerate(patches):
            if patch.base != part_offsets[g]:
                raise ConfigError(f"patch {g} base does not match offsets")
            if patch.num_local != part_offsets[g + 1] - part_offsets[g]:
                raise ConfigError(f"patch {g} size does not match offsets")
        self.patches = list(patches)
        self.part_offsets = part_offsets
        self.num_gpus = len(patches)
        self.rngs = spawn_rngs(make_rng(seed), self.num_gpus)
        # scratch flag array for bounded-domain dedup: node ids are
        # < part_offsets[-1], so "unique" is a scatter + scan
        self._seen = np.zeros(int(part_offsets[-1]), dtype=bool)
        # GNS-style cached-node bias (opt-in via set_cache_bias); when
        # None — the default — every sampling call below is exactly the
        # unbiased/original code path, bit for bit
        self._bias_store = None
        self._bias = 0.0
        self._bias_patches: list[GraphPatch] | None = None

    # ------------------------------------------------------------------
    # cached-node biased sampling (Global Neighbor Sampling, opt-in)
    # ------------------------------------------------------------------
    def set_cache_bias(self, store, bias: float) -> None:
        """Skew neighbour draws toward cache-resident nodes.

        Each edge's weight is multiplied by ``1 + bias * cached[dst]``
        (on top of the graph's own edge weights when present), so a
        neighbour already resident in the feature cache is ``1 + bias``
        times more likely to be drawn — Global Neighbor Sampling's
        importance-sampling trick, which raises the loader's hit rate
        without changing which nodes *can* be sampled.  ``bias = 0``
        disables the hook entirely: the sampler then runs the exact
        same code (and RNG stream) as one that never saw this call.

        ``store`` must expose a boolean ``cached`` array over global
        node ids (both partitioned and replicated stores do).  Call
        :meth:`refresh_cache_bias` after the store's resident set
        changes (the dynamic cache policy does this via ``on_change``).
        """
        if bias < 0:
            raise ConfigError("cache bias must be non-negative")
        if bias > 0 and getattr(store, "cached", None) is None:
            raise ConfigError(
                "cache bias needs a store with a 'cached' node mask"
            )
        self._bias = float(bias)
        self._bias_store = store if bias > 0 else None
        self.refresh_cache_bias()

    def refresh_cache_bias(self) -> None:
        """Rebuild the biased edge weights from the store's current
        resident set (cheap: one multiply per patch's edge array)."""
        if self._bias_store is None:
            self._bias_patches = None
            return
        cached = self._bias_store.cached
        patches = []
        for patch in self.patches:
            boost = 1.0 + self._bias * cached[patch.indices]
            w = (
                boost if patch.weights is None
                else patch.weights.astype(np.float64) * boost
            )
            patches.append(
                GraphPatch(patch.base, patch.indptr, patch.indices,
                           weights=w)
            )
        self._bias_patches = patches

    def _sampling_patches(
        self, config: CSPConfig
    ) -> tuple[list[GraphPatch], bool]:
        """The patch list and biased flag the sample kernels should use
        (identity unless cache bias is active)."""
        if self._bias_patches is None:
            return self.patches, config.biased
        return self._bias_patches, True

    @classmethod
    def from_partitioned(
        cls,
        graph,
        part_offsets: np.ndarray,
        seed: int = 0,
    ) -> "CollectiveSampler":
        """Build patches by slicing a partition-renumbered whole-graph CSR.

        ``graph`` must already be renumbered so each GPU's nodes form the
        consecutive range ``[part_offsets[g], part_offsets[g + 1])`` (see
        :func:`repro.graph.reorder.renumber_by_partition`).
        """
        part_offsets = np.asarray(part_offsets, dtype=np.int64)
        patches = [
            GraphPatch.from_graph(graph, int(part_offsets[g]), int(part_offsets[g + 1]))
            for g in range(len(part_offsets) - 1)
        ]
        return cls(patches, part_offsets, seed=seed)

    # ------------------------------------------------------------------
    def owner_of(self, ids: np.ndarray) -> np.ndarray:
        """GPU owning each global id — the §6 range check."""
        return np.searchsorted(self.part_offsets, ids, side="right") - 1

    # ------------------------------------------------------------------
    def _unique_ids(self, *arrays: np.ndarray) -> np.ndarray:
        """Sorted unique of bounded global ids via one flag scatter.

        Bit-identical to ``np.unique(np.concatenate(arrays))`` for valid
        ids (sorted int64), with no sort: setting and resetting the
        scratch flags costs O(ids), but ``flatnonzero`` scans all
        ``num_nodes`` flags, so every call also pays O(num_nodes) (a
        fast byte scan; a sort-based variant measured slower on
        ``papers``).
        """
        seen = self._seen
        for a in arrays:
            seen[a] = True
        ids = np.flatnonzero(seen).astype(np.int64, copy=False)
        seen[ids] = False
        return ids

    # ------------------------------------------------------------------
    def sample(
        self,
        seeds_per_gpu: list[np.ndarray],
        config: CSPConfig,
    ) -> tuple[list[MiniBatchSample], OpTrace, CSPStats]:
        """Run CSP for one mini-batch (one seed array per GPU)."""
        if len(seeds_per_gpu) != self.num_gpus:
            raise ConfigError("need one seed array per GPU")
        seeds = [np.asarray(s, dtype=np.int64) for s in seeds_per_gpu]
        trace = OpTrace()
        tasks_total = sampled_total = local_tasks = 0

        frontiers = seeds
        blocks_per_gpu: list[list[Block]] = [[] for _ in range(self.num_gpus)]
        for layer, budget in enumerate(config.fanout):
            # each frontier is ranged-checked exactly once per layer;
            # the quota-weight fetch and the shuffle both reuse this
            owners = [self.owner_of(f) for f in frontiers]
            if config.scheme == "layer" and not config.replace:
                # exact weighted sampling without replacement via
                # distributed Efraimidis-Spirakis keys (Table 7 path)
                from repro.sampling.layerwise import layerwise_sample_noreplace

                layer_blocks, _ = layerwise_sample_noreplace(
                    self, frontiers, budget, biased=config.biased, trace=trace
                )
                t = sum(len(f) for f in frontiers)
                s = sum(b.num_edges for b in layer_blocks)
                loc = sum(
                    int((ow == g).sum()) for g, ow in enumerate(owners)
                )
                tasks_total += t
                sampled_total += s
                local_tasks += loc
                for g, block in enumerate(layer_blocks):
                    blocks_per_gpu[g].append(block)
                frontiers = [next_frontier(b) for b in layer_blocks]
                continue
            if config.scheme == "layer":
                quotas = self._layerwise_quotas(
                    frontiers, budget, config, trace, owners
                )
            else:
                quotas = [np.full(len(f), budget, dtype=np.int64) for f in frontiers]

            layer_blocks, t, s, loc = self._one_layer(
                frontiers, quotas, config, trace, layer, owners
            )
            tasks_total += t
            sampled_total += s
            local_tasks += loc
            for g, block in enumerate(layer_blocks):
                blocks_per_gpu[g].append(block)
            # bounded-domain dedup, seeding each block's all_nodes
            # cache (bit-identical to the lazy np.unique)
            frontiers = []
            for block in layer_blocks:
                ids = self._unique_ids(block.dst_nodes, block.src_nodes)
                block.__dict__["all_nodes"] = ids
                frontiers.append(ids)

        samples = []
        for g in range(self.num_gpus):
            sample = MiniBatchSample(
                seeds=seeds[g], blocks=tuple(blocks_per_gpu[g])
            )
            sample.__dict__["all_nodes"] = self._unique_ids(
                *(b.all_nodes for b in sample.blocks)
            )
            samples.append(sample)
        stats = CSPStats(tasks_total, sampled_total, local_tasks)
        return samples, trace, stats

    # ------------------------------------------------------------------
    # one shuffle / sample / reshuffle round
    # ------------------------------------------------------------------
    def _one_layer(
        self,
        frontiers: list[np.ndarray],
        quotas: list[np.ndarray],
        config: CSPConfig,
        trace: OpTrace,
        layer: int,
        owners: list[np.ndarray] | None = None,
    ) -> tuple[list[Block], int, int, int]:
        """Flat-batch shuffle / sample / reshuffle (paper §4.1).

        All k frontiers are treated as ONE flat task list: a single
        stable permutation groups tasks by (owner, origin, original
        position) — the exact concatenation order the chunked reference
        builds per owner — so each owner GPU's fused kernel sees the
        same tasks in the same order and consumes its RNG stream
        identically.  Byte matrices come from 2-D bincounts and results
        scatter back with one vectorized inverse-permutation gather.
        """
        k = self.num_gpus
        per_task_bytes = ID_BYTES * (2 if config.scheme == "layer" else 1)

        sizes = np.array([len(f) for f in frontiers], dtype=np.int64)
        origin_bounds = np.concatenate([[0], np.cumsum(sizes)])
        n = int(origin_bounds[-1])
        flat_tasks = (
            np.concatenate(frontiers) if n else np.empty(0, np.int64)
        )
        flat_quota = (
            np.concatenate(quotas) if n else np.empty(0, np.int64)
        )
        flat_owner = (
            np.concatenate(owners) if owners is not None
            else self.owner_of(flat_tasks)
        )
        origin = np.repeat(np.arange(k, dtype=np.int64), sizes)

        # ---- shuffle: one 2-D bincount gives the full k x k matrix ------
        owner_counts = np.bincount(
            origin * k + flat_owner, minlength=k * k
        ).reshape(k, k)
        shuffle = owner_counts.astype(np.float64) * per_task_bytes
        trace.add(AllToAll(np.where(np.eye(k, dtype=bool), 0.0, shuffle),
                           label=f"shuffle-L{layer}"))

        # ---- sample: exactly k fused-kernel calls on contiguous slices --
        # the frontiers are concatenated in origin order, so a stable
        # sort by owner alone IS the (owner, origin)-stable grouping
        order = np.argsort(flat_owner, kind="stable")
        tasks_sorted = flat_tasks[order]
        quota_sorted = flat_quota[order]
        owner_bounds = np.concatenate(
            [[0], np.cumsum(owner_counts.sum(axis=0))]
        )
        counts_sorted = np.empty(n, dtype=np.int64)
        src_parts: list[np.ndarray] = []
        kernel_work = np.zeros(k, dtype=np.float64)
        patches, biased = self._sampling_patches(config)
        for o, patch in enumerate(patches):
            lo, hi = owner_bounds[o], owner_bounds[o + 1]
            src_o, cnt_o = sample_neighbors(
                patch,
                tasks_sorted[lo:hi] - patch.base,
                quota_sorted[lo:hi],
                rng=self.rngs[o],
                replace=config.replace,
                biased=biased,
            )
            counts_sorted[lo:hi] = cnt_o
            src_parts.append(src_o)
            kernel_work[o] = float(cnt_o.sum())
        src_sorted = (
            np.concatenate(src_parts) if src_parts else np.empty(0, np.int64)
        )
        trace.add(LocalKernel("sample", kernel_work, label=f"sample-L{layer}"))

        # ---- reshuffle matrix: one weighted 2-D bincount ----------------
        # bytes from owner o back to origin g: sampled ids + counts
        sampled_og = np.bincount(
            flat_owner[order] * k + origin[order],
            weights=counts_sorted.astype(np.float64),
            minlength=k * k,
        ).reshape(k, k)
        reshuffle = ID_BYTES * (sampled_og + owner_counts.T)
        trace.add(AllToAll(np.where(np.eye(k, dtype=bool), 0.0, reshuffle),
                           label=f"reshuffle-L{layer}"))

        # ---- scatter results back to original task order ----------------
        inv = np.empty_like(order)
        inv[order] = np.arange(n, dtype=np.int64)
        counts_flat = counts_sorted[inv]
        starts_sorted = np.concatenate([[0], np.cumsum(counts_sorted)])[:-1]
        gather = np.repeat(starts_sorted[inv], counts_flat) + _ranges(counts_flat)
        src_flat = src_sorted[gather]

        # ---- reassemble blocks on the origin GPUs (contiguous slices) ---
        src_bounds = np.concatenate([[0], np.cumsum(counts_flat)])
        blocks = []
        for g in range(k):
            lo, hi = origin_bounds[g], origin_bounds[g + 1]
            e_lo = src_bounds[lo]
            blocks.append(Block(
                frontiers[g],
                src_flat[src_bounds[lo]:src_bounds[hi]],
                src_bounds[lo:hi + 1] - e_lo,
            ))
        tasks_total = n
        sampled_total = int(len(src_flat))
        local_tasks = int(np.trace(owner_counts))
        return blocks, tasks_total, sampled_total, local_tasks

    # ------------------------------------------------------------------
    # layer-wise quota assignment (paper Eq. (2))
    # ------------------------------------------------------------------
    def _layerwise_quotas(
        self,
        frontiers: list[np.ndarray],
        budget: int,
        config: CSPConfig,
        trace: OpTrace,
        owners: list[np.ndarray] | None = None,
    ) -> list[np.ndarray]:
        """Split a layer budget over frontier nodes, Eq. (2).

        Frontier node ``u`` is drawn (with replacement, ``budget``
        times) with probability ``W_u / sum W``, where ``W_u`` is the
        total weight of ``u``'s neighbours (the degree when unbiased).
        The number of times ``u`` was drawn becomes its fan-out for the
        shuffle/sample/reshuffle round — equivalent to pulling the
        adjacency lists but with far less communication (§4.2).

        ``W_u`` lives with the owner of ``u``'s adjacency list, so this
        does one lightweight id -> weight exchange, which the trace
        records.
        """
        # layerwise.py imports this module, so import its split here
        from repro.sampling.layerwise import layerwise_quotas

        weights = self._fetch_frontier_weights(frontiers, config, trace, owners)
        return [
            layerwise_quotas(w, budget, self.rngs[g])
            for g, w in enumerate(weights)
        ]

    def _fetch_frontier_weights(
        self,
        frontiers: list[np.ndarray],
        config: CSPConfig,
        trace: OpTrace,
        owners: list[np.ndarray] | None = None,
    ) -> list[np.ndarray]:
        """W_u for every frontier node, fetched from the owning GPUs.

        ``owners`` may carry precomputed ``owner_of`` results (one array
        per frontier) so each frontier is ranged-checked once per layer.
        """
        k = self.num_gpus
        request = np.zeros((k, k), dtype=np.float64)
        weights = []
        for g, frontier in enumerate(frontiers):
            owners_g = (
                owners[g] if owners is not None else self.owner_of(frontier)
            )
            request[g] = np.bincount(owners_g, minlength=k) * ID_BYTES
            w = np.empty(len(frontier), dtype=np.float64)
            for o in np.unique(owners_g):
                patch = self.patches[o]
                mask = owners_g == o
                local = frontier[mask] - patch.base
                if config.biased:
                    cum = patch.cum_weights
                    starts = patch.indptr[local]
                    ends = patch.indptr[local + 1]
                    w[mask] = cum[ends] - cum[starts]
                else:
                    w[mask] = (patch.indptr[local + 1] - patch.indptr[local])
            weights.append(w)
        off = np.where(np.eye(k, dtype=bool), 0.0, request)
        trace.add(AllToAll(off, label="weights-req"))
        trace.add(AllToAll(off.T, label="weights-resp"))
        return weights
