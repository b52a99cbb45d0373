"""DSP data-layout planning (paper §3.1, §6; Fig 10).

Decides, per GPU, what lives in device memory:

1. a **workspace** slice for activations and transient buffers,
2. the GPU's **graph patch** — or, when the patch exceeds its budget,
   the adjacency lists of the patch's hottest nodes, with the cold
   remainder left in host memory behind the *adjacency position list*
   and reached via UVA (§6), and
3. a **partitioned feature cache** holding the hottest feature vectors
   of the patch, with cold vectors in host memory (§3.1).

The Fig 10 experiment fixes a total budget and sweeps the split between
(2) and (3); the default planner gives topology priority — the paper's
conclusion — and hands the rest to the feature cache.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.cache.store import PartitionedCache
from repro.graph.datasets import Dataset
from repro.hw.devices import Cluster
from repro.hw.memory import DeviceMemory
from repro.sampling.local import GraphPatch
from repro.utils.errors import CapacityError, ConfigError

#: fraction of GPU memory reserved for activations and scratch buffers
WORKSPACE_FRACTION = 0.15

ID_BYTES = 8


@dataclass
class DSPLayout:
    """The planned placement for one DSP run."""

    part_offsets: np.ndarray
    patches: list[GraphPatch]
    #: per patch: True for *local* nodes whose adjacency list stayed in
    #: host memory (accessed via UVA by the owning GPU)
    topo_cold: list[np.ndarray]
    store: PartitionedCache
    memory: list[DeviceMemory]

    @property
    def num_gpus(self) -> int:
        return len(self.patches)

    def topo_cold_global(self) -> np.ndarray:
        """Cold-adjacency flag for every global node id."""
        return np.concatenate(self.topo_cold)

    @property
    def topology_coverage(self) -> float:
        """Fraction of adjacency-list bytes resident on the GPUs."""
        total = sum(p.num_edges for p in self.patches)
        if total == 0:
            return 1.0
        cold = 0
        for patch, mask in zip(self.patches, self.topo_cold):
            deg = np.diff(patch.indptr)
            cold += int(deg[mask].sum())
        return 1.0 - cold / total


def plan_layout(
    dataset: Dataset,
    part_offsets: np.ndarray,
    cluster: Cluster,
    hot_order: np.ndarray,
    feature_cache_bytes: float | None = None,
    topology_cache_bytes: float | None = None,
    graph=None,
    workspace_fraction: float = WORKSPACE_FRACTION,
    bytes_per_elem: float | None = None,
) -> DSPLayout:
    """Plan DSP's per-GPU memory layout.

    ``dataset.graph`` (or ``graph`` if given) must already be
    renumbered to ``part_offsets``.  ``hot_order`` ranks global node
    ids hottest-first (used for both adjacency and feature residency).
    ``bytes_per_elem`` sizes one feature element for the budget math;
    ``None`` reads it off the dataset's feature dtype.
    """
    graph = dataset.graph if graph is None else graph
    part_offsets = np.asarray(part_offsets, dtype=np.int64)
    k = len(part_offsets) - 1
    if k != cluster.num_gpus:
        raise ConfigError("partition does not match cluster size")
    if bytes_per_elem is None:
        bytes_per_elem = float(dataset.features.dtype.itemsize)
    if bytes_per_elem <= 0:
        raise ConfigError("bytes_per_elem must be positive")
    row_bytes = dataset.feature_dim * bytes_per_elem

    rank = np.empty(graph.num_nodes, dtype=np.int64)
    rank[hot_order] = np.arange(graph.num_nodes)

    patches, topo_cold, memory = [], [], []
    feature_budget_nodes = None
    for g in range(k):
        lo, hi = int(part_offsets[g]), int(part_offsets[g + 1])
        patch = GraphPatch.from_graph(graph, lo, hi)
        patches.append(patch)
        mem = DeviceMemory(capacity=cluster.gpu.memory_bytes)
        mem.reserve("workspace", cluster.gpu.memory_bytes * workspace_fraction)

        # ---- topology residency --------------------------------------
        deg = np.diff(patch.indptr)
        node_bytes = deg * ID_BYTES + ID_BYTES  # adjacency + indptr entry
        if patch.weights is not None:
            node_bytes = node_bytes + deg * 4
        order = np.argsort(rank[lo:hi], kind="stable")  # local hotness
        csum = np.cumsum(node_bytes[order])
        budget = topology_cache_bytes
        if budget is None:
            # topology gets priority (§7.3 conclusion) — but when the
            # patch cannot fully fit anyway, keep a slice of memory for
            # hot features instead of drowning it all in cold adjacency
            needed = float(csum[-1]) if len(csum) else 0.0
            budget = min(needed, 0.75 * mem.free)
        budget = min(budget, mem.free)
        n_resident = int(np.searchsorted(csum, budget, side="right"))
        cold = np.ones(patch.num_local, dtype=bool)
        cold[order[:n_resident]] = False
        topo_cold.append(cold)
        mem.reserve("topology", float(csum[n_resident - 1]) if n_resident else 0.0)

        # ---- feature cache -------------------------------------------
        fbudget = feature_cache_bytes
        if fbudget is None:
            fbudget = mem.free
        if fbudget > mem.free:
            raise CapacityError(
                f"GPU {g}: feature cache budget exceeds free memory"
            )
        nodes_fit = int(fbudget // row_bytes)
        if feature_budget_nodes is None or nodes_fit < feature_budget_nodes:
            feature_budget_nodes = nodes_fit
        memory.append(mem)

    store = PartitionedCache(part_offsets, hot_order, feature_budget_nodes or 0)
    for g in range(k):
        memory[g].reserve(
            "feature-cache",
            store.cache_nbytes(g, dataset.feature_dim, bytes_per_elem),
        )
    return DSPLayout(
        part_offsets=part_offsets,
        patches=patches,
        topo_cold=topo_cold,
        store=store,
        memory=memory,
    )
