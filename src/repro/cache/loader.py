"""Per-mini-batch feature loading (paper §3.2, "Loader"; §6).

For each GPU's graph sample the loader fetches the feature vectors of
every requested node, after deduplication.  Three service paths:

- **local** — cached on the requesting GPU: a device gather kernel;
- **remote hot** — cached on another GPU: a position request
  all-to-all (ids out) followed by a feature all-to-all back, all over
  NVLink, possibly multi-hop;
- **cold** — host memory via UVA, paying read amplification.

The hot (NVLink) and cold (PCIe) paths run concurrently since they use
different links (§3.2), expressed as a
:class:`~repro.sampling.ops.ParallelGroup` in the trace.

:class:`HostGatherLoader` is the CPU-system baseline (PyG/DGL-CPU):
the host gathers rows into a staging buffer and DMA-copies it to the
GPU.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from repro.cache.store import CacheStore, DegradedStore, NoCache, Placement
from repro.sampling.ops import (
    AllToAll,
    HostWork,
    LocalKernel,
    OpTrace,
    ParallelGroup,
    PCIeCopy,
    UVAGather,
)
from repro.utils.errors import ConfigError

ID_BYTES = 8


def dedup(req) -> np.ndarray:
    """Sorted unique ids of one request (the §3.2 dedup), always a new
    array object.  A strictly increasing request — CSP's ``all_nodes``
    always is — comes back as a view after one O(n) check instead of a
    second ``np.unique``."""
    req = np.asarray(req, dtype=np.int64)
    if len(req) < 2 or bool(np.all(req[1:] > req[:-1])):
        return req.view()
    return np.unique(req)


@dataclass(frozen=True)
class FeaturePlan:
    """Placement plan for one GPU's request.

    Everything :meth:`FeatureLoader.load` needs except the feature
    rows: the deduplicated node ids, each one's placement, the
    hot/cold split counts and the remote-hit count per holder GPU (one
    row of the k x k byte-matrix skeleton).
    """

    nodes: np.ndarray  # deduplicated, sorted request ids (read-only)
    placement: np.ndarray  # Placement of each of ``nodes``
    n_local: int
    n_remote: int
    n_cold: int
    remote_row: np.ndarray  # remote hits per holder GPU [k], int64


class FeatureRows(Sequence):
    """The per-GPU feature matrices of one load: ``rows[g]`` copies
    ``features[nodes[g]]``, codec round trip on the rows not placed
    local, and keeps no reference to it.  Placements are the load's
    plan, so a late index gathers what the load priced."""

    def __init__(self, features, nodes: list[np.ndarray], codec=None,
                 placements: list[np.ndarray] | None = None):
        self._features, self._nodes = features, nodes
        self._codec, self._placements = codec, placements

    def __len__(self) -> int:
        return len(self._nodes)

    def __getitem__(self, g: int) -> np.ndarray:
        rows = self._features[self._nodes[g]]
        if self._codec is not None:
            miss = self._placements[g] != Placement.LOCAL
            if miss.any():
                # fancy indexing above copied, so in-place is safe
                rows[miss] = self._codec.apply(rows[miss])
        return rows


class FeatureLoader:
    """GPU-side loader over a cache store; every load plans each GPU's
    request against the store's current placement."""

    def __init__(self, features: np.ndarray, store: CacheStore,
                 codec=None, dynamic=None):
        if features.ndim != 2:
            raise ConfigError("features must be [num_nodes, dim]")
        from repro.cache.codec import get_codec

        self.features = features
        self.store = store
        self.feature_dim = features.shape[1]
        self.row_bytes = self.feature_dim * features.dtype.itemsize
        #: optional :class:`~repro.cache.codec.FeatureCodec` — non-local
        #: rows travel compressed (fewer UVA / NVLink / NIC bytes) and
        #: pay a decode kernel + quantization roundtrip on arrival.
        #: ``None`` (and the fp32 codec) is the exact identity path.
        self.codec = get_codec(codec)
        self.wire_row_bytes = (
            self.codec.wire_row_bytes(self.feature_dim)
            if self.codec is not None else self.row_bytes
        )
        #: optional :class:`~repro.cache.dynamic.DynamicCachePolicy`;
        #: when attached, every load feeds the request stream to it
        self.dynamic = dynamic
        #: running per-path totals across load() calls (monotonic; the
        #: dynamic-cache ablation snapshots deltas around a serve run)
        self.totals = {"local": 0, "remote": 0, "cold": 0,
                       "cold_bytes": 0.0, "fill": 0}
        #: the per-GPU plans of the latest load() call, as planned
        #: (before the dynamic policy moved any row)
        self.last_plans: list[FeaturePlan] = []

    def _plan(self, g: int, req: np.ndarray, store: CacheStore) -> FeaturePlan:
        """The placement plan for GPU ``g``'s request block against
        ``store``."""
        nodes = dedup(req)
        # the dynamic feed shares plan nodes: never writable; dedup
        # returns a view, so the caller's own array stays writable
        nodes.flags.writeable = False
        n_local = n_remote = n_cold = 0
        remote_row = np.zeros(store.num_gpus, dtype=np.int64)
        placement = np.zeros(0, dtype=np.int64)
        if len(nodes):  # an idle GPU's empty request has nothing to locate
            loc = store.locate(nodes, g)
            placement = loc.placement
            n_local, n_remote, n_cold = np.bincount(
                placement, minlength=len(Placement)).tolist()
            if n_remote:
                holders = loc.holder[placement == Placement.REMOTE]
                remote_row = np.bincount(holders, minlength=store.num_gpus)
        return FeaturePlan(nodes, placement, n_local, n_remote, n_cold,
                           remote_row)

    def load(
        self, requests_per_gpu: list[np.ndarray],
        lost: frozenset = frozenset(),
    ) -> tuple[FeatureRows, OpTrace, dict]:
        """Fetch features for each GPU's request list.

        Returns the per-GPU feature matrices as a :class:`FeatureRows`
        (functionally exact; a row is copied only when a GPU's matrix
        is indexed), the op trace, and hit-statistics
        ``{"local": n, "remote": n, "cold": n}`` plus the payload bytes
        each path served (``*_bytes`` keys; the obs layer exports them
        as cache counters).  Trace, stats and the dynamic-policy feed
        derive from the plan alone.

        ``lost`` names GPUs whose cache shard is gone (a lost cache
        peer): for this call their rows are planned as cold, so they
        fail over to the UVA path, and the dynamic policy promotes no
        row into their patches.  Everything else about the load — codec,
        the requests the policy scores — is unchanged.
        """
        k = self.store.num_gpus
        if len(requests_per_gpu) != k:
            raise ConfigError("need one request array per GPU")
        store = DegradedStore(self.store, lost) if lost else self.store

        local_bytes = np.zeros(k, dtype=np.float64)
        decode_bytes = np.zeros(k, dtype=np.float64)
        cold_items = np.zeros(k, dtype=np.float64)
        remote_rows = np.zeros((k, k), dtype=np.int64)
        stats = {"local": 0, "remote": 0, "cold": 0}
        codec = self.codec
        plans: list[FeaturePlan] = []

        for g, req in enumerate(requests_per_gpu):
            req = np.ascontiguousarray(np.asarray(req, dtype=np.int64))
            plan = self._plan(g, req, store)
            plans.append(plan)
            # rows that are not local travel a link and get the codec
            # roundtrip
            if codec is not None:
                decode_bytes[g] = (
                    (plan.n_remote + plan.n_cold) * self.row_bytes
                )
            stats["local"] += plan.n_local
            stats["remote"] += plan.n_remote
            stats["cold"] += plan.n_cold
            local_bytes[g] = plan.n_local * self.row_bytes
            cold_items[g] = plan.n_cold
            remote_rows[g] = plan.remote_row

        self.last_plans = plans
        remote_counts = remote_rows.astype(np.float64)
        pos_req = remote_counts * ID_BYTES
        feat_resp = remote_counts.T * self.wire_row_bytes

        hot_branch = [
            AllToAll(pos_req, label="feat-pos-req"),
            AllToAll(feat_resp, label="feat-hot"),
            LocalKernel("gather", local_bytes, label="feat-local"),
        ]
        cold_branch = [
            UVAGather(cold_items, item_bytes=self.wire_row_bytes,
                      label="feat-cold")
        ]
        if self.dynamic is not None:
            # feed the (deduplicated) request stream to the dynamic
            # policy; promoted rows are staged host -> GPU on the cold path
            fill = self.dynamic.observe([p.nodes for p in plans], lost)
            if fill.any():
                # staged rows ride the same (possibly compressed) wire
                # format as any other host -> GPU feature transfer
                cold_branch.append(
                    UVAGather(fill, item_bytes=self.wire_row_bytes,
                              label="cache-fill")
                )
                self.totals["fill"] += int(fill.sum())
        trace = OpTrace()
        trace.add(
            ParallelGroup(branches=(tuple(hot_branch), tuple(cold_branch)),
                          label="feature-load")
        )
        if codec is not None and decode_bytes.any():
            trace.add(
                LocalKernel("decode", decode_bytes, label="feat-decode")
            )
        stats["local_bytes"] = stats["local"] * self.row_bytes
        stats["remote_bytes"] = stats["remote"] * self.wire_row_bytes
        stats["cold_bytes"] = stats["cold"] * self.wire_row_bytes
        if self.dynamic is not None:
            stats["dynamic"] = {
                "promoted": self.dynamic.last_promoted,
                "demoted": self.dynamic.last_demoted,
            }
        totals = self.totals
        totals["local"] += stats["local"]
        totals["remote"] += stats["remote"]
        totals["cold"] += stats["cold"]
        totals["cold_bytes"] += stats["cold_bytes"]
        rows = FeatureRows(self.features, [p.nodes for p in plans], codec,
                           [p.placement for p in plans])
        return rows, trace, stats


class HostGatherLoader:
    """CPU-resident features: host gather + bulk H2D copy (PyG/DGL-CPU)."""

    dynamic = None  # no dynamic policy, and a store that caches nothing

    def __init__(self, features: np.ndarray, num_gpus: int):
        if features.ndim != 2:
            raise ConfigError("features must be [num_nodes, dim]")
        if num_gpus <= 0:
            raise ConfigError("need at least one GPU")
        self.features = features
        self.num_gpus = num_gpus
        self.row_bytes = features.shape[1] * features.dtype.itemsize
        self.store = NoCache(features.shape[0], num_gpus)

    def load(
        self, requests_per_gpu: list[np.ndarray],
        lost: frozenset = frozenset(),
    ) -> tuple[FeatureRows, OpTrace, dict]:
        """Host-gather + bulk-copy features for each GPU's request list
        (rows as a :class:`FeatureRows`, copied when indexed).  There is
        no GPU cache to lose, so ``lost`` changes nothing."""
        if len(requests_per_gpu) != self.num_gpus:
            raise ConfigError("need one request array per GPU")
        nodes = [dedup(req) for req in requests_per_gpu]
        nbytes = np.array([len(n) * self.row_bytes for n in nodes],
                          dtype=np.float64)
        total = sum(len(n) for n in nodes)
        trace = OpTrace()
        trace.add(HostWork(nbytes.copy(), kind="gather", label="feat-host-gather"))
        trace.add(PCIeCopy(nbytes, to_device=True, label="feat-h2d"))
        rows = FeatureRows(self.features, nodes)
        return rows, trace, {"local": 0, "remote": 0, "cold": total,
                             "local_bytes": 0, "remote_bytes": 0,
                             "cold_bytes": total * self.row_bytes}
