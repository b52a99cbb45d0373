"""Multi-node cluster subsystem: one DSP server scaled to ``S``.

The paper's system is one multi-GPU server; this package grows it into
a cluster along the two production axes the ROADMAP names:

- **scale-up training/serving of one model** — ``num_nodes > 1`` on a
  :class:`~repro.core.config.RunConfig` builds the DSP stack across
  ``S`` servers: a block-diagonal NVLink topology with per-server NICs
  (:mod:`repro.hw.network`), a two-level server→GPU graph cut
  (:mod:`repro.cluster.partition`), hierarchical CSP shuffles that do
  the NVLink all-to-all first and one batched cross-server exchange
  after (:mod:`repro.cluster.csp`), and a cost engine with per-server
  host CPUs that lowers every trace it prices into those shuffles
  (:mod:`repro.cluster.engine`), so no caller lowers by hand; the
  paper's own §3.2 alternative, topology and hot features replicated
  per server and cold features sharded, is
  :class:`~repro.cluster.replicated.ReplicatedDSP` on the same config;
- **scale-out serving of many users** — ``R`` serving replicas behind a
  deterministic :class:`~repro.cluster.router.ClusterRouter`
  (random / least-loaded / partition-affinity policies) whose merged
  reports flow through the ordinary SLO tooling
  (``serve_once(..., replicas=RouterConfig(...))``,
  :mod:`repro.cluster.serve`).

Both axes preserve the repo-wide contracts: a 1-node cluster is
bit-identical to the single-server system, and every cluster run is
byte-identical across ``--workers``.  See ``docs/cluster.md``.
"""

from repro.cluster.csp import lower_trace
from repro.cluster.engine import ClusterCostEngine
from repro.cluster.partition import (
    HierarchicalPartition,
    hierarchical_partition,
)
from repro.cluster.replicated import ReplicatedDSP
from repro.cluster.router import ROUTING_POLICIES, ClusterRouter, RouterConfig
from repro.cluster.serve import affinity_map, knee_vs_replicas

__all__ = [
    "lower_trace",
    "ClusterCostEngine",
    "HierarchicalPartition",
    "hierarchical_partition",
    "ReplicatedDSP",
    "ROUTING_POLICIES",
    "ClusterRouter",
    "RouterConfig",
    "affinity_map",
    "knee_vs_replicas",
]
