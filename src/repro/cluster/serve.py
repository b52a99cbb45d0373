"""Replicated serving: a workload split across replicas by the router.

Each replica is one full serving system (the same partitioned graph and
caches); the :class:`~repro.cluster.router.ClusterRouter` splits the
open-loop arrival stream into per-replica sub-streams
(:meth:`RouterConfig.split <repro.cluster.router.RouterConfig.split>`),
and :func:`repro.serve.serve_once` runs every replica through the
ordinary :class:`~repro.serve.GNNServer` pipeline and merges the
per-request records — in the original arrival order — into one
:class:`~repro.serve.ServeReport`, so the SLO accounting, knee picker
and report tooling all apply unchanged.

Replicas are independent in the real system (separate servers), so
running them sequentially on the simulator and overlaying their
timelines is exact, not an approximation.  With one replica the run
*is* the single-server ``serve_once`` — bit-identical, the
single-replica oracle.

This module holds the partition-affinity map the router uses and the
knee-vs-replica-count scaling curve.
"""

from __future__ import annotations

import numpy as np

from repro.cluster.router import RouterConfig
from repro.serve.service import ServeConfig
from repro.serve.sweep import max_sustainable_qps, qps_sweep
from repro.serve.workload import Workload


def affinity_map(system, num_replicas: int) -> np.ndarray | None:
    """Node -> replica map that shards *within* every GPU patch.

    Each replica serves one contiguous slice of every patch, so a node
    always lands on the same replica (its hot feature rows stay hot)
    while each replica's sub-stream still spreads over all GPU
    batchers.  Sharding by patch *owner* instead would send a whole
    patch's stream to one replica — and inside that replica every
    request would route to the owner GPU, so per-GPU load (and the
    knee) would never scale with the replica count.  ``None`` when the
    system has no owner partition (the router falls back to
    ``node % R`` hashing).
    """
    if system.owner_of is None or num_replicas <= 1:
        return None
    seeds = system.numbering.old_to_new
    owners = np.asarray(system.owner_of(seeds), dtype=np.int64)
    sizes = np.bincount(owners)
    # rank of each seed inside its owner's patch (argsort is exact even
    # for a non-contiguous numbering)
    offset = np.empty_like(seeds)
    for o in range(len(sizes)):
        mask = owners == o
        offset[mask] = np.argsort(np.argsort(seeds[mask], kind="stable"),
                                  kind="stable")
    return (offset * num_replicas) // np.maximum(sizes[owners], 1)


def knee_vs_replicas(
    system,
    workload: Workload,
    qps_values,
    replica_counts,
    policy: str = "affinity",
    config: ServeConfig | None = None,
    workers: int = 1,
    shed_tol: float = 0.01,
) -> dict[int, float]:
    """Knee QPS for each replica count (the scaling curve).

    Under partition-affinity routing each extra replica strictly
    shrinks every replica's sub-stream, so the knee is monotonically
    non-decreasing in the replica count — the property the benchmark
    suite pins.
    """
    knees: dict[int, float] = {}
    for r in sorted(int(c) for c in replica_counts):
        points = qps_sweep(
            system, workload, qps_values, config, workers=workers,
            replicas=RouterConfig(num_replicas=r, policy=policy,
                                  seed=system.config.seed),
        )
        knees[r] = max_sustainable_qps(points, shed_tol=shed_tol)
    return knees
