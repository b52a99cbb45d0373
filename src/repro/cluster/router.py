"""Cluster-level request routing across serving replicas.

A production GNN service runs ``R`` identical replicas (each a full
multi-GPU server with the whole partitioned graph) behind a router.
:class:`ClusterRouter` assigns every incoming request to one replica
with a pluggable, fully deterministic policy:

- ``random`` — seeded uniform choice; the load-balancing baseline.
- ``least-loaded`` — route to the replica with the fewest requests
  routed to it within a trailing window (the router's in-flight
  estimate; real routers track outstanding requests the same way).
  Ties break toward the least-recently-used replica so cold replicas
  warm up round-robin.
- ``affinity`` — partition-affinity: all requests for the same seed
  node (and, given a partition, the same graph patch) land on the same
  replica, maximizing feature-cache and plan-cache locality.  This is
  the policy the knee-QPS scaling benchmark pins.

Determinism matters more than realism here: the executor contract says
cluster runs must be byte-identical across ``--workers``, so routing is
a pure function of ``(config, request stream)`` — the router never
observes simulated replica state.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.utils.errors import ConfigError, check_choices, count, one_of, positive
from repro.utils.rng import make_rng

ROUTING_POLICIES = ("random", "least-loaded", "affinity")


@dataclass(frozen=True)
class RouterConfig:
    """Routing policy and replica count for one cluster serving run."""

    num_replicas: int = 1
    policy: str = one_of(ROUTING_POLICIES, "affinity")
    seed: int = 0
    #: trailing window (seconds of arrival time) of routed requests the
    #: least-loaded policy counts as still in flight
    window_s: float = 0.05

    def __post_init__(self) -> None:
        check_choices(self)
        count("num_replicas", self.num_replicas)
        positive("window_s", self.window_s)

    def split(self, system, requests, qps, check_invariants=False):
        """Split a request stream for :func:`repro.serve.serve_once`.

        Returns ``(replica ids, per-request replica, extra control
        entry)``; every replica id is listed, including one the router
        sends nothing (it contributes a ``None`` summary).  One replica
        declines (``None``): the run is the unsplit single-server path,
        bit for bit.
        """
        if self.num_replicas == 1:
            return None
        from repro.cluster.serve import affinity_map

        amap = (affinity_map(system, self.num_replicas)
                if self.policy == "affinity" else None)
        assign = ClusterRouter(self, affinity_map=amap).assign(requests)
        return range(self.num_replicas), assign, None


class ClusterRouter:
    """Assigns requests to replicas; see module docstring for policies.

    ``affinity_map`` (optional, ``node id -> replica``) refines the
    affinity policy with a real partition — e.g. the serving system's
    patch owners — instead of the default ``node % R`` hashing.
    """

    def __init__(self, config: RouterConfig,
                 affinity_map: np.ndarray | None = None):
        self.config = config
        self.affinity_map = (
            None if affinity_map is None
            else np.asarray(affinity_map, dtype=np.int64)
        )
        if self.affinity_map is not None and len(self.affinity_map) and \
                self.affinity_map.max() >= config.num_replicas:
            raise ConfigError("affinity map routes past the last replica")
        self._rng = make_rng(config.seed)
        r = config.num_replicas
        self._recent: list[list[float]] = [[] for _ in range(r)]
        self._last_used = np.full(r, -np.inf)

    def route(self, request) -> int:
        """The replica for one request (stateful for least-loaded)."""
        cfg = self.config
        r = cfg.num_replicas
        if r == 1:
            return 0
        if cfg.policy == "random":
            return int(self._rng.integers(r))
        if cfg.policy == "affinity":
            if self.affinity_map is not None:
                return int(self.affinity_map[request.node])
            return int(request.node % r)
        # least-loaded: count requests routed within the trailing window
        now = request.arrival
        horizon = now - cfg.window_s
        counts = np.empty(r)
        for rep, recent in enumerate(self._recent):
            while recent and recent[0] < horizon:
                recent.pop(0)
            counts[rep] = len(recent)
        best = np.flatnonzero(counts == counts.min())
        # ties: least recently used first, then lowest id — cold
        # replicas absorb load round-robin instead of replica 0 always
        chosen = int(best[np.argmin(self._last_used[best])])
        self._recent[chosen].append(now)
        self._last_used[chosen] = now
        return chosen

    def assign(self, requests) -> np.ndarray:
        """Replica id per request, in arrival order."""
        return np.array([self.route(r) for r in requests], dtype=np.int64)
