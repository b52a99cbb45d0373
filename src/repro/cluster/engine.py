"""Cost engine specialization for multi-server clusters.

The base :class:`~repro.core.cost.CostEngine` prices every op on the
block-diagonal cluster topology except two things a cluster changes:

- **traces cross servers.**  Samplers and loaders emit flat ``k x k``
  collectives; :meth:`ClusterCostEngine.trace_cost` lowers every trace
  it prices into hierarchical form (:func:`repro.cluster.csp.lower_trace`)
  so no caller has to, and the resulting :class:`NetworkTransfer` ops
  are priced with the base α–β rule on the cluster's NIC spec;
- **each server has its own host CPU.**  Host-work contention is
  scoped to each server and the servers work concurrently.
"""

from __future__ import annotations

import numpy as np

from repro.cluster import csp
from repro.core.cost import CostEngine, OpCost
from repro.hw.network import ClusterTopology
from repro.sampling.ops import HostWork, OpTrace
from repro.utils.errors import ConfigError


class ClusterCostEngine(CostEngine):
    """A :class:`CostEngine` spanning ``S`` servers.

    ``cluster.topology`` must be the block-diagonal
    ``cluster_topology.flat()`` view; the NIC becomes the engine's
    ``network`` spec so NetworkTransfer pricing uses the configured
    preset.  :meth:`trace_cost` (and so :meth:`stage_time`) accepts raw
    single-server traces and lowers them; :meth:`op_cost` prices one op
    as given.  With ``num_servers == 1`` this is behaviourally identical
    to the base engine (lowering is the identity and the host override
    degenerates to one CPU).
    """

    def __init__(self, cluster, cluster_topology: ClusterTopology,
                 launch_scale: float = 1.0, backend: str = "nccl"):
        if cluster.num_gpus != cluster_topology.num_gpus:
            raise ConfigError(
                f"cluster has {cluster.num_gpus} GPUs but the topology "
                f"describes {cluster_topology.num_gpus}"
            )
        if backend != "nccl":
            raise ConfigError(
                "multi-server clusters support only the nccl backend "
                "(nvshmem needs a full NVLink mesh)"
            )
        super().__init__(cluster, launch_scale=launch_scale,
                         network=cluster_topology.nic, backend=backend)
        self.cluster_topology = cluster_topology
        self.num_servers = cluster_topology.num_servers

    def trace_cost(self, trace: OpTrace) -> list[OpCost]:
        # looked up on the module at call time, so a wrapped
        # lower_trace (perfbench's cluster.lower span) still fires
        lowered = csp.lower_trace(trace, self.num_servers,
                                  self.cluster_topology.gpus_per_server)
        return super().trace_cost(lowered)

    def _host(self, op: HostWork) -> OpCost:
        """Each server's host CPU serves only its own GPUs; the stage
        lasts until the busiest host finishes (hosts run concurrently)."""
        cpu = self.cluster.cpu
        if op.kind == "sample":
            rate = cpu.num_threads * cpu.sample_rate_per_thread
        elif op.kind == "gather":
            rate = cpu.gather_rate
        else:
            raise ConfigError(f"unknown host work kind {op.kind!r}")
        tasks = np.asarray(op.tasks, dtype=np.float64)
        if tasks.shape != (self.k,):
            raise ConfigError(
                f"host work lists {tasks.shape} tasks for {self.k} GPUs"
            )
        per_server = tasks.reshape(
            self.num_servers, self.cluster_topology.gpus_per_server
        ).sum(axis=1)
        worst = float(per_server.max())
        dur = worst / rate if worst else 0.0
        return OpCost(
            label=op.label,
            per_gpu=np.zeros(self.k),
            stage=dur,
            threads=1,
            host=True,
        )
