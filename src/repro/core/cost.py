"""Cost engine: op traces -> simulated hardware time.

Converts the hardware-level operations emitted by samplers, loaders and
trainers (:mod:`repro.sampling.ops`) into durations and byte counters
using the :mod:`repro.hw` models.  Two consumers:

- sequential (DSP-Seq and all baselines): stage time is the max across
  GPUs, epoch time is the sum of stages (a synchronization barrier
  after every op, which is what the real systems do);
- pipelined (DSP): :class:`repro.core.pipeline.PipelineRunner` replays
  :class:`OpCost` objects inside the discrete-event engine, so stages
  of *different* mini-batches overlap.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.hw.comm import CostModel
from repro.hw.devices import Cluster
from repro.hw.kernels import (
    compute_kernel,
    gather_kernel,
    kernel_duration,
    sampling_kernel,
)
from repro.hw.network import NICSpec
from repro.sampling.ops import (
    AllReduce,
    AllToAll,
    HostWork,
    LocalKernel,
    NetworkTransfer,
    OpTrace,
    Overhead,
    ParallelGroup,
    PCIeCopy,
    UVAGather,
)
from repro.utils.errors import ConfigError


@dataclass(frozen=True)
class OpCost:
    """Cost of one op, ready for analytic or event-driven replay.

    ``per_gpu[g]`` is how long GPU ``g``'s kernel runs; ``stage`` is
    the wall time of the whole op under a barrier.  ``collective`` ops
    must rendezvous across GPUs before time passes; ``threads`` is the
    SM footprint the kernel occupies while running.
    """

    label: str
    per_gpu: np.ndarray
    stage: float
    threads: int
    collective: bool = False
    host: bool = False
    nvlink_bytes: float = 0.0
    pcie_bytes: float = 0.0
    uva_payload: float = 0.0
    network_bytes: float = 0.0

    def link_bytes(self) -> dict:
        """Wire bytes per link class (cluster-wide totals for this op),
        keyed by :data:`repro.hw.comm.LINK_CLASSES`."""
        return {"nvlink": self.nvlink_bytes, "pcie": self.pcie_bytes,
                "network": self.network_bytes}


#: SM threads an NCCL-style communication kernel occupies (paper §5:
#: "only need a small number of threads to fully utilize NVLink")
COMM_KERNEL_THREADS = 128
#: SM threads a UVA gather occupies (memory-latency bound)
UVA_KERNEL_THREADS = 512


class CostEngine:
    """Stateless op -> OpCost conversion for one cluster.

    ``launch_scale`` shrinks fixed per-op overheads (kernel launch,
    collective launch, PCIe latency).  Runs that use a mini-batch f
    times smaller than the paper's 1024 pass ``launch_scale=f`` so that
    constant overheads keep the same share of batch time.
    """

    def __init__(self, cluster: Cluster, launch_scale: float = 1.0,
                 network=None, backend: str = "nccl"):
        self.cluster = cluster
        self.model = CostModel(cluster.topology, launch_scale=launch_scale,
                               backend=backend)
        self.network = network if network is not None else NICSpec()
        self.k = cluster.num_gpus
        from dataclasses import replace

        self.gpu = replace(
            cluster.gpu,
            kernel_launch_s=cluster.gpu.kernel_launch_s * launch_scale,
        )
        self.launch_scale = launch_scale

    # ------------------------------------------------------------------
    def op_cost(self, op) -> OpCost:
        if isinstance(op, AllToAll):
            return self._alltoall(op)
        if isinstance(op, AllReduce):
            return self._allreduce(op)
        if isinstance(op, LocalKernel):
            return self._kernel(op)
        if isinstance(op, UVAGather):
            return self._uva(op)
        if isinstance(op, HostWork):
            return self._host(op)
        if isinstance(op, PCIeCopy):
            return self._copy(op)
        if isinstance(op, ParallelGroup):
            return self._parallel(op)
        if isinstance(op, Overhead):
            return OpCost(
                label=op.label,
                per_gpu=np.zeros(self.k),
                stage=float(op.seconds),
                threads=1,
                host=True,
            )
        if isinstance(op, NetworkTransfer):
            return self._network(op)
        raise ConfigError(f"unknown op type {type(op).__name__}")

    def _network(self, op: NetworkTransfer) -> OpCost:
        m = np.asarray(op.matrix, dtype=np.float64)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ConfigError("network matrix must be square")
        # each machine's NIC is the bottleneck: max of its in/out totals
        out_load = m.sum(axis=1) - np.diag(m)
        in_load = m.sum(axis=0) - np.diag(m)
        worst = float(np.maximum(out_load, in_load).max())
        dur = self.network.latency + worst / self.network.bandwidth if worst \
            else 0.0
        return OpCost(
            label=op.label,
            per_gpu=np.zeros(self.k),
            stage=dur,
            threads=1,
            host=True,  # NIC DMA: GPUs wait but do not execute
            network_bytes=float(m.sum() - np.trace(m)),
        )

    def trace_cost(self, trace: OpTrace) -> list[OpCost]:
        return [self.op_cost(op) for op in trace]

    def stage_time(self, trace: OpTrace) -> float:
        """Sequential wall time of a trace (barrier after each op)."""
        return sum(c.stage for c in self.trace_cost(trace))

    # ------------------------------------------------------------------
    def _alltoall(self, op: AllToAll) -> OpCost:
        c = self.model.alltoall(op.matrix)
        return OpCost(
            label=op.label,
            per_gpu=np.full(self.k, c.time),
            stage=c.time,
            threads=COMM_KERNEL_THREADS,
            collective=self.k > 1,
            nvlink_bytes=c.nvlink_bytes,
        )

    def _allreduce(self, op: AllReduce) -> OpCost:
        c = self.model.allreduce(op.nbytes)
        return OpCost(
            label=op.label,
            per_gpu=np.full(self.k, c.time),
            stage=c.time,
            threads=COMM_KERNEL_THREADS,
            collective=self.k > 1,
            nvlink_bytes=c.nvlink_bytes,
        )

    def _kernel(self, op: LocalKernel) -> OpCost:
        gpu = self.gpu
        per = np.zeros(self.k)
        threads = COMM_KERNEL_THREADS
        for g in range(self.k):
            work = float(op.work[g])
            if op.kind == "sample":
                spec = sampling_kernel(gpu, num_tasks=work, fanout=1)
            elif op.kind in ("gather", "decode"):
                # decode: expanding compressed feature rows is a
                # bandwidth-bound pass over the decoded bytes, the same
                # roofline as a gather of that volume
                spec = gather_kernel(gpu, nbytes=work)
            elif op.kind == "compute":
                spec = compute_kernel(
                    gpu, flops=work, footprint_scale=self.launch_scale
                )
            else:
                raise ConfigError(f"unknown kernel kind {op.kind!r}")
            per[g] = kernel_duration(spec)
            threads = spec.threads
        return OpCost(
            label=op.label or op.kind,
            per_gpu=per,
            stage=float(per.max()),
            threads=threads,
        )

    def _uva(self, op: UVAGather) -> OpCost:
        active = list(range(self.k))
        per = np.zeros(self.k)
        wire = payload = 0.0
        for g in range(self.k):
            c = self.model.uva_gather(g, int(op.items[g]), op.item_bytes, active)
            per[g] = c.time
            wire += c.pcie_bytes
            payload += c.payload_bytes
        return OpCost(
            label=op.label,
            per_gpu=per,
            stage=float(per.max()),
            threads=UVA_KERNEL_THREADS,
            pcie_bytes=wire,
            uva_payload=payload,
        )

    def _host(self, op: HostWork) -> OpCost:
        cpu = self.cluster.cpu
        total = float(np.sum(op.tasks))
        if op.kind == "sample":
            rate = cpu.num_threads * cpu.sample_rate_per_thread
        elif op.kind == "gather":
            rate = cpu.gather_rate
        else:
            raise ConfigError(f"unknown host work kind {op.kind!r}")
        dur = total / rate if total else 0.0
        # GPUs are idle while the host works: per_gpu = 0
        return OpCost(
            label=op.label,
            per_gpu=np.zeros(self.k),
            stage=dur,
            threads=1,
            host=True,
        )

    def _copy(self, op: PCIeCopy) -> OpCost:
        active = list(range(self.k))
        per = np.zeros(self.k)
        bytes_total = 0.0
        for g in range(self.k):
            c = self.model.pcie_copy(g, float(op.nbytes[g]), active)
            per[g] = c.time
            bytes_total += c.pcie_bytes
        return OpCost(
            label=op.label,
            per_gpu=per,
            stage=float(per.max()),
            threads=UVA_KERNEL_THREADS,
            pcie_bytes=bytes_total,
        )

    def _parallel(self, op: ParallelGroup) -> OpCost:
        branch_costs = [[self.op_cost(o) for o in branch] for branch in op.branches]
        per = np.zeros(self.k)
        stage = 0.0
        nvl = pcie = uva = net = 0.0
        for costs in branch_costs:
            b_per = np.sum([c.per_gpu for c in costs], axis=0) if costs else np.zeros(self.k)
            per = np.maximum(per, b_per)
            stage = max(stage, sum(c.stage for c in costs))
            nvl += sum(c.nvlink_bytes for c in costs)
            pcie += sum(c.pcie_bytes for c in costs)
            uva += sum(c.uva_payload for c in costs)
            net += sum(c.network_bytes for c in costs)
        return OpCost(
            label=op.label,
            per_gpu=per,
            stage=stage,
            threads=UVA_KERNEL_THREADS,
            collective=self.k > 1 and any(
                c.collective for costs in branch_costs for c in costs
            ),
            nvlink_bytes=nvl,
            pcie_bytes=pcie,
            uva_payload=uva,
            network_bytes=net,
        )

    # ------------------------------------------------------------------
    def occupancy_of(self, costs: list[OpCost], wall: float) -> float:
        """Thread-weighted GPU occupancy of a sequential cost list."""
        if wall <= 0:
            return 0.0
        total_threads = self.cluster.gpu.total_threads
        area = 0.0
        for c in costs:
            area += float(c.per_gpu.sum()) * min(c.threads, total_threads)
        return area / (total_threads * wall * self.k)
