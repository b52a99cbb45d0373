"""Simulated multi-GPU hardware substrate.

The paper's results are driven by a handful of hardware facts: NVLink is
an order of magnitude faster than PCIe (Table 1), UVA reads over PCIe
suffer read amplification (min 50-byte requests: 32 B payload + 18 B
header), GPU kernels saturate well below the full thread count (Fig 2),
GPUs behind the same PCIe switch contend for bandwidth, and raw CUDA
allocation (cudaMalloc/cudaFree) is expensive compared to a pooled
allocator.  This package models exactly those facts:

- :mod:`~repro.hw.devices` — GPU/CPU specs (a V100-like GPU, optionally
  scaled down in memory and rates to match the scaled datasets).
- :mod:`~repro.hw.interconnect` — the DGX-1 NVLink hybrid-cube-mesh and
  PCIe-switch topology with multi-hop routing.
- :mod:`~repro.hw.comm` — an alpha–beta cost model for NCCL-style
  collectives plus the UVA read-amplification channel.
- :mod:`~repro.hw.kernels` — kernel duration model with thread
  saturation and launch overhead.
- :mod:`~repro.hw.memory` — GPU memory tracking and allocator models.
- :mod:`~repro.hw.network` — cross-server NICs (ethernet/IB α–β costs)
  and multi-server cluster topologies with shared-NIC contention.
"""

from repro.hw.devices import GPUSpec, CPUSpec, Cluster
from repro.hw.interconnect import Topology
from repro.hw.network import (
    NICSpec,
    ClusterTopology,
    multi_server_cluster,
    NIC_PRESETS,
)
from repro.hw.comm import CommCost, CostModel, UVA_REQUEST_PAYLOAD, UVA_REQUEST_TOTAL
from repro.hw.kernels import KernelSpec, kernel_duration
from repro.hw.memory import DeviceMemory, AllocatorKind, alloc_overhead

__all__ = [
    "GPUSpec",
    "CPUSpec",
    "Cluster",
    "Topology",
    "NICSpec",
    "ClusterTopology",
    "multi_server_cluster",
    "NIC_PRESETS",
    "CommCost",
    "CostModel",
    "UVA_REQUEST_PAYLOAD",
    "UVA_REQUEST_TOTAL",
    "KernelSpec",
    "kernel_duration",
    "DeviceMemory",
    "AllocatorKind",
    "alloc_overhead",
]
