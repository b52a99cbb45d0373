"""Cross-server network model: NICs and multi-server topologies.

One DGX box is the paper's world; the cluster subsystem scales it to
``S`` servers joined by a commodity network (GSplit / FastSample's
setting).  Each server keeps the hybrid cube-mesh NVLink topology of
:class:`~repro.hw.interconnect.Topology`; across servers the only link
is the NIC, modelled with the same α–β discipline as every other link
class:

- :class:`NICSpec` — latency (α) + unidirectional bandwidth (β) of one
  server's NIC, with ``ethernet`` (100 GbE) and ``infiniband`` (HDR)
  presets;
- :class:`ClusterTopology` — ``S`` copies of a server topology plus one
  NIC per server.  ``flat()`` materializes the cluster as one
  block-diagonal :class:`Topology` spanning all ``S * G`` GPUs so the
  existing cost models price intra-server traffic unchanged (there is
  deliberately *no* cross-server NVLink: the cluster cost engine lowers
  collectives that cross servers, see :mod:`repro.cluster.csp`).

There is one network cost rule: ``CostEngine`` prices every
:class:`~repro.sampling.ops.NetworkTransfer` on its NIC spec as
``α + max_s(max(out_s, in_s)) / β`` over each server's summed traffic,
so an exchange ends when the busiest NIC drains.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from repro.hw.devices import CPUSpec, Cluster, GPUSpec
from repro.hw.interconnect import Topology
from repro.utils.errors import ConfigError
from repro.utils.units import GB

#: NIC presets: unidirectional bandwidth (bytes/s) and one-way latency.
#: Ethernet (100 GbE = 12.5 GB/s, 5 µs) is the default NIC everywhere.
NIC_PRESETS = {
    "ethernet": (12.5 * GB, 5e-6),
    "infiniband": (25.0 * GB, 1.5e-6),
}


@dataclass(frozen=True)
class NICSpec:
    """One server's network interface (α–β cost parameters); the
    one NIC spec behind ``CostEngine(network=...)``, the multi-server
    :class:`ClusterTopology` and ``MultiMachineDSP(network=...)``.
    """

    kind: str = "ethernet"
    bandwidth: float = NIC_PRESETS["ethernet"][0]
    latency: float = NIC_PRESETS["ethernet"][1]

    def __post_init__(self) -> None:
        if self.bandwidth <= 0 or self.latency < 0:
            raise ConfigError("NIC bandwidth must be > 0 and latency >= 0")

    @classmethod
    def preset(cls, kind: str) -> "NICSpec":
        try:
            bw, lat = NIC_PRESETS[kind]
        except KeyError:
            raise ConfigError(
                f"unknown NIC {kind!r}; available: {sorted(NIC_PRESETS)}"
            ) from None
        return cls(kind=kind, bandwidth=bw, latency=lat)

    def scaled(self, scale: float) -> "NICSpec":
        """The network does not shrink with the dataset: rates stay
        real, like the other devices."""
        return self


@dataclass(frozen=True)
class ClusterTopology:
    """``num_servers`` copies of ``server`` joined by one NIC each.

    Global GPU ids are server-major: GPU ``g`` of server ``s`` is
    ``s * G + g`` where ``G = server.num_gpus``.  GPU ``s * G`` acts as
    the server's *gateway* — the GPU whose staging buffers feed the NIC
    during the cross-server phase of a hierarchical shuffle.
    """

    num_servers: int
    server: Topology
    nic: NICSpec = NICSpec()

    def __post_init__(self) -> None:
        if self.num_servers < 1:
            raise ConfigError("need at least one server")

    @property
    def gpus_per_server(self) -> int:
        return self.server.num_gpus

    @property
    def num_gpus(self) -> int:
        return self.num_servers * self.server.num_gpus

    @cached_property
    def _flat(self) -> Topology:
        s, g = self.num_servers, self.server.num_gpus
        nvlink = np.zeros((s * g, s * g), dtype=np.int64)
        switches = np.zeros(s * g, dtype=np.int64)
        # PCIe switch ids must stay unique per server: each server has
        # its own switches and host uplinks
        per_server = int(self.server.pcie_switch.max()) + 1
        for i in range(s):
            lo, hi = i * g, (i + 1) * g
            nvlink[lo:hi, lo:hi] = self.server.nvlink
            switches[lo:hi] = self.server.pcie_switch + i * per_server
        return Topology(
            nvlink=nvlink,
            pcie_switch=switches,
            nvlink_lane_bw=self.server.nvlink_lane_bw,
            pcie_switch_bw=self.server.pcie_switch_bw,
        )

    def flat(self) -> Topology:
        """The cluster as one block-diagonal :class:`Topology`.

        Intra-server links are exact copies of the server topology;
        there is no cross-server NVLink, so ``route()`` across blocks
        raises.  :class:`~repro.cluster.engine.ClusterCostEngine` lowers
        every trace it prices before routing it; a plain ``CostEngine``
        on this topology refuses raw cross-server collectives instead of
        silently mispricing them as NVLink.
        """
        return self._flat


def multi_server_cluster(topology: ClusterTopology, scale: float = 1.0) -> Cluster:
    """Hardware for a cluster of identical DGX-style servers.

    The returned :class:`~repro.hw.devices.Cluster` spans all
    ``S * G`` GPUs on the block-diagonal topology; per-GPU and per-CPU
    specs scale exactly like ``Cluster.dgx1`` so a 1-server cluster is
    bit-identical to the single-server construction.
    """
    return Cluster(
        gpu=GPUSpec().scaled(scale),
        cpu=CPUSpec().scaled(scale),
        topology=topology.flat(),
        scale=scale,
    )
