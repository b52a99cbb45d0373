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
  deliberately *no* cross-server NVLink: collectives that would cross
  servers must be lowered first, see :mod:`repro.cluster.csp`).

Shared-NIC contention mirrors the PCIe-switch rule: every GPU of a
server funnels its cross-server bytes through the one NIC, so a
server's exchange time is ``α + max(bytes_out, bytes_in) / β`` over the
*summed* per-server traffic (:meth:`ClusterTopology.exchange_time`),
and :meth:`ClusterTopology.nic_bandwidth` exposes the per-GPU share for
capacity planning.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
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

    def degraded(self, factor: float) -> "NICSpec":
        """This NIC at ``1/factor`` of its bandwidth (steady-state
        equivalent of a ``LinkDegrade(link="network")`` fault)."""
        if factor < 1.0:
            raise ConfigError("degradation factor must be >= 1")
        return replace(self, bandwidth=self.bandwidth / factor)


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

    def server_of(self, gpu: int) -> int:
        if not 0 <= gpu < self.num_gpus:
            raise ConfigError(f"GPU index out of range: {gpu}")
        return gpu // self.server.num_gpus

    def gateway_of(self, server: int) -> int:
        if not 0 <= server < self.num_servers:
            raise ConfigError(f"server index out of range: {server}")
        return server * self.server.num_gpus

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
        raises — by design, to catch unlowered cross-server collectives
        at pricing time instead of silently mispricing them.
        """
        return self._flat

    # ------------------------------------------------------------------
    # NIC contention (the PCIe-switch rule, one level up)
    # ------------------------------------------------------------------
    def nic_sharers(self, server: int, active_gpus=None) -> int:
        """How many active GPUs funnel traffic through this server's NIC."""
        active = range(self.num_gpus) if active_gpus is None else active_gpus
        return sum(1 for gpu in active if self.server_of(gpu) == server)

    def nic_bandwidth(self, server: int, active_gpus=None) -> float:
        """Effective per-GPU share of the NIC among concurrent senders."""
        return self.nic.bandwidth / max(1, self.nic_sharers(server, active_gpus))

    def exchange_time(self, matrix) -> float:
        """α–β time of one batched cross-server exchange.

        ``matrix[s, s']`` is the bytes server ``s`` sends to ``s'``.
        Every server's NIC moves its total in/out concurrently, so the
        exchange finishes when the busiest NIC drains:
        ``α + max_s(max(out_s, in_s)) / β``.
        """
        m = np.asarray(matrix, dtype=np.float64)
        if m.shape != (self.num_servers, self.num_servers):
            raise ConfigError(
                f"exchange matrix must be {self.num_servers}x{self.num_servers}"
            )
        out_load = m.sum(axis=1) - np.diag(m)
        in_load = m.sum(axis=0) - np.diag(m)
        worst = float(np.maximum(out_load, in_load).max()) if m.size else 0.0
        if worst == 0.0:
            return 0.0
        return self.nic.latency + worst / self.nic.bandwidth

    def degraded(self, nvlink_factor: float = 1.0, pcie_factor: float = 1.0,
                 network_factor: float = 1.0) -> "ClusterTopology":
        """A slowed-down view of the cluster (chaos what-if analysis);
        extends ``Topology.degraded`` with the cross-server link class."""
        return ClusterTopology(
            num_servers=self.num_servers,
            server=self.server.degraded(nvlink_factor, pcie_factor),
            nic=self.nic.degraded(network_factor),
        )


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
