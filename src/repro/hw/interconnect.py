"""Interconnect topology: NVLink mesh + PCIe switches.

Models a DGX-1-style server (paper §7.1, Table 1).  The NVLink layout
is a hybrid cube-mesh: each quad of GPUs forms a ring of double links
and GPU ``i`` connects to GPU ``i + 4`` with a double link.  Every V100
then uses its 6 NVLink ports, and the aggregate bandwidths match the
paper's Table 1 exactly (25 GB/s per link per direction):

=======  ========================  =================
GPUs     NVLink links in use       aggregate (GB/s)
=======  ========================  =================
1        0                         0
2        2   (0-1 double)          100
4        8   (quad ring)           400
8        24  (2 rings + 4 cross)   1200
=======  ========================  =================

Pairs without a direct link (e.g. 0 and 2) communicate by multi-hop
forwarding through an intermediate GPU — the paper observes this is
still faster than PCIe, and DSP relies on it for the partitioned
feature cache.

PCIe: GPUs {0,1}, {2,3}, {4,5}, {6,7} share one switch each; a switch
provides 16 GB/s per direction to host memory (32 GB/s aggregate),
reproducing Table 1's PCIe column and the switch contention that makes
DGL-UVA scale poorly from 1 to 2 GPUs (§7.2).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from repro.utils.errors import ConfigError
from repro.utils.units import GB


#: unidirectional bandwidth of one NVLink 2.0 link (V100), bytes/s
NVLINK_LANE_BW = 25 * GB
#: unidirectional bandwidth of one PCIe 3.0 x16 switch uplink, bytes/s
PCIE_SWITCH_BW = 16 * GB

#: NVLink one-hop latency and PCIe round-trip latency (seconds)
NVLINK_LATENCY = 2e-6
PCIE_LATENCY = 5e-6


@dataclass(frozen=True)
class Topology:
    """Link structure of the simulated server.

    ``nvlink[i, j]`` is the number of NVLink lanes directly between
    GPUs ``i`` and ``j`` (0 if not directly connected).
    ``pcie_switch[i]`` is the PCIe switch id of GPU ``i``.
    """

    nvlink: np.ndarray
    pcie_switch: np.ndarray
    nvlink_lane_bw: float = NVLINK_LANE_BW
    pcie_switch_bw: float = PCIE_SWITCH_BW

    def __post_init__(self) -> None:
        nv = np.asarray(self.nvlink, dtype=np.int64)
        object.__setattr__(self, "nvlink", nv)
        object.__setattr__(
            self, "pcie_switch", np.asarray(self.pcie_switch, dtype=np.int64)
        )
        if nv.ndim != 2 or nv.shape[0] != nv.shape[1]:
            raise ConfigError("nvlink matrix must be square")
        if not np.array_equal(nv, nv.T):
            raise ConfigError("nvlink matrix must be symmetric")
        if np.any(np.diag(nv) != 0):
            raise ConfigError("no self links")
        if len(self.pcie_switch) != nv.shape[0]:
            raise ConfigError("pcie_switch must list every GPU")

    @property
    def num_gpus(self) -> int:
        return self.nvlink.shape[0]

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def dgx1(cls, num_gpus: int = 8, scale: float = 1.0) -> "Topology":
        """First ``num_gpus`` GPUs of the 8-GPU hybrid cube-mesh."""
        if not 1 <= num_gpus <= 8:
            raise ConfigError("DGX-1 has 1..8 GPUs")
        full = np.zeros((8, 8), dtype=np.int64)

        def link(i: int, j: int, lanes: int = 2) -> None:
            full[i, j] = full[j, i] = lanes

        # quad rings (double links)
        for base in (0, 4):
            ring = [base, base + 1, base + 2, base + 3]
            for k in range(4):
                link(ring[k], ring[(k + 1) % 4])
        # cross-quad links i <-> i+4 (double links)
        for i in range(4):
            link(i, i + 4)

        switches = np.array([0, 0, 1, 1, 2, 2, 3, 3], dtype=np.int64)
        return cls(
            nvlink=full[:num_gpus, :num_gpus],
            pcie_switch=switches[:num_gpus],
            nvlink_lane_bw=NVLINK_LANE_BW / scale,
            pcie_switch_bw=PCIE_SWITCH_BW / scale,
        )

    # ------------------------------------------------------------------
    # NVLink queries
    # ------------------------------------------------------------------
    def nvlink_bandwidth(self, i: int, j: int) -> float:
        """Direct unidirectional NVLink bandwidth between two GPUs (0 if none)."""
        return float(self.nvlink[i, j]) * self.nvlink_lane_bw

    def route(self, i: int, j: int) -> tuple[tuple[int, int], ...]:
        """Shortest NVLink path from ``i`` to ``j`` as a tuple of hops.

        Multi-hop paths model relaying through an intermediate GPU
        (paper §3.1).  Raises if the GPUs are NVLink-disconnected.
        """
        return _route_cached(_topo_key(self), i, j)

    def path_bandwidth(self, i: int, j: int) -> float:
        """Bottleneck unidirectional bandwidth along the NVLink route."""
        hops = self.route(i, j)
        if not hops:
            return float("inf")  # local access
        return min(self.nvlink_bandwidth(a, b) for a, b in hops)

    def has_nvlink_path(self, i: int, j: int) -> bool:
        try:
            self.route(i, j)
            return True
        except ConfigError:
            return False

    # ------------------------------------------------------------------
    # PCIe queries
    # ------------------------------------------------------------------
    def pcie_sharers(self, gpu: int, active_gpus: "list[int] | None" = None) -> int:
        """How many active GPUs share ``gpu``'s PCIe switch (including it)."""
        active = range(self.num_gpus) if active_gpus is None else active_gpus
        sw = self.pcie_switch[gpu]
        return sum(1 for g in active if self.pcie_switch[g] == sw)

    def pcie_bandwidth(self, gpu: int, active_gpus: "list[int] | None" = None) -> float:
        """Effective unidirectional host bandwidth for one GPU.

        GPUs behind the same switch split the uplink — this is the
        contention that stalls DGL-UVA when going from 1 to 2 GPUs.
        """
        return self.pcie_switch_bw / self.pcie_sharers(gpu, active_gpus)

    # ------------------------------------------------------------------
    # Table 1 aggregates
    # ------------------------------------------------------------------
    def aggregate_nvlink_bandwidth(self) -> float:
        """Total NVLink bandwidth among the in-use GPUs, both directions.

        With the unscaled DGX-1 this reproduces the paper's Table 1 row:
        0 / 100 / 400 / 1200 GB/s for 1 / 2 / 4 / 8 GPUs.
        """
        lanes = self.nvlink.sum()  # counts each pair twice == both directions
        return float(lanes) * self.nvlink_lane_bw

    def aggregate_pcie_bandwidth(self) -> float:
        """Total PCIe bandwidth, both directions (Table 1 bottom row)."""
        switches = len(np.unique(self.pcie_switch))
        return switches * self.pcie_switch_bw * 2


def _topo_key(t: Topology) -> tuple:
    return (t.nvlink.tobytes(), t.nvlink.shape[0], t.nvlink_lane_bw)


@lru_cache(maxsize=4096)
def _route_cached(key: tuple, i: int, j: int) -> tuple[tuple[int, int], ...]:
    nv = np.frombuffer(key[0], dtype=np.int64).reshape(key[1], key[1])
    n = key[1]
    if not (0 <= i < n and 0 <= j < n):
        raise ConfigError(f"GPU index out of range: {i}, {j}")
    if i == j:
        return ()
    # BFS shortest hop count, tie-broken toward wider first hops
    prev = {i: None}
    frontier = [i]
    while frontier and j not in prev:
        nxt: list[int] = []
        for u in frontier:
            order = np.argsort(-nv[u])  # prefer wider links
            for v in order:
                if nv[u, v] > 0 and int(v) not in prev:
                    prev[int(v)] = u
                    nxt.append(int(v))
        frontier = nxt
    if j not in prev:
        raise ConfigError(f"GPUs {i} and {j} are not NVLink-connected")
    path = [j]
    while path[-1] != i:
        path.append(prev[path[-1]])
    path.reverse()
    return tuple(zip(path[:-1], path[1:]))
