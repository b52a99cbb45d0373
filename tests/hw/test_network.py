"""Tests for the cross-server network model (NICs + cluster topology)."""

import numpy as np
import pytest

from repro.hw import ClusterTopology, CostModel, NIC_PRESETS, NICSpec, Topology
from repro.utils import GB
from repro.utils.errors import ConfigError


def cluster(s: int = 2, g: int = 2, nic: str = "ethernet") -> ClusterTopology:
    return ClusterTopology(num_servers=s, server=Topology.dgx1(g),
                           nic=NICSpec.preset(nic))


class TestNICSpec:
    def test_presets(self):
        eth = NICSpec.preset("ethernet")
        ib = NICSpec.preset("infiniband")
        assert eth.bandwidth == 12.5 * GB  # 100 GbE
        assert ib.bandwidth > eth.bandwidth
        assert ib.latency < eth.latency
        assert set(NIC_PRESETS) == {"ethernet", "infiniband"}

    def test_unknown_preset(self):
        with pytest.raises(ConfigError):
            NICSpec.preset("carrier-pigeon")

    def test_degraded_divides_bandwidth(self):
        nic = NICSpec.preset("ethernet")
        slow = nic.degraded(4.0)
        assert slow.bandwidth == nic.bandwidth / 4.0
        assert slow.latency == nic.latency
        with pytest.raises(ConfigError):
            nic.degraded(0.5)

    def test_scaled_is_identity(self):
        # the network does not shrink with the dataset
        nic = NICSpec.preset("infiniband")
        assert nic.scaled(0.01) == nic

    def test_invalid_parameters(self):
        with pytest.raises(ConfigError):
            NICSpec(bandwidth=0.0)


class TestClusterTopology:
    def test_indexing(self):
        ct = cluster(s=3, g=4)
        assert ct.num_gpus == 12
        assert ct.gpus_per_server == 4
        assert ct.server_of(0) == 0
        assert ct.server_of(11) == 2
        assert ct.gateway_of(2) == 8
        with pytest.raises(ConfigError):
            ct.server_of(12)
        with pytest.raises(ConfigError):
            ct.gateway_of(3)

    def test_flat_is_block_diagonal(self):
        ct = cluster(s=2, g=4)
        flat = ct.flat()
        assert flat.num_gpus == 8
        server = ct.server.nvlink
        assert np.array_equal(flat.nvlink[:4, :4], server)
        assert np.array_equal(flat.nvlink[4:, 4:], server)
        assert not flat.nvlink[:4, 4:].any()  # no cross-server NVLink
        assert not flat.nvlink[4:, :4].any()

    def test_flat_pcie_switches_are_per_server(self):
        ct = cluster(s=2, g=4)
        flat = ct.flat()
        first = set(flat.pcie_switch[:4].tolist())
        second = set(flat.pcie_switch[4:].tolist())
        assert not first & second  # servers never share a PCIe switch

    def test_cross_server_route_raises(self):
        """Unlowered cross-server traffic must fail at pricing time,
        not be silently priced as NVLink."""
        flat = cluster().flat()
        with pytest.raises(ConfigError):
            flat.route(0, 2)
        m = np.zeros((4, 4))
        m[0, 3] = 1024.0
        with pytest.raises(ConfigError):
            CostModel(flat).alltoall(m)

    def test_nic_sharers(self):
        ct = cluster(s=2, g=4)
        assert ct.nic_sharers(0) == 4  # all GPUs active by default
        assert ct.nic_sharers(0, active_gpus=[0, 1, 5]) == 2
        assert ct.nic_bandwidth(0, active_gpus=[0]) == ct.nic.bandwidth
        assert ct.nic_bandwidth(1) == ct.nic.bandwidth / 4

    def test_exchange_time_alpha_beta(self):
        ct = cluster(s=2)
        nbytes = 1.0 * GB
        m = np.array([[0.0, nbytes], [0.0, 0.0]])
        expect = ct.nic.latency + nbytes / ct.nic.bandwidth
        assert ct.exchange_time(m) == pytest.approx(expect)

    def test_exchange_time_busiest_nic_dominates(self):
        ct = cluster(s=3)
        m = np.zeros((3, 3))
        m[0, 1] = m[0, 2] = 1.0 * GB  # server 0 sends 2 GB total
        m[1, 2] = 1.0 * GB
        expect = ct.nic.latency + 2.0 * GB / ct.nic.bandwidth
        assert ct.exchange_time(m) == pytest.approx(expect)

    def test_exchange_time_empty(self):
        ct = cluster(s=2)
        assert ct.exchange_time(np.zeros((2, 2))) == 0.0
        with pytest.raises(ConfigError):
            ct.exchange_time(np.zeros((3, 3)))

    def test_degraded_network_factor(self):
        ct = cluster()
        slow = ct.degraded(network_factor=4.0)
        m = np.array([[0.0, 1.0 * GB], [0.0, 0.0]])
        assert slow.exchange_time(m) > ct.exchange_time(m)
        # NVLink untouched unless asked
        assert np.array_equal(slow.server.nvlink, ct.server.nvlink)

    def test_infiniband_faster_than_ethernet(self):
        m = np.array([[0.0, 1.0 * GB], [0.0, 0.0]])
        assert (cluster(nic="infiniband").exchange_time(m)
                < cluster(nic="ethernet").exchange_time(m))


class TestInjectorNetworkLink:
    def test_network_degrade_hits_network_ops_only(self):
        """LinkDegrade(link="network") scales ops with network bytes and
        leaves NVLink-only ops alone."""
        from types import SimpleNamespace

        from repro.chaos.faults import FaultPlan, LinkDegrade
        from repro.chaos.injector import FaultInjector
        from repro.core.cost import OpCost

        plan = FaultPlan((
            LinkDegrade(0.0, link="network", duration=10.0, factor=4.0),
        ))
        inj = FaultInjector(plan)
        inj.sim = SimpleNamespace(now=1.0)  # mid-fault
        net_op = OpCost(label="x-net", per_gpu=np.zeros(4), stage=1e-3,
                        threads=1, host=True, network_bytes=1024.0)
        nvl_op = OpCost(label="x-intra", per_gpu=np.zeros(4), stage=1e-3,
                        threads=1, nvlink_bytes=1024.0)
        assert inj.comm_scale(0, net_op) == 4.0
        assert inj.comm_scale(0, nvl_op) == 1.0
