"""The fault rule of the one op executor (:mod:`repro.engine.gpu`).

Training and serving run every op through
:class:`~repro.engine.GpuExecutor`, so they share one rule: an op that
moves link bytes — a NIC transfer included, although it is a host op —
is slowed by that link's degradation and by its GPU's straggler
slowdown, and faults are read when the op starts, i.e. once it holds
its comm channel and SMs, not when it was queued.
"""

from types import SimpleNamespace

import numpy as np
import pytest

from repro.chaos.faults import FaultPlan, GpuStraggler, LinkDegrade
from repro.chaos.injector import FaultInjector
from repro.core.cost import OpCost
from repro.core.pipeline import PipelineRunner
from repro.hw import Cluster
from repro.obs import Tracer
from repro.serve import GNNServer, ServeConfig
from repro.serve.workload import Request

D = 1.0  # unfaulted duration of every scripted op


def _injector(*events):
    return FaultInjector(FaultPlan(tuple(events)))


def _nic_transfer():
    """What the cost engine makes of a NetworkTransfer: a host op."""
    return OpCost(label="network", per_gpu=np.zeros(1), stage=D, threads=1,
                  host=True, network_bytes=1e6)


def _collective(label):
    return OpCost(label=label, per_gpu=np.full(1, D), stage=D, threads=128,
                  collective=True, nvlink_bytes=1e6)


class TestNicTransfer:
    @pytest.mark.parametrize("event,slowdown", [
        (LinkDegrade(0.0, link="network", duration=100.0, factor=4.0), 4.0),
        (GpuStraggler(0.0, gpu=0, duration=100.0, slowdown=4.0), 4.0),
        (LinkDegrade(0.0, link="nvlink", duration=100.0, factor=4.0), 1.0),
    ], ids=["network-degrade", "gpu-straggler", "nvlink-degrade"])
    def test_training_nic_transfer_slowdown(self, event, slowdown):
        """A one-op epoch: the NIC transfer alone sets its length."""
        batches = [{"sample": [_nic_transfer()], "load": [], "train": []}]
        clean = PipelineRunner(Cluster.dgx1(1), batches).run()
        faulted = PipelineRunner(Cluster.dgx1(1), batches,
                                 injector=_injector(event)).run()
        assert clean.epoch_time == pytest.approx(D)
        assert faulted.epoch_time == pytest.approx(slowdown * D)


#: the degrade opens after the second of two collectives queues on one
#: comm channel (at D) and before it starts (at 2D)
DEGRADE = LinkDegrade(1.5 * D, link="nvlink", duration=100.0, factor=4.0)


def _faults_read_at_start(tracer):
    ends = sorted(s.end for s in tracer.spans()
                  if s.args.get("collective") and s.start == pytest.approx(D))
    # the first collective queued at D starts at once and runs clean;
    # the other waits for the channel until 2D and runs under the factor
    assert ends == pytest.approx([2 * D, 2 * D + 4 * D])


class TestFaultsReadAtStart:
    def test_training(self):
        """Sample of batch 1 and load of batch 0 both queue at ``D``."""
        batches = [{"sample": [_collective("c")], "load": [_collective("c")],
                    "train": []} for _ in range(2)]
        tracer = Tracer()
        PipelineRunner(Cluster.dgx1(1), batches, comm_channels=1,
                       tracer=tracer, injector=_injector(DEGRADE)).run()
        _faults_read_at_start(tracer)

    def test_serving(self):
        tracer = Tracer()
        server = GNNServer(_ScriptedSystem(),
                           ServeConfig(batch_max=1, comm_channels=1),
                           tracer=tracer, injector=_injector(DEGRADE))
        server.run([Request(rid=i, node=i, arrival=0.0) for i in range(2)])
        _faults_read_at_start(tracer)


class _ScriptedSystem:
    """One GPU whose every batch samples with one collective and loads
    with one collective, each :data:`D` long; inference is free."""

    name = "scripted"
    k = 1
    sampler = loader = None

    def __init__(self):
        self.cluster = Cluster.dgx1(1)
        self.engine = self
        self.model = SimpleNamespace(forward_flops=lambda sample: 0.0)

    def _sample(self, per_gpu):
        seeds = per_gpu[0]
        return [SimpleNamespace(seeds=seeds, all_nodes=seeds)], "sample"

    def _load(self, reqs, lost):
        return None, "load", {}

    def trace_cost(self, trace):
        return [_collective(trace)] if trace in ("sample", "load") else []
