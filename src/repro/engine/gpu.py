"""The one op executor training and serving replay their ops through.

:class:`GpuExecutor` owns every GPU's SM-thread and comm-channel
:class:`~repro.engine.resources.Resource` and runs an
:class:`~repro.core.cost.OpCost` under one fault rule: faults are read
when the op starts, once it holds its channel and SMs and has formed
its rendezvous (docs/robustness.md, "When faults are read").
"""

from __future__ import annotations

from repro.engine.resources import Resource
from repro.engine.simulator import Simulator, Timeout


class GpuExecutor:
    """Per-GPU SM threads (``{prefix}{g}-sm``) and comm channels
    (``{prefix}{g}-comm``); ``injector`` is a
    :class:`repro.chaos.FaultInjector` or ``None``."""

    def __init__(self, sim: Simulator, num_gpus: int, sm_threads: int,
                 comm_channels: int, prefix: str = "gpu", injector=None):
        self.sim = sim
        self.injector = injector
        self.threads = [Resource(sim, sm_threads, name=f"{prefix}{g}-sm")
                        for g in range(num_gpus)]
        self.channels = [
            Resource(sim, comm_channels, name=f"{prefix}{g}-comm")
            for g in range(num_gpus)
        ]

    def run(self, g: int, cost, duration: float, tag=None, gate=None,
            join=None):
        """Run ``cost`` on GPU ``g`` for ``duration`` unfaulted seconds;
        returns ``(start, degraded)`` (``yield from`` it in a process).

        A collective waits for its turn at ``gate`` and takes a channel,
        a GPU op takes its SM footprint (host ops hold neither), then a
        collective rendezvouses through ``join(g, tag)``, a generator
        returning whether its round was abandoned (``degraded``).
        """
        start = self.sim.now
        collective, kernel = cost.collective, not cost.host
        sm, channel = self.threads[g], self.channels[g]
        footprint = min(cost.threads, sm.capacity)
        if collective:
            if gate is not None:
                yield gate.wait_turn(g, tag)
            yield channel.acquire(1)
        if kernel:
            yield sm.acquire(footprint)
        degraded = False
        if collective:
            if gate is not None:
                gate.launched(g, tag)
            if join is not None:
                degraded = yield from join(g, tag)
        inj = self.injector
        if inj is not None:
            # bytes on a link: its blackouts and slowdown, host op or not
            if any(cost.link_bytes().values()):
                wait = inj.blackout_wait(cost)
                if wait > 0.0:
                    yield Timeout(wait)
                duration *= inj.comm_scale(g, cost)
            elif kernel:
                duration *= inj.compute_scale(g)
        yield Timeout(duration)
        if kernel:
            sm.release(footprint)
        if collective:
            channel.release(1)
        return start, degraded
