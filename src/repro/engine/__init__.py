"""Discrete-event execution engine.

The engine is what turns cost-model durations into *system* behaviour:
kernels contending for SM threads, workers blocking on bounded queues,
collectives rendezvousing across GPUs, deadlocks when collective
kernels launch in different orders (paper Fig 8), and the centralized
communication coordination (CCC) that prevents them (paper §5).

Workers are Python generators driven by :class:`Simulator`; they yield
requests (timeouts, resource acquisitions, queue operations, barrier
arrivals) and resume when the request is satisfied at some simulated
time.  The design mirrors classic process-based DES (SimPy-style) but
is dependency-free and adds the pieces DSP needs: time-weighted
resource utilization accounting, the CCC launch gate, and
:class:`GpuExecutor`, the one place a replayed op runs on a GPU.
"""

from repro.engine.simulator import Simulator, Timeout, Process
from repro.engine.resources import Resource, BoundedQueue, Rendezvous
from repro.engine.coordination import (
    ROUND_ABANDONED,
    ROUND_ABORTED,
    ROUND_OK,
    CollectiveGuard,
    LaunchGate,
)
from repro.engine.gpu import GpuExecutor

__all__ = [
    "Simulator",
    "Timeout",
    "Process",
    "Resource",
    "BoundedQueue",
    "Rendezvous",
    "LaunchGate",
    "CollectiveGuard",
    "GpuExecutor",
    "ROUND_OK",
    "ROUND_ABORTED",
    "ROUND_ABANDONED",
]
