"""Device specifications for the simulated cluster.

The experiment machine in the paper is an AWS p3.16xlarge: 8 V100 GPUs
(16 GB each, 80 SMs x 64 threads = 5120 "physical threads", the number
quoted in Fig 2) and a 64-core Xeon E5-2686 host with 480 GB of memory.

Because the datasets are scaled down ~100-1000x (see
:mod:`repro.graph.datasets`), device memory and all processing *rates*
are divided by the same per-dataset ``scale``.  Scaling data and rates
together leaves every ratio the paper measures — what fits where, epoch
seconds, speedups — in the paper's regime while letting the simulation
run on a laptop.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.utils.errors import ConfigError
from repro.utils.units import GB

from repro.hw.interconnect import Topology


@dataclass(frozen=True)
class GPUSpec:
    """A V100-like GPU.

    Rates are *unscaled* (real-hardware magnitudes); :meth:`scaled`
    derives the simulation device.  ``sample_rate`` is neighbour-sample
    tasks per second at full occupancy; ``gather_rate`` is bytes/s of
    feature gathering from HBM; ``flops`` is dense-compute throughput.
    """

    name: str = "V100"
    memory_bytes: float = 16 * GB
    num_sms: int = 80
    threads_per_sm: int = 64
    #: neighbour samples drawn per second; bound by random HBM access
    #: latency, calibrated so CSP's per-epoch sampling time sits in the
    #: paper's Table 6 range relative to the UVA/CPU baselines
    sample_rate: float = 1.5e8
    gather_rate: float = 300 * GB  # HBM gather bytes/s (irregular access)
    flops: float = 10e12  # fp32 FLOP/s (achievable, not peak)
    kernel_launch_s: float = 6e-6

    @property
    def total_threads(self) -> int:
        """Physical threads; 5120 for V100 as quoted in the paper's Fig 2."""
        return self.num_sms * self.threads_per_sm

    def scaled(self, scale: float) -> "GPUSpec":
        """Divide memory capacity by ``scale``; rates stay real.

        The datasets are shrunk by ``scale``, so shrinking capacity by
        the same factor preserves what-fits-where (the cache-pressure
        regimes of Fig 10 / Table 4).  Rates and per-op overheads stay
        at real-hardware magnitudes: both the data volume *and* the
        batch count shrink by ``scale``, so every simulated time is
        ~1/scale of the paper's wall time and all ratios are preserved.
        """
        if scale <= 0:
            raise ConfigError("scale must be positive")
        return replace(self, memory_bytes=self.memory_bytes / scale)


@dataclass(frozen=True)
class CPUSpec:
    """Host CPU: threads and per-thread sampling rate.

    CPU sampling throughput is what limits PyG/DGL-CPU: all GPUs'
    sampling requests contend for the same host cores (paper §7.2).
    """

    name: str = "Xeon-E5-2686"
    num_threads: int = 64
    memory_bytes: float = 480 * GB
    sample_rate_per_thread: float = 0.6e6  # sampling tasks/s per core
    gather_rate: float = 40 * GB  # host memory gather bytes/s (all cores)

    def scaled(self, scale: float) -> "CPUSpec":
        """Divide memory capacity by ``scale``; rates stay real."""
        if scale <= 0:
            raise ConfigError("scale must be positive")
        return CPUSpec(
            name=self.name,
            num_threads=self.num_threads,
            memory_bytes=self.memory_bytes / scale,
            sample_rate_per_thread=self.sample_rate_per_thread,
            gather_rate=self.gather_rate,
        )


@dataclass(frozen=True)
class Cluster:
    """A set of GPUs, a host CPU and the interconnect between them."""

    gpu: GPUSpec
    cpu: CPUSpec
    topology: Topology
    scale: float = 1.0

    @property
    def num_gpus(self) -> int:
        return self.topology.num_gpus

    @classmethod
    def dgx1(cls, num_gpus: int = 8, scale: float = 1.0) -> "Cluster":
        """The paper's testbed: up to 8 V100s in a DGX-1-like topology.

        ``scale`` divides device *memory capacity* only; pass the
        dataset's ``spec.scale`` so what-fits-in-GPU-memory matches the
        paper's regimes.  Link bandwidths and compute rates stay at
        real-hardware magnitudes, so every simulated time is roughly
        ``1/scale`` of the paper's wall time with all ratios preserved.
        """
        if not 1 <= num_gpus <= 8:
            raise ConfigError("DGX-1 has 1..8 GPUs")
        return cls(
            gpu=GPUSpec().scaled(scale),
            cpu=CPUSpec().scaled(scale),
            topology=Topology.dgx1(num_gpus),
            scale=scale,
        )
