"""Open-loop serving workloads: arrival processes + seed popularity.

A serving workload is a sequence of timed inference requests, each
asking for the prediction of one node (the "ego" user/product).  Three
arrival processes cover the regimes a production front-end sees:

- ``poisson`` — memoryless arrivals at a constant mean rate;
- ``bursty`` — an ON/OFF modulated Poisson process: short windows at
  ``burst_factor`` times the base rate (flash crowds), quiet otherwise,
  with the same long-run mean rate;
- ``diurnal`` — a sinusoid-modulated Poisson process (day/night cycle),
  generated by thinning.

Seed-node popularity follows a Zipf law over a seeded random ranking of
the candidate nodes (``skew=0`` degenerates to uniform) — real request
streams concentrate on hot entities, which is exactly what a
partitioned feature cache rewards.  With ``drift_phases > 1`` the
ranking is re-drawn that many times across the request stream
(popularity *drift*): the hot set moves, which a static cache cannot
follow but the dynamic policy (``docs/caching.md``) can.

Arrival times are generated once at **unit rate** and scaled by the
offered QPS on demand (:meth:`Workload.requests`).  Every point of a
QPS sweep therefore replays the *same* arrival pattern and seed
sequence, only compressed in time — common random numbers, so latency
differences between sweep points come from load, not sampling noise.

Node ids here live in the **dataset's original numbering**; the server
maps them into a system's renumbered space (DSP permutes nodes by
partition), so one workload is served identically by every system.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.utils.errors import INF, ConfigError, check_choices, count, one_of, require
from repro.utils.rng import make_rng


@dataclass(frozen=True)
class Request:
    """One inference request: predict the class of ``node``.

    ``tenant``/``priority`` are populated only when multi-tenant
    serving is on (:class:`repro.control.tenancy.TenancyConfig`); the
    defaults leave single-tenant streams — and everything downstream of
    them — bit-identical to the pre-tenancy code path.
    """

    rid: int
    node: int
    arrival: float  # seconds since serving start
    tenant: str | None = None
    priority: int = 0


#: arrival processes a workload may use (see the module docstring)
ARRIVALS = ("poisson", "bursty", "diurnal")
#: bursty/diurnal: modulation period in *mean inter-arrivals* (scaled
#: by QPS along with everything else)
PERIOD = 64.0


@dataclass(frozen=True)
class WorkloadConfig:
    """Shape of an open-loop request stream."""

    num_requests: int = 512
    arrival: str = one_of(ARRIVALS, "poisson")
    #: Zipf exponent of seed-node popularity (0 = uniform)
    skew: float = 0.8
    #: bursty: rate multiplier inside a burst window
    burst_factor: float = 4.0
    #: bursty: fraction of time spent inside burst windows
    burst_fraction: float = 0.1
    #: diurnal: relative amplitude of the rate sinusoid (< 1)
    amplitude: float = 0.8
    #: popularity-drift phases: the Zipf ranking over candidates is
    #: re-permuted this many times across the stream (1 = stationary)
    drift_phases: int = 1
    seed: int = 0

    def __post_init__(self) -> None:
        check_choices(self)
        count("num_requests", self.num_requests)
        require(0 <= self.skew < INF, "skew", "an exponent >= 0", self.skew)
        require(0 <= self.amplitude < 1, "amplitude", "a value in [0, 1)",
                self.amplitude)
        require(self.burst_factor >= 1, "burst_factor", "a factor >= 1",
                self.burst_factor)
        require(0 < self.burst_fraction < 1, "burst_fraction",
                "a fraction in (0, 1)", self.burst_fraction)
        if self.burst_factor * self.burst_fraction >= 1.0:
            raise ConfigError(
                "burst_factor * burst_fraction must stay below 1 so the "
                "off-burst rate is positive"
            )
        count("drift_phases", self.drift_phases)


@dataclass(frozen=True)
class Workload:
    """Unit-rate arrival times + seed nodes; scale to any offered QPS."""

    config: WorkloadConfig
    times: np.ndarray  # float64[n], increasing, mean rate ~1 req/s
    nodes: np.ndarray  # int64[n], original-numbering seed ids

    def __len__(self) -> int:
        return len(self.times)

    def requests(self, qps: float) -> list[Request]:
        """The stream offered at ``qps`` requests per second."""
        if qps <= 0:
            raise ConfigError("qps must be positive")
        scaled = self.times / qps
        return [
            Request(rid=i, node=int(self.nodes[i]), arrival=float(scaled[i]))
            for i in range(len(scaled))
        ]


def _unit_rate_times(cfg: WorkloadConfig, rng) -> np.ndarray:
    """Arrival times with long-run mean rate 1, per ``cfg.arrival``."""
    n = cfg.num_requests
    if cfg.arrival == "poisson":
        return np.cumsum(rng.exponential(1.0, size=n))
    if cfg.arrival == "bursty":
        # ON/OFF piecewise-constant rate with mean 1: inside a burst the
        # rate is burst_factor, outside it is chosen to compensate.
        # Generated by time rescaling: unit-rate Poisson arrivals mapped
        # through the inverse of the cumulative rate, which is piecewise
        # linear here, so the inverse is exact and vectorized.
        on = cfg.burst_factor
        off = (1.0 - cfg.burst_factor * cfg.burst_fraction) / (
            1.0 - cfg.burst_fraction
        )
        on_len = PERIOD * cfg.burst_fraction
        u = np.cumsum(rng.exponential(1.0, size=n))
        # one period accumulates exactly `PERIOD` units of expected mass
        m, rem = np.divmod(u, PERIOD)
        on_mass = on * on_len
        phase = np.where(
            rem < on_mass, rem / on, on_len + (rem - on_mass) / off
        )
        return m * PERIOD + phase
    # diurnal: thinning against the peak rate 1 + amplitude
    peak = 1.0 + cfg.amplitude
    times = np.empty(n)
    t = 0.0
    for i in range(n):
        while True:
            t += rng.exponential(1.0 / peak)
            rate = 1.0 + cfg.amplitude * np.sin(2.0 * np.pi * t / PERIOD)
            if rng.random() * peak <= rate:
                break
        times[i] = t
    return times


def _popular_nodes(cfg: WorkloadConfig, candidates: np.ndarray, rng) -> np.ndarray:
    """Zipf-skewed draw of ``num_requests`` seed nodes.

    With ``drift_phases > 1`` the stream is split into near-equal
    phases and each phase re-permutes the popularity ranking — same
    Zipf shape, different hot set.  ``drift_phases == 1`` is the exact
    pre-drift code path (bit-identical streams).
    """
    candidates = np.asarray(candidates, dtype=np.int64)
    if len(candidates) == 0:
        raise ConfigError("need at least one candidate node")
    if cfg.drift_phases == 1:
        ranked = rng.permutation(candidates)
        if cfg.skew == 0:
            idx = rng.integers(0, len(ranked), size=cfg.num_requests)
            return ranked[idx]
        p = 1.0 / np.arange(1, len(ranked) + 1, dtype=np.float64) ** cfg.skew
        p /= p.sum()
        return rng.choice(ranked, size=cfg.num_requests, p=p)
    sizes = np.full(cfg.drift_phases, cfg.num_requests // cfg.drift_phases,
                    dtype=np.int64)
    sizes[: cfg.num_requests % cfg.drift_phases] += 1
    if cfg.skew == 0:
        p = None
    else:
        p = 1.0 / np.arange(1, len(candidates) + 1, dtype=np.float64) ** cfg.skew
        p /= p.sum()
    parts = []
    for size in sizes:
        ranked = rng.permutation(candidates)
        if size == 0:
            continue
        if p is None:
            parts.append(ranked[rng.integers(0, len(ranked), size=size)])
        else:
            parts.append(rng.choice(ranked, size=size, p=p))
    return np.concatenate(parts)


def make_workload(cfg: WorkloadConfig, candidates: np.ndarray) -> Workload:
    """Deterministic workload over ``candidates`` (original node ids)."""
    rng = make_rng(cfg.seed)
    times = _unit_rate_times(cfg, rng)
    nodes = _popular_nodes(cfg, candidates, rng)
    return Workload(config=cfg, times=times, nodes=nodes)
