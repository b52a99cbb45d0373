"""The online batcher tuner: hysteresis-banded AIMD against the SLO.

:class:`ServeController` runs *inside* the simulated serving run as a
periodic simulator callback.  Every ``interval_s`` of simulated time it
reads the windows the streaming :class:`~repro.metrics.MetricsRegistry`
closed since its last tick, computes the interval's SLO **burn rate**
(violation fraction over the error budget, the
:class:`~repro.metrics.SLOMonitor` definition) and steps the per-GPU
batcher knobs:

- **burn above the band** (out of SLO): if batches are closing near
  full, admission is throughput-bound — double ``batch_max`` (more
  amortisation per batch) up to ``MAX_BATCH_FACTOR`` times the
  baseline; otherwise the tail is batching delay — halve the max-wait
  ``timeout_s`` down to ``MIN_TIMEOUT_FRAC`` of baseline.  Sustained
  burn additionally raises the **pressure** level, shedding
  low-priority work at admission (multi-tenant runs only).
- **burn below the band** for ``RECOVER_AFTER`` consecutive intervals:
  step knobs back *toward the baseline* — pressure first, then
  max-wait, then batch size — reaching it exactly in finitely many
  steps.
- **inside the band**: do nothing (the hysteresis gap is what prevents
  limit-cycle oscillation around the threshold).

Determinism: the controller reads only window-bucketed metric state at
tick instants that are pure functions of simulated time, and its knob
steps are pure functions of that state — the action log is a pure
function of ``(workload, qps, config)`` and is byte-identical across
``--workers`` (pinned by ``tests/control/``).

Stability: under stationary load the burn rate settles on one side of
the band, so the knobs converge (to the baseline from below, to the
caps/floors from above) and the action log **quiesces** — a property
test fuzzes this.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.control.actions import ACTION_KINDS, ControlAction, actions_to_dicts
from repro.metrics.slo import SLO_TARGET
from repro.utils.errors import count, positive

#: default tick interval, in registry windows
DEFAULT_INTERVAL_WINDOWS = 4

# Tuner policy constants.  All are deliberately gentle: a controller
# that thrashes is worse than none.
#: hysteresis band on the burn rate: act only outside [low, high]
LOW_BURN = 0.5
HIGH_BURN = 1.0
#: knob bounds, as multiples of the baseline ServeConfig values
MIN_TIMEOUT_FRAC = 0.125
MAX_BATCH_FACTOR = 8
#: multiplicative steps (the "MD"/"MI" halves of AIMD)
TIMEOUT_DECREASE = 0.5
BATCH_INCREASE = 2.0
#: additive recovery steps toward baseline, as a fraction of it
RECOVER_FRAC = 0.25
#: healthy intervals required before a recovery step
RECOVER_AFTER = 2
#: batches closing at >= this fraction of batch_max mark the interval
#: throughput-bound (grow batches, don't cut the wait)
FULL_BATCH_FRAC = 0.8
#: violated intervals required before raising pressure
PRESSURE_AFTER = 2


@dataclass(frozen=True)
class ControllerConfig:
    """What a caller chooses about the tuner; the policy itself is the
    module constants above."""

    #: tick period in simulated seconds (None = 4 registry windows)
    interval_s: float | None = None
    #: ceiling on the priority-shedding pressure level (0 = never shed
    #: by priority; raised by the CLI when tenancy is on)
    max_pressure: int = 0

    def __post_init__(self) -> None:
        if self.interval_s is not None:
            positive("interval_s", self.interval_s)
        count("max_pressure", self.max_pressure, 0)


class ServeController:
    """Periodic in-simulation tuner over a serving run's batchers."""

    def __init__(self, config: ControllerConfig, serve_config, registry):
        self.config = config
        self.registry = registry
        # frozen baselines the controller recovers toward
        self.base_batch_max = serve_config.batch_max
        self.base_timeout_s = serve_config.batch_timeout_s
        self.slo_s = serve_config.slo_s
        self.interval_s = (
            config.interval_s if config.interval_s is not None
            else DEFAULT_INTERVAL_WINDOWS * registry.window_s
        )
        # live knob state (applied uniformly to every per-GPU batcher)
        self.batch_max = serve_config.batch_max
        self.timeout_s = serve_config.batch_timeout_s
        self.pressure = 0
        # streaks driving hysteresis + pressure escalation
        self.healthy_streak = 0
        self.violated_streak = 0
        # consumed-window cursor: windows with index < this are read
        self._cursor = 0
        self.ticks = 0
        self.actions: list[ControlAction] = []
        self._sim = None
        self._batchers = ()
        self._remaining = None

    # -- wiring ----------------------------------------------------------
    def install(self, sim, batchers, remaining) -> None:
        """Attach to a run: tick every ``interval_s`` until ``remaining``
        (a one-element outstanding-request cell) hits zero."""
        self._sim = sim
        self._batchers = list(batchers)
        self._remaining = remaining
        sim.schedule(self.interval_s, self._tick)

    def _tick(self) -> None:
        self._step(self._sim.now)
        if self._remaining[0] > 0:
            self._sim.schedule(self.interval_s, self._tick)

    # -- the policy -------------------------------------------------------
    def _read_interval(self, t: float) -> tuple[int, int, float]:
        """Fold the registry windows closed since the last tick into
        ``(completed, violations, mean_batch_size)``."""
        reg = self.registry
        ws = reg.window_s
        end = int(math.floor(t / ws + 1e-9))
        done = reg.find("counter", "requests_completed")
        viol = reg.find("counter", "slo_violations")
        batch = reg.find("histogram", "batch_size")
        completed = violations = 0
        bsum = bcount = 0.0
        for w in range(self._cursor, end):
            if done is not None:
                completed += int(done.windows.get(w, 0))
            if viol is not None:
                violations += int(viol.windows.get(w, 0))
            if batch is not None:
                h = batch.windows.get(w)
                if h is not None and h.count:
                    bsum += h.mean * h.count
                    bcount += h.count
        self._cursor = max(self._cursor, end)
        mean_batch = bsum / bcount if bcount else 0.0
        return completed, violations, mean_batch

    def _step(self, t: float) -> None:
        """One control decision at simulated instant ``t``."""
        self.ticks += 1
        completed, violations, mean_batch = self._read_interval(t)
        if completed == 0:
            return  # idle interval: burns nothing, proves nothing
        burn = (violations / completed) / (1.0 - SLO_TARGET)
        if burn > HIGH_BURN:
            self.violated_streak += 1
            self.healthy_streak = 0
            self._tighten(t, burn, mean_batch)
        elif burn < LOW_BURN:
            self.healthy_streak += 1
            self.violated_streak = 0
            if self.healthy_streak >= RECOVER_AFTER:
                self._recover(t, burn)
        else:
            # inside the hysteresis band: hold position
            self.violated_streak = 0

    def _tighten(self, t: float, burn: float, mean_batch: float) -> None:
        max_pressure = self.config.max_pressure
        batch_cap = self.base_batch_max * MAX_BATCH_FACTOR
        timeout_floor = self.base_timeout_s * MIN_TIMEOUT_FRAC
        if (mean_batch >= FULL_BATCH_FRAC * self.batch_max
                and self.batch_max < batch_cap):
            # throughput-bound: batches close full — amortise more
            new = min(batch_cap,
                      int(math.ceil(self.batch_max * BATCH_INCREASE)))
            self._act(t, "batch-max-up", "batch_max",
                      self.batch_max, new, burn)
            self.batch_max = new
        elif self.timeout_s > timeout_floor:
            # latency-bound: the tail is batching delay — cut the wait
            new = max(timeout_floor, self.timeout_s * TIMEOUT_DECREASE)
            self._act(t, "max-wait-down", "timeout_s",
                      self.timeout_s, new, burn)
            self.timeout_s = new
        if (max_pressure and self.violated_streak >= PRESSURE_AFTER
                and self.pressure < max_pressure):
            self._act(t, "pressure-up", "pressure",
                      self.pressure, self.pressure + 1, burn)
            self.pressure += 1
        self._apply()

    def _recover(self, t: float, burn: float) -> None:
        """One step back toward the baseline: pressure, then max-wait,
        then batch size.  At the baseline this is a no-op, so under
        sustained healthy load the action log quiesces."""
        if self.pressure > 0:
            self._act(t, "pressure-down", "pressure",
                      self.pressure, self.pressure - 1, burn)
            self.pressure -= 1
        elif self.timeout_s < self.base_timeout_s:
            step = RECOVER_FRAC * self.base_timeout_s
            new = min(self.base_timeout_s, self.timeout_s + step)
            self._act(t, "max-wait-recover", "timeout_s",
                      self.timeout_s, new, burn)
            self.timeout_s = new
        elif self.batch_max > self.base_batch_max:
            step = max(1, int(round(RECOVER_FRAC * self.base_batch_max)))
            new = max(self.base_batch_max, self.batch_max - step)
            self._act(t, "batch-max-recover", "batch_max",
                      self.batch_max, new, burn)
            self.batch_max = new
        else:
            return  # quiesced: at baseline, nothing to recover
        self._apply()

    def _apply(self) -> None:
        for b in self._batchers:
            b.apply(batch_max=self.batch_max, timeout_s=self.timeout_s,
                    pressure=self.pressure)

    def _act(self, t: float, kind: str, knob: str, before, after,
             signal: float) -> None:
        self.actions.append(ControlAction(
            t=t, kind=kind, knob=knob, before=float(before),
            after=float(after), signal=float(signal),
        ))
        if self._sim.probe is not None:
            self._sim.probe.control_action(t, kind, knob, before, after)

    # -- reporting --------------------------------------------------------
    def summary(self) -> dict:
        """JSON-safe controller record for ``report.control``."""
        counts = {k: 0 for k in ACTION_KINDS}
        for a in self.actions:
            counts[a.kind] += 1
        return {
            "interval_ms": self.interval_s * 1e3,
            "ticks": self.ticks,
            "actions": actions_to_dicts(self.actions),
            "action_counts": {k: v for k, v in counts.items() if v},
            "final": {
                "batch_max": self.batch_max,
                "timeout_ms": self.timeout_s * 1e3,
                "pressure": self.pressure,
            },
            "baseline": {
                "batch_max": self.base_batch_max,
                "timeout_ms": self.base_timeout_s * 1e3,
            },
        }


__all__ = ["ControllerConfig", "ServeController",
           "DEFAULT_INTERVAL_WINDOWS"]
