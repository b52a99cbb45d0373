"""The metrics registry: windowed counters, gauges and histograms.

:class:`MetricsRegistry` mirrors the :class:`~repro.obs.Tracer`
contract: it is **passive** (callers pass explicit simulated
timestamps — it never touches a clock) and is attached like one
(``Simulator(metrics=...)``, ``run_epoch(metrics=...)``, ``GNNServer``);
the simulator's probe (:mod:`repro.obs.probe`) decides what it records.

Unlike the tracer (which retains every event for post-hoc timeline
analysis), the registry *streams*: samples fold into fixed sim-time
windows of ``window_s`` seconds as they arrive, so per-window
p50/p95/p99 come from bounded state (log-bucketed histograms,
time-weighted gauge integrals, per-window counter sums) however many
samples a window sees.  Window boundaries are a pure function of the
simulated timestamp (``index = floor(t / window_s)``), which makes
every exported series byte-identical across ``--workers`` settings —
worker count decides which process runs a simulation, never what time
its events carry.

Instruments are keyed by ``(name, labels)``:

- :class:`Counter` — monotone accumulator (``inc``): shed requests,
  SLO violations, per-link wire bytes.  Exports the running total and
  the per-window increment (a rate series).
- :class:`Gauge` — a step function (``set``): queue depth, SM
  occupancy.  Exports the time-weighted per-window mean and the
  per-window max, integrated exactly across window boundaries.
- :class:`Histogram` — a distribution (``observe``): request and
  per-stage latencies, batch sizes.  One
  :class:`~repro.metrics.histogram.LogHistogram` per window plus a
  run-cumulative one.

Annotated point events (fault activations, invariant violations) are
recorded with :meth:`MetricsRegistry.event` and exported alongside the
series so a dashboard can pin causes onto the timelines.
"""

from __future__ import annotations

import math
from typing import Iterator

import numpy as np

from repro.metrics.histogram import LogHistogram

__all__ = ["Counter", "Gauge", "Histogram", "MetricsRegistry"]


def _label_key(labels: dict) -> tuple:
    """Canonical hashable identity of a label set (sorted pairs)."""
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


class Counter:
    """Monotone accumulator with per-window increments."""

    __slots__ = ("name", "labels", "total", "windows", "_w")

    def __init__(self, name: str, labels: dict, window_s: float):
        self.name = name
        self.labels = labels
        self._w = window_s
        self.total = 0.0
        self.windows: dict[int, float] = {}

    def inc(self, t: float, value: float = 1.0) -> None:
        value = float(value)
        self.total += value
        w = int(t // self._w)
        self.windows[w] = self.windows.get(w, 0.0) + value

    def series(self) -> list[dict]:
        return [
            {"t": w * self._w, "value": self.windows[w]}
            for w in sorted(self.windows)
        ]

    def to_dict(self) -> dict:
        return {"total": self.total, "windows": self.series()}


class Gauge:
    """Step function with exact time-weighted window integrals."""

    __slots__ = ("name", "labels", "last", "_t", "_w",
                 "_integral", "_max")

    def __init__(self, name: str, labels: dict, window_s: float):
        self.name = name
        self.labels = labels
        self._w = window_s
        self.last = 0.0
        self._t = 0.0
        self._integral: dict[int, float] = {}
        self._max: dict[int, float] = {}

    def _touch_max(self, w: int, value: float) -> None:
        cur = self._max.get(w)
        if cur is None or value > cur:
            self._max[w] = value

    def _accumulate(self, t: float) -> None:
        """Integrate the held value from the last sample time to ``t``,
        splitting exactly at window boundaries."""
        if t <= self._t:
            return
        ws, v = self._w, self.last
        w0 = int(self._t // ws)
        w1 = int(t // ws)
        if v != 0.0:
            if w0 == w1:
                self._integral[w0] = (
                    self._integral.get(w0, 0.0) + (t - self._t) * v
                )
            else:
                self._integral[w0] = (
                    self._integral.get(w0, 0.0)
                    + ((w0 + 1) * ws - self._t) * v
                )
                for w in range(w0 + 1, w1):
                    self._integral[w] = self._integral.get(w, 0.0) + ws * v
                self._integral[w1] = (
                    self._integral.get(w1, 0.0) + (t - w1 * ws) * v
                )
        # the held value bounds the max of every window it spans
        for w in range(w0, w1 + 1):
            self._touch_max(w, v)
        self._t = t

    def set(self, t: float, value: float) -> None:
        value = float(value)
        self._accumulate(t)
        self.last = value
        self._touch_max(int(t // self._w), value)

    def set_many(self, ts, values) -> None:
        """Bulk ``set``: fold a whole run of samples in one call.

        The engine's buffered hot paths (resource utilization
        transitions) stage ``(t, value)`` samples in flat arrays and
        flush them here per window instead of integrating per event.
        The per-window state afterwards equals replaying ``set`` per
        sample — windows that receive contributions from both the
        vectorized and the boundary-crossing path may differ by float
        summation order (≤ 1 ulp per window).

        Requires nondecreasing ``ts`` starting at or after the last
        sample time; anything else (and small or degenerate batches)
        falls back to the scalar loop.
        """
        n = len(ts)
        if n != len(values):
            raise ValueError(
                f"set_many: {n} timestamps vs {len(values)} values"
            )
        if n == 0:
            return
        if n < 32 or ts[0] < self._t:
            for t, v in zip(ts, values):
                self.set(t, v)
            return
        ts_a = np.asarray(ts, dtype=np.float64)
        vs_a = np.asarray(values, dtype=np.float64)
        ws = self._w
        # held-value segments: value h_i over [s_i, e_i)
        s = np.empty(n)
        s[0] = self._t
        s[1:] = ts_a[:-1]
        e = ts_a
        h = np.empty(n)
        h[0] = self.last
        h[1:] = vs_a[:-1]
        if np.any(e[1:] < e[:-1]):
            for t, v in zip(ts, values):
                self.set(t, v)
            return
        w0 = (s // ws).astype(np.int64)
        w1 = (e // ws).astype(np.int64)
        wmin = int(w0[0])
        size = int(w1[-1]) - wmin + 1
        if size > 4 * n + 1024:  # sparse samples over a huge time span
            for t, v in zip(ts, values):
                self.set(t, v)
            return
        integral = np.zeros(size)
        touched = np.zeros(size, dtype=bool)
        dense_max = np.full(size, -np.inf)
        live = e > s  # zero-width slices integrate (and bound) nothing
        nz = live & (h != 0.0)
        cross = live & (w0 != w1)
        # each live segment's share inside its first window
        head_end = np.minimum(e, (w0 + 1).astype(np.float64) * ws)
        np.add.at(integral, w0[nz] - wmin, (head_end[nz] - s[nz]) * h[nz])
        touched[w0[nz] - wmin] = True
        nzc = cross & (h != 0.0)
        np.add.at(integral, w1[nzc] - wmin,
                  (e[nzc] - w1[nzc].astype(np.float64) * ws) * h[nzc])
        touched[w1[nzc] - wmin] = True
        # interior windows of crossing segments are rare: scalar loop
        for i in np.flatnonzero(cross):
            hi = float(h[i])
            for w in range(int(w0[i]) + 1, int(w1[i])):
                if hi != 0.0:
                    integral[w - wmin] += ws * hi
                    touched[w - wmin] = True
                if hi > dense_max[w - wmin]:
                    dense_max[w - wmin] = hi
        # held values bound the max of every window they span; sampled
        # values touch their own window (w1 is the sample's window)
        np.maximum.at(dense_max, w0[live] - wmin, h[live])
        np.maximum.at(dense_max, w1[live] - wmin, h[live])
        np.maximum.at(dense_max, w1 - wmin, vs_a)
        for idx in np.flatnonzero(touched):
            w = int(idx) + wmin
            self._integral[w] = (self._integral.get(w, 0.0)
                                 + float(integral[idx]))
        for idx in np.flatnonzero(dense_max > -np.inf):
            self._touch_max(int(idx) + wmin, float(dense_max[idx]))
        self.last = float(vs_a[-1])
        self._t = float(ts_a[-1])

    def finalize(self, t_end: float) -> None:
        """Integrate the held value through the end of the run."""
        self._accumulate(t_end)

    def series(self) -> list[dict]:
        windows = sorted(set(self._integral) | set(self._max))
        return [
            {
                "t": w * self._w,
                "mean": self._integral.get(w, 0.0) / self._w,
                "max": self._max.get(w, 0.0),
            }
            for w in windows
        ]

    def to_dict(self) -> dict:
        return {"last": self.last, "windows": self.series()}


class Histogram:
    """Per-window plus run-cumulative log-bucketed distributions."""

    __slots__ = ("name", "labels", "cumulative", "windows", "_w", "_growth")

    def __init__(self, name: str, labels: dict, window_s: float,
                 growth: float | None = None):
        self.name = name
        self.labels = labels
        self._w = window_s
        self._growth = growth
        self.cumulative = self._new()
        self.windows: dict[int, LogHistogram] = {}

    def _new(self) -> LogHistogram:
        return (LogHistogram() if self._growth is None
                else LogHistogram(growth=self._growth))

    def observe(self, t: float, value: float) -> None:
        self.cumulative.add(value)
        w = int(t // self._w)
        h = self.windows.get(w)
        if h is None:
            h = self.windows[w] = self._new()
        h.add(value)

    def window_items(self) -> list[tuple[float, LogHistogram]]:
        """``(window start time, histogram)`` pairs in time order."""
        return [(w * self._w, self.windows[w]) for w in sorted(self.windows)]

    def series(self, qs=(50, 95, 99)) -> list[dict]:
        out = []
        for t, h in self.window_items():
            row = {"t": t, "count": h.count, "mean": h.mean}
            for q, v in zip(qs, h.quantiles(qs)):
                row[f"p{q:g}"] = v
            out.append(row)
        return out

    def to_dict(self) -> dict:
        return {
            "cumulative": self.cumulative.to_dict(),
            "windows": self.series(),
        }


class MetricsRegistry:
    """Keyed instruments + annotated events over one simulated run."""

    def __init__(self, window_s: float = 0.05):
        if not (window_s > 0.0) or not math.isfinite(window_s):
            raise ValueError("window_s must be positive and finite")
        self.window_s = float(window_s)
        self._instruments: dict[tuple[str, str, tuple], object] = {}
        #: callables that flush externally buffered samples into the
        #: registry; run before any finalize/export read
        self._flushers: list = []
        #: annotated point events: (t, name, attrs) in insertion order
        self.events: list[tuple[float, str, dict]] = []
        #: latest timestamp handed to :meth:`finalize` (run end)
        self.end: float = 0.0
        self.finalized = False

    # -- instrument access (get-or-create, pre-bind in hot paths) -------
    def _get(self, kind: str, name: str, labels: dict, factory):
        key = (kind, name, _label_key(labels))
        inst = self._instruments.get(key)
        if inst is None:
            inst = self._instruments[key] = factory()
        return inst

    def counter(self, name: str, **labels) -> Counter:
        return self._get("counter", name, labels,
                         lambda: Counter(name, labels, self.window_s))

    def gauge(self, name: str, **labels) -> Gauge:
        return self._get("gauge", name, labels,
                         lambda: Gauge(name, labels, self.window_s))

    def histogram(self, name: str, growth: float | None = None,
                  **labels) -> Histogram:
        return self._get(
            "histogram", name, labels,
            lambda: Histogram(name, labels, self.window_s, growth=growth),
        )

    # -- buffered producers ----------------------------------------------
    def add_flusher(self, fn) -> None:
        """Register a flush callback for a hot path that stages samples
        in flat arrays (e.g. resource utilization transitions).  All
        flushers run before :meth:`finalize` and :meth:`to_dict` read
        instrument state, so batched producers export the same series
        as per-event ones.  Flushers must be idempotent."""
        self._flushers.append(fn)

    def flush(self) -> None:
        """Drain every registered buffered producer into the registry."""
        for fn in self._flushers:
            fn()

    # -- events ----------------------------------------------------------
    def event(self, t: float, name: str, **attrs) -> None:
        """Record an annotated point event (fault, violation, ...)."""
        self.events.append((float(t), name, attrs))

    # -- lookups (never create) ------------------------------------------
    def find(self, kind: str, name: str, **labels):
        """The instrument at ``(kind, name, labels)``, or None."""
        return self._instruments.get((kind, name, _label_key(labels)))

    def instruments(self, kind: str | None = None,
                    name: str | None = None) -> Iterator[tuple]:
        """Iterate ``(kind, name, labels-dict, instrument)`` sorted by
        key — a deterministic order whatever the registration order."""
        for key in sorted(self._instruments):
            k, n, lk = key
            if kind is not None and k != kind:
                continue
            if name is not None and n != name:
                continue
            yield k, n, dict(lk), self._instruments[key]

    # -- end of run -------------------------------------------------------
    def finalize(self, t_end: float) -> None:
        """Close the run at ``t_end``: gauges integrate their held value
        through the end so the final window's mean is complete."""
        self.flush()
        self.end = max(self.end, float(t_end))
        for key, inst in self._instruments.items():
            if key[0] == "gauge":
                inst.finalize(self.end)
        self.finalized = True

    def to_dict(self) -> dict:
        """JSON-safe snapshot of every instrument and event, in a
        deterministic order (sorted by kind, name, labels)."""
        self.flush()
        out: list[dict] = []
        for kind, name, labels, inst in self.instruments():
            row = {"kind": kind, "name": name, "labels": labels}
            row.update(inst.to_dict())
            out.append(row)
        return {
            "window_s": self.window_s,
            "end": self.end,
            "instruments": out,
            "events": [
                {"t": t, "name": name, **attrs}
                for t, name, attrs in sorted(
                    self.events, key=lambda e: (e[0], e[1])
                )
            ],
        }

    def __len__(self) -> int:
        return len(self._instruments)
