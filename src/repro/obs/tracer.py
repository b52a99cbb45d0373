"""Span/instant/counter tracing for the simulated training timeline.

The paper's key evaluation claims are *timeline* claims — Fig 6 (GPU
utilization over an epoch), Fig 8 (the deadlocking interleaving of
collective kernels), Table 6 (where sampling time goes) — but scalar
end-of-epoch aggregates cannot show *where* simulated time went.  A
:class:`Tracer` collects three kinds of events while the discrete-event
engine runs:

- **span** — a named interval on a *track* (one track per worker
  process, e.g. ``sampler0-gpu2``): pipeline ops, blocking waits;
- **instant** — a point event (rendezvous release, CCC order append);
- **counter** — a sampled value series (SM threads in use, queue
  depth, cumulative per-link bytes).

The tracer is deliberately passive: callers pass explicit timestamps
(the simulator's ``now``), so it never touches the clock and works for
both live simulation and post-hoc annotation.  Attach one to a
:class:`~repro.engine.simulator.Simulator` (or pass it down through
:meth:`repro.core.system.TrainingSystem.run_epoch`); the simulator's
probe (:mod:`repro.obs.probe`) decides what each event records.

Export with :mod:`repro.obs.export` (Chrome trace-event JSON for
Perfetto / ``chrome://tracing``, or a plain-text timeline) and analyse
with :mod:`repro.obs.analysis` (per-GPU busy/stall breakdown, epoch
critical path).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterator

#: stall categories a blocked process can be attributed to, in the
#: order the breakdown report prints them
WAIT_CATEGORIES = (
    "queue-wait",       # bounded queue put/get (pipeline back-pressure)
    "sm-wait",          # SM-thread resource acquisition
    "channel-wait",     # communication-channel acquisition
    "rendezvous-wait",  # collective barrier (peers not all launched)
    "gate-wait",        # CCC launch gate (waiting for global order turn)
)


def wait_category(label: str) -> str:
    """Map a ``Process.waiting_on`` label to a stall category.

    The engine primitives encode what a process is blocked on in the
    label (``acquire(gpu0-comm, 1)``, ``put(gpu0-trainq)``, ...); this
    is the single place that taxonomy is interpreted.
    """
    if label.startswith(("put(", "get(")):
        return "queue-wait"
    if label.startswith("acquire("):
        return "channel-wait" if "-comm" in label else "sm-wait"
    if label.startswith("barrier("):
        return "rendezvous-wait"
    if label.startswith("ccc("):
        return "gate-wait"
    return "wait"


@dataclass(frozen=True)
class SpanEvent:
    """A named interval ``[start, end]`` on one track."""

    track: str
    name: str
    cat: str
    start: float
    end: float
    args: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass(frozen=True)
class InstantEvent:
    """A point event on one track."""

    track: str
    name: str
    cat: str
    ts: float
    args: dict = field(default_factory=dict)


@dataclass(frozen=True)
class CounterEvent:
    """A sampled value series point (one or more named values)."""

    track: str
    name: str
    ts: float
    values: dict = field(default_factory=dict)


class Tracer:
    """Collects trace events; passive (callers supply timestamps)."""

    def __init__(self) -> None:
        self.events: list[Any] = []
        #: track name -> metadata (``group`` clusters tracks per GPU in
        #: the Chrome export; ``sort`` orders tracks within a group)
        self.tracks: dict[str, dict] = {}

    # -- track declaration ---------------------------------------------
    def declare_track(self, track: str, group: str | None = None,
                      sort: int = 0) -> None:
        """Register display metadata for ``track`` (optional: unknown
        tracks are grouped by the ``gpu<N>`` substring of their name)."""
        self.tracks[track] = {"group": group, "sort": sort}

    # -- event emission ------------------------------------------------
    def span(self, track: str, name: str, cat: str = "",
             start: float = 0.0, end: float = 0.0, **args: Any) -> SpanEvent:
        ev = SpanEvent(track, name, cat, start, end, args)
        self.events.append(ev)
        return ev

    def instant(self, track: str, name: str, ts: float, cat: str = "",
                **args: Any) -> InstantEvent:
        ev = InstantEvent(track, name, cat, ts, args)
        self.events.append(ev)
        return ev

    def counter(self, track: str, name: str, ts: float,
                **values: float) -> CounterEvent:
        ev = CounterEvent(track, name, ts, values)
        self.events.append(ev)
        return ev

    # -- queries ---------------------------------------------------------
    def spans(self, cat: str | None = None,
              track: str | None = None) -> Iterator[SpanEvent]:
        for ev in self.events:
            if not isinstance(ev, SpanEvent):
                continue
            if cat is not None and ev.cat != cat:
                continue
            if track is not None and ev.track != track:
                continue
            yield ev

    def counters(self, track: str | None = None,
                 name: str | None = None) -> Iterator[CounterEvent]:
        for ev in self.events:
            if not isinstance(ev, CounterEvent):
                continue
            if track is not None and ev.track != track:
                continue
            if name is not None and ev.name != name:
                continue
            yield ev

    def end_time(self) -> float:
        """Latest timestamp of any event (0.0 when empty)."""
        t = 0.0
        for ev in self.events:
            t = max(t, ev.end if isinstance(ev, SpanEvent) else ev.ts)
        return t

    def __len__(self) -> int:
        return len(self.events)
