"""The fault model: typed fault events and deterministic fault plans.

A :class:`FaultPlan` is a *schedule* of typed :class:`FaultEvent`
instances against the simulated substrate — GPU straggler slowdowns,
NVLink/PCIe degradation and transient flaps, cache-peer loss, pipeline
worker crashes and stalled queues, delayed/dropped collective
participants.  Plans are immutable, JSON-round-trippable, and (via
:meth:`FaultPlan.random`) derivable from a seed alone, so the same seed
always produces the same faults regardless of worker count or run
order.

Semantics (interpreted by :class:`~repro.chaos.injector.FaultInjector`):

==========================  ===========================================
:class:`GpuStraggler`       local kernels on ``gpu`` run ``slowdown``×
                            slower during ``[start, start+duration)``
:class:`LinkDegrade`        comm ops touching ``link`` run ``factor``×
                            slower during the window
:class:`LinkFlap`           comm ops touching ``link`` that start in
                            the window wait until it ends (blackout)
:class:`CachePeerLoss`      GPU ``gpu``'s feature-cache shard is gone
                            from ``start`` on; lookups fail over to the
                            UVA cold path (serving degradation)
:class:`WorkerCrash`        the ``stage`` worker on ``gpu`` exits at
                            the first batch boundary after ``start``
:class:`QueueStall`         the ``stage`` worker on ``gpu`` pauses for
                            ``duration`` before its next dequeue
:class:`CollectiveDelay`    collectives ``gpu`` joins in the window
                            arrive ``delay`` seconds late
:class:`CollectiveDrop`     ``gpu`` does not rendezvous during the
                            window (a hung participant; the CCC
                            watchdog must re-form or abort the round)
==========================  ===========================================

Fault windows are half-open ``[start, end)``; events without a
``duration`` are permanent.  All faults perturb *timing and placement*
only — functional outputs (samples, features, predictions) must stay
bit-identical under pure-slowdown plans, which the metamorphic tests
assert.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from repro.hw.comm import LINK_CLASSES
from repro.utils.errors import ConfigError

#: pipeline stages a worker fault can target
FAULT_STAGES = ("sample", "load", "train")


@dataclass(frozen=True)
class FaultEvent:
    """Base fault: a typed perturbation active over ``[start, end)``."""

    KIND = "fault"

    start: float

    def __post_init__(self) -> None:
        if self.start < 0:
            raise ConfigError(f"{self.KIND}: start must be >= 0")

    @property
    def end(self) -> float:
        duration = getattr(self, "duration", None)
        return float("inf") if duration is None else self.start + duration

    def active(self, now: float) -> bool:
        return self.start <= now < self.end

    def to_dict(self) -> dict:
        return {"kind": self.KIND, **asdict(self)}


def _check_window(ev, permanent_ok: bool = False) -> None:
    duration = getattr(ev, "duration", None)
    if duration is None:
        if not permanent_ok:
            raise ConfigError(f"{ev.KIND}: duration required")
        return
    if duration <= 0:
        raise ConfigError(f"{ev.KIND}: duration must be positive")


@dataclass(frozen=True)
class GpuStraggler(FaultEvent):
    """GPU ``gpu`` computes ``slowdown``× slower during the window."""

    KIND = "gpu-straggler"

    gpu: int = 0
    duration: float = 1.0
    slowdown: float = 2.0

    def __post_init__(self) -> None:
        super().__post_init__()
        _check_window(self)
        if self.slowdown < 1.0:
            raise ConfigError("slowdown must be >= 1")


@dataclass(frozen=True)
class LinkDegrade(FaultEvent):
    """Traffic over ``link`` runs ``factor``× slower during the window."""

    KIND = "link-degrade"

    link: str = "nvlink"
    duration: float = 1.0
    factor: float = 2.0

    def __post_init__(self) -> None:
        super().__post_init__()
        _check_window(self)
        if self.link not in LINK_CLASSES:
            raise ConfigError(f"unknown link class {self.link!r}")
        if self.factor < 1.0:
            raise ConfigError("factor must be >= 1")


@dataclass(frozen=True)
class LinkFlap(FaultEvent):
    """``link`` blacks out: comm ops starting in the window wait it out."""

    KIND = "link-flap"

    link: str = "nvlink"
    duration: float = 0.1

    def __post_init__(self) -> None:
        super().__post_init__()
        _check_window(self)
        if self.link not in LINK_CLASSES:
            raise ConfigError(f"unknown link class {self.link!r}")


@dataclass(frozen=True)
class CachePeerLoss(FaultEvent):
    """GPU ``gpu``'s partitioned feature-cache shard is lost (permanent)."""

    KIND = "cache-peer-loss"

    gpu: int = 0


@dataclass(frozen=True)
class WorkerCrash(FaultEvent):
    """The ``stage`` worker on ``gpu`` exits at its next batch boundary."""

    KIND = "worker-crash"

    gpu: int = 0
    stage: str = "sample"

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.stage not in FAULT_STAGES:
            raise ConfigError(f"unknown stage {self.stage!r}")


@dataclass(frozen=True)
class QueueStall(FaultEvent):
    """The ``stage`` worker on ``gpu`` pauses ``duration`` mid-window."""

    KIND = "queue-stall"

    gpu: int = 0
    stage: str = "train"
    duration: float = 0.5

    def __post_init__(self) -> None:
        super().__post_init__()
        _check_window(self)
        if self.stage not in FAULT_STAGES:
            raise ConfigError(f"unknown stage {self.stage!r}")


@dataclass(frozen=True)
class CollectiveDelay(FaultEvent):
    """``gpu`` arrives ``delay`` late at collectives inside the window."""

    KIND = "collective-delay"

    gpu: int = 0
    duration: float = 1.0
    delay: float = 0.1

    def __post_init__(self) -> None:
        super().__post_init__()
        _check_window(self)
        if self.delay < 0:
            raise ConfigError("delay must be >= 0")


@dataclass(frozen=True)
class CollectiveDrop(FaultEvent):
    """``gpu`` does not rendezvous during the window (hung participant)."""

    KIND = "collective-drop"

    gpu: int = 0
    duration: float = 1.0

    def __post_init__(self) -> None:
        super().__post_init__()
        _check_window(self)


#: registry: kind string -> event class (for JSON round trips)
EVENT_KINDS = {
    cls.KIND: cls
    for cls in (
        GpuStraggler, LinkDegrade, LinkFlap, CachePeerLoss,
        WorkerCrash, QueueStall, CollectiveDelay, CollectiveDrop,
    )
}


def _event_sort_key(ev: FaultEvent) -> tuple:
    return (ev.start, ev.KIND, tuple(sorted(ev.to_dict().items())))


@dataclass(frozen=True)
class FaultPlan:
    """An immutable, deterministic schedule of fault events.

    Events are normalized into ``(start, kind, fields)`` order at
    construction so two plans with the same events compare (and
    serialize) identically however they were built.
    """

    events: tuple = ()
    seed: int | None = None

    def __post_init__(self) -> None:
        for ev in self.events:
            if not isinstance(ev, FaultEvent):
                raise ConfigError(f"not a FaultEvent: {ev!r}")
        evs = tuple(sorted(self.events, key=_event_sort_key))
        object.__setattr__(self, "events", evs)

    def __len__(self) -> int:
        return len(self.events)

    @property
    def fault_free(self) -> bool:
        return not self.events

    def of_kind(self, kind: str) -> tuple:
        return tuple(ev for ev in self.events if ev.KIND == kind)

    def kind_counts(self) -> dict:
        counts: dict = {}
        for ev in self.events:
            counts[ev.KIND] = counts.get(ev.KIND, 0) + 1
        return counts

    # -- serialization ---------------------------------------------------
    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "events": [ev.to_dict() for ev in self.events],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "FaultPlan":
        events = []
        for entry in data.get("events", ()):
            entry = dict(entry)
            kind = entry.pop("kind")
            try:
                ev_cls = EVENT_KINDS[kind]
            except KeyError:
                raise ConfigError(f"unknown fault kind {kind!r}") from None
            events.append(ev_cls(**entry))
        return cls(events=tuple(events), seed=data.get("seed"))

    # -- deterministic random plans --------------------------------------
    @classmethod
    def random(
        cls,
        seed: int,
        num_gpus: int,
        horizon: float,
        max_events: int = 4,
        kinds: tuple = tuple(EVENT_KINDS),
    ) -> "FaultPlan":
        """A bounded random plan: a pure function of its arguments.

        Windows always end within ``2 * horizon`` and factors/slowdowns
        are bounded, so any simulation under a random plan terminates
        (the property tests rely on this).
        """
        if num_gpus < 1:
            raise ConfigError("need at least one GPU")
        if horizon <= 0:
            raise ConfigError("horizon must be positive")
        rng = np.random.default_rng(seed)
        n = int(rng.integers(0, max_events + 1))
        events = []
        for _ in range(n):
            kind = kinds[int(rng.integers(len(kinds)))]
            start = float(rng.uniform(0, horizon))
            duration = float(rng.uniform(0.05, 1.0) * horizon)
            gpu = int(rng.integers(num_gpus))
            link = LINK_CLASSES[int(rng.integers(2))]  # nvlink | pcie
            stage = FAULT_STAGES[int(rng.integers(len(FAULT_STAGES)))]
            if kind == "gpu-straggler":
                ev = GpuStraggler(start, gpu, duration,
                                  slowdown=float(rng.uniform(1.5, 8.0)))
            elif kind == "link-degrade":
                ev = LinkDegrade(start, link, duration,
                                 factor=float(rng.uniform(1.5, 10.0)))
            elif kind == "link-flap":
                ev = LinkFlap(start, link, duration=min(duration,
                                                        0.25 * horizon))
            elif kind == "cache-peer-loss":
                ev = CachePeerLoss(start, gpu)
            elif kind == "worker-crash":
                ev = WorkerCrash(start, gpu, stage)
            elif kind == "queue-stall":
                ev = QueueStall(start, gpu, stage,
                                duration=min(duration, 0.5 * horizon))
            elif kind == "collective-delay":
                ev = CollectiveDelay(start, gpu, duration,
                                     delay=float(rng.uniform(0, 0.2) * horizon))
            elif kind == "collective-drop":
                ev = CollectiveDrop(start, gpu,
                                    duration=min(duration, 0.5 * horizon))
            else:  # pragma: no cover - registry and branches in sync
                raise ConfigError(f"unknown fault kind {kind!r}")
            events.append(ev)
        return cls(events=tuple(events), seed=seed)


__all__ = [
    "FAULT_STAGES",
    "EVENT_KINDS",
    "FaultEvent",
    "FaultPlan",
    "GpuStraggler",
    "LinkDegrade",
    "LinkFlap",
    "CachePeerLoss",
    "WorkerCrash",
    "QueueStall",
    "CollectiveDelay",
    "CollectiveDrop",
]
