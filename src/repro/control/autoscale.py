"""Replica autoscaling: serving capacity as a live control variable.

``serve_once(..., replicas=AutoscaleConfig(...))`` serves one
open-loop request stream while scaling the replica count between
``min_replicas`` and ``max_replicas`` — GSplit's framing of
parallelism as something the system *chooses* per load, rather than a
sweep axis fixed up front.

The control loop runs on arrival time, before any replica simulates:
the stream is cut into fixed intervals, each boundary folds the
interval's arrival count into an EWMA rate estimate, and the desired
replica count is ``ceil(rate / target_qps_per_replica)`` clamped to the
configured range, with threshold hysteresis and a cooldown so the
scaler doesn't chatter.

- **Scale-up is not free**: a new replica *warms* for one interval
  before it joins the routable set — requests landing during warm-up
  still crowd onto the old replicas, which is exactly the cost a real
  autoscaler pays for reacting late.
- **Scale-down never drops work**: a retired replica leaves the
  routable set but keeps (and fully serves) every request already
  assigned to it — it drains.  The
  :class:`~repro.chaos.InvariantChecker` audits this as the
  ``scale-safety`` invariant: no request is ever routed to a replica
  after its retirement instant.

Routing over the live replica set is ``node % len(active)`` — a pure
function of the request and the scaler state, so the whole run
(assignment, per-replica simulations, merged report, action log) is a
pure function of ``(workload, qps, configs)`` and byte-identical
across ``--workers``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.control.actions import ControlAction, actions_to_dicts
from repro.utils.errors import ConfigError, count, positive

#: the control interval: the stream span cut into this many slices; a
#: started replica warms for one interval before it becomes routable
DEFAULT_INTERVALS = 24
#: scale up only when the rate exceeds this fraction of current
#: capacity; scale down only below this fraction of the shrunken
#: capacity — the hysteresis gap between them prevents chatter
UP_THRESHOLD = 0.9
DOWN_THRESHOLD = 0.6
#: EWMA weight of the newest interval's rate
EWMA = 0.5
#: intervals to hold after any scale action
COOLDOWN_INTERVALS = 1


@dataclass(frozen=True)
class AutoscaleConfig:
    """What a caller chooses about replica scaling; the policy itself
    is the module constants above."""

    min_replicas: int = 1
    max_replicas: int = 4
    #: per-replica capacity the scaler sizes against (None = offered
    #: QPS / max_replicas, so the stream's peak engages the full range)
    target_qps_per_replica: float | None = None

    def __post_init__(self) -> None:
        count("min_replicas", self.min_replicas)
        count("max_replicas", self.max_replicas, self.min_replicas)
        if self.target_qps_per_replica is not None:
            positive("target_qps_per_replica", self.target_qps_per_replica)

    def split(self, system, requests, qps, check_invariants=False):
        """Split a request stream for :func:`repro.serve.serve_once`.

        Runs the scaling loop (:func:`assign_replicas`) and returns
        ``(replica ids that received work, per-request replica,
        {"autoscale": action log + timeline})``.  With
        ``check_invariants`` the loop is audited for ``scale-safety``.
        """
        invariants = None
        if check_invariants:
            from repro.chaos.invariants import InvariantChecker

            invariants = InvariantChecker()
        assign, state = assign_replicas(requests, self, qps,
                                        invariants=invariants)
        return sorted(set(assign)), assign, {"autoscale": state.summary()}


class _ScalerState:
    """The arrival-time control loop (pure, no simulator involved)."""

    def __init__(self, scale: AutoscaleConfig, interval_s: float,
                 target: float, invariants=None):
        self.scale = scale
        self.interval_s = interval_s
        self.warmup_s = interval_s
        self.target = target
        self.invariants = invariants
        self.active = list(range(scale.min_replicas))
        self.warming: dict[int, float] = {}  # replica -> routable at
        self.retired: dict[int, float] = {}  # replica -> retired at
        self.next_id = scale.min_replicas
        self.rate = None  # EWMA arrival rate
        self.cooldown_until = 0  # interval index
        self.count = 0  # arrivals in the open interval
        self.interval = 0
        self.actions: list[ControlAction] = []
        self.timeline: list[dict] = [
            {"t_ms": 0.0, "active": len(self.active), "warming": 0}
        ]

    def _capacity(self, n: int) -> float:
        return n * self.target

    def close_interval(self) -> None:
        """One boundary: fold the rate, promote warm replicas, decide."""
        sc = self.scale
        boundary = (self.interval + 1) * self.interval_s
        for r in sorted(self.warming):
            if self.warming[r] <= boundary:
                self.active.append(r)
                del self.warming[r]
        self.active.sort()
        rate = self.count / self.interval_s
        self.count = 0
        self.rate = (rate if self.rate is None
                     else EWMA * rate + (1.0 - EWMA) * self.rate)
        total = len(self.active) + len(self.warming)
        if self.interval >= self.cooldown_until:
            if (total < sc.max_replicas
                    and self.rate > UP_THRESHOLD * self._capacity(total)):
                want = min(
                    sc.max_replicas,
                    max(total + 1,
                        int(math.ceil(self.rate / self.target))),
                )
                for _ in range(want - total):
                    rid = self.next_id
                    self.next_id += 1
                    self.warming[rid] = boundary + self.warmup_s
                self.actions.append(ControlAction(
                    t=boundary, kind="scale-up", knob="replicas",
                    before=total, after=want, signal=self.rate,
                ))
                self.cooldown_until = (
                    self.interval + 1 + COOLDOWN_INTERVALS
                )
            elif (total > sc.min_replicas
                  and self.rate < DOWN_THRESHOLD
                  * self._capacity(total - 1)):
                want = max(
                    sc.min_replicas,
                    int(math.ceil(self.rate / self.target)),
                )
                # cancel warming replicas first (they never served a
                # request), then retire the newest active ones — those
                # drain: work already assigned to them still completes
                for r in sorted(self.warming, reverse=True):
                    if len(self.active) + len(self.warming) <= want:
                        break
                    del self.warming[r]
                for r in sorted(self.active, reverse=True):
                    if (len(self.active) + len(self.warming) <= want
                            or len(self.active) <= sc.min_replicas):
                        break
                    self.active.remove(r)
                    self.retired[r] = boundary
                    if self.invariants is not None:
                        self.invariants.on_retire(r, boundary)
                self.actions.append(ControlAction(
                    t=boundary, kind="scale-down", knob="replicas",
                    before=total,
                    after=len(self.active) + len(self.warming),
                    signal=self.rate,
                ))
                self.cooldown_until = (
                    self.interval + 1 + COOLDOWN_INTERVALS
                )
        self.interval += 1
        self.timeline.append({
            "t_ms": boundary * 1e3,
            "active": len(self.active),
            "warming": len(self.warming),
        })

    def route(self, req) -> int:
        """Replica for ``req`` — hash over the live active set."""
        rep = self.active[req.node % len(self.active)]
        if self.invariants is not None:
            self.invariants.on_assign(rep, req.arrival)
        return rep

    def summary(self) -> dict:
        return {
            "interval_ms": self.interval_s * 1e3,
            "warmup_ms": self.warmup_s * 1e3,
            "target_qps_per_replica": self.target,
            "actions": actions_to_dicts(self.actions),
            "timeline": self.timeline,
            "final_replicas": len(self.active) + len(self.warming),
            "max_replicas_used": self.next_id,
        }


def assign_replicas(requests, scale: AutoscaleConfig, qps: float,
                    invariants=None):
    """Run the arrival-time scaling loop over a request stream.

    Returns ``(assignment list, scaler state)``; the assignment maps
    each request (by position) to the replica that serves it.
    """
    if not requests:
        raise ConfigError("need at least one request")
    span = max(r.arrival for r in requests)
    interval_s = max(span / DEFAULT_INTERVALS, 1e-9)
    target = (scale.target_qps_per_replica
              if scale.target_qps_per_replica is not None
              else qps / scale.max_replicas)
    state = _ScalerState(scale, interval_s, target, invariants=invariants)
    assign = []
    for req in requests:
        idx = int(req.arrival // interval_s)
        while state.interval < idx:
            state.close_interval()
        state.count += 1
        assign.append(state.route(req))
    return assign, state


__all__ = ["AutoscaleConfig", "DEFAULT_INTERVALS", "assign_replicas"]
