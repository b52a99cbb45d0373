"""Deterministic fault injection against the simulated substrate.

A :class:`FaultInjector` interprets a :class:`~repro.chaos.faults.FaultPlan`
for one simulation run.  It is deliberately *query-based*: every answer
is a pure function of ``(plan, sim.now)``, so injection is independent
of event-callback ordering, worker count, and tracer presence — the
determinism contract the chaos acceptance tests assert.

The pipeline/serving replay loops consult the injector at well-defined
points (op start, batch boundary, collective join) and the injector
answers with multiplicative slowdowns, blackout waits, crash flags and
lost cache peers.  :meth:`install` annotates every fault-window
boundary onto the simulator's probe, so each injected fault is visible
on the trace and metrics timelines.
"""

from __future__ import annotations

from repro.chaos.faults import FaultPlan


class FaultInjector:
    """Interprets a fault plan for one simulation (see module doc)."""

    def __init__(self, plan: FaultPlan):
        self.plan = plan
        self.sim = None
        ev = plan.events
        self._stragglers = [e for e in ev if e.KIND == "gpu-straggler"]
        self._degrades = [e for e in ev if e.KIND == "link-degrade"]
        self._flaps = [e for e in ev if e.KIND == "link-flap"]
        self._peer_losses = [e for e in ev if e.KIND == "cache-peer-loss"]
        self._crashes = {
            (e.gpu, e.stage): e.start
            for e in sorted(ev, key=lambda e: -e.start)
            if e.KIND == "worker-crash"
        }  # earliest crash wins (reverse sort + dict overwrite)
        self._stalls = [e for e in ev if e.KIND == "queue-stall"]
        self._delays = [e for e in ev if e.KIND == "collective-delay"]
        self._drops = [e for e in ev if e.KIND == "collective-drop"]
        #: static per-kind event counts (for the resilience report)
        self.injected = plan.kind_counts()

    # -- lifecycle -------------------------------------------------------
    def install(self, sim) -> "FaultInjector":
        """Bind to a simulator and annotate its probe (when it has one)
        with every fault boundary."""
        self.sim = sim
        probe = sim.probe
        if probe is not None:
            for ev in self.plan.events:
                probe.annotate(ev.start, f"inject:{ev.KIND}", **ev.to_dict())
                if ev.end != float("inf"):
                    probe.annotate(ev.end, f"clear:{ev.KIND}", kind=ev.KIND)
        return self

    @property
    def now(self) -> float:
        return 0.0 if self.sim is None else self.sim.now

    def has_faults(self) -> bool:
        return not self.plan.fault_free

    # -- timing perturbations --------------------------------------------
    def compute_scale(self, gpu: int) -> float:
        """Local-kernel slowdown for ``gpu`` at the current time."""
        now = self.now
        scale = 1.0
        for ev in self._stragglers:
            if ev.gpu == gpu and ev.active(now):
                scale *= ev.slowdown
        return scale

    def comm_scale(self, gpu: int, cost) -> float:
        """Slowdown of a communication op driven by ``gpu``.

        The worst active degradation over the link classes the op
        actually moves bytes on, combined with the driving GPU's own
        straggler slowdown (a slow GPU's comm kernel is slow too).
        """
        now = self.now
        scale = self.compute_scale(gpu)
        link_bytes = cost.link_bytes()
        for ev in self._degrades:
            if ev.active(now) and link_bytes.get(ev.link):
                scale = max(scale, ev.factor)
        return scale

    def blackout_wait(self, cost) -> float:
        """Seconds a comm op starting now waits for flapped links."""
        now = self.now
        until = 0.0
        link_bytes = cost.link_bytes()
        for ev in self._flaps:
            if ev.active(now) and link_bytes.get(ev.link):
                until = max(until, ev.end)
        return max(0.0, until - now)

    # -- worker faults ----------------------------------------------------
    def crashed(self, gpu: int, stage: str) -> bool:
        """Has the ``stage`` worker on ``gpu`` crashed by now?"""
        t = self._crashes.get((gpu, stage))
        return t is not None and t <= self.now

    def queue_stall(self, gpu: int, stage: str) -> float:
        """Pause the ``stage`` worker on ``gpu`` must take before its
        next dequeue (0.0 when no stall window is active)."""
        now = self.now
        wait = 0.0
        for ev in self._stalls:
            if ev.gpu == gpu and ev.stage == stage and ev.active(now):
                wait = max(wait, ev.end - now)
        return wait

    # -- collective participation -----------------------------------------
    def collective_delay(self, gpu: int) -> float:
        now = self.now
        delay = 0.0
        for ev in self._delays:
            if ev.gpu == gpu and ev.active(now):
                delay = max(delay, ev.delay)
        return delay

    def collective_dropped(self, gpu: int) -> bool:
        now = self.now
        return any(ev.gpu == gpu and ev.active(now) for ev in self._drops)

    def drop_wait(self, gpu: int) -> float:
        """How long a dropped participant stays hung from now on."""
        now = self.now
        until = now
        for ev in self._drops:
            if ev.gpu == gpu and ev.active(now):
                until = max(until, ev.end)
        return until - now

    # -- cache degradation -------------------------------------------------
    def lost_peers(self) -> frozenset:
        """GPU ids whose feature-cache shard is gone at the current time."""
        now = self.now
        return frozenset(
            ev.gpu for ev in self._peer_losses if ev.start <= now
        )


__all__ = ["FaultInjector"]
