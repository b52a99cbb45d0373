"""The instrumentation probe: one event vocabulary, three recorders.

The engine, the training and serving pipelines, the fault injector and
the serving controller report what happens through one object,
``sim.probe``: the :class:`~repro.obs.Tracer`,
:class:`~repro.metrics.MetricsRegistry` and
:class:`~repro.chaos.InvariantChecker` of one simulation behind a
closed event vocabulary.  This module alone decides what each records
per event — trace tracks and counters, metric names and labels,
invariant checks.  With nothing attached ``sim.probe`` is ``None`` and
every emitting site is one ``if probe is not None`` check, so
un-instrumented runs allocate nothing and stay bit-identical.
"""

from __future__ import annotations

from repro.obs.tracer import wait_category


class _UsageBuffer:
    """Flat-array staging of one resource's utilization gauge samples.

    A ``used`` transition appends two floats instead of running two
    window-splitting ``Gauge.set`` calls; the buffer is flushed in bulk
    (:meth:`repro.metrics.registry.Gauge.set_many`) every
    ``repro.engine.resources.METRIC_FLUSH_EVERY`` samples and, through
    the registry's flusher hook, before the registry finalizes or
    exports — so the exported series equal the per-event path's.
    """

    __slots__ = ("_util", "_busy", "_ts", "_utils", "_engine")

    def __init__(self, registry, name: str):
        # the engine module owns the flush depth; it is read per sample
        from repro.engine import resources

        self._engine = resources
        self._util = registry.gauge("resource_util", resource=name)
        self._busy = registry.gauge("resource_busy", resource=name)
        self._ts: list[float] = []
        self._utils: list[float] = []
        registry.add_flusher(self.flush)

    def add(self, t: float, util: float) -> None:
        ts = self._ts
        ts.append(t)
        self._utils.append(util)
        if len(ts) >= self._engine.METRIC_FLUSH_EVERY:
            self.flush()

    def flush(self) -> None:
        if not self._ts:
            return
        self._util.set_many(self._ts, self._utils)
        # busy: any holder resident (utilization is used / capacity)
        self._busy.set_many(self._ts,
                            [1.0 if u else 0.0 for u in self._utils])
        self._ts = []
        self._utils = []


class Probe:
    """One simulation's tracer, metrics registry and invariant checker.

    Each method takes a fact the caller observed and reads the time from
    the simulator; none changes the simulation.
    """

    def __init__(self, sim, tracer=None, metrics=None, invariants=None):
        self.sim = sim
        self.tracer = tracer
        self.metrics = metrics
        self.invariants = invariants
        #: record blocking waits as spans (only a timeline shows them)
        self.waits = tracer is not None
        #: the checker's clock check, run once per dispatched timestamp;
        #: None without a checker, so the dispatch loop then pays nothing
        self.event_time = (None if invariants is None
                           else invariants.on_event_time)
        # lazily bound instruments keyed by the emitting object; running
        # totals; bytes that abandoned collective rounds never moved
        self._usage: dict = {}
        self._gauges: dict = {}
        self._serve: tuple = ()
        self._links = {"nvlink": 0.0, "pcie": 0.0, "network": 0.0}
        self._cache: dict = {}
        self._skipped: dict = {}
        if invariants is not None:
            invariants.probe = self  # violations land on our timelines

    # -- engine: processes and runs ---------------------------------------
    def blocked(self, proc) -> None:
        """``proc`` blocked on a primitive: open its wait span."""
        if self.waits:
            proc.block_start = self.sim.now
            proc.block_label = proc.waiting_on

    def resumed(self, proc, unresolved: bool = False) -> None:
        """Close ``proc``'s wait span (``unresolved`` when the run ended
        with it still blocked — the Fig 8 forensics)."""
        label = proc.block_label
        extra = {"unresolved": True} if unresolved else {}
        self.tracer.span(proc.name, label, cat=wait_category(label),
                         start=proc.block_start, end=self.sim.now, **extra)
        proc.block_label = None

    def run_end(self, events: int, drained: bool, processes) -> None:
        """``Simulator.run`` dispatched ``events``; once the queue ran
        dry (``drained``: done or deadlocked) the timelines close."""
        now = self.sim.now
        if self.metrics is not None and events:
            self.metrics.counter("engine_events").inc(now, events)
        if not drained:
            return
        if self.waits:
            for p in processes:
                if p.block_label is not None:
                    self.resumed(p, unresolved=True)
        if self.metrics is not None:
            self.metrics.finalize(now)

    # -- engine: primitives ------------------------------------------------
    def resource_used(self, r) -> None:
        now = self.sim.now
        if self.tracer is not None:
            self.tracer.counter(r.name, "used", now, used=r.used)
        if self.metrics is not None:
            buf = self._usage.get(r)
            if buf is None:
                buf = self._usage[r] = _UsageBuffer(self.metrics, r.name)
            buf.add(now, r.used / r.capacity)

    def queue_push(self, q) -> None:
        """An item entered ``q`` (or went straight to a getter)."""
        if self.invariants is not None:
            self.invariants.on_queue_push(q.name, len(q.items), q.capacity)
        self.queue_depth(q)

    def queue_depth(self, q) -> None:
        now = self.sim.now
        depth = len(q.items)
        if self.tracer is not None:
            self.tracer.counter(q.name, "depth", now, depth=depth,
                                blocked_putters=len(q._putters),
                                blocked_getters=len(q._getters))
        if self.metrics is not None:
            self._gauge(q, "queue_depth", queue=q.name).set(now, depth)

    def barrier_release(self, barrier, tag, parties: int) -> None:
        if self.tracer is not None:
            self.tracer.instant(barrier.name, f"release:{tag}", self.sim.now,
                                cat="rendezvous", parties=parties)

    def collective_order(self, tag, position: int) -> None:
        """The CCC leader appended ``tag`` to the global launch order."""
        if self.tracer is not None:
            self.tracer.instant("ccc-gate", f"order:{tag}", self.sim.now,
                                cat="ccc", position=position)

    def collective_launch(self, gpu: int, tag, position: int) -> None:
        if self.invariants is not None:
            self.invariants.on_launch(gpu, tag, position)
        if self.tracer is not None:
            self.tracer.instant("ccc-gate", f"launched:{tag}", self.sim.now,
                                cat="ccc", gpu=gpu, position=position)

    def guard_round(self, guard, verb: str, tag, **facts) -> None:
        """A watchdog round completed, aborted or was abandoned."""
        if self.tracer is not None:
            self.tracer.instant(guard.name, f"{verb}:{tag}", self.sim.now,
                                cat="ccc", **facts)

    # -- training pipeline ---------------------------------------------------
    def declare_track(self, track: str, group: str, sort: int = 0) -> None:
        if self.tracer is not None:
            self.tracer.declare_track(track, group=group, sort=sort)

    def op_done(self, track: str, cost, tag, gpu: int, start: float,
                k: int, degraded: bool) -> None:
        """A replayed training op finished on ``gpu``: its span and its
        ``1/k`` share of the op's cluster-wide wire bytes — moved, or
        skipped when its collective round was abandoned (``degraded``)."""
        now = self.sim.now
        inv, met, tracer = self.invariants, self.metrics, self.tracer
        share = 1.0 / k
        bumped = False
        for link, nbytes in cost.link_bytes().items():
            if not nbytes:
                continue
            if degraded:
                if inv is not None:
                    self._skipped[link] = (self._skipped.get(link, 0.0)
                                           + nbytes / k)
                continue
            if inv is not None:
                inv.on_bytes(link, nbytes / k)
            if met is not None:
                met.counter("link_bytes", link=link).inc(now, nbytes / k)
            if tracer is not None:
                self._links[link] += nbytes * share
                bumped = True
        if tracer is None:
            return
        stage, batch = tag[0], tag[1]
        extra = {"degraded": True} if degraded else {}
        tracer.span(track, cost.label, cat=stage, start=start, end=now,
                    gpu=gpu, stage=stage, batch=batch,
                    collective=cost.collective, host=cost.host, **extra)
        if bumped:
            tracer.counter("link-bytes", "cumulative", now, **self._links)

    def stage_done(self, gpu: int, stage: str, batch: int,
                   batch_info=None) -> None:
        """``gpu`` completed ``stage`` of ``batch``; GPU 0's load stage
        also reports the batch's cache path counts (``batch_info``)."""
        if self.invariants is not None:
            self.invariants.on_stage_done(gpu, stage, batch)
        if stage != "load" or gpu != 0 or not batch_info:
            return
        now = self.sim.now
        totals = self._cache
        for key, value in batch_info[batch].get("cache", {}).items():
            totals[key] = totals.get(key, 0) + value
            if self.metrics is not None and value:
                self.metrics.counter("feature_cache", key=key).inc(now, value)
        if totals and self.tracer is not None:
            self.tracer.counter("cache", "cumulative", now, **totals)

    def stage_lost(self, gpu: int, stage: str, batch: int,
                   reason: str) -> None:
        """A (gpu, stage, batch) will never complete, and why."""
        if self.invariants is not None:
            self.invariants.note_lost(gpu, stage, batch, reason)
        if self.tracer is not None:
            self.tracer.instant("chaos", f"lost:{stage}", self.sim.now,
                                cat="chaos", gpu=gpu, batch=batch,
                                reason=reason)

    def epoch_end(self, batches, stages, k: int) -> None:
        """The epoch's replay finished: reconcile the checker's observed
        link bytes against what the completed stages of ``batches``
        should have moved (less what abandoned rounds skipped), and
        check every (gpu, stage, batch) completed or was recorded
        lost."""
        inv = self.invariants
        if inv is None:
            return
        share = 1.0 / k
        expected: dict = {}
        for (g, stage, t) in inv.completed:
            for cost in batches[t][stage]:
                for link, nbytes in cost.link_bytes().items():
                    if nbytes:
                        expected[link] = (expected.get(link, 0.0)
                                          + nbytes * share)
        for link, nbytes in self._skipped.items():
            expected[link] = expected.get(link, 0.0) - nbytes
        inv.finalize(expected_bytes=expected, expected_batches=[
            (g, stage, t)
            for g in range(k) for stage in stages for t in range(len(batches))
        ])

    # -- serving -------------------------------------------------------------
    def serve_begin(self, k: int, stages) -> None:
        """A serving run on ``k`` GPUs starts: declare its tracks and
        register the per-request instruments (even a run that completes
        nothing exports them); ``stages`` names the latency stages."""
        tracer, met = self.tracer, self.metrics
        if tracer is not None:
            for g in range(k):
                for sort, role in enumerate(
                        ("batcher", "sampler", "loader", "infer")):
                    tracer.declare_track(f"{role}-gpu{g}", group=f"gpu{g}",
                                         sort=sort)
        if met is not None:
            self._serve = (
                met.histogram("request_latency"),
                {s: met.histogram("stage_latency", stage=s) for s in stages},
                met.histogram("batch_size"),
                met.counter("requests_completed"),
                met.counter("slo_violations"),
                met.counter("requests_degraded"),
            )

    def admit(self, batcher, req) -> None:
        """``batcher`` admitted ``req`` (tenant counts already bumped)."""
        tenants = batcher.tenants
        if (self.invariants is not None and tenants is not None
                and req.tenant is not None):
            self.invariants.on_admit(
                batcher.name, req.tenant, tenants.pending[req.tenant],
                tenants.quota_slots[req.tenant],
            )
        self.admission_depth(batcher)

    def admission_depth(self, batcher) -> None:
        now = self.sim.now
        depth = len(batcher.pending)
        if self.tracer is not None:
            self.tracer.counter(batcher.name, "depth", now, depth=depth,
                                shed=len(batcher.shed))
        if self.metrics is not None:
            self._gauge(batcher, "admission_depth",
                        gpu=batcher.gpu).set(now, depth)

    def shed(self, batcher, req, reason: str) -> None:
        now = self.sim.now
        if self.tracer is not None:
            self.tracer.instant(batcher.name, "shed", now, cat="shed",
                                rid=req.rid)
        met = self.metrics
        if met is not None:
            met.counter("requests_shed", gpu=batcher.gpu).inc(now)
            if reason != "capacity":
                met.counter("requests_shed_reason", reason=reason).inc(now)

    def batch_closed(self, gpu: int, batch: int, size: int) -> None:
        now = self.sim.now
        if self.tracer is not None:
            self.tracer.instant(f"batcher-gpu{gpu}", "batch-close", now,
                                cat="batch", batch=batch, size=size)
        if self.metrics is not None:
            self._serve[2].observe(now, size)

    def serve_op_done(self, track: str, cost, stage: str, batch: int,
                      gpu: int, start: float) -> None:
        if self.tracer is not None:
            self.tracer.span(track, cost.label, cat=stage, start=start,
                             end=self.sim.now, gpu=gpu, stage=stage,
                             batch=batch, collective=cost.collective)

    def degraded_load(self, track: str, batch: int, lost) -> None:
        """A batch was loaded around the ``lost`` cache peers."""
        if self.tracer is not None:
            self.tracer.instant(track, "degraded-load", self.sim.now,
                                cat="chaos", batch=batch, lost=sorted(lost))

    def load_done(self, stats: dict, dynamic) -> None:
        """A batch's feature load finished: path counts and
        dynamic-cache moves."""
        met = self.metrics
        if met is None:
            return
        now = self.sim.now
        for path, n in stats.items():
            if n:
                met.counter("feature_requests", path=path).inc(now, n)
        hits = stats["local"] + stats["remote"]
        if hits:
            met.counter("cache_hit").inc(now, hits)
        if dynamic is not None:
            if dynamic["promoted"]:
                met.counter("cache_promote").inc(now, dynamic["promoted"])
            if dynamic["demoted"]:
                met.counter("cache_demote").inc(now, dynamic["demoted"])

    def request_done(self, rec, slo_s: float) -> None:
        """A request completed; ``rec`` has its exact latency."""
        if self.metrics is None:
            return
        now = self.sim.now
        latency, stages, _, done, violations, degraded = self._serve
        lat = rec.latency
        latency.observe(now, lat)
        done.inc(now)
        # the SLO boundary is decided on the exact latency, never
        # re-derived from bucketed state
        if lat > slo_s:
            violations.inc(now)
        if rec.degraded:
            degraded.inc(now)
        for stage, dur in rec.stages.items():
            stages[stage].observe(now, dur)

    # -- annotations ---------------------------------------------------------
    def annotate(self, t: float, name: str, **attrs) -> None:
        """A point event both timelines pin causes on: a fault's
        inject/clear boundary or an invariant violation."""
        if self.tracer is not None:
            self.tracer.instant("chaos", name, t, cat="chaos", **attrs)
        if self.metrics is not None:
            self.metrics.event(t, name, **attrs)

    def control_action(self, t: float, kind: str, knob: str,
                       before, after) -> None:
        if self.tracer is not None:
            self.tracer.instant("controller", kind, t, cat="control",
                                knob=knob, before=before, after=after)
        if self.metrics is not None:
            self.metrics.event(t, f"control:{kind}", knob=knob,
                               before=float(before), after=float(after))

    def _gauge(self, owner, name: str, **labels):
        gauge = self._gauges.get(owner)
        if gauge is None:
            gauge = self._gauges[owner] = self.metrics.gauge(name, **labels)
        return gauge
