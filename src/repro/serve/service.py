"""The serving pipeline: batches -> CSP sample -> cache load -> forward.

:class:`GNNServer` wraps any built
:class:`~repro.core.system.TrainingSystem` and serves an open-loop
request stream on the discrete-event engine.  Per GPU it runs four
simulator processes connected by bounded queues (mirroring the
training pipeline of §5, but per *request batch* instead of per
training mini-batch):

``feeder``   closes dynamic batches (:mod:`repro.serve.batcher`) and
             pushes them into the pipeline — when the pipeline is
             behind, the push blocks, admission backs up and sheds;
``sampler``  runs the system's sampler (CSP for DSP, Pull-Data or UVA
             for the baselines) for the batch's ego networks;
``loader``   fetches features through the system's cache loader;
``compute``  prices (and, with ``functional=True``, actually runs) the
             model forward pass and completes the batch's requests.

Requests are routed to the GPU owning their seed's graph patch (DSP's
co-partitioning, §3.1); systems without a partition round-robin.  Seed
ids arrive in the dataset's *original* numbering and are mapped into
the system's renumbered space, so identical workloads are comparable
across systems.

Cost semantics: each of a batch's ops runs for its barrier wall time
(``OpCost.stage``) on the driving GPU through the same
:class:`~repro.engine.gpu.GpuExecutor` as training, holding that GPU's
SM footprint and — for collectives — one of its communication channels;
serving collectives do not rendezvous.  Remote
GPUs' transient participation in a batch's all-to-alls is charged to
the batch's latency but not modelled as SM contention on the peers;
concurrent batches on one GPU do contend for its SMs and channels.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.system import COMPUTE_DEDUP_CORRECTION
from repro.engine import BoundedQueue, GpuExecutor, Simulator
from repro.engine.simulator import Timeout
from repro.nn import Tensor
from repro.sampling.ops import LocalKernel, OpTrace
from repro.serve.batcher import AdmissionBatcher, BatcherConfig
from repro.serve.stats import RequestRecord, ServeReport, build_report
from repro.serve.workload import Request
from repro.utils.errors import ConfigError, count, nested, positive

#: serving pipeline stages in dependency order
SERVE_STAGES = ("sample", "load", "compute")


@dataclass(frozen=True)
class ServeConfig:
    """Server-side knobs (workload knobs live in WorkloadConfig)."""

    batch_max: int = 16
    batch_timeout_s: float = 2e-3
    queue_capacity: int = 64
    slo_s: float = 50e-3
    #: bounded-queue capacity between serving pipeline stages
    pipeline_depth: int = 2
    #: per-GPU communication channels collectives contend for
    comm_channels: int = 2
    #: run the real numpy forward pass and record predictions
    functional: bool = False
    #: audit the run with a :class:`repro.chaos.InvariantChecker`
    #: (attached by :func:`repro.serve.sweep.serve_once`; auditing
    #: never changes the report, it only raises on a broken simulation)
    check_invariants: bool = False
    #: online batcher tuner (:class:`repro.control.ControllerConfig`);
    #: None (the default) serves with static knobs, bit-identical to
    #: the pre-control code path
    controller: object | None = None
    #: multi-tenant admission (:class:`repro.control.TenancyConfig`);
    #: None serves a single anonymous tenant, bit-identically
    tenancy: object | None = None

    def __post_init__(self) -> None:
        positive("slo_s", self.slo_s)
        count("pipeline_depth", self.pipeline_depth)
        count("comm_channels", self.comm_channels)
        # batcher knobs fail here, not inside a worker
        nested(self.batcher, {"timeout_s": "batch_timeout_s"})

    def batcher(self) -> BatcherConfig:
        return BatcherConfig(
            batch_max=self.batch_max,
            timeout_s=self.batch_timeout_s,
            queue_capacity=self.queue_capacity,
        )


class _Batch:
    """One dynamic batch moving through the serving pipeline."""

    __slots__ = ("bid", "gpu", "requests", "seeds", "close", "start",
                 "samples", "feats", "stages", "degraded")

    def __init__(self, bid: int, gpu: int, requests: list[Request],
                 seeds: np.ndarray, close: float):
        self.bid = bid
        self.gpu = gpu
        self.requests = requests
        self.seeds = seeds  # renumbered ids, one per request
        self.close = close
        self.start = float("nan")
        self.samples = None
        self.feats = None
        self.stages: dict = {}
        self.degraded = False  # a lost cache peer held some of its rows


class GNNServer:
    """Serve an open-loop request stream on a built training system."""

    def __init__(self, system, config: ServeConfig | None = None,
                 tracer=None, metrics=None, injector=None, invariants=None):
        self.system = system
        self.config = config if config is not None else ServeConfig()
        # optional instruments and fault injector (chaos perturbs the
        # replay: stragglers, link faults, lost cache peers)
        self.tracer = tracer
        self.metrics = metrics
        self.invariants = invariants
        self.injector = injector
        self.k = system.k
        numbering = getattr(system, "numbering", None)
        self._old_to_new = None if numbering is None else numbering.old_to_new
        self._owner_of = getattr(system.sampler, "owner_of", None)

    # -- request routing -------------------------------------------------
    def map_seed(self, node: int) -> int:
        """Original-numbering node id -> the system's id space."""
        if self._old_to_new is None:
            return int(node)
        return int(self._old_to_new[node])

    def route(self, req: Request, seed: int) -> int:
        """GPU that admits the request (patch owner, else round-robin)."""
        if self._owner_of is not None:
            return int(self._owner_of(np.asarray([seed]))[0])
        return req.rid % self.k

    # -- the simulated serving run ----------------------------------------
    def run(self, requests: list[Request],
            offered_qps: float | None = None) -> ServeReport:
        """Serve ``requests`` (sorted by arrival); returns the report."""
        if not requests:
            raise ConfigError("need at least one request")
        system, cfg, k = self.system, self.config, self.k
        met = self.metrics
        controller = None
        if cfg.controller is not None:
            # the tuner reads windowed completion/violation counts, so a
            # controlled run always streams metrics — into a private
            # registry when the caller didn't attach one (the report's
            # ``metrics`` field stays None either way, see serve_once)
            from repro.control.controller import ServeController

            if met is None:
                from repro.metrics import MetricsRegistry

                met = MetricsRegistry(window_s=cfg.slo_s)
            controller = ServeController(cfg.controller, cfg, met)
        if cfg.tenancy is not None:
            requests = cfg.tenancy.assign(requests)
        sim = Simulator(tracer=self.tracer, metrics=met,
                        invariants=self.invariants)
        probe = sim.probe
        inj = self.injector
        if inj is not None:
            inj.install(sim)
        #: lost-peer set -> whether the lost peers held cached rows
        degrading: dict = {}

        gpus = GpuExecutor(sim, k, system.cluster.gpu.total_threads,
                           cfg.comm_channels, prefix="serve-gpu",
                           injector=inj)
        if cfg.tenancy is not None:
            from repro.control.tenancy import TenantState

            batchers = [
                AdmissionBatcher(
                    sim, g, cfg.batcher(),
                    tenants=TenantState(cfg.tenancy, cfg.queue_capacity),
                )
                for g in range(k)
            ]
        else:
            batchers = [AdmissionBatcher(sim, g, cfg.batcher())
                        for g in range(k)]
        sampleq = [BoundedQueue(sim, cfg.pipeline_depth, name=f"gpu{g}-sampleq")
                   for g in range(k)]
        loadq = [BoundedQueue(sim, cfg.pipeline_depth, name=f"gpu{g}-serveloadq")
                 for g in range(k)]
        computeq = [BoundedQueue(sim, cfg.pipeline_depth,
                                 name=f"gpu{g}-computeq")
                    for g in range(k)]

        records: dict[int, RequestRecord] = {}
        route_of: dict[int, int] = {}
        seed_of: dict[int, int] = {}
        for req in requests:
            seed = self.map_seed(req.node)
            gpu = self.route(req, seed)
            seed_of[req.rid] = seed
            route_of[req.rid] = gpu
            records[req.rid] = RequestRecord(
                rid=req.rid, node=req.node, arrival=req.arrival, gpu=gpu,
                tenant=req.tenant, priority=req.priority,
            )
        batch_count = [0]
        #: outstanding requests — the controller's termination signal
        #: (only maintained when a controller is attached)
        remaining = [len(requests)] if controller is not None else None
        if controller is not None:
            controller.install(sim, batchers, remaining)

        def run_trace(g: int, trace, stage: str, bid: int, track: str):
            for cost in system.engine.trace_cost(trace):
                start, _ = yield from gpus.run(g, cost, float(cost.stage))
                if probe is not None:
                    probe.serve_op_done(track, cost, stage, bid, g, start)

        def arrivals():
            for req in requests:
                if req.arrival > sim.now:
                    yield Timeout(req.arrival - sim.now)
                b = batchers[route_of[req.rid]]
                if not b.offer(req):
                    rec = records[req.rid]
                    rec.shed = True
                    rec.shed_reason = b.last_shed_reason
                    if remaining is not None:
                        remaining[0] -= 1
            for b in batchers:
                b.close()

        def feeder(g: int):
            while True:
                reqs = yield batchers[g].next_batch()
                if reqs is None:
                    yield sampleq[g].put(None)
                    return
                bid = batch_count[0]
                batch_count[0] += 1
                seeds = np.array([seed_of[r.rid] for r in reqs],
                                 dtype=np.int64)
                batch = _Batch(bid, g, reqs, seeds, close=sim.now)
                for r in reqs:
                    rec = records[r.rid]
                    rec.batch_id = bid
                    rec.close = sim.now
                if probe is not None:
                    probe.batch_closed(g, bid, len(reqs))
                yield sampleq[g].put(batch)

        def sampler(g: int):
            track = f"sampler-gpu{g}"
            while True:
                batch = yield sampleq[g].get()
                if batch is None:
                    yield loadq[g].put(None)
                    return
                batch.start = sim.now
                t0 = sim.now
                per_gpu = [np.empty(0, dtype=np.int64) for _ in range(k)]
                per_gpu[g] = batch.seeds
                samples, trace = system._sample(per_gpu)
                yield from run_trace(g, trace, "sample", batch.bid, track)
                batch.samples = samples
                batch.stages["sample"] = sim.now - t0
                yield loadq[g].put(batch)

        def loader(g: int):
            track = f"loader-gpu{g}"
            while True:
                batch = yield loadq[g].get()
                if batch is None:
                    yield computeq[g].put(None)
                    return
                t0 = sim.now
                reqs = [s.all_nodes for s in batch.samples]
                lost = frozenset() if inj is None else inj.lost_peers()
                if lost:
                    # a lost cache peer's rows fail over to the UVA cold
                    # path; the batch is degraded if the peer held any
                    if lost not in degrading:
                        store = getattr(system.loader, "store", None)
                        degrading[lost] = store is not None and any(
                            len(store.cached_nodes(p)) for p in lost)
                    if degrading[lost]:
                        batch.degraded = True
                        if probe is not None:
                            probe.degraded_load(track, batch.bid, lost)
                feats, trace, stats = system._load(reqs, lost=lost)
                yield from run_trace(g, trace, "load", batch.bid, track)
                dyn = stats.pop("dynamic", None)
                if probe is not None:
                    probe.load_done(stats, dyn)
                batch.feats = feats
                batch.stages["load"] = sim.now - t0
                yield computeq[g].put(batch)

        def compute(g: int):
            track = f"infer-gpu{g}"
            while True:
                batch = yield computeq[g].get()
                if batch is None:
                    return
                t0 = sim.now
                sample = batch.samples[g]
                flops = np.zeros(k)
                flops[g] = (system.model.forward_flops(sample)
                            * COMPUTE_DEDUP_CORRECTION)
                trace = OpTrace()
                trace.add(LocalKernel("compute", flops, label="serve-infer"))
                yield from run_trace(g, trace, "compute", batch.bid, track)
                batch.stages["compute"] = sim.now - t0
                preds = None
                if cfg.functional and len(sample.seeds):
                    out = system.model(sample, Tensor(batch.feats[g]),
                                       training=False)
                    preds = np.argmax(out.data, axis=1)
                for i, r in enumerate(batch.requests):
                    rec = records[r.rid]
                    rec.done = sim.now
                    rec.degraded = batch.degraded
                    rec.stages = {
                        "queue": rec.close - rec.arrival,
                        "batch": batch.start - rec.close,
                        **batch.stages,
                    }
                    if preds is not None:
                        rec.prediction = int(preds[i])
                    if probe is not None:
                        probe.request_done(rec, cfg.slo_s)
                if remaining is not None:
                    remaining[0] -= len(batch.requests)

        if probe is not None:
            probe.serve_begin(k, ("queue", "batch") + SERVE_STAGES)
        sim.spawn(arrivals(), name="arrivals")
        for g in range(k):
            sim.spawn(feeder(g), name=f"batcher-gpu{g}")
            sim.spawn(sampler(g), name=f"sampler-gpu{g}")
            sim.spawn(loader(g), name=f"loader-gpu{g}")
            sim.spawn(compute(g), name=f"infer-gpu{g}")
        sim.run()

        ordered = [records[r.rid] for r in requests]
        accuracy = float("nan")
        if cfg.functional:
            done = [r for r in ordered if not r.shed and r.prediction is not None]
            if done:
                labels = system.data.labels
                hits = sum(
                    int(r.prediction == int(labels[seed_of[r.rid]]))
                    for r in done
                )
                accuracy = hits / len(done)
        if offered_qps is None:
            span = max(r.arrival for r in requests)
            offered_qps = len(requests) / span if span > 0 else float("nan")
        #: per-request records / batch count / functional accuracy of the
        #: latest run, kept for replica merging (repro.serve.sweep.serve_once)
        self.last_records = ordered
        self.last_num_batches = batch_count[0]
        self.last_accuracy = accuracy
        report = build_report(
            system.name, offered_qps, cfg.slo_s, ordered, batch_count[0],
            accuracy=accuracy,
        )
        if controller is not None:
            report.control = controller.summary()
        if cfg.tenancy is not None:
            from repro.control.tenancy import tenant_summary

            report.tenants = tenant_summary(ordered, cfg.slo_s)
        return report
