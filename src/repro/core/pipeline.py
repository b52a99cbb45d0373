"""The producer-consumer training pipeline (paper §5, Fig 7).

Replays per-mini-batch op costs inside the discrete-event engine with
one sampler, loader and trainer worker per GPU, connected by bounded
queues (capacity 2 by default — the paper finds that sufficient).
Workers of *different* mini-batches overlap: while the trainer computes
batch ``t``, the loader fetches features for ``t + 1`` and the sampler
builds graph samples for ``t + 2``.

Every op runs through :class:`~repro.engine.gpu.GpuExecutor`:
collective kernels acquire one of the GPU's communication channels and
an SM-thread footprint, then rendezvous with their peers — the
conditions that can deadlock (Fig 8).  With ``ccc=True`` a
:class:`~repro.engine.coordination.LaunchGate` serializes the launch
order globally and the pipeline is deadlock-free; with ``ccc=False``
and few channels the Fig 8 interleaving really deadlocks (the ablation
benchmark shows it).

Chaos integration (``repro.chaos``): an ``injector`` perturbs the
replay — straggler slowdowns, link degradation/blackouts, worker
crashes, stalled queues, delayed/dropped collective participants —
while a :class:`~repro.engine.coordination.CollectiveGuard` watchdog
keeps collective rounds from hanging forever (abort/retry/abandon) and
an ``invariants`` checker audits the run.  Both hooks are duck-typed
and default to ``None``; the fault-free path executes the exact same
yield sequence as before they existed.  When the pipeline wedges on a
bounded queue whose other side has exited (e.g. a crashed trainer with
producers blocked on a full queue), the deadlock is diagnosed and
re-raised as :class:`~repro.utils.errors.PipelineStall` naming the dead
worker(s).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.engine import (
    ROUND_ABANDONED,
    BoundedQueue,
    CollectiveGuard,
    GpuExecutor,
    LaunchGate,
    Rendezvous,
    Simulator,
)
from repro.engine.simulator import Timeout
from repro.hw.devices import Cluster
from repro.utils.errors import ConfigError, DeadlockError, PipelineStall

#: pipeline stages in dependency order
STAGES = ("sample", "load", "train")


@dataclass
class PipelineResult:
    """Outcome of one simulated epoch (wall time + utilization)."""

    epoch_time: float
    utilization: float  # mean thread-weighted occupancy across GPUs
    busy_fraction: float  # mean any-kernel-resident fraction
    per_gpu_busy: tuple = ()  # per-GPU any-kernel-resident fractions
    # chaos accounting (all zero on fault-free runs)
    lost_batches: int = 0  # (gpu, stage, batch) triples lost to faults
    degraded_rounds: int = 0  # collective rounds abandoned by the watchdog
    aborted_rounds: int = 0  # watchdog aborts (incl. rounds that retried ok)
    invariants: dict | None = None  # InvariantChecker.summary() when audited


class PipelineRunner:
    """Simulate one epoch of the queue-based pipeline."""

    def __init__(
        self,
        cluster: Cluster,
        batches: list[dict],
        queue_capacity: int = 2,
        ccc: bool = True,
        comm_channels: int = 2,
        sequential: bool = False,
        sampler_workers: int = 1,
        loader_workers: int = 1,
        tracer=None,
        metrics=None,
        batch_info: list | None = None,
        injector=None,
        invariants=None,
        collective_timeout: float | None = None,
        max_retries: int = 3,
        backoff: float | None = None,
    ):
        """``batches[t]`` maps stage name -> list of OpCost for batch t.

        ``sequential=True`` runs the same workers with rendezvous and
        resources but forces each batch's three stages to complete
        before the next batch starts (DSP-Seq), so utilization numbers
        are measured identically in both modes.

        ``sampler_workers`` / ``loader_workers`` > 1 give each GPU
        multiple worker instances striped over mini-batches (the
        multi-instance alternative of §5; the trainer stays single to
        preserve BSP).  Every loader and trainer consumes its batches in
        order, so every GPU launches their collectives in one order.

        ``tracer``, ``metrics`` and ``invariants`` instrument the replay
        (:mod:`repro.obs.probe` says what each records);
        ``batch_info[t]`` may carry batch ``t``'s ``{"cache": {...}}``
        path counts.

        ``injector`` (a :class:`repro.chaos.FaultInjector`) perturbs
        the replay.  A
        :class:`~repro.engine.coordination.CollectiveGuard` watchdog is
        armed whenever an injector is present or
        ``collective_timeout`` is given explicitly;
        ``collective_timeout=None`` auto-scales the timeout to the
        costliest batch.  Both default to ``None`` — the fault-free
        path is bit-identical to a runner without these parameters.
        """
        for b in batches:
            if set(b) != set(STAGES):
                raise ConfigError(f"each batch needs stages {STAGES}")
        if sampler_workers < 1 or loader_workers < 1:
            raise ConfigError("need at least one worker per stage")
        if batch_info is not None and len(batch_info) != len(batches):
            raise ConfigError("batch_info must align with batches")
        self.cluster = cluster
        self.batches = batches
        self.queue_capacity = queue_capacity
        self.ccc = ccc
        self.comm_channels = comm_channels
        self.sequential = sequential
        self.sampler_workers = sampler_workers
        self.loader_workers = loader_workers
        self.tracer = tracer
        self.metrics = metrics
        self.batch_info = batch_info
        self.injector = injector
        self.invariants = invariants
        self.collective_timeout = collective_timeout
        self.max_retries = max_retries
        self.backoff = backoff

    # ------------------------------------------------------------------
    def _auto_timeout(self) -> float:
        """Watchdog timeout: twice the costliest batch's serial time.

        Generous enough that healthy-but-straggling peers rarely trip
        it (a false abort only costs a retry), small enough that a
        genuinely absent participant is detected within a batch or two.
        """
        worst = 0.0
        for b in self.batches:
            total = 0.0
            for stage in STAGES:
                for cost in b[stage]:
                    if cost.collective or cost.host:
                        total += float(cost.stage)
                    else:
                        total += float(np.max(cost.per_gpu))
            worst = max(worst, total)
        return 2.0 * worst + 1e-9

    # ------------------------------------------------------------------
    def run(self) -> PipelineResult:
        """Simulate the epoch; returns wall time and GPU utilization."""
        k = self.cluster.num_gpus
        inj = self.injector
        inv = self.invariants
        sim = Simulator(tracer=self.tracer, metrics=self.metrics,
                        invariants=inv)
        probe = sim.probe
        if inj is not None:
            inj.install(sim)
        gpus = GpuExecutor(sim, k, self.cluster.gpu.total_threads,
                           self.comm_channels, injector=inj)
        barrier = Rendezvous(sim, name="collective")
        gate = LaunchGate(sim, k) if (self.ccc and k > 1) else None
        guard = None
        if inj is not None or self.collective_timeout is not None:
            timeout = (self.collective_timeout
                       if self.collective_timeout is not None
                       else self._auto_timeout())
            guard = CollectiveGuard(sim, timeout,
                                    max_retries=self.max_retries,
                                    backoff=self.backoff)

        # chaos accounting: (gpu, stage, batch) triples lost to crashed
        # workers — mirrors what the invariant checker records
        lost_triples: set = set()

        def note_lost(g: int, stage: str, t: int, reason: str) -> None:
            lost_triples.add((g, stage, t))
            if probe is not None:
                probe.stage_lost(g, stage, t, reason)

        def join(g: int, tag):
            """A collective's rendezvous; True when the round was abandoned."""
            if guard is None:
                yield barrier.arrive(tag, k)
                return False
            if inj is not None:
                d = inj.collective_delay(g)
                if d > 0.0:
                    yield Timeout(d)
                # a dropped participant goes dark for the window
                d = inj.drop_wait(g)
                if d > 0.0:
                    yield Timeout(d)
            outcome = yield from guard.join(tag, k)
            return outcome == ROUND_ABANDONED

        def run_stage(g: int, stage: str, t: int, track: str):
            for i, cost in enumerate(self.batches[t][stage]):
                tag = (stage, t, i)
                # a local kernel runs for this GPU's share, the rest for
                # the whole op's barrier wall time
                local = not (cost.collective or cost.host)
                dur = float(cost.per_gpu[g] if local else cost.stage)
                start, degraded = yield from gpus.run(g, cost, dur, tag,
                                                      gate, join)
                if probe is not None:
                    probe.op_done(track, cost, tag, g, start, k, degraded)
            if probe is not None:
                probe.stage_done(g, stage, t, self.batch_info)

        def skip_ops(g: int, stage: str, t: int):
            """Walk a lost batch's collective tags through the CCC gate.

            The gate requires *every* GPU to launch *every* tag in the
            global order, so a worker that silently drops a batch would
            wedge its own GPU's later launches (and, on the leader,
            stop the order from growing at all).  Skipped launches are
            free — no resources, no rendezvous, no bytes — the dead
            participant's peers still time out and degrade through the
            watchdog.
            """
            if gate is None:
                return
            for i, cost in enumerate(self.batches[t][stage]):
                if cost.collective:
                    tag = (stage, t, i)
                    yield gate.wait_turn(g, tag)
                    gate.launched(g, tag)

        B = len(self.batches)
        procs: dict = {}
        queue_producers: dict = {}
        queue_consumers: dict = {}
        op_worker = None  # (gpu, tag) -> worker name that launches it
        if self.sequential:
            # one worker per GPU runs sample -> load -> train per batch,
            # with a cross-GPU barrier between batches (BSP steps)
            def worker(g: int):
                track = f"seq-gpu{g}"
                for t in range(B):
                    for stage in STAGES:
                        if inj is not None and inj.crashed(g, stage):
                            # degraded participation: skip the ops but
                            # keep the launch order legal and keep
                            # arriving at the batch-end barrier
                            note_lost(g, stage, t, "worker-crash")
                            yield from skip_ops(g, stage, t)
                            continue
                        if inj is not None:
                            st = inj.queue_stall(g, stage)
                            if st > 0.0:
                                yield Timeout(st)
                        yield from run_stage(g, stage, t, track)
                    if k > 1:
                        yield barrier.arrive(("batch-end", t), k)

            def op_worker(g: int, tag) -> str:
                return f"seq-gpu{g}"

            for g in range(k):
                if probe is not None:
                    probe.declare_track(f"seq-gpu{g}", group=f"gpu{g}")
                procs[f"seq-gpu{g}"] = sim.spawn(worker(g), name=f"seq-gpu{g}")
        else:
            S, L = self.sampler_workers, self.loader_workers
            # one loader input queue per loader instance: batch t is
            # handled by sampler t % S and loader t % L on every GPU
            queues_sl = [
                [BoundedQueue(sim, self.queue_capacity, name=f"gpu{g}-loadq{w}")
                 for w in range(L)]
                for g in range(k)
            ]
            queues_lt = [
                BoundedQueue(sim, self.queue_capacity, name=f"gpu{g}-trainq")
                for g in range(k)
            ]
            for g in range(k):
                for w in range(L):
                    queue_producers[f"gpu{g}-loadq{w}"] = [
                        f"sampler{s}-gpu{g}" for s in range(S)
                    ]
                    queue_consumers[f"gpu{g}-loadq{w}"] = [f"loader{w}-gpu{g}"]
                queue_producers[f"gpu{g}-trainq"] = [
                    f"loader{w}-gpu{g}" for w in range(L)
                ]
                queue_consumers[f"gpu{g}-trainq"] = [f"trainer-gpu{g}"]

            def take(g: int, stage: str, q, stash: dict, t: int,
                     crashable: bool = False):
                """Batch ``t``'s item from ``q``, in batch order: items
                that arrive early wait in ``stash``.  None once this
                GPU's ``stage`` worker crashed, when ``crashable``."""
                while True:
                    if crashable and inj is not None and inj.crashed(g, stage):
                        return None
                    if t in stash:
                        return stash.pop(t)
                    if inj is not None:
                        st = inj.queue_stall(g, stage)
                        if st > 0.0:
                            yield Timeout(st)
                    item = yield q.get()
                    stash[item[1] if type(item) is tuple else item] = item

            def sampler(g: int, w: int):
                track = f"sampler{w}-gpu{g}"
                for t in range(w, B, S):
                    if inj is not None and inj.crashed(g, "sample"):
                        # flush loss markers for the rest of the stripe
                        # so downstream stages account them and exit
                        for tt in range(t, B, S):
                            note_lost(g, "sample", tt, "worker-crash")
                            yield from skip_ops(g, "sample", tt)
                            yield queues_sl[g][tt % L].put(("lost", tt))
                        return
                    if inj is not None:
                        st = inj.queue_stall(g, "sample")
                        if st > 0.0:
                            yield Timeout(st)
                    yield from run_stage(g, "sample", t, track)
                    yield queues_sl[g][t % L].put(t)

            def loader(g: int, w: int):
                track = f"loader{w}-gpu{g}"
                stash: dict = {}
                for t in range(w, B, L):
                    item = yield from take(g, "load", queues_sl[g][w],
                                           stash, t)
                    if type(item) is tuple:
                        # upstream loss marker: forward it downstream
                        note_lost(g, "load", t, "upstream-lost")
                        yield from skip_ops(g, "load", t)
                        yield queues_lt[g].put(("lost", t))
                        continue
                    if inj is not None and inj.crashed(g, "load"):
                        # a crashed loader keeps draining its input so
                        # the pipeline degrades instead of wedging
                        note_lost(g, "load", t, "worker-crash")
                        yield from skip_ops(g, "load", t)
                        yield queues_lt[g].put(("lost", t))
                        continue
                    yield from run_stage(g, "load", t, track)
                    yield queues_lt[g].put(t)

            def trainer(g: int):
                track = f"trainer-gpu{g}"
                stash: dict = {}
                for t in range(B):
                    item = yield from take(g, "train", queues_lt[g], stash,
                                           t, crashable=True)
                    if item is None:
                        # the BSP sink has no degraded mode: it stops
                        # consuming, which upstream sees as a stall
                        for tt in range(t, B):
                            note_lost(g, "train", tt, "worker-crash")
                        return
                    if type(item) is tuple:
                        note_lost(g, "train", t, "upstream-lost")
                        yield from skip_ops(g, "train", t)
                    else:
                        yield from run_stage(g, "train", t, track)

            def op_worker(g: int, tag) -> str:
                stage, t = tag[0], tag[1]
                if stage == "sample":
                    return f"sampler{t % S}-gpu{g}"
                if stage == "load":
                    return f"loader{t % L}-gpu{g}"
                return f"trainer-gpu{g}"

            for g in range(k):
                # one track per worker, displayed in pipeline order
                workers = (
                    [(f"sampler{w}-gpu{g}", sampler(g, w)) for w in range(S)]
                    + [(f"loader{w}-gpu{g}", loader(g, w)) for w in range(L)]
                    + [(f"trainer-gpu{g}", trainer(g))]
                )
                for sort, (name, gen) in enumerate(workers):
                    if probe is not None:
                        probe.declare_track(name, group=f"gpu{g}", sort=sort)
                    procs[name] = sim.spawn(gen, name=name)

        try:
            total = sim.run()
        except DeadlockError as e:
            stall = _diagnose_stall(e, procs, queue_producers,
                                    queue_consumers, gate=gate,
                                    op_worker=op_worker)
            if stall is not None:
                raise stall from None
            raise

        if probe is not None:
            probe.epoch_end(self.batches, STAGES, k)

        occ = float(np.mean([r.occupancy(total) for r in gpus.threads]))
        per_busy = tuple(r.busy_fraction(total) for r in gpus.threads)
        busy = float(np.mean(per_busy))
        return PipelineResult(
            epoch_time=total, utilization=occ,
            busy_fraction=busy, per_gpu_busy=per_busy,
            lost_batches=len(lost_triples),
            degraded_rounds=0 if guard is None else guard.abandoned_rounds,
            aborted_rounds=0 if guard is None else guard.aborts,
            invariants=None if inv is None else inv.summary(),
        )


def _diagnose_stall(err: DeadlockError, procs: dict,
                    queue_producers: dict, queue_consumers: dict,
                    gate=None, op_worker=None):
    """Classify a deadlock as a pipeline stall when provable.

    A stall is a wedge that can never clear because the counterparty
    has already exited:

    - a process blocked putting to (getting from) a bounded queue
      whose every consumer (producer) is done;
    - a process waiting at the CCC gate for a tag that can never come:
      either the tag is unregistered and the *leader* worker that
      would submit it is done, or the gate's next launch on that GPU
      belongs to a worker that exited without launching it.

    Returns a :class:`PipelineStall` naming the dead workers, or
    ``None`` when the deadlock is not of that shape (e.g. the Fig 8
    collective interleaving, which must keep raising plain
    :class:`DeadlockError`).
    """
    stalled = []
    dead: set = set()
    for name, waiting in err.waiting.items():
        if waiting.startswith("put("):
            counterparts = queue_consumers.get(waiting[4:-1], ())
        elif waiting.startswith("get("):
            counterparts = queue_producers.get(waiting[4:-1], ())
        else:
            continue
        exited = [c for c in counterparts if c in procs and procs[c].done]
        if counterparts and len(exited) == len(counterparts):
            stalled.append(f"{name} blocked on {waiting}")
            dead.update(exited)
    if gate is not None and op_worker is not None:
        for g, waiters in enumerate(gate._waiters):
            for proc, tag in waiters:
                if gate._position.get(tag) is None:
                    # unregistered: only the leader's worker for this
                    # op could submit it to the order
                    owner = op_worker(gate.leader, tag)
                elif gate._next[g] < len(gate.order):
                    # registered but this GPU's launch cursor is stuck
                    # on an earlier tag someone exited without firing
                    owner = op_worker(g, gate.order[gate._next[g]])
                else:  # pragma: no cover - waiter implies pending tags
                    continue
                p = procs.get(owner)
                if p is not None and p.done:
                    stalled.append(f"{proc.name} blocked on ccc {tag}")
                    dead.add(owner)
    if not stalled:
        return None
    return PipelineStall(
        "pipeline stalled: " + "; ".join(sorted(stalled))
        + " — exited worker(s): " + ", ".join(sorted(dead)),
        waiting=err.waiting,
        dead=tuple(sorted(dead)),
    )
