"""Multi-core fan-out of independent simulation runs.

DSP's whole point is extracting parallel throughput *inside* one run
(per-GPU sampler/loader/trainer workers overlapping mini-batches, §5).
The driver layer sitting above the simulator is just as parallel but
was serial: every QPS-sweep point, every system of a ``repro compare``
table and every chaos or control cell is an independent simulation.
This module fans those runs out across CPU cores.

Design
------
- A run is described by a picklable :class:`RunSpec` (a task kind, a
  human-readable label, a derived seed and a payload of plain values —
  ``RunConfig`` instances, workloads, QPS points).  Specs carry
  everything a worker needs; workers never read global state.
- :func:`run_tasks` executes a list of specs and returns their results
  *in spec order*.  With ``workers <= 1`` the specs run inline through
  the exact same handler code path, which is what makes the
  parallel-vs-serial bit-equivalence contract testable: the only
  difference between ``workers=1`` and ``workers=4`` is which process
  executes a handler.
- Seeds are derived in the parent with :func:`derive_seed`, a pure
  function of ``(root_seed, run_index)``.  Results therefore do not
  depend on the worker count or on scheduling order.
- A failing task raises :class:`~repro.utils.errors.WorkerError` in
  the parent with the child's formatted traceback embedded, so a
  fan-out failure reads the same as a serial one.

Five run kinds are registered: ``serve_point`` (one QPS point of a
serving sweep, single-server, routed or autoscaled), ``epoch``,
``chaos_scenario``, ``control_cell`` and ``partition`` (one per-server
inner cut of a hierarchical partition).  Serving
points reuse one built system per worker process (a point resets it
first, see :meth:`repro.core.system.TrainingSystem.reset_point`).
Chaos and control cells build their own (a serving cell one, reset
between passes — the memo's may carry a sweep's cache warm-up); epoch
tasks always build fresh because an epoch mutates sampler RNGs and
shuffling state.
"""

from __future__ import annotations

import multiprocessing
import os
import traceback
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from repro.utils.errors import ConfigError, WorkerError

__all__ = [
    "RunSpec",
    "adopt_system",
    "default_workers",
    "derive_seed",
    "register_handler",
    "run_tasks",
]


def default_workers(cap: int = 8) -> int:
    """Worker count for this machine: CPU affinity, capped at ``cap``."""
    try:
        n = len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        n = os.cpu_count() or 1
    return max(1, min(cap, n))


def derive_seed(root_seed: int, index: int) -> int:
    """Deterministic per-run seed for run ``index`` of a fan-out.

    A pure function of ``(root_seed, index)`` — independent of worker
    count, scheduling order and process boundaries — built on
    :class:`numpy.random.SeedSequence` spawn keys so sibling runs get
    statistically independent streams.
    """
    if index < 0:
        raise ConfigError("run index must be non-negative")
    seq = np.random.SeedSequence(entropy=root_seed, spawn_key=(index,))
    return int(seq.generate_state(1, dtype=np.uint64)[0])


@dataclass(frozen=True)
class RunSpec:
    """One independent run: everything a worker needs, picklable.

    ``kind`` selects the handler (see :func:`register_handler`);
    ``payload`` holds the run's inputs as plain picklable values.
    ``trace_path``, when set, asks the handler to record the run with a
    :class:`~repro.obs.Tracer` and write a Chrome trace there (see
    :func:`repro.obs.export.run_trace_path` for fan-out naming).
    """

    kind: str
    label: str
    seed: int = 0
    payload: dict = field(default_factory=dict)
    trace_path: str | None = None


# ----------------------------------------------------------------------
# handlers
# ----------------------------------------------------------------------
_HANDLERS: dict[str, Callable[[RunSpec], Any]] = {}

#: per-process memo of built systems, used only by tasks that leave the
#: system in its just-built state (serving points reset it first)
_SYSTEM_CACHE: dict[tuple, Any] = {}


def register_handler(kind: str, fn: Callable[[RunSpec], Any]) -> None:
    """Register (or replace) the handler executed for ``kind`` specs."""
    _HANDLERS[kind] = fn


def adopt_system(system) -> None:
    """Seed the per-process system memo with an already-built system.

    The inline (``workers <= 1``) path uses this so a sweep reuses the
    caller's system instead of rebuilding it, exactly like the serial
    driver did.
    """
    _SYSTEM_CACHE[(system.name, system.config)] = system


def _shared_system(name: str, config):
    """Build-once-per-process system lookup for stateless run kinds."""
    key = (name, config)
    system = _SYSTEM_CACHE.get(key)
    if system is None:
        from repro.core import build_system

        system = build_system(name, config)
        _SYSTEM_CACHE[key] = system
    return system


def _serve_point(spec: RunSpec):
    """One QPS point of a serving sweep -> :class:`ServeReport`.

    Covers every ``replicas`` mode (single server, router, autoscaler):
    routing and scaling run on arrival time and every replica pass
    resets the system, so the report is a pure function of the spec.
    ``serve_once`` is looked up at call time, once per point.
    """
    from repro.serve.sweep import serve_once

    p = spec.payload
    system = _shared_system(p["system"], p["config"])
    if p.get("warm_nodes") is not None:
        # once per process: the warmed placement becomes the baseline
        # every serving point resets to, whichever worker executes it
        system.warm_cache(p["warm_nodes"])
    tracer = None
    if spec.trace_path:
        from repro.obs import Tracer

        tracer = Tracer()
    report = serve_once(
        system, p["workload"], p["qps"], p.get("serve_config"), tracer=tracer,
        metrics=p.get("metrics", False),
        metrics_window_s=p.get("metrics_window_s"),
        replicas=p.get("replicas"),
    )
    if tracer is not None:
        from repro.obs import write_chrome_trace

        write_chrome_trace(tracer, spec.trace_path)
    return report


def _epoch(spec: RunSpec):
    """One (or a few) measured epochs of one system -> metrics.

    Always builds fresh: ``run_epoch`` advances the shuffling RNG and,
    functionally, the model parameters, so sharing a system across
    epoch tasks would make results depend on task placement.
    """
    from repro.core import build_system

    p = spec.payload
    system = build_system(p["system"], p["config"])
    epochs = p.get("epochs", 1)
    out = [
        system.run_epoch(
            max_batches=p.get("max_batches"),
            functional=p.get("functional", True),
        )
        for _ in range(epochs)
    ]
    return out if epochs > 1 else out[0]


def _chaos_scenario(spec: RunSpec):
    """One (system, scenario) resilience cell -> its result dict.

    :func:`run_scenario` builds the cell's systems itself (a serving
    cell one, reset between passes; a training cell one per pass), so
    the cell is a pure function of its spec — bit-identical across
    worker counts.
    """
    from repro.chaos.scenarios import run_scenario

    p = spec.payload
    return run_scenario(
        p["system"], p["scenario"], p["config"], **p.get("options", {})
    )


def _control_cell(spec: RunSpec):
    """One cell of the controller-vs-static evaluation matrix.

    :func:`repro.control.evaluate.control_cell` builds one system and
    resets it before each of its passes, never reusing one from the
    per-process memo, so the cell is a pure function of its spec —
    bit-identical across worker counts.
    """
    from repro.control.evaluate import control_cell

    p = spec.payload
    return control_cell(
        p["system"], p["config"], p["scenario"], p["controller"],
        workload_config=p.get("workload_config"),
        requests=p.get("requests", 64),
        qps=p.get("qps", 2000.0),
        serve_config=p.get("serve_config"),
    )


def _partition(spec: RunSpec):
    """One flat cut of a graph -> its assignment array.

    :func:`repro.cluster.hierarchical_partition` fans its per-server
    inner cuts out as these; ``spec.seed`` is the cut's seed.
    """
    from repro.cluster.partition import _cut

    p = spec.payload
    return _cut(p["graph"], p["num_parts"], p["method"], spec.seed).assignment


register_handler("serve_point", _serve_point)
register_handler("epoch", _epoch)
register_handler("chaos_scenario", _chaos_scenario)
register_handler("control_cell", _control_cell)
register_handler("partition", _partition)


# ----------------------------------------------------------------------
# the executor
# ----------------------------------------------------------------------
def _execute(spec: RunSpec):
    try:
        handler = _HANDLERS[spec.kind]
    except KeyError:
        raise ConfigError(
            f"unknown run kind {spec.kind!r}; registered: "
            f"{sorted(_HANDLERS)}"
        ) from None
    return handler(spec)


def _execute_safe(spec: RunSpec) -> tuple[bool, Any]:
    """Run one spec; never raises.  Returns ``(ok, result-or-traceback)``
    so a child failure crosses the process boundary as a string."""
    try:
        return True, _execute(spec)
    except BaseException:  # noqa: BLE001 - resurfaced via WorkerError
        return False, traceback.format_exc()


def _mp_context():
    """Fork when the platform offers it (children inherit the parent's
    warm dataset/partition caches); spawn otherwise."""
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context(
        "fork" if "fork" in methods else "spawn"
    )


def _reset_worker_state() -> None:
    """Pool initializer: drop systems adopted in (and, under fork,
    inherited from) the parent so workers always build fresh from the
    run spec's config — the determinism contract is
    ``result = f(spec)``, never ``f(spec, parent state)``."""
    _SYSTEM_CACHE.clear()


def run_tasks(specs, workers: int = 1) -> list:
    """Execute independent run specs; results come back in spec order.

    ``workers <= 1`` runs inline (same handlers, same process);
    ``workers > 1`` fans out over a process pool of at most
    ``min(workers, len(specs))`` workers.  The first failing task
    raises :class:`WorkerError` carrying the child traceback; remaining
    futures are cancelled by pool shutdown.
    """
    specs = list(specs)
    if not specs:
        return []
    if workers is None or workers <= 1 or len(specs) == 1:
        outcomes = [_execute_safe(s) for s in specs]
    else:
        try:
            with ProcessPoolExecutor(
                max_workers=min(workers, len(specs)),
                mp_context=_mp_context(),
                initializer=_reset_worker_state,
            ) as pool:
                outcomes = list(pool.map(_execute_safe, specs))
        except BrokenProcessPool as err:
            raise WorkerError(
                f"a worker process died abruptly while running "
                f"{len(specs)} task(s): {err}"
            ) from err
    results = []
    for spec, (ok, value) in zip(specs, outcomes):
        if not ok:
            raise WorkerError(
                f"run {spec.label!r} ({spec.kind}) failed in a worker:\n"
                f"{value}",
                label=spec.label,
                child_traceback=value,
            )
        results.append(value)
    return results
