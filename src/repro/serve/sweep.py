"""QPS sweep driver: offered load vs latency, and the saturation knee.

Replays one :class:`~repro.serve.workload.Workload` at a ladder of
offered loads (the same arrival pattern, time-compressed — common
random numbers) and reports, per point, the full SLO accounting.  The
*knee* is the largest offered QPS the server sustains: p99 latency
within the SLO and (at most) a token shed rate.  Comparing knees across
systems is the serving analogue of Table 4 — DSP's partitioned cache +
CSP sampling buy it a strictly higher sustainable QPS than Pull-Data
or UVA data movement at the same SLO.

:func:`serve_once` is the one serving-point runner: a single server by
default, or — through ``replicas=`` — a stream split across routed
(:class:`~repro.cluster.RouterConfig`) or autoscaled
(:class:`~repro.control.AutoscaleConfig`) replicas.  Every serving pass
— a point, a replica's sub-stream, a chaos or control cell's pass — is
one :func:`serve_stream` call.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.serve.service import GNNServer, ServeConfig
from repro.serve.stats import ServeReport, build_report
from repro.serve.workload import Workload
from repro.utils.errors import ConfigError


@dataclass(frozen=True)
class SweepPoint:
    """One offered load and the report the server produced under it."""

    qps: float
    report: ServeReport


def serve_stream(system, requests, qps, config, tracer=None, metrics=False,
                 metrics_window_s=None, injector=None):
    """Reset ``system`` to its point baseline and serve ``requests`` on
    one fresh :class:`GNNServer` (the only one built anywhere), under
    ``injector``'s faults when given; returns ``(server, report)`` with
    ``report.metrics`` filled when ``metrics`` is set."""
    system.reset_point()
    invariants = None
    if config.check_invariants:
        from repro.chaos.invariants import InvariantChecker

        invariants = InvariantChecker()
    registry = None
    if metrics:
        from repro.metrics import MetricsRegistry

        registry = MetricsRegistry(
            window_s=(metrics_window_s if metrics_window_s is not None
                      else config.slo_s)
        )
    server = GNNServer(system, config, tracer=tracer, metrics=registry,
                       injector=injector, invariants=invariants)
    report = server.run(requests, offered_qps=qps)
    if invariants is not None:
        invariants.finalize()
    if registry is not None:
        from repro.metrics import serve_summary

        report.metrics = serve_summary(registry, report.slo_s)
    return server, report


def serve_once(
    system,
    workload: Workload,
    qps: float,
    config: ServeConfig | None = None,
    tracer=None,
    metrics: bool = False,
    metrics_window_s: float | None = None,
    replicas=None,
) -> ServeReport:
    """Serve ``workload`` at one offered QPS; the system is reset to
    its point baseline first (:meth:`TrainingSystem.reset_point`) so
    points of a sweep are independent and reproducible.

    With ``config.check_invariants`` the run is audited by an
    :class:`~repro.chaos.InvariantChecker` (strict: a broken simulation
    raises instead of producing a subtly wrong report); the report
    itself is bit-identical with the checker on or off.

    ``metrics=True`` attaches a
    :class:`~repro.metrics.MetricsRegistry` (window =
    ``metrics_window_s``, defaulting to the SLO) and fills
    ``report.metrics`` with the windowed SLO/stage/queue/cache summary
    (:func:`repro.metrics.serve_summary`).  Window boundaries are pure
    functions of simulated time, so the summary is byte-identical
    whichever worker runs the point.  With ``metrics=False`` the report
    is bit-identical to one produced before the metrics layer existed.

    ``replicas`` (a :class:`~repro.cluster.RouterConfig` or
    :class:`~repro.control.AutoscaleConfig`) splits the request stream
    across serving replicas through its ``split`` method.  Each
    replica's sub-stream runs through a freshly reset
    :class:`GNNServer` and the records merge back in arrival order into
    one report: ``report.metrics`` holds the summed SLO accounting plus
    each replica's summary under ``"replicas"``, and ``report.control``
    each replica's tuner log (with a controller) next to the splitter's
    own entry (the autoscaler's action log).  ``None`` — or a split
    that declines, like a one-replica router — serves unsplit.
    """
    cfg = config if config is not None else ServeConfig()
    requests = workload.requests(qps)
    split = (None if replicas is None
             else replicas.split(system, requests, qps, cfg.check_invariants))
    if split is None:
        return serve_stream(system, requests, qps, cfg, tracer, metrics,
                            metrics_window_s)[1]
    if tracer is not None:
        raise ConfigError(
            "tracing a replicated run is ambiguous — trace one replica "
            "by serving its sub-stream without replicas instead"
        )
    replica_ids, assign, control = split
    merged = {}
    num_batches = 0
    hits = done = 0
    summaries = []
    controls = []
    for rep in replica_ids:
        sub = [r for r, a in zip(requests, assign) if a == rep]
        if not sub:
            summaries.append(None)
            controls.append(None)
            continue
        server, rep_report = serve_stream(system, sub, qps, cfg, None,
                                          metrics, metrics_window_s)
        summaries.append(rep_report.metrics)
        controls.append(rep_report.control)
        for rec in server.last_records:
            merged[rec.rid] = rec
        num_batches += server.last_num_batches
        acc = server.last_accuracy
        n_done = sum(1 for r in server.last_records
                     if not r.shed and r.prediction is not None)
        if n_done and not np.isnan(acc):
            hits += acc * n_done
            done += n_done

    ordered = [merged[r.rid] for r in requests]
    accuracy = hits / done if done else float("nan")
    report = build_report(system.name, qps, cfg.slo_s, ordered, num_batches,
                          accuracy=accuracy)
    if metrics:
        present = [s for s in summaries if s is not None]
        report.metrics = {
            "window_ms": present[0]["window_ms"] if present else None,
            "slo": {
                "slo_minutes_violated": sum(
                    s["slo"]["slo_minutes_violated"] for s in present
                ),
                "windows": [],
            },
            "replicas": summaries,
        }
    control = dict(control or {})
    if cfg.controller is not None:
        # each replica ran its own tuner instance over its sub-stream
        control["replicas"] = controls
    if control:
        report.control = control
    if cfg.tenancy is not None:
        from repro.control.tenancy import tenant_summary

        report.tenants = tenant_summary(ordered, cfg.slo_s)
    return report


def qps_sweep(
    system,
    workload: Workload,
    qps_values,
    config: ServeConfig | None = None,
    workers: int = 1,
    trace_base=None,
    metrics: bool = False,
    metrics_window_s: float | None = None,
    warm_nodes=None,
    replicas=None,
) -> list[SweepPoint]:
    """Serve the workload at each offered load, in increasing order.

    Every point is an independent run (``serve_once`` resets the
    system first), so with ``workers > 1`` the points fan out across CPU
    cores via :mod:`repro.parallel`; results are bit-identical to the
    serial sweep because both paths call the same module-level point
    function — the worker count only decides which process calls it.
    With ``workers <= 1`` the caller's already-built system is reused
    (adopted into the executor's per-process memo); workers build their
    own copy from the system's name and config.

    ``trace_base`` (a path like ``"sweep.json"``) makes each point
    record a :class:`~repro.obs.Tracer` and write its own Chrome trace
    named per run (``sweep-qps2000.json``, ...).

    ``metrics=True`` attaches a windowed metrics registry per point
    (see :func:`serve_once`); the summaries ride on each report and are
    byte-identical across ``workers`` settings.

    ``replicas`` serves every point split across replicas (see
    :func:`serve_once`); tracing such a point is rejected.

    ``warm_nodes`` (renumbered node ids) seeds the dynamic cache policy
    from workload history *inside each executing process*, exactly once
    — worker processes rebuild the system from its config, so warmup
    applied only to the caller's system would make results depend on
    which process served a point.  This holds in every ``replicas``
    mode.  Ignored when the system has no dynamic policy.
    """
    from repro.obs.export import run_trace_path
    from repro.parallel import RunSpec, adopt_system, run_tasks

    values = sorted(float(q) for q in qps_values)
    if not values:
        raise ConfigError("need at least one QPS value")
    specs = [
        RunSpec(_serve_point, f"qps{q:g}", {
            "system_name": system.name,
            "config": system.config,
            "workload": workload,
            "qps": q,
            "serve_config": config,
            "metrics": metrics,
            "metrics_window_s": metrics_window_s,
            "warm_nodes": warm_nodes,
            "replicas": replicas,
            "trace_path": (run_trace_path(trace_base, f"qps{q:g}")
                           if trace_base else None),
        })
        for q in values
    ]
    if workers <= 1:
        adopt_system(system)
    reports = run_tasks(specs, workers=workers)
    return [
        SweepPoint(qps=q, report=r) for q, r in zip(values, reports)
    ]


def _serve_point(system_name, config, workload, qps, serve_config,
                 metrics, metrics_window_s, warm_nodes, replicas,
                 trace_path) -> ServeReport:
    """One point of :func:`qps_sweep`, as a :mod:`repro.parallel` run.

    Serves on the executing process's memoized system
    (:func:`repro.parallel.shared_system`); ``serve_once`` resets it
    and is called once per point through its module-global name, so a
    wrapper around that attribute sees every point.  ``trace_path``
    records the point with a :class:`~repro.obs.Tracer` and writes its
    Chrome trace there.
    """
    from repro.parallel import shared_system

    system = shared_system(system_name, config)
    if warm_nodes is not None:
        # once per process: the warmed placement becomes the baseline
        # every serving point resets to, whichever worker executes it
        system.warm_cache(warm_nodes)
    tracer = None
    if trace_path:
        from repro.obs import Tracer

        tracer = Tracer()
    report = serve_once(system, workload, qps, serve_config, tracer=tracer,
                        metrics=metrics, metrics_window_s=metrics_window_s,
                        replicas=replicas)
    if tracer is not None:
        from repro.obs import write_chrome_trace

        write_chrome_trace(tracer, trace_path)
    return report


def max_sustainable_qps(
    points: list[SweepPoint],
    slo_s: float | None = None,
    shed_tol: float = 0.01,
) -> float:
    """The knee: largest offered QPS with p99 <= SLO and shed rate <=
    ``shed_tol`` (0.0 when no point qualifies)."""
    best = 0.0
    for p in points:
        slo = p.report.slo_s if slo_s is None else slo_s
        if p.report.completed == 0:
            continue
        if p.report.p99 <= slo and p.report.shed_rate <= shed_tol:
            best = max(best, p.qps)
    return best
