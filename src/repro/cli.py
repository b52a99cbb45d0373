"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``train``    train one system and print per-epoch metrics
``compare``  run several systems on one workload (Table 4 style)
``info``     show datasets, systems and the simulated hardware
``infer``    train then run distributed full-graph inference
``serve``    online inference serving: QPS sweep, SLO accounting, knee
``trace``    run one traced epoch; write a Chrome trace, print stalls
``chaos``    deterministic fault-injection scenarios -> resilience report
``control``  controller-on vs static SLO-minutes matrix -> verdict
``report``   merge saved serve/chaos/trace artifacts into one HTML report
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.bench.harness import TABLE_SYSTEMS
from repro.core import RunConfig, SYSTEMS, build_system
from repro.core.metrics import metrics_dict as _metrics_dict, scrub_nan
from repro.graph import DATASET_SPECS
from repro.utils import fmt_bytes, fmt_time
from repro.utils.errors import ConfigError


def _fail(message: str) -> int:
    """One-line operator-facing error on stderr; exit status 1."""
    print(f"error: {message}", file=sys.stderr)
    return 1


def _control_figures(control: dict | None) -> tuple[int, int]:
    """(total controller actions, final replica count) from any of the
    three ``report.control`` shapes: single-server tuner summary,
    router ``{"replicas": [...]}``, autoscaler ``{"autoscale": ...}``."""
    if not control:
        return 0, 1
    actions = 0
    replicas = 1
    tuners = control.get("replicas", [control] if "action_counts" in control
                         else [])
    for t in tuners:
        if t:
            actions += sum(t.get("action_counts", {}).values())
    replicas = max(replicas, len(tuners))
    auto = control.get("autoscale")
    if auto:
        actions += len(auto.get("actions", ()))
        replicas = auto.get("final_replicas", replicas)
    return actions, replicas


def _add_workload_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--dataset", default="products", choices=sorted(DATASET_SPECS))
    p.add_argument("--gpus", type=int, default=8)
    p.add_argument("--num-nodes", type=int, default=1,
                   help="servers in the cluster (default 1; >1 needs a "
                        "DSP-family system, see docs/cluster.md)")
    p.add_argument("--nic", default="ethernet",
                   choices=["ethernet", "infiniband"],
                   help="cross-server NIC model (default ethernet)")
    p.add_argument("--model", default="sage", choices=["sage", "gcn", "gat"])
    p.add_argument("--hidden", type=int, default=256)
    p.add_argument("--batch-size", type=int, default=32)
    p.add_argument("--fanout", default="15,10,5",
                   help="comma-separated per-layer fan-out")
    p.add_argument("--lr", type=float, default=3e-3)
    p.add_argument("--dynamic-cache", action="store_true",
                   help="access-frequency cache promotion/demotion on "
                        "top of the static layout (DSP family; see "
                        "docs/caching.md)")
    p.add_argument("--cache-window", type=int, default=8,
                   help="loader calls per dynamic rebalance window "
                        "(default 8)")
    p.add_argument("--cache-ewma", type=float, default=0.5,
                   help="EWMA weight of the newest window (default 0.5)")
    p.add_argument("--cache-prefetch", type=int, default=32,
                   help="max frontier-prefetch promotions per patch per "
                        "load, 0 = off (default 32)")
    p.add_argument("--cache-bias", type=float, default=0.0,
                   help="GNS-style sampling bias toward cached nodes "
                        "(default 0 = off, bit-identical sampling)")
    p.add_argument("--compress", default="none",
                   choices=["none", "fp16", "int8"],
                   help="cold-path feature codec: non-local rows travel "
                        "compressed and decode on arrival (default none)")
    p.add_argument("--cache-bytes", type=float, default=None,
                   help="per-GPU feature cache budget in bytes (default: "
                        "whatever fits device memory)")
    p.add_argument("--seed", type=int, default=0)


def _add_serve_args(p: argparse.ArgumentParser, arrival: str) -> None:
    """The batcher and request-stream flags ``serve`` and ``control``
    share; ``arrival`` is the command's default arrival process."""
    p.add_argument("--requests", type=int, default=256,
                   help="requests per sweep point or cell (default 256)")
    p.add_argument("--slo-ms", type=float, default=5.0,
                   help="p99 latency SLO in milliseconds (default 5)")
    p.add_argument("--batch-max", type=int, default=16,
                   help="dynamic batch size cap (default 16)")
    p.add_argument("--batch-timeout-ms", type=float, default=1.0,
                   help="dynamic batch max-wait in ms (default 1)")
    p.add_argument("--queue-capacity", type=int, default=64,
                   help="per-GPU admission queue bound (default 64)")
    p.add_argument("--arrival", default=arrival,
                   choices=["poisson", "bursty", "diurnal"])
    p.add_argument("--skew", type=float, default=0.8,
                   help="Zipf popularity exponent for seed nodes")
    p.add_argument("--drift-phases", type=int, default=1,
                   help="popularity-drift phases: the Zipf hot set "
                        "permutes this many times over the request "
                        "stream (default 1 = stationary)")


def _add_workers_arg(p: argparse.ArgumentParser, task: str) -> None:
    p.add_argument("--workers", type=int, default=1,
                   help=f"worker processes, one task per {task} "
                        "(default 1 = serial; results are bit-identical)")


def _add_output_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--json", action="store_true")
    p.add_argument("--out", metavar="PATH",
                   help="write the JSON to PATH instead of stdout")


def _fanout(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(f) for f in text.split(","))
    except ValueError:
        raise ConfigError(
            f"--fanout expects comma-separated integers, got {text!r}"
        ) from None


def _at_least(minimum: int, *counts: tuple[str, int]) -> None:
    """Reject any ``(flag, count)`` below ``minimum``, naming both."""
    for flag, count in counts:
        if count < minimum:
            raise ConfigError(
                f"{flag} expects a count >= {minimum}, got {count}"
            )


def _check_qps(values, text: str) -> None:
    """Every offered load must be a positive finite rate."""
    if not all(0.0 < q < float("inf") for q in values):
        raise ConfigError(
            f"--qps expects positive finite offered loads, got {text!r}"
        )


def _systems(args, default=()) -> list[str]:
    """``--systems`` as a list of names, ``default`` when empty; an
    unknown name fails here, before any task reaches a worker."""
    names = [s for s in args.systems.split(",") if s] or list(default)
    for name in names:
        if name not in SYSTEMS:
            raise ConfigError(
                f"--systems: unknown system {name!r}; "
                f"available: {', '.join(sorted(SYSTEMS))}"
            )
    return names


def _config(args) -> RunConfig:
    return RunConfig(
        dataset=args.dataset,
        num_gpus=args.gpus,
        num_nodes=args.num_nodes,
        nic=args.nic,
        model=args.model,
        hidden_dim=args.hidden,
        batch_size=args.batch_size,
        fanout=_fanout(args.fanout),
        lr=args.lr,
        dynamic_cache=args.dynamic_cache,
        cache_window=args.cache_window,
        cache_ewma=args.cache_ewma,
        cache_prefetch=args.cache_prefetch,
        cache_bias=args.cache_bias,
        compress=args.compress,
        feature_cache_bytes=args.cache_bytes,
        seed=args.seed,
    )


def _controller_config(args, max_pressure: int = 0):
    from repro.control import ControllerConfig

    return ControllerConfig(
        interval_s=(args.control_interval_ms * 1e-3
                    if args.control_interval_ms is not None else None),
        max_pressure=max_pressure,
    )


def _serve_config(args, **extra):
    from repro.serve import ServeConfig

    return ServeConfig(
        batch_max=args.batch_max,
        batch_timeout_s=args.batch_timeout_ms * 1e-3,
        queue_capacity=args.queue_capacity,
        slo_s=args.slo_ms * 1e-3,
        **extra,
    )


def _workload_config(args):
    from repro.serve import WorkloadConfig

    _at_least(1, ("--requests", args.requests),
              ("--drift-phases", args.drift_phases))
    if not args.skew >= 0:
        raise ConfigError(f"--skew expects an exponent >= 0, got {args.skew:g}")
    return WorkloadConfig(
        num_requests=args.requests,
        arrival=args.arrival,
        skew=args.skew,
        drift_phases=args.drift_phases,
        seed=args.seed,
    )


def cmd_train(args) -> int:
    """``repro train``: train one system, print per-epoch metrics."""
    cfg = _config(args)
    system = build_system(args.system, cfg)
    rows = []
    print(f"{'epoch':>5} {'loss':>9} {'val acc':>8} {'epoch time':>12} "
          f"{'NVLink':>10} {'PCIe':>10}")
    for epoch in range(args.epochs):
        m = system.run_epoch(functional=not args.cost_only)
        rows.append(m)
        print(f"{epoch:>5} {m.loss:>9.4f} {m.val_accuracy:>8.2%} "
              f"{fmt_time(m.epoch_time):>12} {fmt_bytes(m.nvlink_bytes):>10} "
              f"{fmt_bytes(m.pcie_bytes):>10}")
    if args.json or args.out:
        _emit_json([_metrics_dict(m) for m in rows], args)
    return 0


def cmd_compare(args) -> int:
    """``repro compare``: Table-4-style system comparison.

    With ``--workers N`` each system's measured epoch runs in its own
    worker process (one task per system, :mod:`repro.parallel`); the
    printed table and JSON are bit-identical to a serial run.
    """
    from repro.bench.harness import compare_epochs

    cfg = _config(args)
    systems = _systems(args, default=TABLE_SYSTEMS)
    _at_least(1, ("--batches", args.batches), ("--workers", args.workers))
    out = compare_epochs(
        systems, cfg, max_batches=args.batches, workers=args.workers
    )
    print(f"{'system':<10} {'epoch':>12} {'sample':>12} {'load':>12} "
          f"{'train':>12}")
    for name, m in out.items():
        print(f"{name:<10} {fmt_time(m.epoch_time):>12} "
              f"{fmt_time(m.sample_time):>12} {fmt_time(m.load_time):>12} "
              f"{fmt_time(m.train_time):>12}")
    if args.json or args.out:
        _emit_json({n: _metrics_dict(m) for n, m in out.items()}, args)
    return 0


def cmd_info(args) -> int:
    """``repro info``: list datasets, systems and the hardware model."""
    from repro.hw import Topology
    from repro.utils import GB

    print("datasets:")
    for name, spec in DATASET_SPECS.items():
        print(f"  {name:<12} {spec.num_nodes:>8} nodes {spec.num_edges:>9} "
              f"edges  dim {spec.feature_dim:>3}  scale {spec.scale:7.1f}")
    print("\nsystems:", ", ".join(sorted(SYSTEMS)))
    print("\nDGX-1 model (Table 1):")
    for k in (1, 2, 4, 8):
        t = Topology.dgx1(k)
        print(f"  {k}-GPU: NVLink {t.aggregate_nvlink_bandwidth() / GB:6.0f} "
              f"GB/s, PCIe {t.aggregate_pcie_bandwidth() / GB:4.0f} GB/s")
    return 0


def cmd_infer(args) -> int:
    """``repro infer``: train briefly, then full-graph inference."""
    from repro.core.inference import full_graph_inference
    from repro.nn import accuracy

    cfg = _config(args)
    system = build_system(args.system, cfg)
    rows = []
    for epoch in range(args.epochs):
        m = system.run_epoch()
        rows.append(m)
        print(f"epoch {epoch}: loss {m.loss:.4f} val {m.val_accuracy:.2%}")
    preds, trace = full_graph_inference(system)
    t = system.engine.stage_time(trace)
    test = system.data.test_nodes
    acc = accuracy(preds[test], system.data.labels[test])
    print(f"full-graph inference: test accuracy {acc:.2%}, "
          f"simulated time {fmt_time(t)}")
    if args.json or args.out:
        _emit_json(
            {
                "epochs": [_metrics_dict(m) for m in rows],
                "inference": {
                    "test_accuracy": scrub_nan(acc),
                    "simulated_time_s": scrub_nan(t),
                },
            },
            args,
        )
    return 0


def cmd_serve(args) -> int:
    """``repro serve``: online serving sweep with SLO accounting."""
    import numpy as np

    from repro.serve import make_workload, max_sustainable_qps, qps_sweep

    cfg = _config(args)
    try:
        qps_values = [float(q) for q in args.qps.split(",")]
    except ValueError:
        raise ConfigError(
            f"--qps expects comma-separated numbers, got {args.qps!r}"
        ) from None
    _check_qps(qps_values, args.qps)
    window = args.metrics_window_ms
    if window is not None and not 0.0 < window < float("inf"):
        raise ConfigError(f"--metrics-window-ms expects a positive width, got {window:g}")
    _at_least(0, ("--tenants", args.tenants),
              ("--cache-warmup", args.cache_warmup))
    _at_least(1, ("--workers", args.workers))
    if args.cache_warmup and not args.dynamic_cache:
        raise ConfigError(
            f"--cache-warmup {args.cache_warmup} needs --dynamic-cache"
        )
    tenancy = None
    if args.tenants > 0:
        from repro.control import TenancyConfig

        tenancy = TenancyConfig.uniform(args.tenants, seed=args.seed)
    controller = None
    if args.controller:
        controller = _controller_config(
            args, max_pressure=tenancy.max_priority() if tenancy else 0
        )
    serve_cfg = _serve_config(
        args,
        functional=args.functional,
        check_invariants=args.invariants,
        controller=controller,
        tenancy=tenancy,
    )
    wl_cfg = _workload_config(args)
    systems = _systems(args)
    if args.scale_max > 1 and args.num_replicas != 1:
        return _fail("--scale-max replaces the fixed --num-replicas router; "
                     "use one or the other")
    replicas = None
    if args.scale_max > 1:
        from repro.control import AutoscaleConfig

        replicas = AutoscaleConfig(
            min_replicas=args.scale_min,
            max_replicas=args.scale_max,
            target_qps_per_replica=args.target_qps_per_replica,
        )
    elif args.num_replicas != 1:
        from repro.cluster import RouterConfig

        replicas = RouterConfig(num_replicas=args.num_replicas,
                                policy=args.routing, seed=args.seed)
    if replicas is not None and args.trace_base:
        return _fail("--trace-base is ambiguous with replicated or "
                     "autoscaled serving; trace a single replica instead")
    workload = None
    payload: dict = {
        "slo_ms": args.slo_ms,
        "num_nodes": args.num_nodes,
        "num_replicas": args.num_replicas,
        "routing": args.routing,
        "systems": {},
    }
    slo_col = f" {'SLO min':>8}" if args.metrics else ""
    act_col = (f" {'actions':>7} {'repl':>4}"
               if args.controller or args.scale_max > 1 else "")
    print(f"{'system':<10} {'offered':>10} {'p50':>10} {'p99':>10} "
          f"{'goodput':>10} {'shed':>6} {'batch':>6}{slo_col}{act_col}")
    knees = {}
    for name in systems:
        system = build_system(name, cfg)
        if workload is None:
            workload = make_workload(
                wl_cfg, np.arange(system.base_dataset.num_nodes)
            )
        warm_nodes = None
        if args.cache_warmup > 0:
            hist = workload.nodes[: args.cache_warmup]
            numbering = getattr(system, "numbering", None)
            if numbering is not None:
                hist = numbering.old_to_new[hist]
            promoted = system.warm_cache(hist)
            if promoted is not None:
                warm_nodes = hist
                print(f"{name}: warmed dynamic cache from "
                      f"{len(hist)} requests ({promoted} rows promoted)")
        trace_base = None
        if args.trace_base:
            from repro.obs import run_trace_path

            trace_base = run_trace_path(args.trace_base, name)
        metrics_window_s = (
            args.metrics_window_ms * 1e-3
            if args.metrics_window_ms is not None else None
        )
        points = qps_sweep(
            system, workload, qps_values, serve_cfg,
            workers=args.workers, trace_base=trace_base,
            metrics=args.metrics, metrics_window_s=metrics_window_s,
            warm_nodes=warm_nodes, replicas=replicas,
        )
        for p in points:
            r = p.report
            line = (f"{name:<10} {p.qps:>10.0f} {fmt_time(r.p50):>10} "
                    f"{fmt_time(r.p99):>10} {r.goodput_qps:>8.0f}/s "
                    f"{r.shed_rate:>6.1%} {r.mean_batch_size:>6.1f}")
            if args.metrics and r.metrics is not None:
                line += f" {r.metrics['slo']['slo_minutes_violated']:>8.4f}"
            if act_col:
                actions, n_replicas = _control_figures(r.control)
                line += f" {actions:>7} {n_replicas:>4}"
            print(line)
        knees[name] = max_sustainable_qps(points)
        payload["systems"][name] = {
            "points": [p.report.to_dict() for p in points],
            "max_sustainable_qps": knees[name],
        }
    print(f"\nmax sustainable QPS (p99 <= {args.slo_ms:g}ms, "
          "shed <= 1%):")
    for name, knee in knees.items():
        print(f"  {name:<10} {knee:>10.0f}")
    if args.json or args.out:
        _emit_json(payload, args)
    return 0


def cmd_trace(args) -> int:
    """``repro trace``: one traced epoch -> Chrome trace + stall report.

    Runs the system cost-only with a :class:`repro.obs.Tracer`
    attached, writes the Chrome trace-event JSON (open it in Perfetto
    or ``chrome://tracing``), optionally a plain-text timeline, and
    prints the per-GPU busy/stall breakdown and the epoch's critical
    path (see ``docs/observability.md``).
    """
    from repro.obs import (
        Tracer,
        critical_path,
        format_breakdown,
        format_critical_path,
        stall_breakdown,
        to_text,
        write_chrome_trace,
    )
    from repro.utils import DeadlockError

    cfg = _config(args)
    _at_least(1, ("--batches", args.batches))
    system = build_system(args.system, cfg)
    tracer = Tracer()
    deadlock = None
    try:
        system.run_epoch(max_batches=args.batches, functional=False,
                         tracer=tracer)
    except DeadlockError as err:
        deadlock = err  # the trace up to the deadlock is still valid
    try:
        write_chrome_trace(tracer, args.out)
        print(f"wrote {args.out} ({len(tracer)} events; load in Perfetto "
              "or chrome://tracing)")
        if args.text:
            with open(args.text, "w") as f:
                f.write(to_text(tracer))
            print(f"wrote {args.text}")
    except OSError as err:
        return _fail(f"cannot write trace: {err}")

    total = tracer.end_time()
    print(f"\n{args.system} on {args.dataset}, {args.gpus} GPU(s), "
          f"{args.batches} batch(es), {total:.6f}s simulated")
    print(format_breakdown(stall_breakdown(tracer, total, args.gpus), total))
    print()
    print(format_critical_path(critical_path(tracer)))
    pc = getattr(system.loader, "plan_cache", None)
    if pc is not None:
        from repro.obs import format_plan_cache

        print()
        print(format_plan_cache(pc.stats()))
    if deadlock is not None:
        stuck = [ev for ev in tracer.spans() if ev.args.get("unresolved")]
        print(f"\nDEADLOCK after {total:.6f}s — {len(stuck)} unresolved "
              "stall span(s):")
        for ev in sorted(stuck, key=lambda e: e.track):
            print(f"  {ev.track:<20} {ev.cat:<16} {ev.name} "
                  f"(blocked since {ev.start:.6f}s)")
        print(f"cause: {deadlock}")
        return 1
    return 0


def cmd_chaos(args) -> int:
    """``repro chaos``: run the fault-injection scenario suite.

    Executes the ``systems x scenarios`` matrix (each cell: fault-free
    baseline pass, then the scenario's :class:`~repro.chaos.FaultPlan`
    with the injector, CCC watchdog and invariant checker armed),
    prints the resilience table and optionally emits the JSON report.
    The report is deterministic: same config, same seed, any
    ``--workers`` -> byte-identical JSON (see ``docs/robustness.md``).

    Exit code 1 iff any run violated a simulation invariant — stalls
    from crash scenarios are *findings*, not harness failures.
    """
    from repro.chaos.scenarios import (
        SCENARIOS,
        format_report,
        resilience_report,
    )
    cfg = _config(args)
    systems = _systems(args)
    _at_least(1, ("--batches", args.batches), ("--requests", args.requests),
              ("--workers", args.workers))
    _check_qps([args.qps], f"{args.qps:g}")
    if cfg.num_nodes > 1:
        multinode = [s for s in systems if SYSTEMS[s].multinode]
        dropped = sorted(set(systems) - set(multinode))
        if dropped:
            print(f"note: skipping single-server systems on "
                  f"{cfg.num_nodes} nodes: {', '.join(dropped)}")
        systems = multinode
        if not systems:
            return _fail("no system in --systems supports --num-nodes > 1")
    scenarios = (
        [s for s in args.scenarios.split(",") if s]
        if args.scenarios else sorted(SCENARIOS)
    )
    controller = _controller_config(args) if args.controller else None
    payload = resilience_report(
        systems,
        scenarios,
        cfg,
        max_batches=args.batches,
        requests=args.requests,
        qps=args.qps,
        workers=args.workers,
        controller=controller,
    )
    print(format_report(payload))
    if args.json or args.out:
        _emit_json(payload, args)
    return 0 if payload["summary"]["invariant_violations"] == 0 else 1


def cmd_control(args) -> int:
    """``repro control``: controller-on vs static SLO-minutes matrix.

    Every cell serves the same workload under the same
    :class:`~repro.chaos.FaultPlan` twice — static knobs, then with
    the :class:`~repro.control.ServeController` closing the loop — and
    compares "SLO minutes violated".  The matrix is byte-identical
    across ``--workers`` (see ``docs/control.md``).

    Exit code 1 iff any cell regressed (controller strictly worse than
    its static configuration).
    """
    from repro.control import (
        CORE_SCENARIOS,
        control_matrix,
        format_control_matrix,
    )

    cfg = _config(args)
    scenarios = ([s for s in args.scenarios.split(",") if s]
                 if args.scenarios else list(CORE_SCENARIOS))
    _at_least(1, ("--workers", args.workers))
    _check_qps([args.qps], f"{args.qps:g}")
    label = args.arrival if args.drift_phases <= 1 else (
        f"{args.arrival}+drift{args.drift_phases}"
    )
    payload = control_matrix(
        args.system, cfg, _controller_config(args),
        scenarios=scenarios,
        workload_configs={label: _workload_config(args)},
        qps=args.qps,
        serve_config=_serve_config(args),
        workers=args.workers,
    )
    print(format_control_matrix(payload))
    if args.json or args.out:
        _emit_json(payload, args)
    return 0 if payload["summary"]["regressed"] == 0 else 1


def cmd_report(args) -> int:
    """``repro report``: one self-contained HTML artifact.

    Merges saved run outputs — a ``repro serve --metrics --out`` sweep
    (or a single :class:`~repro.serve.stats.ServeReport` dict), a
    ``repro chaos --out`` resilience report, and a Chrome trace from
    ``repro trace`` — into a single HTML file with windowed SLO/latency
    timelines, the chaos matrix with its "SLO minutes violated" column,
    and the stall-breakdown / critical-path text analyses.  Rendering
    is deterministic: the same inputs produce byte-identical HTML.

    Bad inputs (missing files, corrupt JSON, a file that is not a
    Chrome trace) exit with a one-line error and status 1.
    """
    from repro.metrics import write_report

    def load(path):
        with open(path) as f:
            return json.load(f)

    serve_sections: list[dict] = []
    chaos_payload = None
    trace_sections: list[tuple[str, str]] = []
    try:
        if args.serve:
            data = load(args.serve)
            if isinstance(data, dict) and isinstance(
                    data.get("systems"), dict):
                # sweep payload: one section per system, preferring the
                # highest offered load that carries a metrics summary
                for name, entry in data["systems"].items():
                    points = [p for p in entry.get("points", ())
                              if isinstance(p, dict)]
                    with_metrics = [p for p in points if p.get("metrics")]
                    serve_sections.extend((with_metrics or points)[-1:])
            elif isinstance(data, dict):
                serve_sections.append(data)
        if args.chaos:
            chaos_payload = load(args.chaos)
        if args.trace:
            from repro.obs import (
                critical_path,
                format_breakdown,
                format_critical_path,
                format_plan_cache,
                plan_cache_stats,
                read_chrome_trace,
                stall_breakdown,
            )
            from repro.obs.analysis import track_gpu

            tracer = read_chrome_trace(args.trace)
            total = tracer.end_time()
            gpus = 1 + max(
                (g for g in (track_gpu(ev.track) for ev in tracer.events)
                 if g is not None),
                default=0,
            )
            trace_sections.append((
                "Stall breakdown",
                format_breakdown(
                    stall_breakdown(tracer, total, gpus), total
                ),
            ))
            trace_sections.append(
                ("Critical path", format_critical_path(critical_path(tracer)))
            )
            pc = plan_cache_stats(tracer)
            if pc is not None:
                trace_sections.append(("Plan cache", format_plan_cache(pc)))
    except FileNotFoundError as err:
        return _fail(f"{err.filename}: no such file")
    except json.JSONDecodeError as err:
        return _fail(f"corrupt JSON input: {err}")
    try:
        write_report(
            args.out,
            serve=serve_sections or None,
            chaos=chaos_payload,
            trace_sections=trace_sections or None,
            title=args.title,
        )
    except OSError as err:
        return _fail(f"cannot write report: {err}")
    print(f"wrote {args.out} ({len(serve_sections)} serve section(s), "
          f"chaos {'yes' if chaos_payload else 'no'}, "
          f"{len(trace_sections)} trace section(s))")
    return 0


def _emit_json(payload, args) -> None:
    """Write ``payload`` to ``--out`` when given, else to stdout."""
    if getattr(args, "out", None):
        with open(args.out, "w") as f:
            json.dump(payload, f, indent=2)
            f.write("\n")
        print(f"wrote {args.out}")
    else:
        json.dump(payload, sys.stdout, indent=2)
        print()


def build_parser() -> argparse.ArgumentParser:
    """Construct the argparse tree (exposed for tests)."""
    parser = argparse.ArgumentParser(
        prog="repro", description="DSP (PPoPP'23) reproduction toolkit"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="train one system")
    _add_workload_args(p)
    p.add_argument("--system", default="DSP", choices=sorted(SYSTEMS))
    p.add_argument("--epochs", type=int, default=3)
    p.add_argument("--cost-only", action="store_true",
                   help="skip numpy training, keep cost accounting")
    _add_output_args(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("compare", help="compare systems on one workload")
    _add_workload_args(p)
    p.add_argument("--systems", default="",
                   help="comma-separated subset (default: all five)")
    p.add_argument("--batches", type=int, default=6)
    _add_workers_arg(p, "system")
    _add_output_args(p)
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser(
        "trace", help="traced epoch: Chrome trace + stall breakdown"
    )
    _add_workload_args(p)
    p.add_argument("--system", default="DSP", choices=sorted(SYSTEMS))
    p.add_argument("--batches", type=int, default=4,
                   help="mini-batches to trace (default 4)")
    p.add_argument("--out", metavar="PATH", default="trace.json",
                   help="Chrome trace-event JSON path (default trace.json)")
    p.add_argument("--text", metavar="PATH", default=None,
                   help="also write a plain-text timeline to PATH")
    p.set_defaults(func=cmd_trace)

    p = sub.add_parser("info", help="datasets / systems / hardware model")
    p.set_defaults(func=cmd_info)

    p = sub.add_parser("infer", help="train then full-graph inference")
    _add_workload_args(p)
    p.add_argument("--system", default="DSP", choices=sorted(SYSTEMS))
    p.add_argument("--epochs", type=int, default=3)
    _add_output_args(p)
    p.set_defaults(func=cmd_infer)

    p = sub.add_parser(
        "serve", help="online inference serving: QPS sweep + SLO knee"
    )
    _add_workload_args(p)
    p.add_argument("--systems", default="DSP",
                   help="comma-separated systems to sweep (default DSP)")
    p.add_argument("--qps", default="2000,8000,32000,128000",
                   help="comma-separated offered loads to sweep")
    _add_serve_args(p, arrival="poisson")
    p.add_argument("--cache-warmup", type=int, default=0,
                   help="seed the dynamic cache from the first N "
                        "workload requests before the sweep (needs "
                        "--dynamic-cache; default 0 = off)")
    p.add_argument("--functional", action="store_true",
                   help="run the real forward pass and report accuracy")
    p.add_argument("--invariants", action="store_true",
                   help="audit every point with the simulation "
                        "invariant checker (report is unchanged; a "
                        "broken simulation raises instead)")
    p.add_argument("--controller", action="store_true",
                   help="close the loop: the SLO-burn AIMD tuner retunes "
                        "batch-max / max-wait online (see docs/control.md)")
    p.add_argument("--control-interval-ms", type=float, default=None,
                   help="controller decision interval in ms "
                        "(default: 4 SLO windows)")
    p.add_argument("--tenants", type=int, default=0,
                   help="split the workload across N synthetic tenants "
                        "with priority classes and admission quotas "
                        "(default 0 = off)")
    p.add_argument("--scale-min", type=int, default=1,
                   help="autoscaler floor replicas (with --scale-max > 1)")
    p.add_argument("--scale-max", type=int, default=1,
                   help="autoscale serving replicas up to this many "
                        "(default 1 = no autoscaler)")
    p.add_argument("--target-qps-per-replica", type=float, default=None,
                   help="per-replica capacity the autoscaler sizes "
                        "against (default: offered QPS / scale-max)")
    p.add_argument("--num-replicas", type=int, default=1,
                   help="serving replicas behind the cluster router "
                        "(default 1 = plain serve_once path)")
    p.add_argument("--routing", default="affinity",
                   choices=["random", "least-loaded", "affinity"],
                   help="request routing policy across replicas "
                        "(default affinity; see docs/cluster.md)")
    _add_workers_arg(p, "sweep point")
    p.add_argument("--trace-base", metavar="PATH", default=None,
                   help="write one Chrome trace per sweep point, named "
                        "PATH-<system>-qps<Q>.json")
    p.add_argument("--metrics", action="store_true",
                   help="attach the windowed metrics registry to every "
                        "sweep point: adds the SLO-minutes-violated "
                        "column and a 'metrics' summary per point in "
                        "the JSON (input for 'repro report')")
    p.add_argument("--metrics-window-ms", type=float, default=None,
                   help="metrics window width in ms (default: the SLO)")
    _add_output_args(p)
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser(
        "chaos", help="fault-injection scenarios -> resilience report"
    )
    _add_workload_args(p)
    p.add_argument("--systems", default="DSP,DSP-Pull,DGL-UVA",
                   help="comma-separated systems to stress "
                        "(default DSP,DSP-Pull,DGL-UVA)")
    p.add_argument("--scenarios", default="",
                   help="comma-separated scenario names "
                        "(default: all; see docs/robustness.md)")
    p.add_argument("--batches", type=int, default=4,
                   help="mini-batches per training scenario (default 4)")
    p.add_argument("--requests", type=int, default=64,
                   help="requests per serving scenario (default 64)")
    p.add_argument("--qps", type=float, default=2000.0,
                   help="offered load for serving scenarios (default 2000)")
    _add_workers_arg(p, "(system, scenario) cell")
    p.add_argument("--controller", action="store_true",
                   help="run each serving scenario a third time with the "
                        "SLO-burn controller closing the loop and report "
                        "its SLO minutes next to the static pass")
    p.add_argument("--control-interval-ms", type=float, default=None,
                   help="controller decision interval in ms "
                        "(default: 4 SLO windows)")
    _add_output_args(p)
    p.set_defaults(func=cmd_chaos)

    p = sub.add_parser(
        "control", help="controller-on vs static SLO-minutes matrix"
    )
    _add_workload_args(p)
    p.add_argument("--system", default="DSP", choices=sorted(SYSTEMS))
    p.add_argument("--scenarios", default="",
                   help="comma-separated chaos scenarios (default: the "
                        "seven core recipes; 'none' = fault-free)")
    p.add_argument("--qps", type=float, default=3000.0,
                   help="offered load per cell (default 3000)")
    _add_serve_args(p, arrival="diurnal")
    p.add_argument("--control-interval-ms", type=float, default=None,
                   help="controller decision interval in ms "
                        "(default: 4 SLO windows)")
    _add_workers_arg(p, "cell")
    _add_output_args(p)
    p.set_defaults(func=cmd_control)

    p = sub.add_parser(
        "report", help="merge saved serve/chaos/trace artifacts into one "
                       "self-contained HTML report"
    )
    p.add_argument("--serve", metavar="PATH", default=None,
                   help="JSON from 'repro serve --metrics --out' (or a "
                        "single serve report dict)")
    p.add_argument("--chaos", metavar="PATH", default=None,
                   help="JSON from 'repro chaos --out'")
    p.add_argument("--trace", metavar="PATH", default=None,
                   help="Chrome trace from 'repro trace' or --trace-base")
    p.add_argument("--title", default="repro run report",
                   help="report heading (default 'repro run report')")
    p.add_argument("--out", metavar="PATH", default="report.html",
                   help="HTML output path (default report.html)")
    p.set_defaults(func=cmd_report)
    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as err:
        return _fail(str(err))


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
