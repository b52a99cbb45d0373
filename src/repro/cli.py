"""Command-line interface: ``python -m repro <command>``.

``python -m repro -h`` lists the nine commands (:func:`build_parser`).
A flag that sets a config field is one row of :data:`CONFIG_FLAGS`:
its type, default and choices come from the field, and the field's
config checks its value (see ``docs/extending.md``).
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import fields, replace
from typing import NamedTuple

from repro.bench.harness import TABLE_SYSTEMS
from repro.cluster import RouterConfig
from repro.control import AutoscaleConfig, ControllerConfig
from repro.core import RunConfig, SYSTEMS, build_system
from repro.core.metrics import metrics_dict as _metrics_dict, scrub_nan
from repro.graph import DATASET_SPECS
from repro.serve import ServeConfig, WorkloadConfig
from repro.utils import fmt_bytes, fmt_time
from repro.utils.errors import (INF, CapacityError, ConfigError, count,
                                positive, require, show)


class Flag(NamedTuple):
    """A flag that sets one config field.  ``unit`` scales the flag's
    value to the field's (ms -> s); ``choices`` narrows a field that
    has none of its own."""

    config: type
    field: str
    help: str = ""
    unit: float | None = None
    choices: tuple | None = None


#: every config-backed flag; its type, default and choices are read
#: from the field it sets, and the field's config checks its value
CONFIG_FLAGS = {
    "--dataset": Flag(RunConfig, "dataset", "dataset",
                      choices=tuple(sorted(DATASET_SPECS))),
    "--gpus": Flag(RunConfig, "num_gpus", "GPUs per server"),
    "--num-nodes": Flag(RunConfig, "num_nodes", "servers (see docs/cluster.md)"),
    "--nic": Flag(RunConfig, "nic", "cross-server NIC model"),
    "--model": Flag(RunConfig, "model", "GNN architecture"),
    "--hidden": Flag(RunConfig, "hidden_dim", "hidden width"),
    "--batch-size": Flag(RunConfig, "batch_size", "seeds per GPU per step"),
    "--fanout": Flag(RunConfig, "fanout", "comma-separated per-layer fan-out"),
    "--lr": Flag(RunConfig, "lr", "learning rate"),
    "--dynamic-cache": Flag(RunConfig, "dynamic_cache", "see docs/caching.md"),
    "--cache-window": Flag(RunConfig, "cache_window", "loader calls per window"),
    "--cache-ewma": Flag(RunConfig, "cache_ewma", "EWMA weight of a window"),
    "--cache-prefetch": Flag(RunConfig, "cache_prefetch", "prefetches per load"),
    "--cache-bias": Flag(RunConfig, "cache_bias", "GNS sampling bias"),
    "--compress": Flag(RunConfig, "compress", "cold-path feature codec"),
    "--cache-bytes": Flag(RunConfig, "feature_cache_bytes", "per-GPU feature "
                          "cache budget (None = what memory fits)"),
    "--seed": Flag(RunConfig, "seed", "seeds the run and every stream"),
    "--requests": Flag(WorkloadConfig, "num_requests", "requests per point"),
    "--arrival": Flag(WorkloadConfig, "arrival", "arrival process"),
    "--skew": Flag(WorkloadConfig, "skew", "Zipf popularity exponent"),
    "--drift-phases": Flag(WorkloadConfig, "drift_phases", "Zipf hot-set phases"),
    "--slo-ms": Flag(ServeConfig, "slo_s", "p99 latency SLO in ms", 1e-3),
    "--batch-max": Flag(ServeConfig, "batch_max", "dynamic batch size cap"),
    "--batch-timeout-ms": Flag(ServeConfig, "batch_timeout_s", "max-wait", 1e-3),
    "--queue-capacity": Flag(ServeConfig, "queue_capacity", "per-GPU queue cap"),
    "--functional": Flag(ServeConfig, "functional", "run the forward pass"),
    "--invariants": Flag(ServeConfig, "check_invariants", "audit every point"),
    "--control-interval-ms": Flag(ControllerConfig, "interval_s", "controller "
                                  "tick in ms (None = 4 SLO windows)", 1e-3),
    "--scale-min": Flag(AutoscaleConfig, "min_replicas", "replica floor"),
    "--scale-max": Flag(AutoscaleConfig, "max_replicas", "replica cap (1 = off)"),
    "--target-qps-per-replica": Flag(AutoscaleConfig, "target_qps_per_replica",
                                     "replica capacity to size for (None = "
                                     "offered QPS / scale-max)"),
    "--num-replicas": Flag(RouterConfig, "num_replicas", "routed replicas"),
    "--routing": Flag(RouterConfig, "policy", "routing policy across replicas"),
}

#: the flags of every command that runs a workload
RUN_FLAGS = tuple(f for f, row in CONFIG_FLAGS.items()
                  if row.config is RunConfig)
#: the request-stream and batcher flags serve and control share
SERVING_FLAGS = ("--requests", "--arrival", "--skew", "--drift-phases",
                 "--slo-ms", "--batch-max", "--batch-timeout-ms",
                 "--queue-capacity")
#: where serve and control default away from the library: a 5 ms SLO,
#: a 1 ms max-wait and 256 requests per point (flag units)
SERVING_DEFAULTS = {"--requests": 256, "--slo-ms": 5.0,
                    "--batch-timeout-ms": 1.0}

#: flags that set no config field, and the least count each takes
COUNT_FLAGS = {"--workers": 1, "--batches": 1, "--tenants": 0,
               "--cache-warmup": 0}

_TYPES = {"int": int, "float": float, "float | None": float}


def _dest(flag: str) -> str:
    return flag[2:].replace("-", "_")


def _fail(message: str) -> int:
    """One-line operator-facing error on stderr; exit status 1."""
    print(f"error: {message}", file=sys.stderr)
    return 1


def _restate(err, args) -> str:
    """``err`` in the terms of the flag its field came from, with the
    value as the flag took it; an error about no flag as it is."""
    for flag, row in CONFIG_FLAGS.items():
        if row.field == err.field and hasattr(args, _dest(flag)):
            value = getattr(args, _dest(flag))
            return f"{flag} expects {err.expects}, got {show(value)}"
    return str(err)


def _control_figures(control: dict | None) -> tuple[int, int]:
    """(total controller actions, final replica count) from any of the
    three ``report.control`` shapes: single-server tuner summary,
    router ``{"replicas": [...]}``, autoscaler ``{"autoscale": ...}``."""
    if not control:
        return 0, 1
    tuners = control.get("replicas", [control] if "action_counts" in control
                         else [])
    actions = sum(sum(t.get("action_counts", {}).values())
                  for t in tuners if t)
    replicas = max(1, len(tuners))
    auto = control.get("autoscale")
    if auto:
        actions += len(auto.get("actions", ()))
        replicas = auto.get("final_replicas", replicas)
    return actions, replicas


def _add_config_flags(p: argparse.ArgumentParser, flags,
                      defaults: dict | None = None) -> None:
    """Add ``flags`` (keys of :data:`CONFIG_FLAGS`) to ``p``, each typed,
    defaulted and limited by the field it sets; ``defaults`` overrides
    a field's default for this command, in the flag's units."""
    defaults = defaults or {}
    for flag in flags:
        row = CONFIG_FLAGS[flag]
        f = next(f for f in fields(row.config) if f.name == row.field)
        if f.type == "bool":
            p.add_argument(flag, action="store_true", help=row.help)
            continue
        default = defaults.get(flag, f.default)
        if isinstance(default, tuple):
            default = ",".join(map(str, default))
        elif flag not in defaults and row.unit and default is not None:
            default /= row.unit
        p.add_argument(flag, type=_TYPES.get(f.type), default=default,
                       choices=row.choices or f.metadata.get("choices"),
                       help=row.help)


def _fanout(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(f) for f in text.split(","))
    except ValueError:
        raise ConfigError(
            f"--fanout expects comma-separated integers, got {text!r}"
        ) from None


def build_configs(args) -> dict:
    """The configs the parsed ``args`` set, keyed by class: one per
    config some flag of the command maps to, so each value is checked
    once, by its config.  Every such config with a ``seed`` takes
    ``--seed``.  Checks the :data:`COUNT_FLAGS` too; builds no system."""
    for flag, minimum in COUNT_FLAGS.items():
        if hasattr(args, _dest(flag)):
            count(flag, getattr(args, _dest(flag)), minimum)
    kwargs: dict = {}
    for flag, row in CONFIG_FLAGS.items():
        if not hasattr(args, _dest(flag)):
            continue
        value = getattr(args, _dest(flag))
        if flag == "--fanout":
            value = _fanout(value)
        elif row.unit and value is not None:
            value *= row.unit
        kwargs.setdefault(row.config, {})[row.field] = value
    for cls, kw in kwargs.items():
        if any(f.name == "seed" for f in fields(cls)):
            kw["seed"] = args.seed
    return {cls: cls(**kw) for cls, kw in kwargs.items()}


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


def cmd_train(args) -> int:
    """``repro train``: train one system, print per-epoch metrics."""
    system = build_system(args.system, build_configs(args)[RunConfig])
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

    cfg = build_configs(args)[RunConfig]
    systems = _systems(args, default=TABLE_SYSTEMS)
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

    system = build_system(args.system, build_configs(args)[RunConfig])
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

    configs = build_configs(args)
    cfg = configs[RunConfig]
    try:
        qps_values = [float(q) for q in args.qps.split(",")]
    except ValueError:
        raise ConfigError(
            f"--qps expects comma-separated numbers, got {args.qps!r}"
        ) from None
    require(all(0 < q < INF for q in qps_values), "--qps",
            "positive finite offered loads", args.qps)
    metrics_window_s = None
    if args.metrics_window_ms is not None:
        positive("--metrics-window-ms", args.metrics_window_ms)
        metrics_window_s = args.metrics_window_ms * 1e-3
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
        controller = replace(
            configs[ControllerConfig],
            max_pressure=tenancy.max_priority() if tenancy else 0,
        )
    serve_cfg = replace(configs[ServeConfig], controller=controller,
                        tenancy=tenancy)
    systems = _systems(args)
    if args.scale_max > 1 and args.num_replicas != 1:
        return _fail("--scale-max replaces the fixed --num-replicas router; "
                     "use one or the other")
    replicas = None
    if args.scale_max > 1:
        replicas = configs[AutoscaleConfig]
    elif args.num_replicas != 1:
        replicas = configs[RouterConfig]
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
                configs[WorkloadConfig],
                np.arange(system.base_dataset.num_nodes)
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
    from repro.obs import (Tracer, critical_path, format_breakdown,
                           format_critical_path, stall_breakdown, to_text,
                           write_chrome_trace)
    from repro.utils import DeadlockError

    system = build_system(args.system, build_configs(args)[RunConfig])
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
    from repro.chaos.scenarios import SCENARIOS, format_report, resilience_report

    configs = build_configs(args)
    cfg = configs[RunConfig]
    systems = _systems(args)
    positive("--qps", args.qps)
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
    controller = configs[ControllerConfig] if args.controller else None
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
    from repro.control import CORE_SCENARIOS, control_matrix, format_control_matrix

    configs = build_configs(args)
    scenarios = ([s for s in args.scenarios.split(",") if s]
                 if args.scenarios else list(CORE_SCENARIOS))
    positive("--qps", args.qps)
    label = args.arrival if args.drift_phases <= 1 else (
        f"{args.arrival}+drift{args.drift_phases}"
    )
    payload = control_matrix(
        args.system, configs[RunConfig], configs[ControllerConfig],
        scenarios=scenarios,
        workload_configs={label: configs[WorkloadConfig]},
        qps=args.qps,
        serve_config=configs[ServeConfig],
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
            from repro.obs import (critical_path, format_breakdown,
                                   format_critical_path, format_plan_cache,
                                   plan_cache_stats, read_chrome_trace,
                                   stall_breakdown)
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

    def command(name, help, func, *flags, defaults=None, system=False,
                workers=None, output=True):
        """A subcommand with its config ``flags``, optionally
        ``--system``, ``--workers`` (one task per ``workers``) and the
        JSON output flags."""
        p = sub.add_parser(
            name, help=help,
            formatter_class=argparse.ArgumentDefaultsHelpFormatter,
        )
        _add_config_flags(p, flags, defaults)
        if system:
            p.add_argument("--system", default="DSP", choices=sorted(SYSTEMS))
        if workers:
            p.add_argument("--workers", type=int, default=1,
                           help=f"worker processes, one task per {workers} "
                                "(1 = serial; results are bit-identical)")
        if output:
            p.add_argument("--json", action="store_true")
            p.add_argument("--out", metavar="PATH",
                           help="write the JSON to PATH instead of stdout")
        p.set_defaults(func=func)
        return p

    p = command("train", "train one system", cmd_train, *RUN_FLAGS,
                system=True)
    p.add_argument("--epochs", type=int, default=3)
    p.add_argument("--cost-only", action="store_true",
                   help="skip numpy training, keep cost accounting")

    p = command("compare", "compare systems on one workload", cmd_compare,
                *RUN_FLAGS, workers="system")
    p.add_argument("--systems", default="",
                   help="comma-separated subset (empty: all five)")
    p.add_argument("--batches", type=int, default=6)

    p = command("trace", "traced epoch: Chrome trace + stall breakdown",
                cmd_trace, *RUN_FLAGS, system=True, output=False)
    p.add_argument("--batches", type=int, default=4,
                   help="mini-batches to trace")
    p.add_argument("--out", metavar="PATH", default="trace.json",
                   help="Chrome trace-event JSON path")
    p.add_argument("--text", metavar="PATH", default=None,
                   help="also write a plain-text timeline to PATH")

    command("info", "datasets / systems / hardware model", cmd_info,
            output=False)

    p = command("infer", "train then full-graph inference", cmd_infer,
                *RUN_FLAGS, system=True)
    p.add_argument("--epochs", type=int, default=3)

    p = command("serve", "online inference serving: QPS sweep + SLO knee",
                cmd_serve, *RUN_FLAGS, *SERVING_FLAGS, "--functional",
                "--invariants", "--control-interval-ms", "--scale-min",
                "--scale-max", "--target-qps-per-replica", "--num-replicas",
                "--routing", defaults={**SERVING_DEFAULTS, "--scale-max": 1},
                workers="sweep point")
    p.add_argument("--systems", default="DSP",
                   help="comma-separated systems to sweep")
    p.add_argument("--qps", default="2000,8000,32000,128000",
                   help="comma-separated offered loads to sweep")
    p.add_argument("--cache-warmup", type=int, default=0,
                   help="warm the dynamic cache from the first N requests")
    p.add_argument("--controller", action="store_true",
                   help="retune batch-max / max-wait online with the "
                        "SLO-burn tuner (see docs/control.md)")
    p.add_argument("--tenants", type=int, default=0,
                   help="split the workload across N tenants (0 = off)")
    p.add_argument("--trace-base", metavar="PATH", default=None,
                   help="write one Chrome trace per sweep point, named "
                        "PATH-<system>-qps<Q>.json")
    p.add_argument("--metrics", action="store_true",
                   help="windowed metrics per point: SLO minutes, and a "
                        "'metrics' summary for 'repro report'")
    p.add_argument("--metrics-window-ms", type=float, default=None,
                   help="metrics window width in ms (None = the SLO)")

    p = command("chaos", "fault-injection scenarios -> resilience report",
                cmd_chaos, *RUN_FLAGS, "--requests", "--control-interval-ms",
                defaults={"--requests": 64}, workers="(system, scenario) cell")
    p.add_argument("--systems", default="DSP,DSP-Pull,DGL-UVA",
                   help="comma-separated systems to stress")
    p.add_argument("--scenarios", default="",
                   help="comma-separated scenario names "
                        "(empty: all; see docs/robustness.md)")
    p.add_argument("--batches", type=int, default=4,
                   help="mini-batches per training scenario")
    p.add_argument("--qps", type=float, default=2000.0,
                   help="offered load for serving scenarios")
    p.add_argument("--controller", action="store_true",
                   help="serve each serving scenario a third time with "
                        "the SLO-burn controller on")

    p = command("control", "controller-on vs static SLO-minutes matrix",
                cmd_control, *RUN_FLAGS, *SERVING_FLAGS,
                "--control-interval-ms",
                defaults={**SERVING_DEFAULTS, "--arrival": "diurnal"},
                system=True, workers="cell")
    p.add_argument("--scenarios", default="",
                   help="comma-separated chaos scenarios (empty: the "
                        "seven core recipes; 'none' = fault-free)")
    p.add_argument("--qps", type=float, default=3000.0,
                   help="offered load per cell")

    p = command("report", "merge saved serve/chaos/trace artifacts into "
                          "one self-contained HTML report", cmd_report,
                output=False)
    p.add_argument("--serve", metavar="PATH", default=None,
                   help="JSON from 'repro serve --metrics --out' (or a "
                        "single serve report dict)")
    p.add_argument("--chaos", metavar="PATH", default=None,
                   help="JSON from 'repro chaos --out'")
    p.add_argument("--trace", metavar="PATH", default=None,
                   help="Chrome trace from 'repro trace' or --trace-base")
    p.add_argument("--title", default="repro run report",
                   help="report heading")
    p.add_argument("--out", metavar="PATH", default="report.html",
                   help="HTML output path")
    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, CapacityError) as err:
        # a value a config rejects, or the hardware cannot hold
        return _fail(_restate(err, args))


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
