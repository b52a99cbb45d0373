"""Wrappers around the program's public calls, one per layer boundary.

``watch_invariants`` runs in every measured process: it records each
invariant checker as it finalises, for the output checks.  The span
wrappers run only in the traced process.  Every wrapper calls straight
through and returns the callee's result untouched; the traced run's
simulated outputs are compared bit for bit with the untraced run's to
prove it.
"""

from __future__ import annotations

import functools


def _wrap(owner, attr: str, around):
    """Replace ``owner.attr`` by ``around(inner, *args, **kwargs)``."""
    inner = getattr(owner, attr)

    @functools.wraps(inner)
    def wrapper(*args, **kwargs):
        return around(inner, *args, **kwargs)

    setattr(owner, attr, wrapper)


def _timed(rec, name: str, count: str | None = None):
    def around(inner, *args, **kwargs):
        with rec.span(name):
            out = inner(*args, **kwargs)
        if count is not None:
            rec.count(count)
        return out

    return around


def watch_invariants(finalized: list, rec) -> None:
    """Append each finalised checker's violation list to ``finalized``
    and count the checks it made."""
    from repro.chaos.invariants import InvariantChecker

    def around(inner, checker, *args, **kwargs):
        out = inner(checker, *args, **kwargs)
        finalized.append(list(checker.violations))
        rec.count("chaos.invariant_checks", checker.checks)
        return out

    _wrap(InvariantChecker, "finalize", around)


def install_module_wrappers(rec) -> None:
    """Spans around module- and class-level calls; install before set-up."""
    import repro.cluster.csp as cluster_csp
    import repro.cluster.partition as cluster_partition
    import repro.core.system as core_system
    import repro.serve.sweep as serve_sweep
    from repro.core.pipeline import PipelineRunner
    from repro.engine.simulator import Simulator
    from repro.nn import GraphSAGE, Tensor
    from repro.nn.optim import Adam
    from repro.serve.service import GNNServer

    _wrap(core_system, "load_dataset", _timed(rec, "graph.load"))
    _wrap(core_system, "load_partition", _timed(rec, "graph.partition"))
    _wrap(cluster_partition, "hierarchical_partition",
          _timed(rec, "graph.partition"))
    _wrap(cluster_csp, "lower_trace", _timed(rec, "cluster.lower"))
    _wrap(GraphSAGE, "__call__", _timed(rec, "nn.forward"))
    _wrap(Tensor, "backward", _timed(rec, "nn.backward"))
    _wrap(Adam, "step", _timed(rec, "nn.optim"))
    _wrap(core_system, "allreduce_gradients", _timed(rec, "nn.allreduce"))
    _wrap(PipelineRunner, "run", _timed(rec, "core.pipeline"))
    _wrap(GNNServer, "run", _timed(rec, "serve.run"))

    def engine_run(inner, sim, *args, **kwargs):
        before = sim.events_processed
        with rec.span("engine.run"):
            out = inner(sim, *args, **kwargs)
        rec.count("engine.events", sim.events_processed - before)
        return out

    _wrap(Simulator, "run", engine_run)

    def serve_point(inner, system, workload, qps, *args, **kwargs):
        rec.group = f"qps{qps:g}"
        with rec.span("serve.point"):
            report = inner(system, workload, qps, *args, **kwargs)
        control = report.control or {}
        rec.count("control.actions",
                  sum(control.get("action_counts", {}).values()))
        return report

    # the sweep handler imports serve_once from this module at call time
    _wrap(serve_sweep, "serve_once", serve_point)


def install_system_wrappers(rec, system) -> None:
    """Spans around the built system's sampler, loader, cost engine and
    evaluation; install after set-up."""
    batches: dict[str, int] = {}  # epoch group -> batches sampled

    def sample(inner, *args, **kwargs):
        if rec.current == "train.epoch":
            # run_epoch samples once per batch; evaluate samples under
            # its own span
            epoch = rec.group.split("/")[0]
            batches[epoch] = batches.get(epoch, 0) + 1
            rec.group = f"{epoch}/batch{batches[epoch] - 1}"
        with rec.span("sampling.sample"):
            out = inner(*args, **kwargs)
        rec.count("sampling.calls")
        return out

    def load(inner, *args, **kwargs):
        with rec.span("cache.load"):
            feats, trace, stats = inner(*args, **kwargs)
        hits = stats["local"] + stats["remote"]
        rec.count("cache.calls")
        rec.count("cache.rows", hits + stats["cold"])
        rec.count("cache.hits", hits)
        dyn = stats.get("dynamic")
        if dyn is not None:
            rec.count("cache.promotions", dyn["promoted"])
            rec.count("cache.demotions", dyn["demoted"])
        return feats, trace, stats

    def lookup(inner, *args, **kwargs):
        plan = inner(*args, **kwargs)
        rec.count("cache.plan_lookups")
        if plan is not None:
            rec.count("cache.plan_hits")
        return plan

    def evaluate(inner, *args, **kwargs):
        rec.group = f"{rec.group.split('/')[0]}/eval"
        with rec.span("core.evaluate"):
            return inner(*args, **kwargs)

    _wrap(system.sampler, "sample", sample)
    _wrap(system.loader, "load", load)
    if getattr(system.loader, "plan_cache", None) is not None:
        _wrap(system.loader.plan_cache, "lookup", lookup)
    _wrap(system.engine, "trace_cost", _timed(rec, "core.cost",
                                              "core.cost_calls"))
    _wrap(system, "evaluate", evaluate)
