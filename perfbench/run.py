#!/usr/bin/env python3
"""Repository benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload train-products --seed 1 \
        --seconds 5 --trace 0

Run from the root of a checkout.  Inputs are generated once, untimed,
into ``.bench_data/``; every set-up and every measurement then runs in
its own fresh process (``worker.py``), one at a time, with BLAS/OpenMP
pinned to one thread.  ``--trace 0`` prints the end-to-end metrics,
``--trace 1`` runs the flow untraced and then traced on the same work
and prints the per-layer metrics plus the tracing overhead.  The last
stdout line is the result; the exit code is 1 when an output check
fails (see README.md).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("train-products", "epoch-papers-2node", "serve-friendster-drift")
#: per-process wall-clock limit; a run is a handful of processes
CHILD_TIMEOUT_S = 150
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

END_TO_END = {
    "setup_s": "s",
    "seeds_per_s": "1/s",
    "peak_rss_mb": "MB",
    "sim_seeds_per_s": "1/s",
}

#: per-layer metric -> unit; ``*_s`` layer times are summed self times
PER_LAYER = {
    "graph.load_s": "s",
    "graph.partition_s": "s",
    "core.build_s": "s",
    "nn.forward_s": "s",
    "nn.backward_s": "s",
    "nn.optim_s": "s",
    "nn.allreduce_s": "s",
    "core.evaluate_s": "s",
    "sampling.sample_s": "s",
    "sampling.calls": "count",
    "cache.load_s": "s",
    "cache.calls": "count",
    "cache.rows": "count",
    "cache.hit_ratio": "ratio",
    "cache.plan_hit_ratio": "ratio",
    "cache.promotions": "count",
    "cache.demotions": "count",
    "core.cost_s": "s",
    "core.cost_calls": "count",
    "core.pipeline_s": "s",
    "cluster.lower_s": "s",
    "serve.run_self_s": "s",
    "engine.run_s": "s",
    "engine.events": "count",
    "control.actions": "count",
    "chaos.invariant_checks": "count",
    "sim.epoch_ms": "ms",
    "sim.sample_ms": "ms",
    "sim.load_ms": "ms",
    "sim.train_ms": "ms",
    "sim.nvlink_mb": "MB",
    "sim.pcie_mb": "MB",
    "sim.network_mb": "MB",
    "sim.utilization": "ratio",
    "sim.p50_ms": "ms",
    "sim.p99_ms": "ms",
    "sim.goodput_qps": "1/s",
    "sim.slo_miss_frac": "ratio",
    "sim.stage_queue_ms": "ms",
    "sim.stage_batch_ms": "ms",
    "sim.stage_sample_ms": "ms",
    "sim.stage_load_ms": "ms",
    "sim.stage_compute_ms": "ms",
    "sim.mean_batch_size": "count",
    "train.loss": "nats",
    "train.val_accuracy": "ratio",
    "trace.overhead_frac": "ratio",
}


class RunFailed(Exception):
    pass


def _env(root: Path) -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(root / "src")
    env["REPRO_DATA_DIR"] = str(root / ".bench_data")
    env["PYTHONHASHSEED"] = "0"
    for var in THREAD_VARS:
        env[var] = "1"
    return env


def _child(root: Path, args, *extra: str) -> dict:
    """Run one worker process to completion; its last stdout line."""
    cmd = [sys.executable, str(HERE / "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed), *extra]
    if args.tiny:
        cmd.append("--tiny")
    try:
        proc = subprocess.run(cmd, cwd=root, env=_env(root), text=True,
                              capture_output=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired as e:
        raise RunFailed(f"{' '.join(extra)}: timed out after {e.timeout}s")
    if proc.returncode != 0:
        raise RunFailed(f"{' '.join(extra)}: exit {proc.returncode}\n"
                        f"{proc.stderr[-4000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def end_to_end(kind: str, subruns: list) -> dict:
    """Aggregate the sub-runs: seeds over summed wall time, the mean of
    the (per-seed deterministic) simulated throughput, medians of set-up
    time and peak memory."""
    sim_rates = []
    for m in subruns:
        sim = m["sims"][0]
        if kind == "train":
            # every epoch trains the same number of seeds
            seeds = m["seeds"] / m["units"]
            sim_rates.append(seeds / (sim["epoch_ms"] * 1e-3))
        else:
            # completions per simulated second under overload: capacity
            sim_rates.append(sim[-1]["throughput_qps"])
    return {
        "setup_s": statistics.median(m["setup_s"] for m in subruns),
        "seeds_per_s": (sum(m["seeds"] for m in subruns)
                        / sum(m["wall_s"] for m in subruns)),
        "peak_rss_mb": statistics.median(m["peak_rss_mb"] for m in subruns),
        "sim_seeds_per_s": statistics.fmean(sim_rates),
    }


def per_layer(kind: str, plain: dict, traced: dict) -> dict:
    own = traced["self_s"]
    counts = traced["counts"]
    out = {name: 0.0 for name in PER_LAYER}
    for name in PER_LAYER:
        if name.endswith("_s") and name[:-2] in own:
            out[name] = own[name[:-2]]
        elif name in counts:
            out[name] = counts[name]
    out["serve.run_self_s"] = own.get("serve.run", 0.0)
    rows = counts.get("cache.rows", 0)
    out["cache.hit_ratio"] = (
        counts.get("cache.hits", 0) / rows if rows else 0.0)
    lookups = counts.get("cache.plan_lookups", 0)
    out["cache.plan_hit_ratio"] = (
        counts.get("cache.plan_hits", 0) / lookups if lookups else 0.0)
    sim = traced["sims"][0]
    if kind == "train":
        for key in ("epoch_ms", "sample_ms", "load_ms", "train_ms",
                    "nvlink_mb", "pcie_mb", "network_mb", "utilization"):
            out[f"sim.{key}"] = sim[key]
        if math.isfinite(sim["loss"]):
            out["train.loss"] = sim["loss"]
            out["train.val_accuracy"] = sim["val_accuracy"]
    else:
        nominal, overload = sim[0], sim[-1]
        for key in ("p50_ms", "p99_ms", "stage_queue_ms", "stage_batch_ms",
                    "stage_sample_ms", "stage_load_ms", "stage_compute_ms",
                    "mean_batch_size"):
            out[f"sim.{key}"] = nominal[key]
        out["sim.goodput_qps"] = overload["goodput_qps"]
        out["sim.slo_miss_frac"] = (
            sum(p["missed"] for p in sim) / sum(p["offered"] for p in sim))
    out["trace.overhead_frac"] = traced["wall_s"] / plain["wall_s"] - 1.0
    return out


def run(args, root: Path) -> tuple[dict, list]:
    """(result line, failed checks) of one benchmark run."""
    info = _child(root, args, "--mode", "prep")
    kind = info["kind"]
    secs = str(args.seconds / info["subruns"])
    if not args.trace:
        subruns = [
            _child(root, args, "--mode", "measure", "--subrun", str(i),
                   "--seconds", secs)
            for i in range(info["subruns"])
        ]
        errors = [e for m in subruns for e in m["errors"]]
        metrics = end_to_end(kind, subruns)
        units = END_TO_END
    else:
        # sub-run 0 only, untraced then traced on the same work
        m = _child(root, args, "--mode", "measure", "--seconds", secs)
        subruns = [m]
        out_dir = root / ".bench_out"
        out_dir.mkdir(exist_ok=True)
        spans = out_dir / f"spans-{args.workload}-seed{args.seed}.json"
        t = _child(root, args, "--mode", "measure", "--trace",
                   "--units", str(m["units"]), "--spans", str(spans))
        errors = m["errors"] + t["errors"]
        if json.dumps(m["sims"]) != json.dumps(t["sims"]):
            errors.append("traced run changed simulated outputs")
        metrics = per_layer(kind, m, t)
        units = PER_LAYER
    print(json.dumps({"env": {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": subruns[0]["numpy"],
        "threads": subruns[0]["threads"],
        "units_measured": [m["units"] for m in subruns],
        "wall_s": [m["wall_s"] for m in subruns],
    }}))
    line = {
        "correct": not errors,
        "attempted": sum(m["seeds"] for m in subruns),
        "failed": sum(m["failed"] for m in subruns),
        "metrics": {k: {"value": metrics[k], "unit": u}
                    for k, u in units.items()},
    }
    return line, errors


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true",
                   help="shrink the workload onto the tiny dataset "
                        "(for the benchmark's own tests)")
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print(f"error: {root} holds no program source (src/repro); run "
              "from the root of a checkout", file=sys.stderr)
        return 2
    try:
        line, errors = run(args, root)
    except RunFailed as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    for err in errors:
        print(f"check failed: {err}", file=sys.stderr)
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
