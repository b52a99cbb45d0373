"""Ablation: static cache placement vs the dynamic policy under drift.

Serving under popularity drift: *static* is the paper's layout-time
placement, *dynamic* is the same system with
:class:`~repro.cache.dynamic.DynamicCachePolicy` (plus fp16 cold-path
compression) enabled.  The workload's Zipf hot set permutes
``drift_phases`` times across the stream, which the static cache cannot
follow.

Every figure is simulated — the throughput ratio at a drain-mode probe
load, the hit rates, the cold-path byte volume and the knees are pure
functions of the simulation — so this ablation asserts the direction of
each claim in docs/caching.md: dynamic sustains at least the static
throughput and knee, matches or beats the static hit rate and moves
fewer UVA bytes per request.
"""

import numpy as np

from repro.bench.harness import fmt_table, quick_mode


def _cache_dynamic(quick: bool) -> dict:
    """Static vs dynamic cache on one drifting request stream.

    The config deliberately puts serving in the regime where the
    feature path is the pipeline bottleneck — wide rows, single-layer
    fanout large enough that per-batch sampling cost (launch-latency
    bound, ~flat in fanout) stops dominating the cold UVA gather.
    ``speedup`` is the simulated-throughput ratio (dynamic / static) at
    a drain-mode probe load; the hit-rate and UVA-bytes columns say
    *why* throughput moved, and the knee columns locate each policy
    against an SLO placed in the latency gap the dynamic policy opens.
    """
    from repro.core import RunConfig, build_system
    from repro.graph import DATASET_SPECS
    from repro.serve import (
        ServeConfig,
        WorkloadConfig,
        make_workload,
        max_sustainable_qps,
        qps_sweep,
        serve_once,
    )

    if quick:
        dataset, requests, fanout, batch_max = "products", 1024, (16,), 128
        slo_s = 175e-6
        ladder = (2e6, 4e6, 8e6)
    else:
        dataset, requests, fanout, batch_max = "friendster", 4096, (32,), 256
        slo_s = 310e-6
        ladder = (4e6, 8e6, 12e6, 16e6)
    drift_phases = 2
    # workload-history warmup: the first half of phase one
    warmup = requests // (2 * drift_phases)
    probe_qps = 8e6
    spec = DATASET_SPECS[dataset]
    # cache ~2% of the features per GPU: small enough that the Zipf
    # tail misses and placement decides the cold-path volume
    cache_bytes = 0.02 * spec.num_nodes * spec.feature_dim * 4
    base = dict(
        dataset=dataset,
        num_gpus=4,
        batch_size=8,
        hidden_dim=16,
        fanout=fanout,
        feature_cache_bytes=cache_bytes,
    )
    static_sys = build_system("DSP", RunConfig(**base))
    dyn_sys = build_system(
        "DSP",
        RunConfig(**base, dynamic_cache=True, cache_window=2,
                  cache_ewma=0.3, cache_prefetch=16, compress="fp16"),
    )
    workload = make_workload(
        WorkloadConfig(num_requests=requests, skew=1.5,
                       drift_phases=drift_phases, seed=0),
        np.arange(static_sys.base_dataset.num_nodes),
    )
    # seed the dynamic scores from request history (mapped into the
    # system's renumbered id space)
    dyn_sys.loader.dynamic.warm(
        dyn_sys.numbering.old_to_new[workload.nodes[:warmup]]
    )
    # deep queue: drain mode measures pipeline throughput, not the
    # admission controller
    serve_cfg = ServeConfig(functional=False, batch_max=batch_max,
                            queue_capacity=requests)

    def probed(system):
        totals = system.loader.totals
        t0 = dict(totals)
        report = serve_once(system, workload, probe_qps, serve_cfg)
        hits = (totals["local"] - t0["local"]) + (totals["remote"]
                                                  - t0["remote"])
        cold = totals["cold"] - t0["cold"]
        cold_bytes = totals["cold_bytes"] - t0["cold_bytes"]
        rate = hits / (hits + cold) if hits + cold else 0.0
        return report, rate, cold_bytes / requests

    rep_static, hit_static, uva_static = probed(static_sys)
    rep_dynamic, hit_dynamic, uva_dynamic = probed(dyn_sys)
    knee_static = max_sustainable_qps(
        qps_sweep(static_sys, workload, ladder, serve_cfg), slo_s=slo_s
    )
    knee_dynamic = max_sustainable_qps(
        qps_sweep(dyn_sys, workload, ladder, serve_cfg), slo_s=slo_s
    )
    return {
        "speedup": (rep_dynamic.throughput_qps / rep_static.throughput_qps
                    if rep_static.throughput_qps else 1.0),
        "p99_static_us": rep_static.p99 * 1e6,
        "p99_dynamic_us": rep_dynamic.p99 * 1e6,
        "throughput_qps_static": rep_static.throughput_qps,
        "throughput_qps_dynamic": rep_dynamic.throughput_qps,
        "hit_rate_static": hit_static,
        "hit_rate_dynamic": hit_dynamic,
        "uva_bytes_per_request_static": uva_static,
        "uva_bytes_per_request_dynamic": uva_dynamic,
        "knee_qps_static": knee_static,
        "knee_qps_dynamic": knee_dynamic,
        "dynamic": dyn_sys.loader.dynamic.stats(),
    }


def test_cache_dynamic(emit):
    r = _cache_dynamic(quick=quick_mode())
    emit(fmt_table(
        "Ablation: dynamic cache under drift (simulated serving)",
        ["static", "dynamic", "ratio"],
        [
            ("throughput", [
                f"{r['throughput_qps_static'] / 1e6:.2f}M/s",
                f"{r['throughput_qps_dynamic'] / 1e6:.2f}M/s",
                f"{r['speedup']:.3f}x",
            ]),
            ("p99", [
                f"{r['p99_static_us']:.0f}us",
                f"{r['p99_dynamic_us']:.0f}us",
                f"{r['p99_static_us'] / r['p99_dynamic_us']:.3f}x",
            ]),
            ("hit rate", [
                f"{r['hit_rate_static']:.3f}",
                f"{r['hit_rate_dynamic']:.3f}",
                "",
            ]),
            ("UVA B/req", [
                f"{r['uva_bytes_per_request_static']:.0f}",
                f"{r['uva_bytes_per_request_dynamic']:.0f}",
                "",
            ]),
            ("knee", [
                f"{r['knee_qps_static'] / 1e6:g}M",
                f"{r['knee_qps_dynamic'] / 1e6:g}M",
                "",
            ]),
        ],
    ))
    # the direction of every headline claim
    assert r["speedup"] >= 1.0
    assert r["hit_rate_dynamic"] >= r["hit_rate_static"]
    assert (r["uva_bytes_per_request_dynamic"]
            < r["uva_bytes_per_request_static"])
    assert r["knee_qps_dynamic"] >= r["knee_qps_static"]
    assert r["dynamic"]["promotions"] > 0


def test_deterministic_simulated_figures():
    """Every figure is simulated, not wall-clock: two runs agree bit
    for bit."""
    a = _cache_dynamic(quick=True)
    b = _cache_dynamic(quick=True)
    assert a == b
