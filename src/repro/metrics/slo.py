"""SLO health monitoring over a metrics registry.

Definitions (all on simulated time, per fixed registry window):

- a window's **violation fraction** is ``violations / completed``,
  where a violation is a completion whose end-to-end latency exceeded
  the SLO (counted exactly by the serving pipeline at completion time
  — not re-derived from bucketed histograms, so the boundary is
  exact);
- the **error budget** is ``1 - SLO_TARGET`` (0.99: "p99 within the
  SLO"; the serving controller burns against the same target);
- a window's **burn rate** is ``violation fraction / error budget`` —
  1.0 means the budget burns exactly as fast as it accrues, >1 means
  the window is out of SLO (equivalently: its nearest-rank p99 exceeds
  the SLO);
- **"SLO minutes violated"** is the total simulated time (in minutes)
  spent inside windows with burn rate > 1 — the per-scenario
  resilience figure the chaos matrix reports, and the signal a future
  serving controller (ROADMAP item 2) will minimize.

Windowed p50/p95/p99 series come from the ``request_latency``
streaming histogram (<= ~4.4% relative error, see
:mod:`repro.metrics.histogram`); windows with no completions burn
nothing (an idle server is not out of SLO — shed requests are
accounted separately through the shed-rate series).
"""

from __future__ import annotations

from repro.metrics.registry import MetricsRegistry

__all__ = ["SLO_TARGET", "SLOMonitor", "serve_summary"]

#: SLO attainment target defining the error budget
SLO_TARGET = 0.99

#: latency quantiles exported per window
QUANTILES = (50, 95, 99)


class SLOMonitor:
    """Burn rate and "SLO minutes violated" from a serving run's
    registry (see module doc for the exact definitions)."""

    def __init__(self, registry: MetricsRegistry, slo_s: float):
        if slo_s <= 0:
            raise ValueError("slo_s must be positive")
        self.registry = registry
        self.slo_s = slo_s

    def summary(self) -> dict:
        """JSON-safe SLO view: per-window series + run aggregates."""
        reg = self.registry
        ws = reg.window_s
        budget = 1.0 - SLO_TARGET
        hist = reg.find("histogram", "request_latency")
        viol = reg.find("counter", "slo_violations")
        viol_windows = {} if viol is None else {
            int(round(row["t"] / ws)): row["value"] for row in viol.series()
        }

        windows: list[dict] = []
        total_done = 0
        total_viol = 0.0
        violated_s = 0.0
        if hist is not None:
            for t0, h in hist.window_items():
                n = h.count
                v = viol_windows.get(int(round(t0 / ws)), 0.0)
                frac = v / n if n else 0.0
                burn = frac / budget
                violated = n > 0 and burn > 1.0
                if violated:
                    violated_s += ws
                p50, p95, p99 = h.quantiles(QUANTILES)
                windows.append({
                    "t_ms": t0 * 1e3,
                    "completed": n,
                    "violations": int(v),
                    "p50_ms": p50 * 1e3,
                    "p95_ms": p95 * 1e3,
                    "p99_ms": p99 * 1e3,
                    "burn_rate": burn,
                    "violated": violated,
                })
                total_done += n
                total_viol += v
        frac = total_viol / total_done if total_done else 0.0
        return {
            "slo_ms": self.slo_s * 1e3,
            "target": SLO_TARGET,
            "window_ms": ws * 1e3,
            "windows": windows,
            "completed": total_done,
            "violations": int(total_viol),
            "attainment": 1.0 - frac,
            "burn_rate": frac / budget,
            "slo_minutes_violated": violated_s / 60.0,
        }


def _counter_series(reg: MetricsRegistry, name: str):
    """Sum a counter across all its label sets into one window series."""
    total = 0.0
    windows: dict[float, float] = {}
    found = False
    for _, _, _, c in reg.instruments("counter", name):
        found = True
        total += c.total
        for row in c.series():
            windows[row["t"]] = windows.get(row["t"], 0.0) + row["value"]
    if not found:
        return None
    return {
        "total": total,
        "windows": [{"t": t, "value": windows[t]} for t in sorted(windows)],
    }


def serve_summary(registry: MetricsRegistry, slo_s: float) -> dict:
    """One serving run's metrics, shaped for reports and dashboards.

    Bundles the :class:`SLOMonitor` output with the per-stage latency
    quantile series, admission/shed/degraded accounting, the cache
    effectiveness series and any annotated chaos events.  Everything is
    JSON-safe and deterministically ordered, so the sweep/chaos fan-out
    contract (byte-identical across ``--workers``) extends to metrics.
    """
    reg = registry
    out: dict = {
        "window_ms": reg.window_s * 1e3,
        "slo": SLOMonitor(reg, slo_s).summary(),
    }

    stages: dict[str, list] = {}
    for _, _, labels, hist in reg.instruments("histogram", "stage_latency"):
        rows = []
        for row in hist.series(QUANTILES):
            rows.append({
                "t_ms": row["t"] * 1e3,
                "count": row["count"],
                **{f"p{q:g}_ms": row[f"p{q:g}"] * 1e3 for q in QUANTILES},
            })
        stages[labels["stage"]] = rows
    if stages:
        out["stages"] = stages

    queues: dict[str, list] = {}
    for _, _, labels, g in reg.instruments("gauge", "admission_depth"):
        queues[f"gpu{labels['gpu']}"] = g.series()
    if queues:
        out["admission_depth"] = queues

    batch = reg.find("histogram", "batch_size")
    if batch is not None:
        out["batch_size"] = batch.series((50, 95, 99))

    shed = _counter_series(reg, "requests_shed")
    if shed is not None:
        out["shed"] = shed
    degraded = _counter_series(reg, "requests_degraded")
    if degraded is not None:
        out["degraded"] = degraded

    links: dict[str, dict] = {}
    for _, _, labels, c in reg.instruments("counter", "link_bytes"):
        links[labels["link"]] = {"total": c.total, "windows": c.series()}
    if links:
        out["link_bytes"] = links

    cache: dict = {}
    paths: dict[str, dict] = {}
    for _, _, labels, c in reg.instruments("counter", "feature_requests"):
        paths[labels["path"]] = {"total": c.total, "windows": c.series()}
    if paths:
        cache["feature"] = paths
    for counter, key in (("cache_hit", "hits"),
                         ("cache_promote", "promotions"),
                         ("cache_demote", "demotions")):
        series = _counter_series(reg, counter)
        if series is not None:
            cache[key] = series
    if cache:
        out["cache"] = cache

    if reg.events:
        out["events"] = [
            {"t_ms": t * 1e3, "name": name}
            for t, name, _ in sorted(reg.events, key=lambda e: (e[0], e[1]))
        ]
    return out
