"""Streaming metrics, SLO health monitoring and run reports.

The observability layer next to :mod:`repro.obs`: where the tracer
retains every event for post-hoc timelines, the metrics registry
*streams* — samples fold into fixed sim-time windows as they arrive,
so per-window p50/p95/p99 come from bounded state however long the
run.  Zero-cost when detached (see :mod:`repro.obs.probe`) and
byte-identical across ``--workers`` (window boundaries are a pure
function of simulated time).

See ``docs/observability.md`` for the metric/label schema, window
semantics and SLO definitions.
"""

from repro.metrics.export import to_csv, to_jsonl, to_prometheus
from repro.metrics.histogram import DEFAULT_GROWTH, LogHistogram
from repro.metrics.quantile import nearest_rank, percentile, percentiles
from repro.metrics.registry import Counter, Gauge, Histogram, MetricsRegistry
from repro.metrics.report import build_report, write_report
from repro.metrics.slo import SLO_TARGET, SLOMonitor, serve_summary

__all__ = [
    "DEFAULT_GROWTH",
    "Counter",
    "Gauge",
    "Histogram",
    "LogHistogram",
    "MetricsRegistry",
    "SLO_TARGET",
    "SLOMonitor",
    "build_report",
    "nearest_rank",
    "percentile",
    "percentiles",
    "serve_summary",
    "to_csv",
    "to_jsonl",
    "to_prometheus",
    "write_report",
]
