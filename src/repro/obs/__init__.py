"""Observability: tracing, trace export, and timeline analysis.

Attach a :class:`Tracer` to the discrete-event engine (or pass one to
``TrainingSystem.run_epoch``) to record span/instant/counter events
while a simulated epoch runs, through the engine's :class:`Probe`;
export the result as Chrome trace-event JSON (Perfetto /
``chrome://tracing``) or plain text; and compute the
per-GPU busy/stall breakdown and the epoch's critical path.  See
``docs/observability.md`` for the event schema and the CLI entry point
(``python -m repro trace``).
"""

from repro.obs.tracer import (
    CounterEvent,
    InstantEvent,
    SpanEvent,
    Tracer,
    WAIT_CATEGORIES,
    wait_category,
)
from repro.obs.probe import Probe
from repro.obs.export import (
    read_chrome_trace,
    run_trace_path,
    to_chrome_trace,
    to_text,
    write_chrome_trace,
)
from repro.obs.analysis import (
    GpuBreakdown,
    PathSegment,
    critical_path,
    format_breakdown,
    format_critical_path,
    sm_busy_times,
    stall_breakdown,
)

__all__ = [
    "Probe",
    "Tracer",
    "SpanEvent",
    "InstantEvent",
    "CounterEvent",
    "WAIT_CATEGORIES",
    "wait_category",
    "read_chrome_trace",
    "run_trace_path",
    "to_chrome_trace",
    "to_text",
    "write_chrome_trace",
    "GpuBreakdown",
    "PathSegment",
    "critical_path",
    "format_breakdown",
    "format_critical_path",
    "sm_busy_times",
    "stall_breakdown",
]
