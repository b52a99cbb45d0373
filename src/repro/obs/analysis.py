"""Trace analysis: per-GPU busy/stall breakdown and epoch critical path.

Two questions a timeline answers that scalar metrics cannot:

- **Where does each GPU's time go?**  :func:`stall_breakdown`
  reconstructs per-GPU busy time from the SM-resource counter series
  (the same integral :meth:`repro.engine.resources.Resource.busy_fraction`
  computes, so the two agree to float precision) and attributes each
  worker's blocked intervals to a stall category (queue back-pressure,
  SM contention, channel contention, rendezvous, CCC gate).
- **What sequence of ops bounded the epoch?**  :func:`critical_path`
  walks the timeline backwards from the last-finishing op, at each step
  jumping to the op that finished last at-or-before the current op
  started.  The result is the chain of work (plus any idle gaps) whose
  durations sum to the epoch time — the place a perf PR must attack.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from repro.obs.tracer import SpanEvent, Tracer, WAIT_CATEGORIES

_TRACK_GPU_RE = re.compile(r"-gpu(\d+)$")
_STALL_CATS = set(WAIT_CATEGORIES) | {"wait"}


@dataclass
class GpuBreakdown:
    """One GPU's time accounting over an epoch.

    ``busy`` is wall-clock with >= 1 kernel resident (matches
    ``PipelineResult.busy_fraction`` x total).  ``stalls`` are summed
    over the GPU's workers, so with multiple workers per GPU they are
    *worker-seconds* and may exceed the wall clock.
    """

    gpu: int
    busy: float = 0.0
    stalls: dict = field(default_factory=dict)

    def stall(self, cat: str) -> float:
        return self.stalls.get(cat, 0.0)


def track_gpu(track: str) -> int | None:
    """GPU index a worker track belongs to (``...-gpu3`` -> 3)."""
    m = _TRACK_GPU_RE.search(track)
    return int(m.group(1)) if m else None


def sm_busy_times(tracer: Tracer, total_time: float,
                  num_gpus: int) -> list[float]:
    """Per-GPU wall time with at least one kernel resident.

    Integrates the step function recorded by the ``gpu<g>-sm`` "used"
    counters — the same quantity the :class:`Resource` accumulates —
    so the result matches ``Resource.busy_fraction(total) * total``.
    """
    busy = [0.0] * num_gpus
    for g in range(num_gpus):
        points = sorted(
            ((ev.ts, ev.values.get("used", 0))
             for ev in tracer.counters(track=f"gpu{g}-sm", name="used")),
            key=lambda p: p[0],
        )
        last_t, used = 0.0, 0
        for ts, value in points:
            if used > 0:
                busy[g] += ts - last_t
            last_t, used = ts, value
        if used > 0 and total_time > last_t:
            busy[g] += total_time - last_t
    return busy


def stall_breakdown(tracer: Tracer, total_time: float,
                    num_gpus: int) -> list[GpuBreakdown]:
    """Per-GPU busy time and per-category stall (worker-)seconds."""
    out = [GpuBreakdown(gpu=g) for g in range(num_gpus)]
    for g, busy in enumerate(sm_busy_times(tracer, total_time, num_gpus)):
        out[g].busy = busy
    for ev in tracer.spans():
        if ev.cat not in _STALL_CATS:
            continue
        g = track_gpu(ev.track)
        if g is None or g >= num_gpus:
            continue
        stalls = out[g].stalls
        stalls[ev.cat] = stalls.get(ev.cat, 0.0) + ev.duration
    return out


@dataclass(frozen=True)
class PathSegment:
    """One link of the critical path (``track`` empty for idle gaps)."""

    track: str
    name: str
    cat: str
    start: float
    end: float

    @property
    def duration(self) -> float:
        return self.end - self.start


def critical_path(tracer: Tracer, eps: float = 1e-12) -> list[PathSegment]:
    """Backward last-finisher chain over the work (non-stall) spans.

    Starting from the span that ends last, repeatedly pick the span
    with the latest end at-or-before the current span's start; a jump
    across simulated time with no candidate span becomes an explicit
    ``idle`` segment.  Returns segments in chronological order.
    """
    # zero-length spans (free ops, e.g. single-GPU collectives) cannot
    # carry path time and would stall the backward walk — drop them
    work = sorted(
        (ev for ev in tracer.spans()
         if ev.cat not in _STALL_CATS and ev.end - ev.start > eps),
        key=lambda ev: ev.end,
    )
    if not work:
        return []
    path: list[PathSegment] = []
    cur: SpanEvent = work[-1]
    path.append(PathSegment(cur.track, cur.name, cur.cat, cur.start, cur.end))
    cursor = cur.start
    i = len(work) - 2  # each span joins the path at most once
    while cursor > eps:
        # latest-ending span with end <= cursor (+eps slack for float ties)
        while i >= 0 and work[i].end > cursor + eps:
            i -= 1
        if i < 0:
            path.append(PathSegment("", "idle", "idle", 0.0, cursor))
            break
        nxt = work[i]
        i -= 1
        if nxt.end < cursor - eps:
            path.append(PathSegment("", "idle", "idle", nxt.end, cursor))
        path.append(
            PathSegment(nxt.track, nxt.name, nxt.cat, nxt.start, nxt.end)
        )
        cursor = min(cursor, nxt.start)
    path.reverse()
    return path


# ----------------------------------------------------------------------
# report formatting
# ----------------------------------------------------------------------
def format_breakdown(breakdowns: list[GpuBreakdown],
                     total_time: float) -> str:
    """Fixed-width stall-breakdown table (one row per GPU + mean)."""
    cats = list(WAIT_CATEGORIES)
    header = f"{'gpu':>4} {'busy':>8}" + "".join(
        f" {c.replace('-wait', ''):>11}" for c in cats
    )
    lines = [header]

    def row(label: str, busy: float, stalls: dict) -> str:
        frac = busy / total_time if total_time > 0 else 0.0
        return (f"{label:>4} {frac:>8.2%}"
                + "".join(f" {stalls.get(c, 0.0):>11.6f}" for c in cats))

    n = len(breakdowns)
    for b in breakdowns:
        lines.append(row(str(b.gpu), b.busy, b.stalls))
    if n > 1:
        mean_busy = sum(b.busy for b in breakdowns) / n
        mean_stalls = {
            c: sum(b.stall(c) for b in breakdowns) / n for c in cats
        }
        lines.append(row("mean", mean_busy, mean_stalls))
    lines.append(
        f"(busy = wall fraction with a kernel resident; stall columns are "
        f"blocked worker-seconds over {total_time:.6f}s simulated)"
    )
    return "\n".join(lines)


def format_critical_path(path: list[PathSegment], top: int = 12) -> str:
    """Summarize the critical path: top links + per-category totals."""
    if not path:
        return "critical path: (no work spans)"
    total = path[-1].end - path[0].start
    by_cat: dict[str, float] = {}
    for seg in path:
        by_cat[seg.cat] = by_cat.get(seg.cat, 0.0) + seg.duration
    lines = [f"critical path: {len(path)} links covering {total:.6f}s"]
    for cat, dur in sorted(by_cat.items(), key=lambda kv: -kv[1]):
        share = dur / total if total > 0 else 0.0
        lines.append(f"  {cat:<10} {dur:>12.6f}s  {share:>6.1%}")
    longest = sorted(path, key=lambda s: -s.duration)[:top]
    lines.append(f"  longest links (top {len(longest)}):")
    for seg in longest:
        where = seg.track or "-"
        lines.append(
            f"    {seg.duration:>12.6f}s  {seg.name:<20} {seg.cat:<8} {where}"
        )
    return "\n".join(lines)
