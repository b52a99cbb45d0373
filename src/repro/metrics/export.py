"""Metrics exporters: Prometheus text snapshot, JSONL and CSV series.

Three shapes for three consumers:

- :func:`to_prometheus` — the end-of-run *snapshot* in the Prometheus
  text exposition format (totals, last gauge values, cumulative
  histogram ``_bucket``/``_sum``/``_count`` rows with ``le`` upper
  bounds), for scraping-style integrations;
- :func:`to_jsonl` — the full windowed *time series*, one JSON object
  per line ordered by ``(time, kind, name, labels)``, the substrate
  ``repro report`` and downstream analysis read;
- :func:`to_csv` — the same series flattened to
  ``t,kind,name,labels,field,value`` rows for spreadsheets.

All three are pure functions of the registry contents, so the
byte-identical-across-``--workers`` contract of the sweep and chaos
drivers extends to every export format.
"""

from __future__ import annotations

import json

from repro.metrics.registry import Counter, Gauge, Histogram, MetricsRegistry

__all__ = ["to_csv", "to_jsonl", "to_prometheus"]


def _prom_name(name: str) -> str:
    return "repro_" + name


def _prom_labels(labels: dict, extra: dict | None = None) -> str:
    items = dict(labels)
    if extra:
        items.update(extra)
    if not items:
        return ""
    body = ",".join(
        f'{k}="{v}"' for k, v in sorted((k, str(v)) for k, v in items.items())
    )
    return "{" + body + "}"


def _fmt(value: float) -> str:
    if value != value:  # NaN
        return "NaN"
    if value == float("inf"):
        return "+Inf"
    return repr(float(value))


def to_prometheus(registry: MetricsRegistry) -> str:
    """End-of-run snapshot in the Prometheus text exposition format."""
    lines: list[str] = []
    seen_types: set[str] = set()

    def head(name: str, kind: str, help_text: str) -> None:
        if name in seen_types:
            return
        seen_types.add(name)
        lines.append(f"# HELP {name} {help_text}")
        lines.append(f"# TYPE {name} {kind}")

    for kind, name, labels, inst in registry.instruments():
        pname = _prom_name(name)
        if kind == "counter":
            head(pname + "_total", "counter", f"{name} (run total)")
            lines.append(
                f"{pname}_total{_prom_labels(labels)} {_fmt(inst.total)}"
            )
        elif kind == "gauge":
            head(pname, "gauge", f"{name} (final value)")
            lines.append(f"{pname}{_prom_labels(labels)} {_fmt(inst.last)}")
        else:  # histogram
            h = inst.cumulative
            head(pname, "histogram", f"{name} (cumulative)")
            acc = h.zero
            if h.count:
                lines.append(
                    f"{pname}_bucket"
                    f"{_prom_labels(labels, {'le': _fmt(h.min_value)})} {acc}"
                )
                for i in sorted(h.counts):
                    acc += h.counts[i]
                    le = h.growth ** (i + 1)
                    lines.append(
                        f"{pname}_bucket"
                        f"{_prom_labels(labels, {'le': _fmt(le)})} {acc}"
                    )
            lines.append(
                f"{pname}_bucket{_prom_labels(labels, {'le': '+Inf'})} "
                f"{h.count}"
            )
            lines.append(f"{pname}_sum{_prom_labels(labels)} {_fmt(h.total)}")
            lines.append(f"{pname}_count{_prom_labels(labels)} {h.count}")
    return "\n".join(lines) + ("\n" if lines else "")


def _series_rows(registry: MetricsRegistry) -> list[dict]:
    """Every windowed sample of every instrument, plus events, ordered
    by ``(t, kind, name, labels)`` — the canonical series stream."""
    rows: list[dict] = []
    for kind, name, labels, inst in registry.instruments():
        if isinstance(inst, Counter):
            for row in inst.series():
                rows.append({"t": row["t"], "kind": kind, "name": name,
                             "labels": labels, "value": row["value"]})
        elif isinstance(inst, Gauge):
            for row in inst.series():
                rows.append({"t": row["t"], "kind": kind, "name": name,
                             "labels": labels, "mean": row["mean"],
                             "max": row["max"]})
        elif isinstance(inst, Histogram):
            for row in inst.series():
                out = {"t": row["t"], "kind": kind, "name": name,
                       "labels": labels, "count": row["count"],
                       "mean": row["mean"]}
                for k, v in row.items():
                    if k.startswith("p"):
                        out[k] = v
                rows.append(out)
    for t, name, attrs in registry.events:
        rows.append({"t": t, "kind": "event", "name": name,
                     "labels": {}, **attrs})
    rows.sort(key=lambda r: (r["t"], r["kind"], r["name"],
                             sorted(r["labels"].items())))
    return rows


def to_jsonl(registry: MetricsRegistry) -> str:
    """The windowed series as JSON Lines (one object per sample)."""
    return "".join(
        json.dumps(row, sort_keys=True) + "\n"
        for row in _series_rows(registry)
    )


def to_csv(registry: MetricsRegistry) -> str:
    """The windowed series flattened to long-form CSV."""
    lines = ["t,kind,name,labels,field,value"]
    for row in _series_rows(registry):
        labels = ";".join(f"{k}={v}" for k, v in sorted(row["labels"].items()))
        for field, value in row.items():
            if field in ("t", "kind", "name", "labels"):
                continue
            lines.append(
                f"{row['t']!r},{row['kind']},{row['name']},{labels},"
                f"{field},{value!r}"
            )
    return "\n".join(lines) + "\n"
