"""Self-contained HTML run report (``repro report``).

One artifact that merges the windowed metrics timelines of a serving
run (p99/burn-rate series, stage latencies, queue depth, shed rate,
cache effectiveness, chaos event markers), the chaos scenario matrix
with its per-scenario "SLO minutes violated" column, and the existing
trace analyses (stall breakdown, critical path) as preformatted text.

The output is a single file with inline SVG and a small hover layer —
no external assets, so it can be attached to a CI run or mailed
around.  Rendering is a pure function of the input dicts (no clocks,
no randomness): the same serve/chaos JSON produces byte-identical
HTML, which keeps the artifact inside the repo's determinism contract.

Chart conventions follow the repo-wide dataviz rules: categorical
series take palette slots in fixed order (never cycled past 8 — the
tail folds into "other"), ordered series (p50/p95/p99) use one blue
ramp, thresholds are dashed status-colored rules, text stays in text
tokens, every figure carries a legend when it has >= 2 series plus a
table-view twin, and values are also reachable without hover.
"""

from __future__ import annotations

import html
import json
import math

__all__ = ["build_report", "write_report"]

# -- palette (validated reference instance; see docs/observability.md) ----
_CSS = """
:root { color-scheme: light; }
body {
  margin: 0; background: #f9f9f7; color: #0b0b0b;
  font: 14px/1.45 system-ui, -apple-system, "Segoe UI", sans-serif;
  --surface-1: #fcfcfb; --page: #f9f9f7;
  --ink-1: #0b0b0b; --ink-2: #52514e; --ink-3: #898781;
  --grid: #e1e0d9; --axis: #c3c2b7; --ring: rgba(11,11,11,0.10);
  --series-1: #2a78d6; --series-2: #eb6834; --series-3: #1baf7a;
  --series-4: #eda100; --series-5: #e87ba4; --series-6: #008300;
  --series-7: #4a3aa7; --series-8: #e34948;
  --ramp-250: #86b6ef; --ramp-450: #2a78d6; --ramp-650: #104281;
  --status-good: #0ca30c; --status-warning: #fab219;
  --status-serious: #ec835a; --status-critical: #d03b3b;
}
@media (prefers-color-scheme: dark) {
  :root { color-scheme: dark; }
  body {
    background: #0d0d0d; color: #ffffff;
    --surface-1: #1a1a19; --page: #0d0d0d;
    --ink-1: #ffffff; --ink-2: #c3c2b7; --ink-3: #898781;
    --grid: #2c2c2a; --axis: #383835; --ring: rgba(255,255,255,0.10);
    --series-1: #3987e5; --series-2: #d95926; --series-3: #199e70;
    --series-4: #c98500; --series-5: #d55181; --series-6: #008300;
    --series-7: #9085e9; --series-8: #e66767;
    --ramp-250: #6da7ec; --ramp-450: #3987e5; --ramp-650: #184f95;
  }
}
main { max-width: 880px; margin: 0 auto; padding: 24px 16px 48px; }
h1 { font-size: 22px; margin: 0 0 4px; }
h2 { font-size: 16px; margin: 32px 0 8px; }
.sub { color: var(--ink-2); margin: 0 0 16px; }
.tiles { display: flex; flex-wrap: wrap; gap: 12px; margin: 16px 0; }
.tile {
  background: var(--surface-1); border: 1px solid var(--ring);
  border-radius: 8px; padding: 12px 16px; min-width: 128px;
}
.tile .label { color: var(--ink-2); font-size: 12px; }
.tile .value { font-size: 26px; font-weight: 600; margin-top: 2px; }
.tile .note { color: var(--ink-3); font-size: 12px; margin-top: 2px; }
figure {
  background: var(--surface-1); border: 1px solid var(--ring);
  border-radius: 8px; margin: 12px 0; padding: 12px 16px 8px;
}
figcaption { font-weight: 600; margin-bottom: 2px; }
.figsub { color: var(--ink-2); font-size: 12px; margin-bottom: 8px; }
.legend { display: flex; flex-wrap: wrap; gap: 4px 16px; margin: 6px 0 2px;
          color: var(--ink-2); font-size: 12px; }
.legend .key { display: inline-block; width: 14px; height: 0;
               border-top: 2px solid; border-radius: 1px;
               vertical-align: middle; margin-right: 5px; }
svg { display: block; width: 100%; height: auto; }
svg text { font: 11px system-ui, -apple-system, "Segoe UI", sans-serif;
           fill: var(--ink-3); font-variant-numeric: tabular-nums; }
details { margin: 6px 0 4px; }
summary { color: var(--ink-2); font-size: 12px; cursor: pointer; }
table { border-collapse: collapse; font-size: 12px; margin-top: 6px;
        font-variant-numeric: tabular-nums; }
th, td { padding: 3px 10px 3px 0; text-align: right;
         border-bottom: 1px solid var(--grid); }
th { color: var(--ink-2); font-weight: 600; }
th:first-child, td:first-child { text-align: left; }
pre {
  background: var(--surface-1); border: 1px solid var(--ring);
  border-radius: 8px; padding: 12px 16px; overflow-x: auto;
  font-size: 12px; line-height: 1.4;
}
.bar-rect:hover { opacity: 0.82; }
#tooltip {
  position: fixed; pointer-events: none; display: none; z-index: 10;
  background: var(--surface-1); border: 1px solid var(--ring);
  border-radius: 6px; padding: 6px 10px; font-size: 12px;
  box-shadow: 0 2px 8px rgba(0,0,0,0.12);
}
#tooltip .t { color: var(--ink-2); margin-bottom: 2px; }
#tooltip .row { display: flex; align-items: center; gap: 6px; }
#tooltip .row .key { width: 12px; height: 0; border-top: 2px solid; }
#tooltip .row b { font-weight: 600; }
#tooltip .row span { color: var(--ink-2); }
"""

# hover layer: crosshair + all-series tooltip on line charts, per-mark
# tooltip on bars.  Labels land in the DOM via textContent only.
_JS = """
(function () {
  var tip = document.createElement('div');
  tip.id = 'tooltip';
  document.body.appendChild(tip);
  function showTip(x, y) {
    tip.style.display = 'block';
    var w = tip.offsetWidth, h = tip.offsetHeight;
    var px = Math.min(x + 14, window.innerWidth - w - 8);
    tip.style.left = px + 'px';
    tip.style.top = Math.max(4, y - h - 12) + 'px';
  }
  function row(color, value, label) {
    var r = document.createElement('div'); r.className = 'row';
    var k = document.createElement('i'); k.className = 'key';
    k.style.borderTopColor = color; r.appendChild(k);
    var b = document.createElement('b');
    b.textContent = value; r.appendChild(b);
    var s = document.createElement('span');
    s.textContent = label; r.appendChild(s);
    return r;
  }
  document.querySelectorAll('figure[data-chart]').forEach(function (fig) {
    var d = JSON.parse(fig.getAttribute('data-chart'));
    var svg = fig.querySelector('svg');
    if (!svg || !d.x.length) return;
    var ns = 'http://www.w3.org/2000/svg';
    var hair = document.createElementNS(ns, 'line');
    hair.setAttribute('y1', d.top); hair.setAttribute('y2', d.bottom);
    hair.setAttribute('stroke', 'var(--axis)');
    hair.setAttribute('stroke-width', '1');
    hair.style.display = 'none';
    svg.appendChild(hair);
    svg.addEventListener('pointermove', function (ev) {
      var box = svg.getBoundingClientRect();
      var vx = (ev.clientX - box.left) * d.width / box.width;
      var best = 0, bd = Infinity;
      for (var i = 0; i < d.px.length; i++) {
        var dd = Math.abs(d.px[i] - vx);
        if (dd < bd) { bd = dd; best = i; }
      }
      hair.setAttribute('x1', d.px[best]);
      hair.setAttribute('x2', d.px[best]);
      hair.style.display = '';
      tip.replaceChildren();
      var t = document.createElement('div'); t.className = 't';
      t.textContent = d.x[best]; tip.appendChild(t);
      d.series.forEach(function (s) {
        var v = s.values[best];
        tip.appendChild(row(s.color, v === null ? '—' : v, s.name));
      });
      showTip(ev.clientX, ev.clientY);
    });
    svg.addEventListener('pointerleave', function () {
      hair.style.display = 'none'; tip.style.display = 'none';
    });
  });
  document.querySelectorAll('[data-bar]').forEach(function (el) {
    el.addEventListener('pointermove', function (ev) {
      var d = JSON.parse(el.getAttribute('data-bar'));
      tip.replaceChildren();
      var t = document.createElement('div'); t.className = 't';
      t.textContent = d.label; tip.appendChild(t);
      tip.appendChild(row(d.color, d.value, d.name));
      showTip(ev.clientX, ev.clientY);
    });
    el.addEventListener('pointerleave', function () {
      tip.style.display = 'none';
    });
  });
})();
"""

#: fixed categorical slot order — color follows the entity, never rank
_SLOTS = [f"var(--series-{i})" for i in range(1, 9)]
#: one-hue ordered ramp for p50 < p95 < p99
_RAMP = ["var(--ramp-250)", "var(--ramp-450)", "var(--ramp-650)"]

_W, _H = 760, 200
_ML, _MR, _MT, _MB = 52, 14, 10, 26


def _esc(s) -> str:
    return html.escape(str(s), quote=True)


def _fmt(v: float) -> str:
    """Compact human number (tick labels, tooltips, tables)."""
    if v is None or v != v:
        return "—"
    a = abs(v)
    if a >= 1e9:
        return f"{v / 1e9:.3g}G"
    if a >= 1e6:
        return f"{v / 1e6:.3g}M"
    if a >= 1e4:
        return f"{v / 1e3:.3g}k"
    if a >= 100 or v == int(v):
        return f"{v:.0f}"
    if a >= 1:
        return f"{v:.3g}"
    if a >= 1e-3:
        return f"{v:.3g}"
    return f"{v:.2g}"


def _nice_ticks(hi: float, n: int = 4) -> list[float]:
    """Clean round tick values covering [0, hi]."""
    if not hi > 0:
        return [0.0, 1.0]
    raw = hi / n
    mag = 10.0 ** math.floor(math.log10(raw))
    for mult in (1.0, 2.0, 2.5, 5.0, 10.0):
        step = mult * mag
        if step >= raw:
            break
    ticks = []
    v = 0.0
    while v < hi * (1 + 1e-9):
        ticks.append(round(v, 10))
        v += step
    ticks.append(round(v, 10))
    return ticks


class _Fig:
    """One line-chart figure: SVG + legend + hover data + table twin."""

    def __init__(self, title: str, subtitle: str, x_unit: str = "s"):
        self.title = title
        self.subtitle = subtitle
        self.x_unit = x_unit
        self.series: list[dict] = []
        self.threshold: tuple[float, str] | None = None
        self.events: list[tuple[float, str]] = []

    def add(self, name: str, points: list[tuple[float, float]],
            color: str) -> None:
        if points:
            self.series.append(
                {"name": name, "points": points, "color": color}
            )

    def render(self) -> str:
        if not self.series:
            return ""
        xs = sorted({x for s in self.series for x, _ in s["points"]})
        ymax = max(
            (y for s in self.series for _, y in s["points"] if y == y),
            default=0.0,
        )
        if self.threshold:
            ymax = max(ymax, self.threshold[0])
        ticks = _nice_ticks(ymax if ymax > 0 else 1.0)
        ymax = ticks[-1]
        x0, x1 = xs[0], xs[-1]
        span = (x1 - x0) or 1.0
        pw, ph = _W - _ML - _MR, _H - _MT - _MB

        def X(x):
            return round(_ML + (x - x0) / span * pw, 2)

        def Y(y):
            return round(_MT + ph - (y / ymax) * ph if ymax else _MT + ph, 2)

        parts = [
            f'<svg viewBox="0 0 {_W} {_H}" role="img" '
            f'aria-label="{_esc(self.title)}">'
        ]
        for t in ticks:
            y = Y(t)
            parts.append(
                f'<line x1="{_ML}" y1="{y}" x2="{_W - _MR}" y2="{y}" '
                f'stroke="var(--grid)" stroke-width="1"/>'
                f'<text x="{_ML - 6}" y="{y + 3.5}" '
                f'text-anchor="end">{_fmt(t)}</text>'
            )
        parts.append(
            f'<line x1="{_ML}" y1="{Y(0)}" x2="{_W - _MR}" y2="{Y(0)}" '
            f'stroke="var(--axis)" stroke-width="1"/>'
        )
        n_xticks = min(6, len(xs))
        for i in range(n_xticks):
            x = x0 + span * i / max(1, n_xticks - 1)
            parts.append(
                f'<text x="{X(x)}" y="{_H - 8}" text-anchor="middle">'
                f"{_fmt(x)}{_esc(self.x_unit)}</text>"
            )
        if self.threshold:
            tv, tname = self.threshold
            y = Y(tv)
            parts.append(
                f'<line x1="{_ML}" y1="{y}" x2="{_W - _MR}" y2="{y}" '
                f'stroke="var(--status-serious)" stroke-width="1" '
                f'stroke-dasharray="4 3"/>'
                f'<text x="{_W - _MR}" y="{y - 4}" text-anchor="end">'
                f"{_esc(tname)}</text>"
            )
        for t, name in self.events:
            if x0 <= t <= x1:
                parts.append(
                    f'<line x1="{X(t)}" y1="{_MT}" x2="{X(t)}" '
                    f'y2="{_MT + ph}" stroke="var(--status-critical)" '
                    f'stroke-width="1" stroke-dasharray="2 3">'
                    f"<title>{_esc(name)}</title></line>"
                )
        for s in self.series:
            pts = " ".join(f"{X(x)},{Y(y)}" for x, y in s["points"]
                           if y == y)
            parts.append(
                f'<polyline points="{pts}" fill="none" '
                f'stroke="{s["color"]}" stroke-width="2" '
                f'stroke-linejoin="round" stroke-linecap="round"/>'
            )
            lx, ly = s["points"][-1]
            if ly == ly:
                parts.append(
                    f'<circle cx="{X(lx)}" cy="{Y(ly)}" r="4" '
                    f'fill="{s["color"]}" stroke="var(--surface-1)" '
                    f'stroke-width="2"/>'
                )
        parts.append("</svg>")
        svg = "".join(parts)

        legend = ""
        if len(self.series) >= 2:
            legend = '<div class="legend">' + "".join(
                f'<span><i class="key" style="border-top-color:'
                f'{s["color"]}"></i>{_esc(s["name"])}</span>'
                for s in self.series
            ) + "</div>"

        by_x = {
            s["name"]: dict(s["points"]) for s in self.series
        }
        head = "".join(f"<th>{_esc(s['name'])}</th>" for s in self.series)
        rows = "".join(
            "<tr><td>" + _fmt(x) + self.x_unit + "</td>" + "".join(
                f"<td>{_fmt(by_x[s['name']].get(x))}</td>"
                for s in self.series
            ) + "</tr>"
            for x in xs
        )
        table = (
            "<details><summary>Data table</summary><table><tr>"
            f"<th>t</th>{head}</tr>{rows}</table></details>"
        )

        chart = {
            "width": _W, "top": _MT, "bottom": _MT + ph,
            "px": [float(X(x)) for x in xs],
            "x": [f"t = {_fmt(x)}{self.x_unit}" for x in xs],
            "series": [
                {
                    "name": s["name"], "color": s["color"],
                    "values": [
                        (None if (v := dict(s["points"]).get(x)) is None
                         or v != v else _fmt(v))
                        for x in xs
                    ],
                }
                for s in self.series
            ],
        }
        return (
            f"<figure data-chart='{_esc(json.dumps(chart))}'>"
            f"<figcaption>{_esc(self.title)}</figcaption>"
            f'<div class="figsub">{_esc(self.subtitle)}</div>'
            f"{svg}{legend}{table}</figure>"
        )


def _bar_figure(title: str, subtitle: str, rows: list[tuple[str, float]],
                unit: str) -> str:
    """Horizontal single-series bar chart (value labels at bar tips)."""
    if not rows:
        return ""
    vmax = max((v for _, v in rows), default=0.0) or 1.0
    bar_h, gap = 22, 10
    label_w, val_w = 190, 64
    h = len(rows) * (bar_h + gap) + 8
    pw = _W - label_w - val_w - _MR
    parts = [f'<svg viewBox="0 0 {_W} {h}" role="img" '
             f'aria-label="{_esc(title)}">']
    for i, (name, v) in enumerate(rows):
        y = 4 + i * (bar_h + gap)
        w = max(1.0, v / vmax * pw) if v > 0 else 0.0
        parts.append(
            f'<text x="{label_w - 8}" y="{y + bar_h / 2 + 4}" '
            f'text-anchor="end">{_esc(name)}</text>'
        )
        bar = {"label": name, "name": title, "value": f"{_fmt(v)}{unit}",
               "color": "var(--series-1)"}
        if w:
            parts.append(
                f'<path class="bar-rect" d="M{label_w},{y} '
                f"h{round(w - 4, 2)} a4,4 0 0 1 4,4 v{bar_h - 8} "
                f'a4,4 0 0 1 -4,4 h-{round(w - 4, 2)} z" '
                f'fill="var(--series-1)" '
                f"data-bar='{_esc(json.dumps(bar))}'/>"
            )
        parts.append(
            f'<text x="{label_w + w + 6}" y="{y + bar_h / 2 + 4}">'
            f"{_fmt(v)}{_esc(unit)}</text>"
        )
    parts.append(
        f'<line x1="{label_w}" y1="0" x2="{label_w}" y2="{h}" '
        f'stroke="var(--axis)" stroke-width="1"/></svg>'
    )
    table = (
        "<details><summary>Data table</summary><table>"
        "<tr><th>scenario</th><th>value</th></tr>" + "".join(
            f"<tr><td>{_esc(n)}</td><td>{_fmt(v)}{_esc(unit)}</td></tr>"
            for n, v in rows
        ) + "</table></details>"
    )
    return (
        f"<figure><figcaption>{_esc(title)}</figcaption>"
        f'<div class="figsub">{_esc(subtitle)}</div>'
        f"{''.join(parts)}{table}</figure>"
    )


def _tile(label: str, value: str, note: str = "",
          color: str | None = None) -> str:
    style = f' style="color:{color}"' if color else ""
    note_html = f'<div class="note">{_esc(note)}</div>' if note else ""
    return (
        f'<div class="tile"><div class="label">{_esc(label)}</div>'
        f'<div class="value"{style}>{_esc(value)}</div>{note_html}</div>'
    )


def _control_section(serve: dict) -> str:
    """Controller-action timeline for a served-under-control report.

    Handles all three ``report.control`` shapes (see
    ``docs/control.md``): a single tuner summary, the router's
    ``{"replicas": [...]}`` list, and the autoscaler's
    ``{"autoscale": ..., "replicas": [...]}`` record.
    """
    control = serve.get("control") or {}
    if not control:
        return ""
    if "action_counts" in control:
        tuners = [("server", control)]
    else:
        tuners = [(f"replica{i}", t)
                  for i, t in enumerate(control.get("replicas") or [])
                  if t]
    auto = control.get("autoscale") or {}
    end_s = serve.get("elapsed_s") or 0.0

    out = ["<h2>Control plane</h2>",
           '<p class="sub">Online knob changes made by the SLO-burn '
           "controller; everything below is replayable from the "
           "action log.</p>"]
    n_actions = sum(
        sum(t.get("action_counts", {}).values()) for _, t in tuners
    ) + len(auto.get("actions") or ())
    tiles = [_tile("Controller actions", _fmt(n_actions))]
    if tuners:
        final = tuners[0][1].get("final") or {}
        base = tuners[0][1].get("baseline") or {}
        if final:
            tiles.append(_tile(
                "Final batch max", _fmt(final.get("batch_max")),
                f"baseline {_fmt(base.get('batch_max'))}"))
            tiles.append(_tile(
                "Final max-wait", f"{_fmt(final.get('timeout_ms'))}ms",
                f"baseline {_fmt(base.get('timeout_ms'))}ms"))
            if final.get("pressure"):
                tiles.append(_tile("Shed pressure",
                                   _fmt(final["pressure"]),
                                   "priorities below are shed"))
    if auto:
        tiles.append(_tile(
            "Replicas", _fmt(auto.get("final_replicas")),
            f"peak {_fmt(auto.get('max_replicas_used'))}"))
    out.append(f'<div class="tiles">{"".join(tiles)}</div>')

    def knob_steps(actions, knob, base):
        """Step series of one knob's value over time."""
        pts = [(0.0, base)] if base is not None else []
        for a in actions:
            if a.get("knob") != knob:
                continue
            t = a["t_ms"] / 1e3
            pts.append((t, a["before"]))
            pts.append((t, a["after"]))
        if pts and end_s > pts[-1][0]:
            pts.append((end_s, pts[-1][1]))
        return pts if len(pts) > 1 else []

    for knob, title, unit, scale in (
            ("timeout_ms", "Batch max-wait over time", "ms", 1.0),
            ("batch_max", "Batch size cap over time", "", 1.0)):
        fig = _Fig(title, "controller-applied steps; flat = no action",
                   x_unit="s")
        drew = False
        for i, (name, t) in enumerate(tuners[:8]):
            base_key = "timeout_ms" if knob == "timeout_ms" else "batch_max"
            base = (t.get("baseline") or {}).get(base_key)
            pts = knob_steps(t.get("actions") or [], knob, base)
            if pts:
                fig.add(name, [(x, v * scale) for x, v in pts], _SLOTS[i])
                drew = True
        if drew:
            out.append(fig.render())

    timeline = auto.get("timeline") or []
    if timeline:
        fig = _Fig("Serving replicas over time",
                   "routable (active) and warming replicas per control "
                   "interval", x_unit="s")
        for i, key in enumerate(("active", "warming")):
            fig.add(key, [(r["t_ms"] / 1e3, r[key]) for r in timeline],
                    _SLOTS[i])
        out.append(fig.render())

    rows = []
    for name, t in tuners:
        for a in t.get("actions") or []:
            rows.append((a["t_ms"] / 1e3, name, a))
    for a in auto.get("actions") or []:
        rows.append((a["t_ms"] / 1e3, "autoscaler", a))
    rows.sort(key=lambda r: (r[0], r[1]))
    if rows:
        body = "".join(
            f"<tr><td>{_fmt(t)}s</td><td>{_esc(actor)}</td>"
            f"<td>{_esc(a['kind'])}</td><td>{_esc(a['knob'])}</td>"
            f"<td>{_fmt(a['before'])}</td><td>{_fmt(a['after'])}</td>"
            f"<td>{_fmt(a.get('signal'))}</td></tr>"
            for t, actor, a in rows
        )
        out.append(
            f"<details><summary>Action log ({len(rows)})</summary>"
            "<table><tr><th>t</th><th>actor</th><th>action</th>"
            "<th>knob</th><th>before</th><th>after</th>"
            f"<th>signal</th></tr>{body}</table></details>"
        )

    tenants = serve.get("tenants") or {}
    if tenants:
        body = "".join(
            f"<tr><td>{_esc(name)}</td><td>{_fmt(t.get('priority'))}</td>"
            f"<td>{_fmt(t.get('offered'))}</td>"
            f"<td>{_fmt(t.get('completed'))}</td>"
            f"<td>{_fmt(t.get('shed'))}</td>"
            f"<td>{_fmt(t.get('slo_violations'))}</td>"
            f"<td>{_fmt(t.get('p99_ms'))}</td></tr>"
            for name, t in tenants.items()
        )
        out.append(
            "<h2>Tenants</h2><table><tr><th>tenant</th><th>prio</th>"
            "<th>offered</th><th>completed</th><th>shed</th>"
            f"<th>SLO viol.</th><th>p99 (ms)</th></tr>{body}</table>"
        )
    return "".join(out)


def _serve_section(serve: dict) -> str:
    """Stat tiles + metric timelines for one serving run."""
    out: list[str] = []
    lat = serve.get("latency_ms", {})
    metrics = serve.get("metrics") or {}
    slo = metrics.get("slo") or {}

    tiles = []
    minutes = slo.get("slo_minutes_violated")
    if minutes is not None:
        ok = minutes == 0
        tiles.append(_tile(
            "SLO minutes violated",
            f"{minutes:.3g}",
            "burn rate > 1" if not ok else "no window out of SLO",
            color="var(--status-good)" if ok else "var(--status-critical)",
        ))
    att = slo.get("attainment", serve.get("slo_attainment"))
    if att is not None:
        tiles.append(_tile("SLO attainment", f"{att * 100:.2f}%",
                           f"target {slo.get('target', 0.99) * 100:g}%"))
    if lat.get("p99") is not None:
        tiles.append(_tile("p99 latency", f"{_fmt(lat['p99'])}ms",
                           f"SLO {_fmt(serve.get('slo_ms'))}ms"))
    if serve.get("completed") is not None:
        tiles.append(_tile("Completed", _fmt(serve["completed"]),
                           f"{_fmt(serve.get('shed', 0))} shed"))
    if serve.get("goodput_qps") is not None:
        tiles.append(_tile("Goodput", f"{_fmt(serve['goodput_qps'])} qps",
                           f"offered {_fmt(serve.get('offered_qps'))} qps"))
    out.append(
        f"<h2>Serving — {_esc(serve.get('system', '?'))} @ "
        f"{_fmt(serve.get('offered_qps', 0))} qps</h2>"
        f'<div class="tiles">{"".join(tiles)}</div>'
    )
    if not metrics:
        out.append('<p class="sub">No metrics attached — run with '
                   "<code>--metrics</code> for timelines.</p>")
        out.append(_control_section(serve))
        return "".join(out)

    events = [(e["t_ms"] / 1e3, e["name"])
              for e in metrics.get("events", [])]
    win_ms = metrics.get("window_ms", 0.0)

    fig = _Fig("Windowed request latency",
               f"p50/p95/p99 per {_fmt(win_ms)}ms window; dashed rule "
               "is the SLO, red markers are chaos events")
    for q, color in zip(("p50", "p95", "p99"), _RAMP):
        fig.add(q, [(w["t_ms"] / 1e3, w[f"{q}_ms"])
                    for w in slo.get("windows", [])], color)
    if serve.get("slo_ms"):
        fig.threshold = (serve["slo_ms"], "SLO")
    fig.events = events
    out.append(fig.render())

    fig = _Fig("SLO burn rate",
               "violation fraction / error budget per window; above the "
               "dashed rule the window is out of SLO")
    fig.add("burn rate", [(w["t_ms"] / 1e3, w["burn_rate"])
                          for w in slo.get("windows", [])], _SLOTS[0])
    fig.threshold = (1.0, "budget")
    fig.events = events
    out.append(fig.render())

    stages = metrics.get("stages") or {}
    fig = _Fig("Stage latency (p95)",
               "per-stage p95 per window, in pipeline order")
    order = ("queue", "batch", "sample", "load", "compute")
    names = [s for s in order if s in stages]
    names += sorted(set(stages) - set(names))
    for i, name in enumerate(names[:8]):
        fig.add(name, [(r["t_ms"] / 1e3, r["p95_ms"])
                       for r in stages[name]], _SLOTS[i])
    out.append(fig.render())

    fig = _Fig("Admission queue depth",
               "time-weighted mean depth per GPU per window")
    for i, (gpu, rows) in enumerate(
            sorted((metrics.get("admission_depth") or {}).items())[:8]):
        fig.add(gpu, [(r["t"], r["mean"]) for r in rows], _SLOTS[i])
    out.append(fig.render())

    fig = _Fig("Shed and degraded requests", "requests per window")
    for i, key in enumerate(("shed", "degraded")):
        data = metrics.get(key)
        if data:
            fig.add(key, [(r["t"], r["value"]) for r in data["windows"]],
                    _SLOTS[i])
    out.append(fig.render())

    links = metrics.get("link_bytes") or {}
    if links:
        ranked = sorted(links.items(),
                        key=lambda kv: (-kv[1]["total"], kv[0]))
        fig = _Fig("Interconnect traffic",
                   "bytes per window on the busiest links")
        for i, (link, data) in enumerate(ranked[:7]):
            fig.add(link, [(r["t"], r["value"]) for r in data["windows"]],
                    _SLOTS[i])
        if len(ranked) > 7:
            rest: dict[float, float] = {}
            for _, data in ranked[7:]:
                for r in data["windows"]:
                    rest[r["t"]] = rest.get(r["t"], 0.0) + r["value"]
            fig.add("other", sorted(rest.items()), _SLOTS[7])
        out.append(fig.render())

    cache = metrics.get("cache") or {}
    feature = cache.get("feature") or {}
    if feature:
        fig = _Fig("Feature fetch paths",
                   "requests per window by serving path")
        for i, (path, data) in enumerate(sorted(feature.items())[:8]):
            fig.add(path, [(r["t"], r["value"]) for r in data["windows"]],
                    _SLOTS[i])
        out.append(fig.render())

    if events:
        rows = "".join(
            f"<tr><td>{_fmt(t)}s</td><td>{_esc(name)}</td></tr>"
            for t, name in events
        )
        out.append(
            "<details><summary>Chaos events "
            f"({len(events)})</summary><table><tr><th>t</th>"
            f"<th>event</th></tr>{rows}</table></details>"
        )
    out.append(_control_section(serve))
    return "".join(out)


def _flatten_chaos(chaos) -> list[dict]:
    """Normalize chaos input to a flat cell list.

    Accepts either an already-flat list of cell dicts or the
    :func:`repro.chaos.scenarios.resilience_report` payload (nested
    ``systems -> scenario -> cell``); cells keep their dict order, so
    the section is deterministic for a given input.
    """
    if isinstance(chaos, list):
        return [c for c in chaos if isinstance(c, dict)]
    if not isinstance(chaos, dict):
        return []
    systems = chaos.get("systems")
    if isinstance(systems, dict):
        cells = []
        for system, per in systems.items():
            if not isinstance(per, dict):
                continue
            for scen, c in per.items():
                if not isinstance(c, dict):
                    continue
                cell = dict(c)
                cell["scenario"] = f"{system}/{scen}"
                cell.setdefault("status", c.get("outcome"))
                inv = c.get("invariants")
                if "violations" not in cell and isinstance(inv, dict):
                    cell["violations"] = len(inv.get("violations") or ())
                cells.append(cell)
        return cells
    maybe = chaos.get("scenarios", chaos)
    if isinstance(maybe, list):
        return [c for c in maybe if isinstance(c, dict)]
    return []


def _chaos_section(chaos) -> str:
    cells = _flatten_chaos(chaos)
    if not cells:
        return ""
    out = ["<h2>Chaos scenario matrix</h2>",
           '<p class="sub">Resilience under injected faults; "SLO min" '
           "is simulated minutes spent in windows with burn rate "
           "&gt; 1.</p>"]
    cols = [("scenario", "scenario"), ("mode", "mode"),
            ("status", "status"), ("p99_ms", "p99 (ms)"),
            ("goodput_qps", "goodput"), ("shed_rate", "shed"),
            ("degraded", "degraded"), ("violations", "invariant viol."),
            ("slo_minutes_violated", "SLO min"),
            ("slo_minutes_violated_controller", "SLO min (ctl)"),
            ("controller_actions", "ctl actions")]
    present = [(k, t) for k, t in cols if any(k in c for c in cells)]
    head = "".join(f"<th>{_esc(t)}</th>" for _, t in present)
    body = []
    for c in cells:
        tds = []
        for k, _ in present:
            v = c.get(k)
            tds.append(
                f"<td>{_esc(v) if isinstance(v, str) else _fmt(v)}</td>"
            )
        body.append("<tr>" + "".join(tds) + "</tr>")
    out.append(f"<table><tr>{head}</tr>{''.join(body)}</table>")

    bars = [
        (f"{c.get('scenario', '?')} ({c['mode']})"
         if c.get("mode") else str(c.get("scenario", "?")),
         c["slo_minutes_violated"])
        for c in cells
        if isinstance(c.get("slo_minutes_violated"), (int, float))
    ]
    out.append(_bar_figure(
        "SLO minutes violated per scenario",
        "simulated minutes out of SLO under each fault scenario",
        bars, " min"))
    return "".join(out)


def build_report(serve=None, chaos=None,
                 trace_sections: list[tuple[str, str]] | None = None,
                 title: str = "repro run report") -> str:
    """Render the unified HTML run report (a pure function of inputs).

    ``serve`` is one :meth:`~repro.serve.stats.ServeReport.to_dict`
    payload or a list of them (one section each); ``chaos`` accepts the
    ``repro chaos`` report or a flat cell list (see
    :func:`_flatten_chaos`); ``trace_sections`` are ``(heading, text)``
    pairs rendered preformatted.
    """
    body: list[str] = [f"<h1>{_esc(title)}</h1>",
                       '<p class="sub">DSP reproduction — streaming '
                       "metrics, SLO health and trace analyses in one "
                       "artifact.</p>"]
    for s in (serve if isinstance(serve, list) else [serve] if serve else []):
        body.append(_serve_section(s))
    if chaos:
        section = _chaos_section(chaos)
        if section:
            body.append(section)
    for name, text in trace_sections or []:
        body.append(f"<h2>{_esc(name)}</h2><pre>{_esc(text)}</pre>")
    if len(body) == 2:
        body.append('<p class="sub">Nothing to report — pass --serve, '
                    "--chaos or --trace.</p>")
    return (
        "<!DOCTYPE html>\n<html lang=\"en\"><head>"
        '<meta charset="utf-8">'
        '<meta name="viewport" content="width=device-width,initial-scale=1">'
        f"<title>{_esc(title)}</title><style>{_CSS}</style></head>"
        f"<body><main>{''.join(body)}</main>"
        f"<script>{_JS}</script></body></html>\n"
    )


def write_report(path, **kwargs) -> None:
    with open(path, "w") as f:
        f.write(build_report(**kwargs))
