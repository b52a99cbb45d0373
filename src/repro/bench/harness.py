"""Shared benchmark plumbing."""

from __future__ import annotations

import os
from functools import lru_cache

from repro.core import RunConfig, build_system
from repro.core.metrics import EpochMetrics

#: the paper's evaluation datasets (Table 3) and GPU counts (§7.1)
DATASETS = ("products", "papers", "friendster")
GPU_COUNTS = (1, 2, 4, 8)

#: systems in the order Table 4 lists them
TABLE_SYSTEMS = ("PyG", "DGL-CPU", "Quiver", "DGL-UVA", "DSP")


def quick_mode() -> bool:
    """Set REPRO_BENCH_QUICK=1 to shrink sweeps for smoke runs."""
    return os.environ.get("REPRO_BENCH_QUICK", "") not in ("", "0")


def bench_batches() -> int:
    """Mini-batches measured per configuration (extrapolated to epochs)."""
    return 3 if quick_mode() else 6


def _measured_epoch(system: str, cfg: RunConfig, max_batches: int):
    """Build ``system`` fresh from ``cfg`` and run one costed epoch."""
    sys = build_system(system, cfg)
    return sys.run_epoch(max_batches=max_batches, functional=False)


_measured_epoch_cached = lru_cache(maxsize=256)(_measured_epoch)


def measured_epoch(
    system: str, cfg: RunConfig, max_batches: int | None = None
) -> EpochMetrics:
    """Costed (non-functional) epoch metrics, memoized per process."""
    if max_batches is None:
        max_batches = bench_batches()
    return _measured_epoch_cached(system, cfg, max_batches)


def compare_epochs(
    systems,
    cfg: RunConfig,
    max_batches: int | None = None,
    workers: int = 1,
) -> dict[str, EpochMetrics]:
    """One measured epoch per system (``repro compare``), optionally
    fanned out one-task-per-system across CPU cores.

    Each task is a :func:`_measured_epoch` call: it builds its system
    fresh from ``cfg`` inside the executing process (an epoch mutates
    sampler/shuffle state, so systems are never shared), which is also
    exactly what the serial path does — results are bit-identical for
    any worker count.
    """
    from repro.parallel import RunSpec, run_tasks

    if max_batches is None:
        max_batches = bench_batches()
    names = list(systems)
    specs = [
        RunSpec(_measured_epoch, name, {
            "system": name, "cfg": cfg, "max_batches": max_batches,
        })
        for name in names
    ]
    return dict(zip(names, run_tasks(specs, workers=workers)))


def fmt_table(
    title: str,
    col_names: list[str],
    rows: list[tuple[str, list]],
    unit: str = "",
    width: int = 11,
) -> str:
    """Render a paper-style table; floats get 3 significant figures."""

    def cell(v) -> str:
        if isinstance(v, str):
            return v
        if v is None:
            return "-"
        if isinstance(v, float):
            return f"{v:.3g}"
        return str(v)

    head = " | ".join([f"{'':<10}"] + [f"{c:>{width}}" for c in col_names])
    sep = "-" * len(head)
    lines = [f"\n== {title}" + (f" ({unit})" if unit else ""), head, sep]
    for name, values in rows:
        lines.append(
            " | ".join([f"{name:<10}"] + [f"{cell(v):>{width}}" for v in values])
        )
    return "\n".join(lines) + "\n"
