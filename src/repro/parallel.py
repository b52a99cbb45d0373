"""Multi-core fan-out of independent simulation runs.

DSP's whole point is extracting parallel throughput *inside* one run
(per-GPU sampler/loader/trainer workers overlapping mini-batches, §5).
The driver layer sitting above the simulator is just as parallel but
was serial: every QPS-sweep point, every system of a ``repro compare``
table, every chaos or control cell and every per-server inner cut of a
hierarchical partition is an independent computation.  This module
fans those runs out across CPU cores.

Design
------
- A run is a picklable :class:`RunSpec`: a module-level function, a
  human-readable label and the keyword arguments to call it with
  (plain picklable values — ``RunConfig`` instances, workloads, QPS
  points, subgraphs).  The function is pickled by reference, so a
  worker imports it by name; specs carry everything a run needs, and
  a run's seed is whatever its arguments say.
- :func:`run_tasks` returns ``[spec.fn(**spec.kwargs) ...]`` *in spec
  order*.  With ``workers <= 1`` the specs run inline through the
  exact same call, which is what makes the parallel-vs-serial
  bit-equivalence contract testable: the only difference between
  ``workers=1`` and ``workers=4`` is which process makes the call.
- A failing task raises :class:`~repro.utils.errors.WorkerError` in
  the parent with the child's formatted traceback embedded, so a
  fan-out failure reads the same as a serial one.  A task's
  ``ConfigError`` or ``CapacityError`` (a value the run rejects) is
  that error's ``__cause__``, on both paths, so a front end can state
  it as it would a serial one.

Serving points reuse one built system per worker process through
:func:`shared_system` (a point resets it first, see
:meth:`repro.core.system.TrainingSystem.reset_point`); the pool
initializer empties that memo, so a worker never serves on a system
inherited from the parent.  No other run uses the memo.
"""

from __future__ import annotations

import multiprocessing
import os
import traceback
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Any, Callable

from repro.utils.errors import CapacityError, ConfigError, WorkerError

__all__ = [
    "RunSpec",
    "adopt_system",
    "default_workers",
    "run_tasks",
    "shared_system",
]


def default_workers(cap: int = 8) -> int:
    """Worker count for this machine: CPU affinity, capped at ``cap``."""
    try:
        n = len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        n = os.cpu_count() or 1
    return max(1, min(cap, n))


@dataclass(frozen=True)
class RunSpec:
    """One independent run, ``fn(**kwargs)``; picklable when ``fn`` is
    a module-level function and ``kwargs`` hold picklable values.
    ``label`` names the run in a :class:`WorkerError`."""

    fn: Callable[..., Any]
    label: str
    kwargs: dict


#: per-process memo of built systems, used only by runs that reset the
#: system before using it (serving points)
_SYSTEM_CACHE: dict[tuple, Any] = {}


def adopt_system(system) -> None:
    """Seed the per-process system memo with an already-built system.

    The inline (``workers <= 1``) path uses this so a sweep reuses the
    caller's system instead of rebuilding it, exactly like the serial
    driver did.
    """
    _SYSTEM_CACHE[(system.name, system.config)] = system


def shared_system(name: str, config):
    """Build-once-per-process system lookup for runs that reset it."""
    key = (name, config)
    system = _SYSTEM_CACHE.get(key)
    if system is None:
        from repro.core import build_system

        system = build_system(name, config)
        _SYSTEM_CACHE[key] = system
    return system


def _execute_safe(spec: RunSpec) -> tuple[bool, Any, Exception | None]:
    """Run one spec; never raises.  Returns ``(ok, result-or-traceback,
    rejection)`` so a child failure crosses the process boundary as a
    string, plus the ``ConfigError``/``CapacityError`` itself (they
    pickle) when that is what failed."""
    try:
        return True, spec.fn(**spec.kwargs), None
    except (ConfigError, CapacityError) as err:
        return False, traceback.format_exc(), err
    except BaseException:  # noqa: BLE001 - resurfaced via WorkerError
        return False, traceback.format_exc(), None


def _mp_context():
    """Fork when the platform offers it (children inherit the parent's
    warm dataset/partition caches); spawn otherwise."""
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context(
        "fork" if "fork" in methods else "spawn"
    )


def _reset_worker_state() -> None:
    """Pool initializer: drop systems adopted in (and, under fork,
    inherited from) the parent so workers always build fresh from the
    run's arguments — the determinism contract is
    ``result = fn(**kwargs)``, never a function of parent state."""
    _SYSTEM_CACHE.clear()


def run_tasks(specs, workers: int = 1) -> list:
    """Execute independent run specs; results come back in spec order.

    ``workers <= 1`` runs inline (same calls, same process);
    ``workers > 1`` fans out over a process pool of at most
    ``min(workers, len(specs))`` workers.  The first failing task
    raises :class:`WorkerError` carrying the child traceback; remaining
    futures are cancelled by pool shutdown; a task's ``ConfigError`` or
    ``CapacityError`` is its ``__cause__``.
    """
    specs = list(specs)
    if not specs:
        return []
    if workers is None or workers <= 1 or len(specs) == 1:
        outcomes = [_execute_safe(s) for s in specs]
    else:
        try:
            with ProcessPoolExecutor(
                max_workers=min(workers, len(specs)),
                mp_context=_mp_context(),
                initializer=_reset_worker_state,
            ) as pool:
                outcomes = list(pool.map(_execute_safe, specs))
        except BrokenProcessPool as err:
            raise WorkerError(
                f"a worker process died abruptly while running "
                f"{len(specs)} task(s): {err}"
            ) from err
    results = []
    for spec, (ok, value, rejection) in zip(specs, outcomes):
        if not ok:
            raise WorkerError(
                f"run {spec.label!r} ({spec.fn.__qualname__}) failed in "
                f"a worker:\n{value}",
                label=spec.label,
                child_traceback=value,
            ) from rejection
        results.append(value)
    return results
