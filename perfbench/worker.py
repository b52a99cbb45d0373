"""One measurement in a fresh process; prints one JSON line.

Modes:

``prep``     generate the workload's inputs (untimed)
``measure``  time one set-up, then run the workload's flow for
             ``--seconds`` (or exactly ``--units`` epochs / sweeps)
             and apply the output checks; ``--trace`` records spans

Started by ``run.py`` with ``src`` on ``PYTHONPATH``, the benchmark's
own ``REPRO_DATA_DIR`` and single-threaded BLAS/OpenMP pools.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import time

import numpy as np

import flows
from instrument import (install_module_wrappers, install_system_wrappers,
                        watch_invariants)
from run import THREAD_VARS
from spans import NullRecorder, SpanRecorder, self_time_by_name


def main(argv=None) -> dict:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--subrun", type=int, default=0)
    p.add_argument("--mode", choices=("prep", "measure"),
                   required=True)
    p.add_argument("--seconds", type=float, default=0.0)
    p.add_argument("--units", type=int, default=None)
    p.add_argument("--trace", action="store_true")
    p.add_argument("--spans", default=None,
                   help="where the traced run writes its spans")
    p.add_argument("--tiny", action="store_true")
    args = p.parse_args(argv)
    wl = flows.workload(args.workload, tiny=args.tiny)
    seed = flows.sub_seed(args.seed, args.subrun)

    if args.mode == "prep":
        flows.prepare(wl, args.seed)
        return {"kind": wl.kind, "subruns": wl.subruns}

    finalized: list = []
    rec = SpanRecorder() if args.trace else NullRecorder()
    watch_invariants(finalized, rec)
    if args.trace:
        install_module_wrappers(rec)
    t0 = time.perf_counter()
    with rec.span("setup"):
        state = flows.setup(wl, seed, rec)
    setup_s = time.perf_counter() - t0
    if args.trace:
        install_system_wrappers(rec, state["system"])
    with rec.span("measure"):
        result = flows.measure(wl, state, args.seconds, rec, units=args.units)
    result["setup_s"] = setup_s
    result["errors"] = flows.check(wl, result, finalized)
    result["numpy"] = np.__version__
    result["threads"] = {var: os.environ.get(var) for var in THREAD_VARS}
    result["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    )
    if args.trace:
        result["self_s"] = self_time_by_name(rec.spans)
        result["counts"] = rec.counts
        if args.spans:
            rec.write(args.spans)
    return result


if __name__ == "__main__":
    print(json.dumps(main()))
