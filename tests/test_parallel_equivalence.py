"""Parallel-vs-serial bit-equivalence: the executor's correctness contract.

``--workers N`` must change *which process* runs a simulation and
nothing else.  These tests pin that by comparing the exact exported
artifacts — sweep report JSON and compare metric dicts — for
``workers`` in {1, 2, 4} on the products dataset.
"""

import json

import numpy as np
import pytest

from repro.bench.harness import compare_epochs
from repro.core import RunConfig, build_system
from repro.core.metrics import metrics_dict
from repro.serve import ServeConfig, WorkloadConfig, make_workload, qps_sweep

WORKERS = (1, 2, 4)

CFG = RunConfig(dataset="products", num_gpus=4, hidden_dim=16,
                batch_size=8, fanout=(5, 3), seed=3)


def sweep_json(workers: int) -> str:
    """One products sweep -> canonical JSON, from a fresh system."""
    system = build_system("DSP", CFG)
    workload = make_workload(
        WorkloadConfig(num_requests=64, seed=1),
        np.arange(system.base_dataset.num_nodes),
    )
    points = qps_sweep(system, workload, [500.0, 2000.0],
                       ServeConfig(functional=False), workers=workers)
    return json.dumps(
        [{"qps": p.qps, "report": p.report.to_dict()} for p in points]
    )


class TestSweepEquivalence:
    def test_workers_do_not_change_sweep_json(self):
        serial = sweep_json(1)
        for n in WORKERS[1:]:
            assert sweep_json(n) == serial, f"workers={n} diverged"


class TestCompareEquivalence:
    def test_workers_do_not_change_compare_metrics(self):
        systems = ("PyG", "DGL-UVA", "DSP")
        serial = compare_epochs(systems, CFG, max_batches=2, workers=1)
        ref = json.dumps({n: metrics_dict(m) for n, m in serial.items()})
        for n in WORKERS[1:]:
            out = compare_epochs(systems, CFG, max_batches=2, workers=n)
            assert list(out) == list(systems)
            got = json.dumps({k: metrics_dict(m) for k, m in out.items()})
            assert got == ref, f"workers={n} diverged"

    @pytest.mark.parametrize("workers", [1, 2])
    def test_compare_runs_the_epoch_instead_of_reading_a_memo(self, workers):
        # a forked worker inherits the parent's measured_epoch memo, so
        # a poisoned entry there shows if compare reads it instead of
        # building and running the epoch
        from repro.bench.harness import _measured_epoch_cached, measured_epoch

        real = measured_epoch("PyG", CFG, max_batches=2).epoch_time
        # lru_cache keys positional and keyword calls apart: poison both
        for memo in (_measured_epoch_cached("PyG", CFG, 2),
                     _measured_epoch_cached(system="PyG", cfg=CFG,
                                            max_batches=2)):
            memo.epoch_time = -1.0
        try:
            out = compare_epochs(("PyG", "DSP"), CFG, max_batches=2,
                                 workers=workers)
        finally:
            _measured_epoch_cached.cache_clear()
        assert out["PyG"].epoch_time == real


class TestCrashPropagation:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_bad_qps_surfaces_child_traceback(self, workers):
        from repro.utils import WorkerError

        system = build_system("DSP", CFG)
        workload = make_workload(
            WorkloadConfig(num_requests=16, seed=1),
            np.arange(system.base_dataset.num_nodes),
        )
        with pytest.raises(WorkerError) as err:
            qps_sweep(system, workload, [500.0, -1.0],
                      ServeConfig(functional=False), workers=workers)
        assert err.value.child_traceback  # the child's formatted stack
        assert "Traceback" in str(err.value)
