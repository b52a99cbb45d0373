"""Metamorphic tests: timing-only faults must not change *what* runs.

Fault injection perturbs when kernels run, never what they compute:
under a plan of pure slowdowns (stragglers, link degradation, flaps,
collective delays) every functional output — CSP frontiers, sampled
blocks, op traces, loss and accuracy — must be bit-identical to the
fault-free run, on the flat-batch fast path and the chunked reference
implementation alike.  Only the simulated clock may differ.
"""

import numpy as np
import pytest

from repro.chaos import ChaosRuntime, FaultPlan
from repro.chaos.faults import (
    CollectiveDelay,
    GpuStraggler,
    LinkDegrade,
    LinkFlap,
)
from repro.core import RunConfig, build_system
from tests.sampling.reference_csp import use_reference_round

CFG = RunConfig(dataset="tiny", num_gpus=2, hidden_dim=16, batch_size=8,
                fanout=(5, 3), seed=0)
BATCHES = 3

#: every timing-only fault kind, covering the whole (short) run
PURE_SLOWDOWN = FaultPlan((
    GpuStraggler(0.0, gpu=0, duration=1e3, slowdown=3.0),
    LinkDegrade(0.0, link="nvlink", duration=1e3, factor=4.0),
    LinkFlap(0.0, link="pcie", duration=1e-4),
    CollectiveDelay(0.0, gpu=1, duration=1e3, delay=1e-4),
))


def _capture_samples(system):
    """Record every (samples, trace) pair ``run_epoch`` draws."""
    captured = []
    orig = system._sample

    def wrapped(seeds_per_gpu):
        out = orig(seeds_per_gpu)
        captured.append(out)
        return out

    system._sample = wrapped
    return captured


def _run(system_name, fast_path, plan):
    system = build_system(system_name, CFG)
    if not fast_path:
        use_reference_round(system.sampler)
    captured = _capture_samples(system)
    chaos = ChaosRuntime(plan)
    metrics = system.run_epoch(max_batches=BATCHES, functional=True,
                               chaos=chaos)
    return metrics, captured, system.last_pipeline_result


def _assert_samples_identical(a, b):
    assert len(a) == len(b)
    for (sa, ta), (sb, tb) in zip(a, b):
        for x, y in zip(sa, sb):
            assert np.array_equal(x.seeds, y.seeds)
            assert np.array_equal(x.all_nodes, y.all_nodes)
            for bx, by in zip(x.blocks, y.blocks):
                assert np.array_equal(bx.dst_nodes, by.dst_nodes)
                assert np.array_equal(bx.src_nodes, by.src_nodes)
                assert np.array_equal(bx.offsets, by.offsets)
        assert len(ta.ops) == len(tb.ops)
        for oa, ob in zip(ta.ops, tb.ops):
            assert type(oa) is type(ob)
            for attr in ("matrix", "work", "items"):
                if hasattr(oa, attr):
                    assert np.array_equal(getattr(oa, attr),
                                          getattr(ob, attr))


@pytest.mark.parametrize("fast_path", [True, False],
                         ids=["fast-path", "reference"])
@pytest.mark.parametrize("system_name", ["DSP", "DSP-Pull"])
def test_pure_slowdown_is_functionally_invisible(system_name, fast_path):
    base_metrics, base_samples, base_pipe = _run(system_name, fast_path,
                                                 FaultPlan())
    slow_metrics, slow_samples, slow_pipe = _run(system_name, fast_path,
                                                 PURE_SLOWDOWN)

    # what ran: bit-identical frontiers, blocks, op traces
    _assert_samples_identical(base_samples, slow_samples)

    # functional and analytic outputs: bit-identical
    for field in ("loss", "train_accuracy", "val_accuracy", "num_batches",
                  "sample_time", "load_time", "train_time",
                  "nvlink_bytes", "pcie_bytes", "network_bytes"):
        assert getattr(base_metrics, field) == getattr(slow_metrics, field), \
            field

    # when it ran: strictly slower, but nothing lost or degraded
    assert slow_metrics.epoch_time > base_metrics.epoch_time
    assert slow_pipe.lost_batches == 0
    assert slow_pipe.degraded_rounds == 0
    assert slow_pipe.invariants["clean"]
    assert base_pipe.invariants["clean"]


def test_fast_path_and_reference_agree_under_faults():
    """The two CSP implementations stay equivalent *under* injection."""
    _, fast_samples, _ = _run("DSP", True, PURE_SLOWDOWN)
    _, ref_samples, _ = _run("DSP", False, PURE_SLOWDOWN)
    _assert_samples_identical(fast_samples, ref_samples)
