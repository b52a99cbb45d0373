"""Ablation: the multi-machine extension (paper §3.2).

"The machines only communicate for cold features and model
synchronization."  We verify exactly that: with everything hot the
network carries only the gradient ring; once features go cold, the
sharded remote reads appear; and a slower fabric slows the epoch.
"""

import pytest

from repro.bench import fmt_table, quick_mode
from repro.cluster import ReplicatedDSP
from repro.core import RunConfig
from repro.hw.network import NICSpec
from repro.utils import GB


def _run(dataset: str, machines: int, cache_bytes=None, bandwidth=12.5 * GB):
    cfg = RunConfig(dataset=dataset, num_gpus=4, num_nodes=machines,
                    feature_cache_bytes=cache_bytes)
    mm = ReplicatedDSP(cfg)
    mm.engine.network = NICSpec(bandwidth=bandwidth)
    return mm.run_epoch(max_batches=4, functional=False)


def test_ablation_multimachine(benchmark, emit):
    dataset = "products" if quick_mode() else "papers"

    hot = _run(dataset, machines=2)
    cold = _run(dataset, machines=2, cache_bytes=0.0)
    cold_slow = _run(dataset, machines=2, cache_bytes=0.0,
                     bandwidth=1.25 * GB)
    single = _run(dataset, machines=1)

    emit(fmt_table(
        f"Ablation: multi-machine DSP on {dataset}, 2x4 GPUs",
        ["epoch (ms)", "network (MB)"],
        [
            ("1 machine", [single.epoch_time * 1e3,
                           single.network_bytes / 1e6]),
            ("2m hot cache", [hot.epoch_time * 1e3,
                              hot.network_bytes / 1e6]),
            ("2m no cache", [cold.epoch_time * 1e3,
                             cold.network_bytes / 1e6]),
            ("2m no cache 10GbE", [cold_slow.epoch_time * 1e3,
                                   cold_slow.network_bytes / 1e6]),
        ],
    ))

    # machines only talk for cold features + gradients (§3.2):
    # with a hot cache the network carries just the gradient ring
    assert hot.network_bytes < 0.35 * cold.network_bytes
    assert cold.network_bytes > 0
    # a 10x slower fabric visibly slows the cold configuration
    assert cold_slow.epoch_time > cold.epoch_time
    # single machine uses no network at all
    assert single.network_bytes == 0

    benchmark.pedantic(lambda: _run(dataset, 2), rounds=1, iterations=1)
