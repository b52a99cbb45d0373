"""Fewer faults never worsen simulated time.

A serve cell's faulted pass runs the same request stream as its
fault-free pass, so under ``cache-peer-loss`` its p99 can only match or
exceed the fault-free p99: a lost shard moves rows to the slower cold
path and removes nothing else the load prices.  Checked on every
serving system, with the codec and the dynamic cache where the system
takes them (DSP and its variants), with the default cache and with one
small enough (50 rows per GPU) that the dynamic policy moves rows.
"""

import pytest

from repro.chaos import resilience_report
from repro.core import SYSTEMS, RunConfig
from repro.core.system import DSP

CFG = RunConfig(dataset="tiny", num_gpus=2, hidden_dim=16, batch_size=8,
                fanout=(5, 3))

CELLS = [
    (name, compress, dynamic)
    for name, cls in sorted(SYSTEMS.items())
    for compress in ("none", "fp16")
    for dynamic in (False, True)
    if issubclass(cls, DSP) or (compress == "none" and not dynamic)
]


@pytest.mark.parametrize("cache_bytes", [None, 3200])
@pytest.mark.parametrize("name,compress,dynamic", CELLS)
def test_cache_peer_loss_never_lowers_p99(name, compress, dynamic,
                                          cache_bytes):
    cfg = CFG.with_(compress=compress, dynamic_cache=dynamic,
                    feature_cache_bytes=cache_bytes)
    report = resilience_report([name], ["cache-peer-loss"], cfg,
                               max_batches=2, requests=64)
    cell = report["systems"][name]["cache-peer-loss"]
    assert cell["outcome"] == "completed"
    assert cell["p99_ms"] >= cell["baseline_p99_ms"], cell
