"""Fewer faults never worsen simulated time.

A serve cell's faulted pass runs the same request stream as its
fault-free pass, so under ``cache-peer-loss`` its p99 can only match or
exceed the fault-free p99: a lost shard moves rows to the slower cold
path and removes nothing else the load prices.  Checked on every
serving system, with the codec, the dynamic cache and a cache small
enough (50 rows per GPU) that the dynamic policy moves rows wherever
the system honours them, and with the default cache.  A cache budget
the system does not honour is refused at construction instead.
"""

import pytest

from repro.chaos import resilience_report
from repro.core import SYSTEMS, RunConfig, build_system
from repro.core.system import unhonoured
from repro.utils.errors import ConfigError

CFG = RunConfig(dataset="tiny", num_gpus=2, hidden_dim=16, batch_size=8,
                fanout=(5, 3))

#: the codec and dynamic-cache cells each system honours
CELLS = [
    (name, compress, dynamic)
    for name, cls in sorted(SYSTEMS.items())
    for compress in ("none", "fp16")
    for dynamic in (False, True)
    if (compress == "none" or "compress" in cls.honours)
    and (not dynamic or "dynamic_cache" in cls.honours)
]


@pytest.mark.parametrize("cache_bytes", [None, 3200])
@pytest.mark.parametrize("name,compress,dynamic", CELLS)
def test_cache_peer_loss_never_lowers_p99(name, compress, dynamic,
                                          cache_bytes):
    cfg = CFG.with_(compress=compress, dynamic_cache=dynamic,
                    feature_cache_bytes=cache_bytes)
    refused = unhonoured(SYSTEMS[name], cfg)
    if refused:
        with pytest.raises(ConfigError) as err:
            build_system(name, cfg)
        assert err.value.field == refused[0]
        return
    report = resilience_report([name], ["cache-peer-loss"], cfg,
                               max_batches=2, requests=64)
    cell = report["systems"][name]["cache-peer-loss"]
    assert cell["outcome"] == "completed"
    assert cell["p99_ms"] >= cell["baseline_p99_ms"], cell
