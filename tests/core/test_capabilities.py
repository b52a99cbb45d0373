"""Each system honours the settings it declares and refuses the rest.

A system class names the :data:`~repro.core.system.CAPABILITIES` it
honours in ``honours``.  For every system and every capability, a run
that sets the field away from its default either fails at construction
with a ``ConfigError`` naming the system and the field, or builds a
system that carries the setting and trains differently for it on tiny,
with a cache budget (3200 bytes) that does not hold every row.
"""

import numpy as np
import pytest

from repro.cluster import ReplicatedDSP
from repro.core import SYSTEMS, RunConfig
from repro.core.metrics import metrics_dict
from repro.core.system import CAPABILITIES, DSP
from repro.sampling.csp import CollectiveSampler
from repro.utils.errors import ConfigError

CLASSES = {**SYSTEMS, "DSP-replicated": ReplicatedDSP}
CFG = RunConfig(dataset="tiny", num_gpus=2, hidden_dim=16, batch_size=8,
                fanout=(5, 3), seed=1)
CACHE_BYTES = 3200
#: a value away from the default for each capability
VALUES = {"num_nodes": 2, "compress": "int8", "dynamic_cache": True,
          "cache_bias": 2.0, "feature_cache_bytes": CACHE_BYTES,
          "topology_cache_bytes": 40_000.0, "partitioner": "hash",
          "hot_policy": "pagerank"}


def _cached_rows(system) -> int:
    store = system.loader.store
    return len(np.unique(np.concatenate(
        [store.cached_nodes(g) for g in range(system.k)])))


#: how a built system shows that it carries each setting
CARRIES = {
    "num_nodes": lambda s, base: s.run_epoch(
        max_batches=1, functional=False).network_bytes > 0,
    "compress": lambda s, base: s.loader.codec is not None,
    "dynamic_cache": lambda s, base: s.loader.dynamic is not None,
    "cache_bias": lambda s, base: s.sampler._bias_store is s.loader.store,
    "feature_cache_bytes": lambda s, base: (
        _cached_rows(s) < min(_cached_rows(base), s.data.num_nodes)),
    "topology_cache_bytes": lambda s, base: bool(
        s.layout.topo_cold_global().any()),
    "partitioner": lambda s, base: not np.array_equal(
        s.numbering.old_to_new, base.numbering.old_to_new),
    "hot_policy": lambda s, base: not np.array_equal(
        s.layout.store.rank, base.layout.store.rank),
}

CELLS = [(name, field) for name in sorted(CLASSES) for field in CAPABILITIES]


def test_the_cells_cover_every_capability():
    assert set(VALUES) == set(CARRIES) == set(CAPABILITIES)
    for cls in CLASSES.values():
        assert cls.honours <= set(CAPABILITIES)


def _run(cls, cfg):
    system = cls(cfg)
    return system, metrics_dict(system.run_epoch(max_batches=3))


@pytest.mark.parametrize("name,field", CELLS)
def test_a_setting_is_honoured_or_refused(name, field):
    cls = CLASSES[name]
    # the budget is part of every honoured cell's base, so cache
    # settings act on rows that really miss the cache
    base_cfg = CFG if field == "feature_cache_bytes" else CFG.with_(
        feature_cache_bytes=CACHE_BYTES)
    cfg = base_cfg.with_(**{field: VALUES[field]})
    if field not in cls.honours:
        with pytest.raises(ConfigError) as err:
            cls(CFG.with_(**{field: VALUES[field]}))
        assert err.value.field == field
        assert cls.name in str(err.value)
        return
    base, base_out = _run(cls, base_cfg)
    system, out = _run(cls, cfg)
    assert out != base_out
    assert CARRIES[field](system, base)


class _Hookless:
    """A sampler over the patches with no cache-bias hook."""

    def __init__(self, patches, part_offsets, seed=0):
        csp = CollectiveSampler(patches, part_offsets, seed=seed)
        self.owner_of, self.rngs, self.sample = (csp.owner_of, csp.rngs,
                                                 csp.sample)


def test_an_honoured_setting_is_never_skipped():
    """A system that honours ``cache_bias`` hands it to its sampler; a
    sampler without the hook fails the build instead of ignoring it."""

    class HooklessDSP(DSP):
        name = "DSP-hookless"
        sampler_cls = _Hookless

    HooklessDSP(CFG)  # no bias asked: builds
    with pytest.raises(AttributeError):
        HooklessDSP(CFG.with_(cache_bias=2.0))
