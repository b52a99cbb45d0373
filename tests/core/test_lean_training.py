"""Functional training keeps one parameter set and one GPU's feature
rows at a time.

BSP replicas are identical after every step, so one model and one
optimizer stand for all k of them (``test_system.py`` checks them bit
for bit against k separate replicas).  A load returns its rows as a
:class:`~repro.cache.loader.FeatureRows`: GPU ``g``'s matrix is
gathered when indexed, and the trainer drops it, with its autograd
graph, before it gathers GPU ``g + 1``'s.
"""

import gc
import weakref

import numpy as np
import pytest

from repro.cache.loader import FeatureRows
from repro.cluster import ReplicatedDSP
from repro.core import SYSTEMS, RunConfig, build_system
from repro.nn import GraphSAGE
from repro.nn.optim import Adam
from repro.serve import ServeConfig, WorkloadConfig, make_workload, serve_once

CFG = RunConfig(dataset="tiny", num_gpus=4, hidden_dim=16, batch_size=8,
                fanout=(5, 3), seed=3)


def _build(name):
    if name == "DSP-replicated":
        return ReplicatedDSP(CFG.with_(num_gpus=2, num_nodes=2))
    return build_system(name, CFG)


@pytest.fixture
def gathers(monkeypatch) -> list:
    """One entry per GPU matrix a load's rows gather: how many of the
    matrices gathered before it, and of the model outputs (the heads of
    their autograd graphs) computed before it, were still alive then."""
    live, refs = [], []
    getitem, forward = FeatureRows.__getitem__, GraphSAGE.__call__

    def recorded(self, g):
        live.append(sum(r() is not None for r in refs))
        rows = getitem(self, g)
        refs.append(weakref.ref(rows))
        return rows

    def recorded_forward(self, *args, **kwargs):
        out = forward(self, *args, **kwargs)
        refs.append(weakref.ref(out.data))
        return out

    monkeypatch.setattr(FeatureRows, "__getitem__", recorded)
    monkeypatch.setattr(GraphSAGE, "__call__", recorded_forward)
    return live


@pytest.mark.parametrize("name", sorted(SYSTEMS) + ["DSP-replicated"])
def test_each_gpus_rows_and_graph_die_before_the_next_gather(name, gathers):
    system = _build(name)
    gc.disable()  # reference counting alone must free the rows
    try:
        m = system.run_epoch(max_batches=3)
    finally:
        gc.enable()
    assert np.isfinite(m.loss)
    assert len(gathers) >= 3
    assert gathers == [0] * len(gathers)


def test_adam_steps_once_per_bsp_step(monkeypatch):
    steps = []
    step = Adam.step

    def counted(self):
        steps.append(self)
        return step(self)

    monkeypatch.setattr(Adam, "step", counted)
    system = build_system("DSP", CFG)
    system.run_epoch(max_batches=3)
    assert len(steps) == 3
    assert all(opt is system.opt for opt in steps)


@pytest.mark.parametrize("name", sorted(SYSTEMS) + ["DSP-replicated"])
def test_cost_only_epoch_indexes_no_rows(name, gathers):
    m = _build(name).run_epoch(max_batches=3, functional=False)
    assert m.epoch_time > 0
    assert gathers == []


def test_serving_indexes_rows_only_when_functional(gathers):
    system = build_system("DSP", CFG.with_(dynamic_cache=True,
                                           feature_cache_bytes=3200))
    w = make_workload(WorkloadConfig(num_requests=32, seed=1),
                      np.arange(system.data.num_nodes))
    report = serve_once(system, w, 2000.0, ServeConfig())
    assert report.completed > 0
    assert gathers == []
    report = serve_once(system, w, 2000.0, ServeConfig(functional=True))
    assert report.completed > 0
    assert 0 < len(gathers) <= report.num_batches
