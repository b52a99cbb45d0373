"""A renumbered dataset copies its feature matrix on the first row
read: runs that only price loads never build it, and runs that read
rows read exactly ``base.features[new_to_old]``."""

import numpy as np
import pytest

from repro.core import RunConfig, build_system
from repro.core.layout import plan_layout
from repro.graph.datasets import PermutedRows
from repro.serve import ServeConfig, WorkloadConfig, make_workload, serve_once

CFG = RunConfig(dataset="tiny", num_gpus=2, hidden_dim=16, batch_size=8,
                fanout=(5, 3), seed=3)


def _built(system) -> bool:
    return system.data.features._rows is not None


@pytest.fixture
def dsp():
    return build_system("DSP", CFG)


def test_set_up_reads_no_row(dsp):
    feats = dsp.data.features
    assert isinstance(feats, PermutedRows)
    base = dsp.base_dataset.features
    assert feats.shape == base.shape and feats.dtype == base.dtype
    assert dsp.data.feature_dim == base.shape[1]
    assert dsp.data.feature_nbytes == base.nbytes
    layout = plan_layout(dsp.data, dsp.numbering.part_offsets, dsp.cluster,
                         np.arange(dsp.data.num_nodes), graph=dsp.data.graph)
    assert layout.store is not None
    assert not _built(dsp)


def test_cost_only_epoch_reads_no_row(dsp):
    dsp.run_epoch(functional=False)
    assert not _built(dsp)


def test_non_functional_serve_point_reads_no_row(dsp):
    w = make_workload(WorkloadConfig(num_requests=32, seed=1),
                      np.arange(dsp.data.num_nodes))
    report = serve_once(dsp, w, 2000.0, ServeConfig())
    assert report.completed > 0
    assert not _built(dsp)


def test_functional_rows_are_the_permuted_base(dsp):
    dsp.run_epoch(max_batches=2)
    assert _built(dsp)
    want = dsp.base_dataset.features[dsp.numbering.new_to_old]
    got = dsp.data.features.rows()
    assert got.flags.c_contiguous
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    assert dsp.data.features.rows() is got  # built once
    assert np.array_equal(np.asarray(dsp.data.features), want)
    nodes = np.array([5, 0, 5, 7])
    assert np.array_equal(dsp.data.features[nodes], want[nodes])
