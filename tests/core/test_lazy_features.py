"""A renumbered dataset reads its feature rows through the renumbering:
runs that only price loads read no row, no run builds the permuted
copy, and the rows read are exactly ``base.features[new_to_old]``."""

import numpy as np
import pytest

from repro.core import RunConfig, build_system
from repro.core.layout import plan_layout
from repro.graph.datasets import PermutedRows
from repro.serve import ServeConfig, WorkloadConfig, make_workload, serve_once

CFG = RunConfig(dataset="tiny", num_gpus=2, hidden_dim=16, batch_size=8,
                fanout=(5, 3), seed=3)


@pytest.fixture
def reads(monkeypatch) -> dict:
    """Counts of row reads and of whole permuted copies built."""
    counts = {"rows": 0, "copies": 0}
    getitem, array = PermutedRows.__getitem__, PermutedRows.__array__

    def counted_getitem(self, index):
        counts["rows"] += 1
        return getitem(self, index)

    def counted_array(self, *args, **kwargs):
        counts["copies"] += 1
        return array(self, *args, **kwargs)

    monkeypatch.setattr(PermutedRows, "__getitem__", counted_getitem)
    monkeypatch.setattr(PermutedRows, "__array__", counted_array)
    return counts


@pytest.fixture
def dsp(reads):
    return build_system("DSP", CFG)


def _holds_only_base_and_order(feats: PermutedRows, dsp) -> bool:
    arrays = [v for v in vars(feats).values() if isinstance(v, np.ndarray)]
    return (len(arrays) == 2 and arrays[0] is dsp.base_dataset.features
            and np.array_equal(arrays[1], dsp.numbering.new_to_old))


def test_set_up_reads_no_row(dsp, reads):
    feats = dsp.data.features
    assert isinstance(feats, PermutedRows)
    base = dsp.base_dataset.features
    assert feats.shape == base.shape and feats.dtype == base.dtype
    assert dsp.data.feature_dim == base.shape[1]
    assert dsp.data.feature_nbytes == base.nbytes
    layout = plan_layout(dsp.data, dsp.numbering.part_offsets, dsp.cluster,
                         np.arange(dsp.data.num_nodes), graph=dsp.data.graph)
    assert layout.store is not None
    assert reads == {"rows": 0, "copies": 0}


def test_cost_only_epoch_reads_no_row(dsp, reads):
    dsp.run_epoch(functional=False)
    assert reads == {"rows": 0, "copies": 0}


def test_non_functional_serve_point_reads_no_row(dsp, reads):
    w = make_workload(WorkloadConfig(num_requests=32, seed=1),
                      np.arange(dsp.data.num_nodes))
    report = serve_once(dsp, w, 2000.0, ServeConfig())
    assert report.completed > 0
    assert reads == {"rows": 0, "copies": 0}


def test_functional_rows_are_the_permuted_base(dsp, reads):
    dsp.run_epoch(max_batches=2)
    assert reads["rows"] > 0
    assert reads["copies"] == 0  # training reads rows, never the matrix
    feats = dsp.data.features
    assert _holds_only_base_and_order(feats, dsp)
    want = dsp.base_dataset.features[dsp.numbering.new_to_old]
    got = np.asarray(feats)
    assert got.flags.c_contiguous
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    assert not np.shares_memory(got, dsp.base_dataset.features)
    assert np.asarray(feats) is not got  # a fresh copy per call
    assert _holds_only_base_and_order(feats, dsp)  # and none retained
    nodes = np.array([5, 0, 5, 7])
    assert np.array_equal(feats[nodes], want[nodes])
