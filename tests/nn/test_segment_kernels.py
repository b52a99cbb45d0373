"""The CSR kernels under gather/segment ops equal their sequential forms.

``_scatter_add_rows`` replaces ``np.add.at(out, idx, x)`` in the
gather backward, the segment sum/mean forwards and the segment softmax;
these tests pin it to ``np.add.at`` *bitwise* (compared through an
int32 view, so -0.0 vs +0.0 and last-ulp rounding both count) and pin
the bounds checks ``np.add.at`` never made.  ``gather_mean`` fuses
``segment_mean(gather_rows(h, src), seg)`` into one CSR product per
pass; it is pinned bitwise to that unfused pair, forward and backward.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.nn import Tensor, functional as F
from repro.nn.functional import _scatter_add_rows
from repro.utils import ReproError


def _add_at(x: np.ndarray, idx: np.ndarray, num_rows: int) -> np.ndarray:
    out = np.zeros((num_rows,) + x.shape[1:], dtype=np.float32)
    np.add.at(out, idx, x)
    return out


def _assert_bitwise(x: np.ndarray, idx: np.ndarray, num_rows: int) -> None:
    got = _scatter_add_rows(x, idx, num_rows)
    want = _add_at(x, idx, num_rows)
    assert got.dtype == np.float32
    assert got.shape == want.shape
    assert np.array_equal(got.view(np.int32), want.view(np.int32))


def _values(rng, shape) -> np.ndarray:
    """Mixed-magnitude float32s (so summation order changes rounding),
    with some exact +0.0 and -0.0 entries."""
    x = rng.normal(size=shape) * 10.0 ** rng.integers(-4, 5, size=shape)
    x = x.astype(np.float32)
    x[rng.random(shape) < 0.1] = 0.0
    x[rng.random(shape) < 0.1] = -0.0
    return x


@given(
    num_rows=st.integers(0, 12),
    n=st.integers(0, 80),
    width=st.sampled_from([None, 1, 3, 8]),
    order=st.sampled_from(["sorted", "unsorted", "duplicated"]),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=200, deadline=None)
def test_matches_add_at_bitwise(num_rows, n, width, order, seed):
    rng = np.random.default_rng(seed)
    if num_rows == 0:
        n = 0
    if order == "duplicated" and num_rows:
        # most ids land on one or two rows: long accumulation chains
        k = min(num_rows, 2)
        idx = rng.choice(k, size=n) + rng.integers(0, num_rows - k + 1)
    else:
        idx = rng.integers(0, max(num_rows, 1), size=n)
        if order == "sorted":
            idx = np.sort(idx)
    idx = idx.astype(np.int64)
    shape = (n,) if width is None else (n, width)
    _assert_bitwise(_values(rng, shape), idx, num_rows)


def _assert_gather_mean_bitwise(h0, g, src, seg, num_dst) -> None:
    fused = Tensor(h0, requires_grad=True)
    out = F.gather_mean(fused, src, seg, num_dst)
    out.backward(g)
    unfused = Tensor(h0, requires_grad=True)
    want = F.segment_mean(F.gather_rows(unfused, src), seg, num_dst)
    want.backward(g)
    assert out.data.dtype == np.float32 and out.shape == want.shape
    assert np.array_equal(out.data.view(np.int32), want.data.view(np.int32))
    assert fused.grad.shape == unfused.grad.shape == h0.shape
    assert np.array_equal(fused.grad.view(np.int32),
                          unfused.grad.view(np.int32))


@given(
    num_src=st.integers(1, 10),
    num_dst=st.integers(0, 8),
    n=st.integers(0, 60),
    width=st.sampled_from([1, 3, 8]),
    seg_order=st.sampled_from(["sorted", "unsorted"]),
    src_spread=st.sampled_from(["all", "few"]),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=200, deadline=None)
def test_gather_mean_matches_unfused_bitwise(num_src, num_dst, n, width,
                                             seg_order, src_spread, seed):
    """Sorted and unsorted segments, empty segments (``num_dst`` up to 8
    over few edges), duplicated sources, rows of ``h`` never gathered
    (``few`` draws from at most two rows) and ±0.0 in ``h`` and ``g``."""
    rng = np.random.default_rng(seed)
    if num_dst == 0:
        n = 0
    seg = rng.integers(0, max(num_dst, 1), size=n)
    if seg_order == "sorted":
        seg = np.sort(seg)
    rows = num_src if src_spread == "all" else min(num_src, 2)
    src = rng.integers(0, rows, size=n)
    h0 = _values(rng, (num_src, width))
    g = _values(rng, (num_dst, width))
    _assert_gather_mean_bitwise(h0, g, src, seg, num_dst)


class TestGatherMean:
    def test_empty_segments_and_unused_rows(self):
        rng = np.random.default_rng(1)
        h0 = _values(rng, (6, 4))
        # segments 1 and 3 empty, rows 0, 2 and 5 never gathered
        src = np.array([4, 1, 1, 3, 4])
        seg = np.array([2, 0, 2, 0, 2])
        _assert_gather_mean_bitwise(h0, _values(rng, (4, 4)), src, seg, 4)

    def test_signed_zeros(self):
        h0 = np.array([[-0.0], [-0.0], [0.0]], dtype=np.float32)
        g = np.array([[-0.0], [0.0]], dtype=np.float32)
        _assert_gather_mean_bitwise(h0, g, np.array([0, 1, 0, 2]),
                                    np.array([0, 0, 1, 1]), 2)

    def test_gcn_self_edges_appended(self):
        """GCN's edge list: sorted neighbour edges, then one self edge per
        destination, which leaves ``seg`` unsorted."""
        rng = np.random.default_rng(2)
        h0 = _values(rng, (7, 5))
        src = np.concatenate([rng.integers(0, 7, size=20), np.arange(3)])
        seg = np.concatenate([np.sort(rng.integers(0, 3, size=20)),
                              np.arange(3)])
        _assert_gather_mean_bitwise(h0, _values(rng, (3, 5)), src, seg, 3)

    def test_bounds(self):
        h = Tensor(np.ones((3, 2), dtype=np.float32))
        with pytest.raises(ReproError, match="out of range"):
            F.gather_mean(h, np.array([0, 3]), np.array([0, 1]), 2)
        with pytest.raises(ReproError, match="out of range"):
            F.gather_mean(h, np.array([0, -1]), np.array([0, 1]), 2)
        with pytest.raises(ReproError, match="out of range"):
            F.gather_mean(h, np.array([0, 1]), np.array([0, 2]), 2)
        with pytest.raises(ReproError, match="one segment id per"):
            F.gather_mean(h, np.array([0, 1]), np.array([0]), 2)


class TestEdgeCases:
    def test_empty_idx(self):
        _assert_bitwise(np.zeros((0, 4), dtype=np.float32),
                        np.zeros(0, dtype=np.int64), 5)
        _assert_bitwise(np.zeros(0, dtype=np.float32),
                        np.zeros(0, dtype=np.int64), 3)

    def test_empty_rows_are_positive_zero(self):
        out = _scatter_add_rows(np.ones((2, 2), dtype=np.float32),
                                np.array([3, 3]), 6)
        assert out[:, 0].tolist() == [0.0, 0.0, 0.0, 2.0, 0.0, 0.0]
        assert not np.signbit(out[[0, 1, 2, 4, 5]]).any()

    def test_signed_zeros(self):
        x = np.array([[-0.0], [-0.0], [0.0], [-0.0]], dtype=np.float32)
        _assert_bitwise(x, np.array([0, 0, 1, 2]), 3)

    def test_long_unsorted_chain(self):
        rng = np.random.default_rng(0)
        idx = rng.integers(0, 3, size=5000).astype(np.int64)
        _assert_bitwise(_values(rng, (5000, 16)), idx, 3)

    def test_float64_input_yields_float32(self):
        out = _scatter_add_rows(np.ones((3, 2)), np.array([0, 0, 1]), 2)
        assert out.dtype == np.float32
        assert out.tolist() == [[2.0, 2.0], [1.0, 1.0]]


class TestSegmentIdBounds:
    X = Tensor(np.ones((3, 2), dtype=np.float32))

    @pytest.mark.parametrize("op", [F.segment_sum, F.segment_mean])
    def test_negative_id_rejected(self, op):
        # np.add.at would wrap -1 onto the last segment
        with pytest.raises(ReproError, match="out of range"):
            op(self.X, np.array([0, -1, 1]), 2)

    @pytest.mark.parametrize("op", [F.segment_sum, F.segment_mean])
    def test_id_past_end_rejected(self, op):
        # a bincount with minlength would grow the output instead
        with pytest.raises(ReproError, match="out of range"):
            op(self.X, np.array([0, 2, 1]), 2)

    @pytest.mark.parametrize("op", [F.segment_sum, F.segment_mean])
    def test_one_id_per_row(self, op):
        with pytest.raises(ReproError, match="one segment id per row"):
            op(self.X, np.array([0, 1]), 2)

    def test_gather_backward_rejects_negative_row(self):
        t = Tensor(np.ones((3, 2), dtype=np.float32), requires_grad=True)
        out = F.gather_rows(t, np.array([0, -1]))
        with pytest.raises(ReproError, match="out of range"):
            out.sum().backward()

    def test_helper_rejects_both_sides(self):
        x = np.ones((2, 1), dtype=np.float32)
        with pytest.raises(ReproError):
            _scatter_add_rows(x, np.array([-1, 0]), 2)
        with pytest.raises(ReproError):
            _scatter_add_rows(x, np.array([0, 2]), 2)
