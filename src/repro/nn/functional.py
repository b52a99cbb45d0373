"""Differentiable operations beyond Tensor's operators.

Includes the segment (scatter/gather) primitives that graph neural
network layers are made of: a block's edges are flattened into parallel
``src index`` / ``dst segment`` arrays, and aggregation becomes a
segment reduction — the same structure the CUDA kernels use.  Mean
aggregation is one fused sparse-dense product per pass
(:func:`gather_mean`, DGL's g-SpMM).
"""

from __future__ import annotations

import math

import numpy as np
import scipy.sparse as sp

from repro.nn.tensor import Tensor
from repro.utils.errors import ReproError
from repro.utils.rng import make_rng


def relu(x: Tensor) -> Tensor:
    mask = x.data > 0

    def backward(g):
        x._accumulate(g * mask, owned=True)

    return Tensor._make(x.data * mask, (x,), backward)


def leaky_relu(x: Tensor, slope: float = 0.2) -> Tensor:
    factor = np.where(x.data > 0, 1.0, slope).astype(np.float32)

    def backward(g):
        x._accumulate(g * factor, owned=True)

    return Tensor._make(x.data * factor, (x,), backward)


def dropout(
    x: Tensor, p: float, rng: np.random.Generator | int | None = None,
    training: bool = True,
) -> Tensor:
    if not 0.0 <= p < 1.0:
        raise ReproError("dropout p must be in [0, 1)")
    if not training or p == 0.0:
        return x
    keep = (make_rng(rng).random(x.shape) >= p) / (1.0 - p)
    keep = keep.astype(np.float32)

    def backward(g):
        x._accumulate(g * keep, owned=True)

    return Tensor._make(x.data * keep, (x,), backward)


def concat(tensors: list[Tensor], axis: int = 1) -> Tensor:
    datas = [t.data for t in tensors]
    out = np.concatenate(datas, axis=axis)
    splits = np.cumsum([d.shape[axis] for d in datas])[:-1]

    def backward(g):
        for t, piece in zip(tensors, np.split(g, splits, axis=axis)):
            t._accumulate(piece)

    return Tensor._make(out, tuple(tensors), backward)


def _csr_ones(rows: np.ndarray, cols: np.ndarray | None,
              shape: tuple[int, int]) -> sp.csr_matrix:
    """A ``shape`` CSR matrix with a 1.0 at ``(rows[i], cols[i])`` for
    every ``i`` (``cols=None`` means ``cols[i] = i``); repeated
    coordinates stay separate entries.

    A stable sort of ``rows``, skipped when they are already sorted,
    stores every row's entries in ascending ``i``.  scipy's csr x dense
    kernel sums each output row from 0.0 in storage order, and
    multiplying by 1.0 is exact, so row ``r`` of ``M @ x`` adds the rows
    ``x[cols[i]]`` with ``rows[i] == r`` one after another in ascending
    ``i`` -- exactly ``np.add.at``'s sequential order, bit for bit,
    without its per-index overhead.  (``np.add.reduceat`` is not
    sequential along axis 0 and does not match.)
    """
    for ids, size in ((rows, shape[0]), (cols, shape[1])):
        if ids is not None and len(ids) and (ids.min() < 0 or ids.max() >= size):
            raise ReproError(f"index out of range [0, {size})")
    n = len(rows)
    if n > 1 and np.any(rows[1:] < rows[:-1]):
        order = np.argsort(rows, kind="stable")
        cols = order if cols is None else cols[order]
    elif cols is None:
        cols = np.arange(n)
    indptr = np.zeros(shape[0] + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=shape[0]), out=indptr[1:])
    return sp.csr_matrix((np.ones(n, dtype=np.float32), cols, indptr),
                         shape=shape)


def _scatter_add_rows(x: np.ndarray, idx: np.ndarray, num_rows: int) -> np.ndarray:
    """``out[idx[i]] += x[i]`` into ``num_rows`` zero float32 rows, as
    one CSR product bit-identical to ``np.add.at`` (see
    :func:`_csr_ones`)."""
    x = np.asarray(x, dtype=np.float32)
    n = len(idx)
    s = _csr_ones(idx, None, (num_rows, n))
    out = s @ x.reshape(n, math.prod(x.shape[1:]))
    return out.reshape((num_rows,) + x.shape[1:])


def gather_rows(x: Tensor, idx: np.ndarray) -> Tensor:
    """Row gather ``x[idx]``; backward scatters with accumulation."""
    idx = np.asarray(idx, dtype=np.int64)

    def backward(g):
        x._accumulate(_scatter_add_rows(g, idx, x.shape[0]), owned=True)

    return Tensor._make(x.data[idx], (x,), backward)


def segment_sum(x: Tensor, seg: np.ndarray, num_segments: int) -> Tensor:
    """Sum rows of ``x`` into ``num_segments`` buckets by ``seg`` id."""
    seg = np.asarray(seg, dtype=np.int64)
    if len(seg) != x.shape[0]:
        raise ReproError("need one segment id per row")
    out = _scatter_add_rows(x.data, seg, num_segments)

    def backward(g):
        x._accumulate(g[seg], owned=True)

    return Tensor._make(out, (x,), backward)


def segment_mean(x: Tensor, seg: np.ndarray, num_segments: int) -> Tensor:
    """Mean rows per segment; empty segments yield zero rows."""
    seg = np.asarray(seg, dtype=np.int64)
    if len(seg) != x.shape[0]:
        raise ReproError("need one segment id per row")
    out = _scatter_add_rows(x.data, seg, num_segments)
    counts = np.bincount(seg, minlength=num_segments).astype(np.float32)
    denom = np.maximum(counts, 1.0).reshape((num_segments,) + (1,) * (x.ndim - 1))
    out /= denom

    def backward(g):
        x._accumulate((g / denom)[seg], owned=True)

    return Tensor._make(out, (x,), backward)


def gather_mean(h: Tensor, src_idx: np.ndarray, seg: np.ndarray,
                num_dst: int) -> Tensor:
    """Mean of the rows ``h[src_idx[i]]`` per segment ``seg[i]``:
    ``segment_mean(gather_rows(h, src_idx), seg, num_dst)`` fused into
    one sparse-dense product per pass, without the E x D message tensor
    (DGL's g-SpMM).  Empty segments yield zero rows.

    Forward is ``A @ h / deg`` with ``A`` the num_dst x len(h) CSR of
    ones at ``(seg[i], src_idx[i])``, each row's edges in ascending edge
    order; backward is ``Aᵀ @ (g / deg)``, ``Aᵀ`` built with a stable
    sort of ``src_idx``.  Each output row therefore adds the same terms
    in the same order as the unfused ops (see :func:`_csr_ones`), so
    outputs and gradients are bit-identical to theirs.
    """
    src_idx = np.asarray(src_idx, dtype=np.int64)
    seg = np.asarray(seg, dtype=np.int64)
    if len(seg) != len(src_idx):
        raise ReproError("need one segment id per gathered row")
    num_src, width = h.shape[0], math.prod(h.shape[1:])
    a = _csr_ones(seg, src_idx, (num_dst, num_src))
    deg = np.maximum(np.diff(a.indptr), 1).astype(np.float32).reshape(-1, 1)
    out = a @ h.data.reshape(num_src, width)
    out /= deg

    def backward(g):
        a_t = _csr_ones(src_idx, seg, (num_src, num_dst))
        grad = a_t @ (g.reshape(num_dst, width) / deg)
        h._accumulate(grad.reshape(h.shape), owned=True)

    return Tensor._make(out.reshape((num_dst,) + h.shape[1:]), (h,), backward)


def segment_max(x: Tensor, seg: np.ndarray, num_segments: int) -> Tensor:
    """Per-segment element-wise max; empty segments yield zero rows.

    Backward routes each output gradient to one argmax row per
    (segment, column) — the max-pool aggregator of GraphSAGE.
    """
    seg = np.asarray(seg, dtype=np.int64)
    if len(seg) != x.shape[0]:
        raise ReproError("need one segment id per row")
    out = np.full((num_segments,) + x.shape[1:], -np.inf, dtype=np.float32)
    np.maximum.at(out, seg, x.data)
    empty = np.isneginf(out)
    out[empty] = 0.0

    # one winning row per (segment, column): the first row attaining the
    # max — fully vectorized via a stable sort over the candidate hits
    ncols = int(np.prod(x.shape[1:])) if x.ndim > 1 else 1
    hit_rows, hit_cols = np.nonzero(
        x.data.reshape(len(seg), -1) == out.reshape(num_segments, -1)[seg]
    )
    key = seg[hit_rows] * np.int64(ncols) + hit_cols
    order = np.argsort(key, kind="stable")  # row-major nonzero keeps rows sorted
    uniq_key, first = np.unique(key[order], return_index=True)
    win_rows = hit_rows[order][first]
    win_seg = uniq_key // ncols
    win_cols = uniq_key % ncols

    def backward(g):
        grad = np.zeros_like(x.data).reshape(len(seg), -1)
        grad[win_rows, win_cols] += g.reshape(num_segments, -1)[win_seg, win_cols]
        x._accumulate(grad.reshape(x.shape), owned=True)

    return Tensor._make(out, (x,), backward)


def segment_softmax(scores: Tensor, seg: np.ndarray, num_segments: int) -> Tensor:
    """Softmax within each segment (GAT attention normalization)."""
    seg = np.asarray(seg, dtype=np.int64)
    if scores.ndim != 1:
        raise ReproError("segment_softmax expects a 1-D score vector")
    if len(seg) != scores.shape[0]:
        raise ReproError("need one segment id per score")
    # numerically stable: subtract per-segment max
    seg_max = np.full(num_segments, -np.inf, dtype=np.float32)
    np.maximum.at(seg_max, seg, scores.data)
    shifted = scores.data - seg_max[seg]
    e = np.exp(shifted)
    out = e / _scatter_add_rows(e, seg, num_segments)[seg]

    def backward(g):
        # d softmax: out * (g - sum_seg(g * out))
        dot = _scatter_add_rows(g * out, seg, num_segments)
        scores._accumulate(out * (g - dot[seg]), owned=True)

    return Tensor._make(out, (scores,), backward)


def log_softmax(x: Tensor) -> Tensor:
    """Row-wise log-softmax (classification head)."""
    m = x.data.max(axis=1, keepdims=True)
    shifted = x.data - m
    lse = np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    out = shifted - lse

    def backward(g):
        soft = np.exp(out)
        x._accumulate(g - soft * g.sum(axis=1, keepdims=True), owned=True)

    return Tensor._make(out, (x,), backward)
