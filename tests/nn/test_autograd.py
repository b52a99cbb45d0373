"""Autograd correctness: analytic vs numeric gradients."""

import numpy as np
import pytest

from repro.nn import Linear, Tensor, functional as F
from repro.utils import ReproError


def numeric_grad(fn, x: np.ndarray, eps: float = 1e-3) -> np.ndarray:
    """Central-difference gradient of scalar fn w.r.t. x."""
    g = np.zeros_like(x, dtype=np.float64)
    flat = x.reshape(-1)
    gf = g.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        up = fn(x)
        flat[i] = orig - eps
        down = fn(x)
        flat[i] = orig
        gf[i] = (up - down) / (2 * eps)
    return g


def check_grad(build, x0: np.ndarray, rtol=2e-2, atol=2e-3):
    """build(tensor) -> scalar Tensor; compares backward vs numeric."""
    t = Tensor(x0.copy(), requires_grad=True)
    out = build(t)
    out.backward()

    def scalar_fn(arr):
        return build(Tensor(arr)).item()

    num = numeric_grad(scalar_fn, x0.astype(np.float64))
    np.testing.assert_allclose(t.grad, num, rtol=rtol, atol=atol)


RNG = np.random.default_rng(0)


class TestBasicOps:
    def test_add(self):
        b = RNG.normal(size=(3, 4)).astype(np.float32)
        check_grad(lambda t: (t + Tensor(b)).sum(), RNG.normal(size=(3, 4)))

    def test_add_broadcast_bias(self):
        x = RNG.normal(size=(5, 3))
        bias = Tensor(RNG.normal(size=(3,)).astype(np.float32), requires_grad=True)
        t = Tensor(x.astype(np.float32), requires_grad=True)
        out = (t + bias).sum()
        out.backward()
        np.testing.assert_allclose(bias.grad, np.full(3, 5.0), rtol=1e-5)

    def test_sub_and_neg(self):
        b = RNG.normal(size=(3, 3)).astype(np.float32)
        check_grad(lambda t: ((-t) - Tensor(b)).sum(), RNG.normal(size=(3, 3)))

    def test_mul_elementwise(self):
        b = RNG.normal(size=(4, 2)).astype(np.float32)
        check_grad(lambda t: (t * Tensor(b)).sum(), RNG.normal(size=(4, 2)))

    def test_mul_scalar(self):
        check_grad(lambda t: (t * 3.5).sum(), RNG.normal(size=(4,)))

    def test_matmul(self):
        b = RNG.normal(size=(4, 2)).astype(np.float32)
        check_grad(lambda t: (t @ Tensor(b)).sum(), RNG.normal(size=(3, 4)))

    def test_matmul_grad_of_rhs(self):
        a = RNG.normal(size=(3, 4)).astype(np.float32)
        check_grad(lambda t: (Tensor(a) @ t).sum(), RNG.normal(size=(4, 2)))

    def test_mean(self):
        check_grad(lambda t: t.mean(), RNG.normal(size=(6,)))

    def test_chained_reuse(self):
        """A tensor used twice must accumulate both paths."""
        check_grad(lambda t: ((t * t) + t).sum(), RNG.normal(size=(5,)))

    def test_backward_requires_scalar(self):
        t = Tensor(np.ones((2, 2)), requires_grad=True)
        with pytest.raises(ReproError):
            (t * 2.0).backward()

    def test_no_grad_when_not_required(self):
        t = Tensor(np.ones(3))
        out = (t * 2.0).sum()
        out.backward()
        assert t.grad is None


class TestActivations:
    def test_relu(self):
        x = RNG.normal(size=(5, 3))
        x[np.abs(x) < 0.1] = 0.5  # keep away from the kink
        check_grad(lambda t: F.relu(t).sum(), x)

    def test_leaky_relu(self):
        x = RNG.normal(size=(5, 3))
        x[np.abs(x) < 0.1] = 0.5
        check_grad(lambda t: F.leaky_relu(t, 0.2).sum(), x)

    def test_log_softmax_rows_normalize(self):
        x = Tensor(RNG.normal(size=(4, 6)).astype(np.float32))
        out = F.log_softmax(x)
        np.testing.assert_allclose(np.exp(out.data).sum(axis=1), 1.0, rtol=1e-5)

    def test_log_softmax_grad(self):
        w = RNG.normal(size=(3, 4)).astype(np.float32)
        check_grad(lambda t: (F.log_softmax(t) * Tensor(w)).sum(),
                   RNG.normal(size=(3, 4)))

    def test_dropout_eval_identity(self):
        x = Tensor(RNG.normal(size=(10, 4)).astype(np.float32))
        out = F.dropout(x, 0.5, rng=0, training=False)
        assert out is x

    def test_dropout_scales(self):
        x = Tensor(np.ones((2000, 1), dtype=np.float32))
        out = F.dropout(x, 0.5, rng=0)
        assert out.data.mean() == pytest.approx(1.0, rel=0.1)
        assert (out.data == 0).mean() == pytest.approx(0.5, abs=0.05)

    def test_dropout_bad_p(self):
        with pytest.raises(ReproError):
            F.dropout(Tensor(np.ones(3)), 1.0)


class TestSegmentOps:
    SEG = np.array([0, 0, 1, 2, 2, 2])

    def test_segment_sum_forward(self):
        x = Tensor(np.arange(6, dtype=np.float32).reshape(6, 1))
        out = F.segment_sum(x, self.SEG, 3)
        assert out.data.ravel().tolist() == [1.0, 2.0, 12.0]

    def test_segment_sum_grad(self):
        w = RNG.normal(size=(3, 2)).astype(np.float32)
        check_grad(lambda t: (F.segment_sum(t, self.SEG, 3) * Tensor(w)).sum(),
                   RNG.normal(size=(6, 2)))

    def test_segment_mean_forward_and_empty(self):
        x = Tensor(np.arange(6, dtype=np.float32).reshape(6, 1))
        out = F.segment_mean(x, self.SEG, 4)  # segment 3 empty
        assert out.data.ravel().tolist() == [0.5, 2.0, 4.0, 0.0]

    def test_segment_mean_grad(self):
        w = RNG.normal(size=(3, 2)).astype(np.float32)
        check_grad(lambda t: (F.segment_mean(t, self.SEG, 3) * Tensor(w)).sum(),
                   RNG.normal(size=(6, 2)))

    def test_segment_softmax_normalizes(self):
        x = Tensor(RNG.normal(size=(6,)).astype(np.float32))
        out = F.segment_softmax(x, self.SEG, 3)
        sums = np.zeros(3)
        np.add.at(sums, self.SEG, out.data)
        np.testing.assert_allclose(sums, 1.0, rtol=1e-5)

    def test_segment_softmax_grad(self):
        w = RNG.normal(size=(6,)).astype(np.float32)
        check_grad(lambda t: (F.segment_softmax(t, self.SEG, 3) * Tensor(w)).sum(),
                   RNG.normal(size=(6,)))

    def test_gather_mean_grad(self):
        # unsorted segments, a repeated source row, an empty segment (3)
        # and a row never gathered (4)
        src = np.array([0, 2, 2, 1, 0, 3])
        seg = np.array([1, 0, 2, 2, 0, 2])
        w = RNG.normal(size=(4, 2)).astype(np.float32)
        check_grad(lambda t: (F.gather_mean(t, src, seg, 4) * Tensor(w)).sum(),
                   RNG.normal(size=(5, 2)))

    def test_gather_mean_forward(self):
        x = Tensor(np.arange(4, dtype=np.float32).reshape(4, 1))
        out = F.gather_mean(x, np.array([3, 1, 1, 0]), np.array([0, 0, 2, 2]), 3)
        assert out.data.ravel().tolist() == [2.0, 0.0, 0.5]

    def test_gather_rows_grad_accumulates_duplicates(self):
        idx = np.array([0, 0, 2])
        t = Tensor(np.ones((3, 2), dtype=np.float32), requires_grad=True)
        out = F.gather_rows(t, idx).sum()
        out.backward()
        np.testing.assert_allclose(t.grad, [[2, 2], [0, 0], [1, 1]])

    def test_concat_grad(self):
        a = RNG.normal(size=(3, 2)).astype(np.float32)
        check_grad(
            lambda t: (F.concat([t, Tensor(a)]) * 1.0).sum(),
            RNG.normal(size=(3, 2)),
        )

    def test_segment_mismatch_rejected(self):
        with pytest.raises(ReproError):
            F.segment_sum(Tensor(np.ones((3, 1))), np.array([0, 1]), 2)


def _bits(a: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(a, dtype=np.float32).view(np.int32)


class TestFusedLinear:
    """``Linear`` is one autograd node; it must equal the unfused
    ``x @ W + b`` graph bit for bit, output and every gradient."""

    @pytest.mark.parametrize("bias", [True, False])
    @pytest.mark.parametrize("input_grad", [True, False])
    def test_matches_matmul_plus_bias_bitwise(self, bias, input_grad):
        rng = np.random.default_rng(3)
        lin = Linear(7, 5, bias=bias, rng=rng)
        if bias:
            lin.bias.data = rng.normal(size=5).astype(np.float32)
        x0 = (rng.normal(size=(9, 7)) * 10.0 ** rng.integers(-3, 4, (9, 7)))
        g = rng.normal(size=(9, 5)).astype(np.float32)

        x = Tensor(x0, requires_grad=input_grad)
        out = lin(x)
        out.backward(g)

        x_ref = Tensor(x0, requires_grad=input_grad)
        w_ref = Tensor(lin.weight.data, requires_grad=True)
        ref = x_ref @ w_ref
        if bias:
            b_ref = Tensor(lin.bias.data, requires_grad=True)
            ref = ref + b_ref
        ref.backward(g)

        assert np.array_equal(_bits(out.data), _bits(ref.data))
        assert np.array_equal(_bits(lin.weight.grad), _bits(w_ref.grad))
        if bias:
            assert np.array_equal(_bits(lin.bias.grad), _bits(b_ref.grad))
        else:
            assert lin.bias is None
        if input_grad:
            assert np.array_equal(_bits(x.grad), _bits(x_ref.grad))
        else:
            assert x.grad is None

    def test_records_one_node(self):
        lin = Linear(3, 2, rng=0)
        x = Tensor(np.ones((4, 3)))
        assert lin(x)._parents == (x, lin.weight, lin.bias)


class TestGradientAliasing:
    """First gradients of fresh results are stored without a copy; a
    tensor used more than once must still get every contribution, and
    no two gradients may share memory."""

    def test_add_to_itself(self):
        w = RNG.normal(size=(3, 2)).astype(np.float32)
        t = Tensor(RNG.normal(size=(3, 2)), requires_grad=True)
        ((t + t) * Tensor(w)).sum().backward()
        assert np.array_equal(t.grad, 2 * w)

    def test_two_gathers_of_one_tensor(self):
        t = Tensor(np.ones((3, 2)), requires_grad=True)
        a = F.gather_rows(t, np.array([0, 2]))
        b = F.gather_rows(t, np.array([2, 2, 1]))
        ((a * 2.0).sum() + b.sum()).backward()
        assert t.grad[:, 0].tolist() == [2.0, 1.0, 4.0]

    def test_concat_pieces_of_one_tensor(self):
        w = RNG.normal(size=(3, 4)).astype(np.float32)
        t = Tensor(RNG.normal(size=(3, 2)), requires_grad=True)
        (F.concat([t, t]) * Tensor(w)).sum().backward()
        assert np.array_equal(t.grad, w[:, :2] + w[:, 2:])

    def test_in_place_update_of_one_gradient_changes_no_other(self):
        lin = Linear(6, 2, rng=1)
        x = Tensor(RNG.normal(size=(5, 3)), requires_grad=True)
        h = F.relu(x)
        a = F.gather_rows(h, np.array([0, 0, 2]))
        m = F.gather_mean(h, np.array([1, 4, 4, 0]), np.array([2, 0, 2, 1]), 3)
        c = F.concat([a, m])
        s = lin(c)
        t = s + s
        prod = t * Tensor(RNG.normal(size=(3, 2)).astype(np.float32))
        loss = prod.sum()
        loss.backward()

        tensors = [x, h, a, m, c, s, t, prod, loss, lin.weight, lin.bias]
        for i, u in enumerate(tensors):
            for v in tensors[i + 1:]:
                assert not np.shares_memory(u.grad, v.grad)
        before = [v.grad.copy() for v in tensors]
        for i, u in enumerate(tensors):
            u.grad += 1.0
            for j, v in enumerate(tensors):
                if j != i:
                    assert np.array_equal(v.grad, before[j])
            u.grad[...] = before[i]
