"""Tests for GNN layers, models, loss, optimizers and data parallelism."""

import copy

import numpy as np
import pytest

from repro.graph import load_dataset
from repro.nn import (
    GAT,
    GCN,
    GraphSAGE,
    Adam,
    SGD,
    Tensor,
    accuracy,
    allreduce_gradients,
    cross_entropy,
    gradient_nbytes,
)
from repro.nn.modules import Linear, Module, Parameter
from repro.sampling import CollectiveSampler, CSPConfig
from repro.sampling.local import GraphPatch
from repro.utils import ReproError


@pytest.fixture(scope="module")
def batch():
    """A real sampled mini-batch from the tiny dataset (single GPU)."""
    ds = load_dataset("tiny")
    sampler = CollectiveSampler(
        [GraphPatch.full(ds.graph)], np.array([0, ds.num_nodes]), seed=0
    )
    seeds = np.arange(0, 64, dtype=np.int64)
    samples, _, _ = sampler.sample([seeds], CSPConfig(fanout=(5, 3)))
    sample = samples[0]
    feats = Tensor(ds.features[sample.all_nodes])
    labels = ds.labels[seeds]
    return ds, sample, feats, labels


class TestModules:
    def test_linear_shapes(self):
        lin = Linear(4, 7, rng=0)
        out = lin(Tensor(np.ones((3, 4), dtype=np.float32)))
        assert out.shape == (3, 7)

    def test_parameters_deterministic_order(self):
        class M(Module):
            def __init__(self):
                self.a = Linear(2, 3, rng=0)
                self.b = Linear(3, 1, rng=1)

        m = M()
        assert m.parameters() == m.parameters()
        assert len(m.parameters()) == 4

    def test_state_roundtrip(self):
        lin = Linear(3, 3, rng=0)
        state = lin.state()
        lin.weight.data[:] = 0
        lin.load_state(state)
        assert lin.weight.data.any()

    def test_bad_dims(self):
        with pytest.raises(ReproError):
            Linear(0, 3)


@pytest.mark.parametrize("model_cls", [GraphSAGE, GCN, GAT])
class TestModels:
    def test_forward_shape(self, batch, model_cls):
        ds, sample, feats, labels = batch
        model = model_cls(ds.feature_dim, 32, ds.num_classes, num_layers=2, seed=0)
        out = model(sample, feats)
        assert out.shape == (len(sample.seeds), ds.num_classes)

    def test_backward_populates_all_grads(self, batch, model_cls):
        ds, sample, feats, labels = batch
        model = model_cls(ds.feature_dim, 32, ds.num_classes, num_layers=2, seed=0)
        loss = cross_entropy(model(sample, feats), labels)
        loss.backward()
        for p in model.parameters():
            assert p.grad is not None
            assert np.isfinite(p.grad).all()

    def test_one_step_reduces_loss(self, batch, model_cls):
        ds, sample, feats, labels = batch
        model = model_cls(ds.feature_dim, 32, ds.num_classes, num_layers=2, seed=0)
        opt = Adam(model.parameters(), lr=5e-3)
        first = None
        for _ in range(20):
            opt.zero_grad()
            loss = cross_entropy(model(sample, feats), labels)
            if first is None:
                first = loss.item()
            loss.backward()
            opt.step()
        assert loss.item() < first

    def test_layer_mismatch_rejected(self, batch, model_cls):
        ds, sample, feats, labels = batch
        model = model_cls(ds.feature_dim, 32, ds.num_classes, num_layers=3, seed=0)
        with pytest.raises(ReproError):
            model(sample, feats)

    def test_flops_positive(self, batch, model_cls):
        ds, sample, feats, _ = batch
        model = model_cls(ds.feature_dim, 32, ds.num_classes, num_layers=2, seed=0)
        assert model.forward_flops(sample) > 0


class TestMultiHeadGAT:
    def test_forward_shape(self, batch):
        ds, sample, feats, labels = batch
        model = GAT(ds.feature_dim, 32, ds.num_classes, num_layers=2,
                    seed=0, num_heads=4)
        out = model(sample, feats)
        assert out.shape == (len(sample.seeds), ds.num_classes)

    def test_heads_have_independent_parameters(self, batch):
        ds, *_ = batch
        model = GAT(ds.feature_dim, 32, ds.num_classes, num_layers=2,
                    seed=0, num_heads=2)
        single = GAT(ds.feature_dim, 32, ds.num_classes, num_layers=2,
                     seed=0, num_heads=1)
        assert len(model.parameters()) == 2 * len(single.parameters())

    def test_trains(self, batch):
        ds, sample, feats, labels = batch
        model = GAT(ds.feature_dim, 32, ds.num_classes, num_layers=2,
                    seed=1, num_heads=2)
        opt = Adam(model.parameters(), lr=5e-3)
        first = None
        for _ in range(15):
            opt.zero_grad()
            loss = cross_entropy(model(sample, feats), labels)
            first = first or loss.item()
            loss.backward()
            opt.step()
        assert loss.item() < first

    def test_invalid_head_config(self):
        from repro.nn import GATConv
        from repro.utils import ReproError

        with pytest.raises(ReproError):
            GATConv(8, 9, num_heads=2)
        with pytest.raises(ReproError):
            GATConv(8, 8, num_heads=0)


class TestTrainingConvergence:
    def test_sage_learns_tiny_dataset(self, batch):
        """End-to-end: a 2-layer SAGE beats random guessing comfortably."""
        ds, sample, feats, labels = batch
        model = GraphSAGE(ds.feature_dim, 32, ds.num_classes, num_layers=2, seed=1)
        opt = Adam(model.parameters(), lr=1e-2)
        for _ in range(60):
            opt.zero_grad()
            out = model(sample, feats)
            cross_entropy(out, labels).backward()
            opt.step()
        acc = accuracy(model(sample, feats, training=False), labels)
        assert acc > 2.5 / ds.num_classes

    def test_gcn_lighter_than_sage(self, batch):
        """Table 5 rationale: GCN does less compute than GraphSAGE."""
        ds, sample, _, _ = batch
        sage = GraphSAGE(ds.feature_dim, 32, ds.num_classes, num_layers=2, seed=0)
        gcn = GCN(ds.feature_dim, 32, ds.num_classes, num_layers=2, seed=0)
        assert gcn.forward_flops(sample) < sage.forward_flops(sample)


class TestLossAndOptim:
    def test_cross_entropy_matches_manual(self):
        logits = Tensor(np.array([[2.0, 0.0], [0.0, 2.0]], dtype=np.float32))
        loss = cross_entropy(logits, np.array([0, 1]))
        expect = -np.log(np.exp(2) / (np.exp(2) + 1))
        assert loss.item() == pytest.approx(expect, rel=1e-5)

    def test_cross_entropy_grad_numeric(self):
        rng = np.random.default_rng(3)
        x0 = rng.normal(size=(4, 3)).astype(np.float32)
        labels = np.array([0, 2, 1, 1])
        t = Tensor(x0.copy(), requires_grad=True)
        cross_entropy(t, labels).backward()
        eps = 1e-3
        for i in (0, 5, 11):
            flat = x0.reshape(-1).copy()
            flat[i] += eps
            up = cross_entropy(Tensor(flat.reshape(4, 3)), labels).item()
            flat[i] -= 2 * eps
            down = cross_entropy(Tensor(flat.reshape(4, 3)), labels).item()
            num = (up - down) / (2 * eps)
            assert t.grad.reshape(-1)[i] == pytest.approx(num, abs=2e-3)

    def test_empty_batch_rejected(self):
        with pytest.raises(ReproError):
            cross_entropy(Tensor(np.zeros((0, 3))), np.array([], dtype=np.int64))

    def test_accuracy(self):
        logits = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0]])
        assert accuracy(logits, np.array([0, 1, 1])) == pytest.approx(2 / 3)

    def test_sgd_momentum_moves_further(self):
        def run(momentum):
            p = Parameter(np.array([1.0]))
            opt = SGD([p], lr=0.1, momentum=momentum)
            for _ in range(5):
                p.grad = np.array([1.0], dtype=np.float32)
                opt.step()
            return p.data[0]

        assert run(0.9) < run(0.0)

    def test_adam_converges_quadratic(self):
        p = Parameter(np.array([5.0]))
        opt = Adam([p], lr=0.3)
        for _ in range(200):
            p.grad = 2 * p.data  # d/dp p^2
            opt.step()
        assert abs(p.data[0]) < 0.1

    def test_bad_hyperparams(self):
        with pytest.raises(ReproError):
            SGD([], lr=-1)
        with pytest.raises(ReproError):
            Adam([], lr=0)


class TestDataParallel:
    @staticmethod
    def _grads(model, per_gpu):
        """Per-GPU gradient lists over ``model.parameters()``: GPU g's
        weight gradient is ``per_gpu[g]`` (None = no gradient), and no
        GPU has a bias gradient."""
        params = model.parameters()
        w = next(i for i, p in enumerate(params) if p is model.weight)
        grads = [[None] * len(params) for _ in per_gpu]
        for gl, g in zip(grads, per_gpu):
            gl[w] = g
        return params, grads

    def test_allreduce_averages(self):
        model = Linear(2, 2, rng=0)
        params, grads = self._grads(model, [
            np.ones((2, 2), dtype=np.float32),
            3 * np.ones((2, 2), dtype=np.float32),
        ])
        allreduce_gradients(params, grads)
        np.testing.assert_allclose(model.weight.grad, 2.0)
        assert model.bias.grad is None  # no GPU had one

    def test_allreduce_missing_grad_counts_as_zero(self):
        model = Linear(2, 2, rng=0)
        params, grads = self._grads(
            model, [np.full((2, 2), 4.0, dtype=np.float32), None])
        allreduce_gradients(params, grads)
        np.testing.assert_allclose(model.weight.grad, 2.0)

    def test_allreduce_sums_in_gpu_order(self):
        """The mean is ``np.sum`` over the GPUs' gradients in GPU order,
        bit for bit (float32 addition does not commute in rounding)."""
        per_gpu = [np.full((2, 2), v, dtype=np.float32)
                   for v in (1e8, 1.0, -1e8, 1.0)]
        model = Linear(2, 2, rng=0)
        params, grads = self._grads(model, per_gpu)
        allreduce_gradients(params, grads)
        # ((1e8 + 1) - 1e8) + 1 = 1 in float32; reversed, the sum is 0
        np.testing.assert_array_equal(model.weight.grad, 0.25)

    def test_bsp_equivalence(self):
        """BSP: 2 GPUs on half batches == 1 model on the full batch."""
        rng = np.random.default_rng(0)
        x = rng.normal(size=(8, 3)).astype(np.float32)
        y = np.array([0, 1, 0, 1, 1, 0, 1, 0])

        solo = Linear(3, 2, rng=7)
        duo = copy.deepcopy(solo)

        loss = cross_entropy(solo(Tensor(x)), y)
        loss.backward()

        params = duo.parameters()
        grads = []
        for sl in (slice(0, 4), slice(4, 8)):
            duo.zero_grad()
            cross_entropy(duo(Tensor(x[sl])), y[sl]).backward()
            grads.append([p.grad for p in params])
        allreduce_gradients(params, grads)
        np.testing.assert_allclose(
            duo.weight.grad, solo.weight.grad, rtol=1e-4, atol=1e-6
        )

    def test_gradient_nbytes(self):
        model = Linear(4, 4, rng=0)
        assert gradient_nbytes(model) == (16 + 4) * 4
