"""Optimizer state is allocated by the first step, and the first steps
compute bit for bit what zero-initialised state computes."""

import numpy as np
import pytest

from repro.nn import Adam, SGD
from repro.nn.modules import Parameter


def _params(seed: int = 0) -> list[Parameter]:
    rng = np.random.default_rng(seed)
    return [Parameter(rng.normal(size=(4, 3)).astype(np.float32)),
            Parameter(rng.normal(size=3).astype(np.float32))]


def _grads(params, step: int) -> list[np.ndarray]:
    """Gradients with -0.0 and +0.0 entries: a first moment set by
    assignment (``m = (1 - b1) * g``) would keep a -0.0 that the
    in-place update of a zero buffer turns into +0.0."""
    rng = np.random.default_rng(100 + step)
    out = []
    for p in params:
        g = rng.normal(size=p.data.shape).astype(np.float32)
        flat = g.reshape(-1)
        flat[0], flat[1] = -0.0, 0.0
        out.append(g)
    return out


def _eager_adam(params, grads_per_step, lr, b1=0.9, b2=0.999, eps=1e-8,
                weight_decay=0.0):
    """Adam with its moments allocated up front (the reference)."""
    data = [p.data.copy() for p in params]
    m = [np.zeros_like(d) for d in data]
    v = [np.zeros_like(d) for d in data]
    for t, grads in enumerate(grads_per_step, start=1):
        bc1, bc2 = 1.0 - b1**t, 1.0 - b2**t
        for d, mi, vi, g in zip(data, m, v, grads):
            if weight_decay:
                g = g + weight_decay * d
            mi *= b1
            mi += (1 - b1) * g
            vi *= b2
            vi += (1 - b2) * g * g
            d -= lr * (mi / bc1) / (np.sqrt(vi / bc2) + eps)
    return data, m, v


def _eager_sgd(params, grads_per_step, lr, momentum, weight_decay=0.0):
    data = [p.data.copy() for p in params]
    vel = [np.zeros_like(d) for d in data]
    for grads in grads_per_step:
        for d, v, g in zip(data, vel, grads):
            if weight_decay:
                g = g + weight_decay * d
            if momentum:
                v *= momentum
                v += g
                g = v
            d -= lr * g
    return data, vel


def _bits_equal(a: np.ndarray, b: np.ndarray) -> bool:
    return a.dtype == b.dtype and a.tobytes() == b.tobytes()


def _run(opt, params, grads_per_step):
    for grads in grads_per_step:
        for p, g in zip(params, grads):
            p.grad = g
        opt.step()


def test_never_stepped_optimizers_hold_no_buffers():
    adam = Adam(_params(), lr=1e-3)
    sgd = SGD(_params(), lr=0.1, momentum=0.9)
    assert adam._m is None and adam._v is None
    assert sgd._velocity is None


@pytest.mark.parametrize("weight_decay", [0.0, 0.01])
def test_adam_three_steps_match_eager_state(weight_decay):
    params = _params()
    grads = [_grads(params, s) for s in range(3)]
    want, want_m, want_v = _eager_adam(params, grads, lr=1e-2,
                                       weight_decay=weight_decay)
    opt = Adam(params, lr=1e-2, weight_decay=weight_decay)
    _run(opt, params, grads)
    for p, w, m, wm, v, wv in zip(params, want, opt._m, want_m, opt._v, want_v):
        assert _bits_equal(p.data, w)
        assert _bits_equal(m, wm)
        assert _bits_equal(v, wv)


@pytest.mark.parametrize("momentum", [0.0, 0.9])
def test_sgd_three_steps_match_eager_state(momentum):
    params = _params(1)
    grads = [_grads(params, s) for s in range(3)]
    want, want_vel = _eager_sgd(params, grads, lr=0.1, momentum=momentum)
    opt = SGD(params, lr=0.1, momentum=momentum)
    _run(opt, params, grads)
    for p, w, v, wv in zip(params, want, opt._velocity, want_vel):
        assert _bits_equal(p.data, w)
        assert _bits_equal(v, wv)
