"""Optimizers: SGD with momentum, and Adam."""

from __future__ import annotations

import numpy as np

from repro.nn.modules import Parameter
from repro.utils.errors import ReproError, positive


class SGD:
    """Stochastic gradient descent with optional momentum."""

    def __init__(self, params: list[Parameter], lr: float,
                 momentum: float = 0.0, weight_decay: float = 0.0):
        positive("lr", lr)
        if not 0.0 <= momentum < 1.0:
            raise ReproError("momentum must be in [0, 1)")
        self.params = list(params)
        self.lr = lr
        self.momentum = momentum
        self.weight_decay = weight_decay
        #: momentum buffers, allocated by the first step
        self._velocity: list[np.ndarray] | None = None

    def step(self) -> None:
        if self._velocity is None:
            self._velocity = _zeros_like(self.params)
        for p, v in zip(self.params, self._velocity):
            if p.grad is None:
                continue
            g = p.grad
            if self.weight_decay:
                g = g + self.weight_decay * p.data
            if self.momentum:
                v *= self.momentum
                v += g
                g = v
            p.data -= self.lr * g

    def zero_grad(self) -> None:
        for p in self.params:
            p.zero_grad()


class Adam:
    """Adam with bias correction."""

    def __init__(self, params: list[Parameter], lr: float = 1e-3,
                 betas: tuple[float, float] = (0.9, 0.999), eps: float = 1e-8,
                 weight_decay: float = 0.0):
        positive("lr", lr)
        b1, b2 = betas
        if not (0 <= b1 < 1 and 0 <= b2 < 1):
            raise ReproError("betas must be in [0, 1)")
        self.params = list(params)
        self.lr, self.b1, self.b2, self.eps = lr, b1, b2, eps
        self.weight_decay = weight_decay
        #: moment buffers, allocated by the first step: a system that
        #: never steps (cost-only, serving) holds none
        self._m: list[np.ndarray] | None = None
        self._v: list[np.ndarray] | None = None
        self._t = 0

    def step(self) -> None:
        if self._m is None:
            self._m, self._v = _zeros_like(self.params), _zeros_like(self.params)
        self._t += 1
        bc1 = 1.0 - self.b1**self._t
        bc2 = 1.0 - self.b2**self._t
        for p, m, v in zip(self.params, self._m, self._v):
            if p.grad is None:
                continue
            g = p.grad
            if self.weight_decay:
                g = g + self.weight_decay * p.data
            m *= self.b1
            m += (1 - self.b1) * g
            v *= self.b2
            v += (1 - self.b2) * g * g
            p.data -= self.lr * (m / bc1) / (np.sqrt(v / bc2) + self.eps)

    def zero_grad(self) -> None:
        for p in self.params:
            p.zero_grad()


def _zeros_like(params: list[Parameter]) -> list[np.ndarray]:
    """One zero buffer per parameter; steps update them in place, so a
    first step computes exactly what a zero-initialised state would."""
    return [np.zeros_like(p.data) for p in params]
