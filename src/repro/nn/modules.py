"""Module/parameter plumbing (a micro version of torch.nn)."""

from __future__ import annotations

import numpy as np

from repro.nn.tensor import Tensor
from repro.utils.errors import ReproError
from repro.utils.rng import make_rng


class Parameter(Tensor):
    """A Tensor registered as trainable model state."""

    __slots__ = ("_order",)
    _counter = 0

    def __init__(self, data):
        super().__init__(data, requires_grad=True)
        self._order = Parameter._counter
        Parameter._counter += 1


class Module:
    """Base class: parameter discovery via attribute walking."""

    def parameters(self) -> list[Parameter]:
        out: list[Parameter] = []
        seen: set[int] = set()
        stack: list[object] = [self]
        while stack:
            obj = stack.pop()
            if id(obj) in seen:
                continue
            seen.add(id(obj))
            if isinstance(obj, Parameter):
                out.append(obj)
            elif isinstance(obj, Module):
                stack.extend(obj.__dict__.values())
            elif isinstance(obj, (list, tuple)):
                stack.extend(obj)
        # deterministic order regardless of dict/stack order
        out.sort(key=lambda p: p._order)
        return out

    def zero_grad(self) -> None:
        for p in self.parameters():
            p.zero_grad()

    def state_nbytes(self) -> int:
        return sum(p.nbytes for p in self.parameters())

    def load_state(self, arrays: list[np.ndarray]) -> None:
        params = self.parameters()
        if len(arrays) != len(params):
            raise ReproError("state size mismatch")
        for p, a in zip(params, arrays):
            if p.data.shape != a.shape:
                raise ReproError("parameter shape mismatch")
            p.data = a.astype(np.float32, copy=True)

    def state(self) -> list[np.ndarray]:
        return [p.data.copy() for p in self.parameters()]


class Linear(Module):
    """Dense layer with Glorot-uniform init."""

    def __init__(self, in_dim: int, out_dim: int, bias: bool = True,
                 rng: np.random.Generator | int | None = None):
        if in_dim <= 0 or out_dim <= 0:
            raise ReproError("dimensions must be positive")
        rng = make_rng(rng)
        bound = np.sqrt(6.0 / (in_dim + out_dim))
        self.weight = Parameter(rng.uniform(-bound, bound, size=(in_dim, out_dim)))
        self.bias = Parameter(np.zeros(out_dim)) if bias else None
        self.in_dim, self.out_dim = in_dim, out_dim

    def __call__(self, x: Tensor) -> Tensor:
        """``x @ W + b`` as one autograd node: no separate bias node, no
        N x out temporary for the sum and no copy of its gradient."""
        w, b = self.weight, self.bias
        out = x.data @ w.data
        if b is not None:
            out += b.data

        def backward(g):
            # an input that takes no gradient (layer 0) skips its GEMM
            if x.requires_grad:
                x._accumulate(g @ w.data.T, owned=True)
            w._accumulate(x.data.T @ g, owned=True)
            if b is not None:
                b._accumulate(g.sum(axis=0), owned=True)

        return Tensor._make(out, (x, w) if b is None else (x, w, b), backward)

    @property
    def flops_per_row(self) -> float:
        """Dense FLOPs to push one row through this layer."""
        return 2.0 * self.in_dim * self.out_dim
