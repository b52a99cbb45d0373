"""Reverse-mode automatic differentiation over numpy arrays.

A :class:`Tensor` wraps an ``ndarray`` and records the operation that
produced it; :meth:`Tensor.backward` topologically sorts the recorded
graph and accumulates gradients.  Only the operations the GNN models
need are implemented, each with an exact vector-Jacobian product —
verified against numeric differentiation in the test suite.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.utils.errors import ReproError


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum ``grad`` down to ``shape`` (reverse of numpy broadcasting)."""
    if grad.shape == shape:
        return grad
    # remove leading added axes
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    # sum over axes that were broadcast from size 1
    for axis, size in enumerate(shape):
        if size == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad


class Tensor:
    """An autograd-tracked numpy array (float32 by default)."""

    __slots__ = ("data", "grad", "requires_grad", "_backward", "_parents")

    def __init__(
        self,
        data,
        requires_grad: bool = False,
        _parents: tuple = (),
        _backward: Callable[[np.ndarray], None] | None = None,
    ):
        self.data = np.asarray(data, dtype=np.float32)
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad
        self._parents = _parents
        self._backward = _backward

    # ------------------------------------------------------------------
    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def nbytes(self) -> int:
        return self.data.nbytes

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Tensor(shape={self.shape}, grad={self.requires_grad})"

    def item(self) -> float:
        return float(self.data)

    # ------------------------------------------------------------------
    # graph construction helper
    # ------------------------------------------------------------------
    @staticmethod
    def _make(data, parents: tuple["Tensor", ...], backward) -> "Tensor":
        requires = any(p.requires_grad for p in parents)
        return Tensor(
            data,
            requires_grad=requires,
            _parents=parents if requires else (),
            _backward=backward if requires else None,
        )

    def _accumulate(self, grad: np.ndarray, owned: bool = False) -> None:
        """Add ``grad`` into :attr:`grad`.

        ``owned`` says the caller made ``grad`` for this call alone (a
        fresh GEMM, CSR or elementwise result), so a first gradient is
        stored without a copy.  Views and arrays handed to more than one
        parent are copied, or a later ``+=`` into one gradient would
        change another.
        """
        if not self.requires_grad:
            return
        if self.grad is None:
            self.grad = grad.astype(np.float32, copy=not owned)
        else:
            self.grad += grad

    # ------------------------------------------------------------------
    # backward pass
    # ------------------------------------------------------------------
    def backward(self, grad: np.ndarray | None = None) -> None:
        if grad is None:
            if self.data.size != 1:
                raise ReproError("backward() without grad needs a scalar output")
            grad = np.ones_like(self.data)
        topo: list[Tensor] = []
        seen: set[int] = set()

        def visit(t: "Tensor") -> None:
            stack = [(t, False)]
            while stack:
                node, processed = stack.pop()
                if processed:
                    topo.append(node)
                    continue
                if id(node) in seen:
                    continue
                seen.add(id(node))
                stack.append((node, True))
                for p in node._parents:
                    if p.requires_grad:
                        stack.append((p, False))

        visit(self)
        self._accumulate(np.asarray(grad, dtype=np.float32))
        for node in reversed(topo):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)

    def zero_grad(self) -> None:
        self.grad = None

    # ------------------------------------------------------------------
    # arithmetic
    # ------------------------------------------------------------------
    def __add__(self, other: "Tensor") -> "Tensor":
        other = _ensure(other)
        out_data = self.data + other.data

        def backward(g):
            self._accumulate(_unbroadcast(g, self.shape))
            other._accumulate(_unbroadcast(g, other.shape))

        return Tensor._make(out_data, (self, other), backward)

    def __sub__(self, other: "Tensor") -> "Tensor":
        other = _ensure(other)
        out_data = self.data - other.data

        def backward(g):
            self._accumulate(_unbroadcast(g, self.shape))
            other._accumulate(-_unbroadcast(g, other.shape), owned=True)

        return Tensor._make(out_data, (self, other), backward)

    def __mul__(self, other: "Tensor | float") -> "Tensor":
        if isinstance(other, (int, float)):
            scalar = float(other)

            def backward_s(g):
                self._accumulate(g * scalar, owned=True)

            return Tensor._make(self.data * scalar, (self,), backward_s)
        other = _ensure(other)
        out_data = self.data * other.data

        def backward(g):
            self._accumulate(_unbroadcast(g * other.data, self.shape),
                             owned=True)
            other._accumulate(_unbroadcast(g * self.data, other.shape),
                              owned=True)

        return Tensor._make(out_data, (self, other), backward)

    __rmul__ = __mul__

    def __neg__(self) -> "Tensor":
        def backward(g):
            self._accumulate(-g, owned=True)

        return Tensor._make(-self.data, (self,), backward)

    def __matmul__(self, other: "Tensor") -> "Tensor":
        other = _ensure(other)
        out_data = self.data @ other.data

        def backward(g):
            # skip the GEMM of a side that takes no gradient (e.g. input
            # features): _accumulate would drop its result
            if self.requires_grad:
                self._accumulate(g @ other.data.T, owned=True)
            if other.requires_grad:
                other._accumulate(self.data.T @ g, owned=True)

        return Tensor._make(out_data, (self, other), backward)

    def sum(self) -> "Tensor":
        def backward(g):
            self._accumulate(np.broadcast_to(g, self.shape))

        return Tensor._make(self.data.sum(), (self,), backward)

    def mean(self) -> "Tensor":
        n = self.data.size

        def backward(g):
            self._accumulate(np.broadcast_to(g / n, self.shape))

        return Tensor._make(self.data.mean(), (self,), backward)


def _ensure(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)
