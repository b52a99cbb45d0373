"""Classification loss and metrics."""

from __future__ import annotations

import numpy as np

from repro.nn import functional as F
from repro.nn.tensor import Tensor
from repro.utils.errors import ReproError


def cross_entropy(logits: Tensor, labels: np.ndarray) -> Tensor:
    """Mean negative log-likelihood of ``labels`` under row softmax."""
    labels = np.asarray(labels, dtype=np.int64)
    if logits.ndim != 2 or len(labels) != logits.shape[0]:
        raise ReproError("need one label per logit row")
    if len(labels) == 0:
        raise ReproError("empty batch")
    logp = F.log_softmax(logits)
    n = len(labels)
    rows = np.arange(n)

    picked_data = logp.data[rows, labels]

    def backward(g):
        grad = np.zeros_like(logp.data)
        grad[rows, labels] = -g / n
        logp._accumulate(grad, owned=True)

    picked = Tensor._make(-picked_data.mean(), (logp,), backward)
    return picked


def accuracy(logits: Tensor | np.ndarray, labels: np.ndarray) -> float:
    """Top-1 accuracy."""
    data = logits.data if isinstance(logits, Tensor) else np.asarray(logits)
    labels = np.asarray(labels)
    if len(labels) == 0:
        return 0.0
    return float(np.mean(np.argmax(data, axis=1) == labels))
