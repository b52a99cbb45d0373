"""Data-parallel training support (paper §3.2, "Trainer").

Every GPU holds a model replica; after the backward pass the trainers
allreduce (average) gradients so each replica takes an identical
optimizer step — the BSP semantics that make DSP's accuracy-per-batch
curve coincide with the baselines' (Fig 9a).  Identical steps keep the
replicas identical, so one parameter set stands for all of them: each
GPU's backward leaves its own gradient list, and the allreduce writes
their mean into the shared parameters.
"""

from __future__ import annotations

import numpy as np

from repro.nn.modules import Module, Parameter
from repro.utils.errors import ReproError


def gradient_nbytes(model: Module) -> int:
    """Bytes a full gradient occupies (the allreduce payload per GPU)."""
    return model.state_nbytes()


def allreduce_gradients(
    params: list[Parameter], grads_per_gpu: list[list[np.ndarray | None]]
) -> None:
    """Set ``params[i].grad`` to the mean over GPUs ``g``, summed in GPU
    order, of ``grads_per_gpu[g][i]``.  A ``None`` entry contributes
    zero (NCCL semantics: every rank participates); a parameter no GPU
    has a gradient for keeps its ``grad``."""
    if not grads_per_gpu:
        raise ReproError("need at least one GPU's gradients")
    if any(len(gl) != len(params) for gl in grads_per_gpu):
        raise ReproError("every GPU needs one gradient per parameter")
    k = len(grads_per_gpu)
    for i, p in enumerate(params):
        grads = [gl[i] for gl in grads_per_gpu if gl[i] is not None]
        if grads:
            p.grad = np.sum(grads, axis=0) / k
