"""Minimal neural-network stack: autograd, GNN layers, optimizers.

The paper trains GraphSAGE and GCN with PyTorch + DGL; neither is
available here, so this package provides the pieces those frameworks
contribute: a reverse-mode autograd engine over numpy
(:mod:`~repro.nn.tensor`), graph convolution layers that consume the
sampled :class:`~repro.sampling.frontier.Block` structures
(:mod:`~repro.nn.gnn`), losses, optimizers, and data-parallel gradient
averaging with the byte accounting the trainer's allreduce needs
(:mod:`~repro.nn.parallel`).

Everything is small but real: models actually converge on the synthetic
datasets, which is what the Fig 9 correctness experiment requires.
"""

from repro.nn.tensor import Tensor
from repro.nn import functional
from repro.nn.modules import Linear, Module, Parameter
from repro.nn.gnn import GCN, GAT, GraphSAGE, GATConv, GCNConv, SAGEConv
from repro.nn.loss import accuracy, cross_entropy
from repro.nn.optim import SGD, Adam
from repro.nn.parallel import allreduce_gradients, gradient_nbytes

__all__ = [
    "Tensor",
    "functional",
    "Linear",
    "Module",
    "Parameter",
    "GraphSAGE",
    "GCN",
    "GAT",
    "SAGEConv",
    "GCNConv",
    "GATConv",
    "accuracy",
    "cross_entropy",
    "SGD",
    "Adam",
    "allreduce_gradients",
    "gradient_nbytes",
]
