"""GNN layers and models over sampled blocks.

A convolution consumes one :class:`~repro.sampling.frontier.Block` and
an embedding matrix whose rows correspond to ``block.all_nodes``
(sorted unique ids), and produces embeddings for ``block.dst_nodes`` —
Eq. (1) restricted to the sampled neighbourhood.  A model chains its
layers deepest-block-first, exactly like DGL's block-based mini-batch
training.

Models:

- :class:`GraphSAGE` — self/neighbour concatenation with a mean or
  max-pool aggregator (the paper's default model, 3 layers x hidden 256);
- :class:`GCN` — mean over neighbours *and* self (normalized
  aggregation), lighter compute than SAGE (the Table 5 model);
- :class:`GAT` — multi-head additive attention with segment softmax.
"""

from __future__ import annotations

import numpy as np

from repro.nn import functional as F
from repro.nn.modules import Linear, Module, Parameter
from repro.nn.tensor import Tensor
from repro.sampling.frontier import Block, MiniBatchSample
from repro.utils.errors import ReproError
from repro.utils.rng import make_rng, spawn_rngs


class SAGEConv(Module):
    """GraphSAGE: ``W [h_v || AGG(h_u)]`` with a mean or max-pool
    aggregator [Hamilton et al. 2017]."""

    def __init__(self, in_dim: int, out_dim: int,
                 aggregator: str = "mean",
                 rng: np.random.Generator | int | None = None):
        if aggregator not in ("mean", "pool"):
            raise ReproError(f"unknown aggregator {aggregator!r}")
        rng = make_rng(rng)
        self.aggregator = aggregator
        self.fc = Linear(2 * in_dim, out_dim, rng=rng)
        # the pool aggregator transforms neighbours before the max
        self.fc_pool = (
            Linear(in_dim, in_dim, rng=rng) if aggregator == "pool" else None
        )

    def __call__(self, block: Block, h: Tensor) -> Tensor:
        dst_idx, src_idx, seg = block.local_index
        h_dst = F.gather_rows(h, dst_idx)
        if self.aggregator == "pool":
            h_src = F.relu(self.fc_pool(F.gather_rows(h, src_idx)))
            h_agg = F.segment_max(h_src, seg, block.num_dst)
        else:
            h_agg = F.gather_mean(h, src_idx, seg, block.num_dst)
        return self.fc(F.concat([h_dst, h_agg]))

    @property
    def flops_per_dst(self) -> float:
        flops = self.fc.flops_per_row
        if self.fc_pool is not None:
            flops += self.fc_pool.flops_per_row
        return flops


class GCNConv(Module):
    """GCN-style: ``W mean(h_u for u in N(v) + v)``."""

    def __init__(self, in_dim: int, out_dim: int,
                 rng: np.random.Generator | int | None = None):
        self.fc = Linear(in_dim, out_dim, rng=make_rng(rng))

    def __call__(self, block: Block, h: Tensor) -> Tensor:
        dst_idx, src_idx, seg = block.local_index
        # append one self edge per dst: mean over N(v) union {v}
        all_idx = np.concatenate([src_idx, dst_idx])
        all_seg = np.concatenate([seg, np.arange(block.num_dst)])
        return self.fc(F.gather_mean(h, all_idx, all_seg, block.num_dst))

    @property
    def flops_per_dst(self) -> float:
        return self.fc.flops_per_row


class GATConv(Module):
    """Multi-head graph attention with additive scoring.

    ``out_dim`` must be divisible by ``num_heads``; per-head outputs of
    width ``out_dim / num_heads`` are concatenated (the standard GAT
    hidden-layer configuration).
    """

    def __init__(self, in_dim: int, out_dim: int, num_heads: int = 1,
                 rng: np.random.Generator | int | None = None):
        if num_heads < 1:
            raise ReproError("num_heads must be positive")
        if out_dim % num_heads != 0:
            raise ReproError("out_dim must be divisible by num_heads")
        rng = make_rng(rng)
        self.num_heads = num_heads
        head_dim = out_dim // num_heads
        self.heads = [
            _GATHead(in_dim, head_dim, rng=rng) for _ in range(num_heads)
        ]

    def __call__(self, block: Block, h: Tensor) -> Tensor:
        outs = [head(block, h) for head in self.heads]
        return outs[0] if len(outs) == 1 else F.concat(outs)

    @property
    def flops_per_dst(self) -> float:
        return sum(head.fc.flops_per_row for head in self.heads)


class _GATHead(Module):
    """One attention head (a single-head GATConv body)."""

    def __init__(self, in_dim: int, out_dim: int,
                 rng: np.random.Generator | int | None = None):
        rng = make_rng(rng)
        self.fc = Linear(in_dim, out_dim, bias=False, rng=rng)
        bound = np.sqrt(3.0 / out_dim)
        self.attn_src = Parameter(rng.uniform(-bound, bound, size=(out_dim, 1)))
        self.attn_dst = Parameter(rng.uniform(-bound, bound, size=(out_dim, 1)))

    def __call__(self, block: Block, h: Tensor) -> Tensor:
        dst_idx, src_idx, seg = block.local_index
        z = self.fc(h)
        z_src = F.gather_rows(z, src_idx)
        z_dst = F.gather_rows(z, dst_idx)
        score_src = z_src @ self.attn_src  # [E, 1]
        score_dst = F.gather_rows(z_dst @ self.attn_dst, seg)
        scores = F.leaky_relu(_squeeze(score_src + score_dst))
        alpha = F.segment_softmax(scores, seg, block.num_dst)
        weighted = z_src * _unsqueeze(alpha)
        return F.segment_sum(weighted, seg, block.num_dst)


def _squeeze(t: Tensor) -> Tensor:
    def backward(g):
        t._accumulate(g.reshape(t.shape))

    return Tensor._make(t.data.reshape(-1), (t,), backward)


def _unsqueeze(t: Tensor) -> Tensor:
    def backward(g):
        t._accumulate(g.reshape(t.shape))

    return Tensor._make(t.data.reshape(-1, 1), (t,), backward)


class _BlockModel(Module):
    """Shared forward: chain convs deepest-block-first, ReLU between."""

    conv_cls: type = None  # set by subclasses

    #: extra keyword arguments forwarded to every conv (subclass hook)
    conv_kwargs: dict = {}

    def __init__(self, in_dim: int, hidden_dim: int, out_dim: int,
                 num_layers: int = 3, dropout: float = 0.0, seed: int = 0,
                 **conv_kwargs):
        if num_layers < 1:
            raise ReproError("need at least one layer")
        rngs = spawn_rngs(make_rng(seed), num_layers)
        dims = [in_dim] + [hidden_dim] * (num_layers - 1) + [out_dim]
        kwargs = {**self.conv_kwargs, **conv_kwargs}
        self.convs = [
            self.conv_cls(dims[i], dims[i + 1], rng=rngs[i], **kwargs)
            for i in range(num_layers)
        ]
        self.dropout = dropout
        self.num_layers = num_layers
        self._drop_rng = make_rng(seed + 1)

    def __call__(self, sample: MiniBatchSample, features: Tensor,
                 training: bool = True) -> Tensor:
        """Forward pass.

        ``features`` rows must correspond to ``sample.all_nodes``
        (sorted unique) — what the loader fetched for this mini-batch.
        """
        if sample.num_layers != self.num_layers:
            raise ReproError(
                f"sample has {sample.num_layers} blocks, model has "
                f"{self.num_layers} layers"
            )
        nodes = sample.all_nodes
        if features.shape[0] != len(nodes):
            raise ReproError("features must cover sample.all_nodes")

        # deepest block first (convs[0] is the input layer); chaining
        # works because block j+1's dst set equals block j's all_nodes
        block = sample.blocks[-1]
        h = F.gather_rows(features, np.searchsorted(nodes, block.all_nodes))
        for layer, conv in enumerate(self.convs):
            block = sample.blocks[self.num_layers - 1 - layer]
            h = conv(block, h)
            if layer < self.num_layers - 1:
                h = F.relu(h)
                if self.dropout > 0:
                    h = F.dropout(h, self.dropout, rng=self._drop_rng,
                                  training=training)
        return h  # rows correspond to sample.seeds

    def forward_flops(self, sample: MiniBatchSample) -> float:
        """Dense FLOPs of one forward pass (cost-model input)."""
        total = 0.0
        for layer, conv in enumerate(self.convs):
            block = sample.blocks[self.num_layers - 1 - layer]
            total += block.num_dst * conv.flops_per_dst
        return total


class GraphSAGE(_BlockModel):
    """GraphSAGE [14]: the paper's default model (3 layers, hidden 256)."""

    conv_cls = SAGEConv


class GCN(_BlockModel):
    """GCN [19]: lighter compute than SAGE (the Table 5 model)."""

    conv_cls = GCNConv


class GAT(_BlockModel):
    """Graph attention network [37]; pass ``num_heads`` for multi-head."""

    conv_cls = GATConv
