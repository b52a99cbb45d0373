"""Distributed full-graph inference.

After sampling-based training, embeddings/predictions for *every* node
are computed layer by layer over the full neighbourhood (no sampling) —
the standard GraphSAGE inference procedure.  Under DSP's layout this is
naturally distributed: each GPU computes the layer-l embeddings of its
own patch nodes; before each layer, the GPUs exchange the boundary
embeddings their cross-patch edges need (one NVLink all-to-all whose
volume is the edge cut times the embedding width — METIS partitioning
pays off again).

The functional path evaluates the trained model exactly (chunked so
memory stays bounded); the trace prices the per-layer exchange, gather
and GEMM work.
"""

from __future__ import annotations

import numpy as np

from repro.nn.tensor import Tensor
from repro.sampling.frontier import Block
from repro.sampling.ops import AllToAll, LocalKernel, OpTrace
from repro.utils.errors import ConfigError


def full_graph_inference(
    system,
    chunk_size: int = 4096,
) -> tuple[np.ndarray, OpTrace]:
    """Predictions for every node of ``system.data`` plus the op trace.

    Works for any trained :class:`~repro.core.system.TrainingSystem`;
    for DSP the boundary exchange is computed from the real partition,
    for the single-store baselines everything counts as one patch.
    """
    if chunk_size <= 0:
        raise ConfigError("chunk_size must be positive")
    data = system.data
    graph = data.graph
    model = system.model
    n = graph.num_nodes
    k = system.k
    trace = OpTrace()

    # ownership for boundary accounting (DSP has a real partition)
    sampler = getattr(system, "sampler", None)
    if hasattr(sampler, "part_offsets") and hasattr(sampler, "owner_of"):
        owner = sampler.owner_of(np.arange(n))
    else:
        owner = np.zeros(n, dtype=np.int64)

    h = np.array(data.features, dtype=np.float32)
    dst_all = np.repeat(np.arange(n, dtype=np.int64), graph.degrees)

    # Layer-independent boundary accounting, hoisted out of the layer
    # loop and fully vectorized: only the byte/FLOP scaling below varies
    # per layer.  pair_nodes[o, g] counts the *unique* boundary sources
    # GPU ``o`` must send GPU ``g`` (a source crossing into g on many
    # edges is exchanged once — embeddings are deduplicated, edges are
    # not), via one bincount over (source node, destination owner) keys.
    src_owner = owner[graph.indices]
    dst_owner = owner[dst_all]
    edges_per_dst_gpu = np.bincount(dst_owner, minlength=k)
    nodes_per_gpu = np.bincount(owner, minlength=k)
    cross = src_owner != dst_owner
    key = graph.indices[cross].astype(np.int64) * k + dst_owner[cross]
    uniq = np.unique(key)
    pair_nodes = np.bincount(
        owner[uniq // k] * k + uniq % k, minlength=k * k
    ).reshape(k, k)

    for layer, conv in enumerate(model.convs):
        # ---- cost: boundary exchange + gather + GEMM per GPU ----------
        in_bytes = h.shape[1] * 4
        exch = pair_nodes * float(in_bytes)
        gather = edges_per_dst_gpu * float(in_bytes)
        flops = nodes_per_gpu * float(conv.flops_per_dst)
        trace.add(AllToAll(exch, label=f"infer-boundary-L{layer}"))
        trace.add(LocalKernel("gather", gather, label=f"infer-gather-L{layer}"))
        trace.add(LocalKernel("compute", flops, label=f"infer-gemm-L{layer}"))

        # ---- functional: chunked full-neighbourhood convolution --------
        outputs = []
        for lo in range(0, n, chunk_size):
            hi = min(lo + chunk_size, n)
            dst = np.arange(lo, hi, dtype=np.int64)
            e_lo, e_hi = graph.indptr[lo], graph.indptr[hi]
            src = graph.indices[e_lo:e_hi]
            offsets = graph.indptr[lo : hi + 1] - e_lo
            block = Block(dst, src, offsets)
            x = Tensor(h[block.all_nodes])
            out = conv(block, x)
            outputs.append(out.data)
        h = np.concatenate(outputs, axis=0)
        if layer < len(model.convs) - 1:
            h = np.maximum(h, 0.0)  # ReLU between layers
    return h, trace
