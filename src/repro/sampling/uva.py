"""UVA-based sampling baseline (DGL-UVA, Quiver; paper §1, §4.1).

The graph topology lives in host memory.  Each GPU samples its own
seeds *independently* — no cooperation — and every adjacency access
goes through UVA over PCIe, paying read amplification: fetching an
8-byte neighbour id moves a full 50-byte minimum PCIe request.

For unbiased sampling a GPU reads the two ``indptr`` bounds of each
frontier node plus the ``fanout`` sampled entries.  For *biased*
sampling it must read the node's **entire** adjacency and weight lists
to compute the distribution — the case where UVA loses worst (§4.2).
"""

from __future__ import annotations

import numpy as np

from repro.sampling.cpu import HostGraphSampler
from repro.sampling.csp import ID_BYTES
from repro.sampling.ops import LocalKernel, UVAGather


class UVASampler(HostGraphSampler):
    """Independent per-GPU sampling over UVA (topology in CPU memory)."""

    baseline = "UVA"

    def _layer_ops(self, trace, layer, frontiers, drawn, biased):
        indptr = self.patch.indptr
        items = np.zeros(len(frontiers), dtype=np.float64)
        for g, frontier in enumerate(frontiers):
            if biased:
                # must read full adjacency + weight lists to bias
                deg_total = float(
                    (indptr[frontier + 1] - indptr[frontier]).sum()
                )
                items[g] = 2 * deg_total + 2 * len(frontier)
            else:
                # indptr bounds + the sampled entries only
                items[g] = drawn[g] + 2 * len(frontier)
        trace.add(UVAGather(items, item_bytes=ID_BYTES, label=f"uva-L{layer}"))
        trace.add(LocalKernel("sample", drawn, label=f"sample-L{layer}"))
