"""The chunked reference CSP round, kept as a test oracle.

:func:`reference_one_layer` is the seed's per-(owner, origin) chunked
shuffle/sample/reshuffle round; :meth:`CollectiveSampler._one_layer`
is its flat-batch rewrite.  Both draw from the per-owner RNG streams in
the same order, so they must agree bit for bit.
:func:`use_reference_round` binds the reference onto one sampler
instance, together with the sort-based ``np.unique`` dedup the seed's
lazy ``Block.all_nodes`` used, which reproduces the seed's sampling
path exactly.
"""

from __future__ import annotations

import types

import numpy as np

from repro.sampling import CollectiveSampler
from repro.sampling.csp import ID_BYTES, CSPConfig
from repro.sampling.frontier import Block
from repro.sampling.local import _ranges, sample_neighbors
from repro.sampling.ops import AllToAll, LocalKernel, OpTrace


def use_reference_round(sampler: CollectiveSampler) -> CollectiveSampler:
    """Run ``sampler`` on the reference round and ``np.unique`` dedup
    (instance attributes shadow the class's methods); returns it."""
    sampler._one_layer = types.MethodType(reference_one_layer, sampler)
    sampler._unique_ids = lambda *arrays: np.unique(np.concatenate(arrays))
    return sampler


def reference_one_layer(
    self,
    frontiers: list[np.ndarray],
    quotas: list[np.ndarray],
    config: CSPConfig,
    trace: OpTrace,
    layer: int,
    owners: list[np.ndarray] | None = None,
) -> tuple[list[Block], int, int, int]:
    """The original per-(owner, origin) chunked round.

    Kept verbatim as the executable specification of
    :meth:`CollectiveSampler._one_layer`: ``test_csp_equivalence.py``
    asserts both return byte-identical blocks, traces and stats from
    identical RNG streams.  ``owners`` is accepted (and ignored) so the
    two implementations are signature-compatible.
    """
    del owners  # the reference recomputes them, as the seed did
    k = self.num_gpus
    per_task_bytes = ID_BYTES * (2 if config.scheme == "layer" else 1)

    # ---- shuffle: group each GPU's tasks by owner -------------------
    perms, owner_counts = [], np.zeros((k, k), dtype=np.int64)
    for g, frontier in enumerate(frontiers):
        owners_g = self.owner_of(frontier)
        perm = np.argsort(owners_g, kind="stable")
        perms.append(perm)
        owner_counts[g] = np.bincount(owners_g, minlength=k)
    shuffle = owner_counts.astype(np.float64) * per_task_bytes
    trace.add(AllToAll(np.where(np.eye(k, dtype=bool), 0.0, shuffle),
                       label=f"shuffle-L{layer}"))

    # ---- sample: one fused kernel per owner GPU ---------------------
    # owner o receives, for each origin g, a contiguous slice of g's
    # owner-sorted frontier
    src_by_owner_origin: list[list[np.ndarray]] = [[] for _ in range(k)]
    cnt_by_owner_origin: list[list[np.ndarray]] = [[] for _ in range(k)]
    kernel_work = np.zeros(k, dtype=np.float64)
    reshuffle = np.zeros((k, k), dtype=np.float64)

    slice_bounds = [np.concatenate([[0], np.cumsum(owner_counts[g])])
                    for g in range(k)]
    patches, biased = self._sampling_patches(config)
    for o, patch in enumerate(patches):
        task_chunks, quota_chunks, origin_sizes = [], [], []
        for g in range(k):
            lo, hi = slice_bounds[g][o], slice_bounds[g][o + 1]
            sel = perms[g][lo:hi]
            task_chunks.append(frontiers[g][sel])
            quota_chunks.append(quotas[g][sel])
            origin_sizes.append(hi - lo)
        tasks = np.concatenate(task_chunks) if task_chunks else np.empty(0, np.int64)
        quota = np.concatenate(quota_chunks) if quota_chunks else np.empty(0, np.int64)
        src, counts = sample_neighbors(
            patch,
            tasks - patch.base,
            quota,
            rng=self.rngs[o],
            replace=config.replace,
            biased=biased,
        )
        kernel_work[o] = float(counts.sum())
        # split the results back per origin
        cuts = np.cumsum(origin_sizes)[:-1]
        counts_split = np.split(counts, cuts)
        src_cuts = np.cumsum([c.sum() for c in counts_split])[:-1]
        src_split = np.split(src, src_cuts)
        for g in range(k):
            cnt_by_owner_origin[o].append(counts_split[g])
            src_by_owner_origin[o].append(src_split[g])
            reshuffle[o, g] = (
                src_split[g].nbytes + counts_split[g].nbytes
            )

    trace.add(LocalKernel("sample", kernel_work, label=f"sample-L{layer}"))
    trace.add(AllToAll(np.where(np.eye(k, dtype=bool), 0.0, reshuffle),
                       label=f"reshuffle-L{layer}"))

    # ---- reassemble blocks on the origin GPUs -----------------------
    blocks = []
    tasks_total = sampled_total = local_tasks = 0
    for g in range(k):
        counts_perm = np.concatenate(
            [cnt_by_owner_origin[o][g] for o in range(k)]
        )
        src_perm = np.concatenate([src_by_owner_origin[o][g] for o in range(k)])
        # counts_perm aligns with frontiers[g][perms[g]]; un-permute
        inv = np.empty_like(perms[g])
        inv[perms[g]] = np.arange(len(perms[g]))
        starts_perm = np.concatenate([[0], np.cumsum(counts_perm)])[:-1]
        counts = counts_perm[inv]
        gather = np.repeat(starts_perm[inv], counts) + _ranges(counts)
        src = src_perm[gather]
        offsets = np.concatenate([[0], np.cumsum(counts)])
        blocks.append(Block(frontiers[g], src, offsets))
        tasks_total += len(frontiers[g])
        sampled_total += len(src)
        local_tasks += int(owner_counts[g, g])
    return blocks, tasks_total, sampled_total, local_tasks
