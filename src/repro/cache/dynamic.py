"""Access-frequency dynamic cache policy over a partitioned store.

The static :class:`~repro.cache.store.PartitionedCache` freezes its
resident set at layout time (degree-ordered by default).  Serving
traffic is Zipf *with drift*: the hot set being requested stops being
the hot set the cache holds, and the cold UVA path absorbs the
difference.  :class:`DynamicCachePolicy` closes that gap by observing
the loader's request stream and re-deciding residency online:

- **windowed EWMA scores** — each ``FeatureLoader.load`` call adds the
  (already deduplicated) requested node ids to a per-window request
  count with one vectorized indexed add; every ``window`` loads the
  window bincount folds into an exponential moving average and each
  GPU's patch re-selects its ``target`` highest-scoring nodes.  No
  per-request Python work anywhere.
- **partitioned semantics preserved** — promotion/demotion only moves
  nodes of a patch in and out of *that patch's* residency; ownership
  (``store.owner``) never changes and per-patch resident counts stay
  exactly at their planned budget, so memory accounting is unchanged.
- **workload-history warmup** — :meth:`warm` seeds the scores from a
  historical request trace and installs the resulting placement as the
  baseline that :meth:`reset` (used between sweep points) restores.
- **frontier prefetch** — ``load`` requests contain the sampled
  next-hop frontier, not just the seeds; requested-but-cold nodes
  whose score beats their patch's resident floor are staged into the
  cache *during the load* (bounded by ``prefetch_quota``), evicting an
  equal number of the patch's coldest residents.

Every promotion batch is reported back to the loader so it can charge
the cache-fill transfer (host -> GPU rows ride the cold path); the
loader plans every request against the current placement, so the next
load sees the reshuffle.  Registered ``on_change`` callbacks (e.g.
the CSP's cached-node bias refresh) fire on the same batches.

Determinism: scores, tie-breaks (static hotness rank) and window
boundaries are pure functions of the observed request sequence, so a
serve run produces bit-identical placements whichever worker executes
it; :meth:`reset` returns the policy — and the shared store — to the
post-warmup state between runs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.cache.loader import dedup
from repro.cache.store import PartitionedCache
from repro.utils.errors import ConfigError, count, non_negative, require

__all__ = ["DynamicCacheConfig", "DynamicCachePolicy"]


def _head_mask(key: np.ndarray, tie: np.ndarray, k: int) -> np.ndarray:
    """Mask of the ``k`` entries that ``np.lexsort((tie, key))`` puts
    first, without sorting: ``np.partition`` finds the k-th ``key`` and
    the entries tied with it are resolved by ``tie`` (then index, as
    the stable lexsort does)."""
    n = len(key)
    if k >= n:
        return np.ones(n, dtype=bool)
    if k <= 0:
        return np.zeros(n, dtype=bool)
    t = np.partition(key, k - 1)[k - 1]
    head = key < t
    at = np.flatnonzero(key == t)
    need = k - int(np.count_nonzero(head))
    head[at[np.argsort(tie[at], kind="stable")[:need]]] = True
    return head


def _lex_sorted(idx: np.ndarray, key: np.ndarray,
                tie: np.ndarray) -> np.ndarray:
    """``idx`` ordered as ``np.lexsort((tie, key))`` orders them."""
    return idx[np.lexsort((tie[idx], key[idx]))]


def _split_top(s: np.ndarray, rank: np.ndarray, k: int,
               cached: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(challengers, victims) of one patch re-selecting its ``k``
    hottest nodes — score descending, static rank breaking ties.

    Challengers are the wanted non-residents, hottest first; victims
    the unwanted residents, coldest first.  Exactly the slices of
    ``order = np.lexsort((rank, -s))`` that a full sort gives
    (``order[:k]`` minus residents, ``order[k:]`` residents reversed),
    but only those two short lists are ever sorted."""
    neg = -s
    want = _head_mask(neg, rank, k)
    challengers = _lex_sorted(np.flatnonzero(want & ~cached), neg, rank)
    victims = _lex_sorted(np.flatnonzero(~want & cached), neg, rank)
    return challengers, victims[::-1]


@dataclass(frozen=True)
class DynamicCacheConfig:
    """Knobs of the dynamic policy."""

    #: loader calls per promotion/demotion window
    window: int = 8
    #: EWMA weight of the newest window's request counts
    ewma: float = 0.5
    #: max promotions per patch per window rebalance (None = unbounded)
    max_moves: int | None = None
    #: max frontier-prefetch promotions per patch per load (0 = off)
    prefetch_quota: int = 32
    #: weight of the static-hotness prior the scores start from: node
    #: at rank r begins at ``prior * (n - r) / n``, so displacing a
    #: layout-time-hot resident takes observed evidence, not one touch.
    #: The prior decays with the EWMA — sustained traffic always wins.
    prior: float = 1.0
    #: rebalance hysteresis: a swap happens only when the challenger's
    #: score beats the evicted resident's by this margin.  Kills the
    #: boundary churn of near-equal scores trading places every window
    #: (each swap costs a real host->GPU fill transfer).
    hysteresis: float = 0.25

    def __post_init__(self) -> None:
        count("window", self.window)
        require(0 < self.ewma <= 1, "ewma", "a weight in (0, 1]", self.ewma)
        if self.max_moves is not None:
            count("max_moves", self.max_moves, 0)
        count("prefetch_quota", self.prefetch_quota, 0)
        non_negative("prior", self.prior)
        non_negative("hysteresis", self.hysteresis)


class DynamicCachePolicy:
    """Online promotion/demotion driver for one :class:`PartitionedCache`.

    The policy *mutates the store in place* (``store.cached``); every
    consumer of the store — loader plans, CSP cache bias — is notified
    through the loader's plan invalidation and the ``on_change``
    callback list.
    """

    def __init__(
        self,
        store: PartitionedCache,
        config: DynamicCacheConfig | None = None,
        on_change=(),
    ):
        if not isinstance(store, PartitionedCache):
            raise ConfigError(
                "dynamic caching needs a PartitionedCache (per-patch "
                f"residency); got {type(store).__name__}"
            )
        self.store = store
        self.config = config if config is not None else DynamicCacheConfig()
        #: callbacks fired after every placement-changing batch
        self.on_change = list(on_change)

        offsets = store.part_offsets
        num_nodes = int(offsets[-1])
        self.num_nodes = num_nodes
        self.num_gpus = store.num_gpus
        #: static hotness rank (tie-break: equal scores keep the
        #: layout-time order, so an idle policy never churns)
        self._rank = store.rank
        #: EWMA of per-window request counts, one score per node,
        #: seeded with the decaying static-hotness prior (its ordering
        #: equals the layout's, so an untouched policy never moves rows)
        self.score = (
            self.config.prior
            * (num_nodes - self._rank.astype(np.float64)) / max(num_nodes, 1)
        )
        #: current window's request counts
        self.counts = np.zeros(num_nodes, dtype=np.float64)
        #: doorkeeper for prefetch admission: a node must have been
        #: requested before (any earlier load or the warmup) to be
        #: staged, so one-off frontier nodes never churn the cache
        self._seen = np.zeros(num_nodes, dtype=bool)
        #: per-patch resident target = the planned residency, exactly
        self._targets = np.array(
            [len(store.cached_nodes(g)) for g in range(self.num_gpus)],
            dtype=np.int64,
        )
        #: per-patch score floor: min score among residents (prefetch
        #: admits only strictly-hotter cold nodes)
        self._floor = np.zeros(self.num_gpus, dtype=np.float64)
        self._loads = 0
        self.promotions = 0
        self.demotions = 0
        self.rebalances = 0
        self.prefetches = 0
        #: per-load deltas, read by the loader after each observe()
        self.last_promoted = 0
        self.last_demoted = 0
        self._recompute_floors()
        #: the state reset() restores (re-snapshotted by warm())
        self._baseline_cached = store.cached.copy()
        self._baseline_score = self.score.copy()
        self._baseline_floor = self._floor.copy()
        self._baseline_seen = self._seen.copy()

    def _recompute_floors(self) -> None:
        offsets = self.store.part_offsets
        for g in range(self.num_gpus):
            lo, hi = int(offsets[g]), int(offsets[g + 1])
            resident = self.store.cached[lo:hi]
            s = self.score[lo:hi]
            self._floor[g] = float(s[resident].min()) if resident.any() else 0.0

    # ------------------------------------------------------------------
    def warm(self, nodes: np.ndarray, weight: float = 1.0) -> int:
        """Seed scores from a historical request trace and rebalance.

        ``nodes`` is a node-id sequence (repeats count); the resulting
        placement becomes the baseline that :meth:`reset` restores, and
        the run counters start from zero — warmup is an offline staging
        step, not part of the serving run it precedes.  Returns the
        number of rows promoted into the cache.
        """
        nodes = np.asarray(nodes, dtype=np.int64)
        if len(nodes) and (nodes.min() < 0 or nodes.max() >= self.num_nodes):
            raise ConfigError("warmup node id out of range")
        self.score += weight * np.bincount(nodes, minlength=self.num_nodes)
        self._seen[nodes] = True
        fill = np.zeros(self.num_gpus, dtype=np.float64)
        changed = self._rebalance(fill)
        self._baseline_cached = self.store.cached.copy()
        self._baseline_score = self.score.copy()
        self._baseline_floor = self._floor.copy()
        self._baseline_seen = self._seen.copy()
        promoted = int(fill.sum())
        self._zero_counters()
        if changed:
            self._notify()
        return promoted

    def reset(self) -> None:
        """Return policy + store to the post-warmup baseline (between
        sweep points, so each point is a pure function of its inputs)."""
        changed = bool(np.any(self.store.cached != self._baseline_cached))
        self.store.cached[:] = self._baseline_cached
        self.score[:] = self._baseline_score
        self._floor[:] = self._baseline_floor
        self._seen[:] = self._baseline_seen
        self.counts[:] = 0.0
        self._zero_counters()
        if changed:
            self._notify()

    def _zero_counters(self) -> None:
        self._loads = 0
        self.promotions = self.demotions = 0
        self.rebalances = self.prefetches = 0
        self.last_promoted = self.last_demoted = 0

    def _notify(self) -> None:
        for cb in self.on_change:
            cb()

    # ------------------------------------------------------------------
    def observe(self, nodes_per_gpu, lost=frozenset()) -> np.ndarray:
        """Record one load's (deduplicated, per-GPU) request arrays.

        Returns the per-patch count of rows promoted *by this load*
        (frontier prefetch + any window rebalance) — the loader charges
        them as a host->GPU cache-fill transfer.  The patches of
        ``lost`` cache peers take no promotion: no load reads them.
        Scores still count every request.  Fires ``on_change``
        callbacks when the placement changed.
        """
        cfg = self.config
        counts = self.counts
        for nodes in nodes_per_gpu:
            counts[nodes] += 1.0
        fill = np.zeros(self.num_gpus, dtype=np.float64)
        p0, d0 = self.promotions, self.demotions
        changed = False
        if cfg.prefetch_quota > 0:
            changed |= self._prefetch(nodes_per_gpu, fill, lost)
        for nodes in nodes_per_gpu:
            self._seen[nodes] = True
        self._loads += 1
        if self._loads % cfg.window == 0:
            changed |= self._rebalance(fill, lost)
        self.last_promoted = self.promotions - p0
        self.last_demoted = self.demotions - d0
        if changed:
            self._notify()
        return fill

    # ------------------------------------------------------------------
    def _rebalance(self, fill: np.ndarray, lost=frozenset()) -> bool:
        """Fold the window into the EWMA and re-select the residents of
        each patch not ``lost``.  Vectorized per patch; returns True on
        any move."""
        cfg = self.config
        a = cfg.ewma
        np.multiply(self.score, 1.0 - a, out=self.score)
        self.score += a * self.counts
        self.counts[:] = 0.0
        self.rebalances += 1
        offsets = self.store.part_offsets
        cached = self.store.cached
        moved = 0
        demoted = 0
        for g in range(self.num_gpus):
            lo, hi = int(offsets[g]), int(offsets[g + 1])
            target = int(self._targets[g])
            if target <= 0 or hi <= lo:
                continue
            s = self.score[lo:hi]
            cur = cached[lo:hi]
            if g in lost:
                cand = victims = np.empty(0, dtype=np.int64)
            else:
                # challengers hottest first, victims coldest resident first
                cand, victims = _split_top(s, self._rank[lo:hi], target, cur)
            if cfg.max_moves is not None and len(cand) > cfg.max_moves:
                cand = cand[: cfg.max_moves]
            # free slots (underfull cache) are filled unconditionally;
            # swaps pair challenger i with the i-th coldest resident
            # and must clear the hysteresis margin
            free = max(target - int(cur.sum()), 0)
            take_free = min(free, len(cand))
            swaps = cand[take_free:]
            n = min(len(swaps), len(victims))
            if n:
                viol = np.flatnonzero(
                    s[swaps[:n]] <= s[victims[:n]] + cfg.hysteresis
                )
                n = int(viol[0]) if len(viol) else n
            promote = cand[: take_free + n]
            demote = victims[:n]
            if len(promote):
                cur[promote] = True
                cur[demote] = False
                moved += len(promote)
                demoted += len(demote)
                fill[g] += len(promote)
            resident = cached[lo:hi]
            self._floor[g] = float(s[resident].min()) if resident.any() else 0.0
        if moved or demoted:
            self.promotions += moved
            self.demotions += demoted
            return True
        return False

    def _prefetch(self, nodes_per_gpu, fill: np.ndarray, lost) -> bool:
        """Stage requested-but-cold nodes whose effective score already
        beats their patch's resident floor (bounded per patch), into
        every patch not ``lost``."""
        store = self.store
        cand = (
            np.concatenate(nodes_per_gpu)
            if len(nodes_per_gpu) > 1
            else np.asarray(nodes_per_gpu[0])
        )
        cand = cand[~store.cached[cand]]
        # doorkeeper: only nodes requested in an *earlier* load (or the
        # warmup) are admitted — a first touch never evicts anything
        cand = cand[self._seen[cand]]
        if len(cand) == 0:
            return False
        eff = self.score[cand] + self.counts[cand]
        owners = store.owner[cand]
        hot = eff > self._floor[owners]
        cand = cand[hot]
        if len(cand) == 0:
            return False
        cand = dedup(cand)  # a node requested by several GPUs stages once
        eff = self.score[cand] + self.counts[cand]
        offsets = store.part_offsets
        # cand is sorted and patches are contiguous id ranges
        bounds = np.searchsorted(cand, offsets)
        cached = store.cached
        quota = self.config.prefetch_quota
        moved = demoted = 0
        for g in range(self.num_gpus):
            a, b = int(bounds[g]), int(bounds[g + 1])
            if a == b or g in lost:
                continue
            ids, e = cand[a:b], eff[a:b]
            order = np.lexsort((self._rank[ids], -e))
            ids, e = ids[order][:quota], e[order][:quota]
            lo, hi = int(offsets[g]), int(offsets[g + 1])
            resident = np.flatnonzero(cached[lo:hi])
            if len(resident) == 0:
                continue
            r_eff = self.score[lo:hi][resident] + self.counts[lo:hi][resident]
            take = min(len(ids), len(resident))
            # the `take` coldest residents, coldest first; static rank
            # breaks ties (higher rank value = colder at layout time,
            # evicted first)
            r_tie = -self._rank[lo:hi][resident]
            r_order = _lex_sorted(
                np.flatnonzero(_head_mask(r_eff, r_tie, take)), r_eff, r_tie
            )
            victims = resident[r_order]
            # admit only while the candidate beats its victim by the
            # hysteresis margin
            viol = np.flatnonzero(
                e[:take] <= r_eff[r_order] + self.config.hysteresis
            )
            if len(viol):
                take = int(viol[0])
            if take == 0:
                continue
            cached[ids[:take]] = True
            cached[lo + victims[:take]] = False
            floor_res = np.flatnonzero(cached[lo:hi])
            s = self.score[lo:hi]
            self._floor[g] = (
                float(s[floor_res].min()) if len(floor_res) else 0.0
            )
            moved += take
            demoted += take
            fill[g] += take
        if moved:
            self.promotions += moved
            self.demotions += demoted
            self.prefetches += moved
            return True
        return False

    # ------------------------------------------------------------------
    def stats(self) -> dict:
        """Counters for the obs layer and the benchmarks."""
        return {
            "promotions": self.promotions,
            "demotions": self.demotions,
            "rebalances": self.rebalances,
            "prefetches": self.prefetches,
            "loads": self._loads,
        }
