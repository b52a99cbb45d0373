"""Scaled synthetic stand-ins for the paper's evaluation datasets.

The paper evaluates on ogbn-products (2 M nodes / 123 M edges),
ogbn-papers100M (111 M / 3.2 B) and Friendster (66 M / 3.6 B), none of
which can be downloaded offline or held at full scale here.  Each
dataset is replaced by a ~1000x-smaller synthetic graph that preserves
what the experiments actually exercise:

- average degree (drives sampling fan-in and adjacency-list sizes),
- degree skew (drives feature-cache hit rates),
- feature dimension (drives the feature:topology byte ratio, which is
  what Fig. 10's cache-split experiment sweeps), and
- community structure with correlated labels (so the convergence
  experiment, Fig. 9, trains a real model to a real accuracy).

The simulated GPUs (:mod:`repro.hw.devices`) scale their memory by the
same factor, so "what fits in GPU memory" matches the paper's regimes.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from functools import lru_cache
from pathlib import Path

import numpy as np

from repro.graph.csr import CSRGraph
from repro.graph.generators import dcsbm_graph
from repro.utils.errors import ConfigError
from repro.utils.rng import make_rng


@dataclass(frozen=True)
class DatasetSpec:
    """Generation parameters for one synthetic dataset."""

    name: str
    num_nodes: int
    num_edges: int
    feature_dim: int
    num_classes: int
    intra_prob: float = 0.8
    power: float = 2.5
    #: cap exponent for the degree-propensity tail (n ** theta_cap_exp);
    #: the paper-scale datasets use 0.7 for realistic hub weight
    theta_cap_exp: float = 0.5
    train_fraction: float = 0.1
    seed: int = 17
    #: node count of the real dataset this one stands in for (Table 3);
    #: the simulated hardware divides its memory, bandwidth and compute
    #: rates by ``scale`` so cache-pressure regimes and epoch-time
    #: magnitudes match the paper's.
    paper_num_nodes: int | None = None

    @property
    def scale(self) -> float:
        """Down-scaling factor vs the paper's dataset (1.0 if original)."""
        if self.paper_num_nodes is None:
            return 1.0
        return self.paper_num_nodes / self.num_nodes

    @property
    def feature_nbytes(self) -> int:
        return self.num_nodes * self.feature_dim * 4


#: Scaled versions of Table 3.  Edge counts are directed edges.
DATASET_SPECS: dict[str, DatasetSpec] = {
    # ogbn-products: 2M nodes, 123M edges, avg deg 50.5, feat dim 100
    "products": DatasetSpec(
        name="products",
        num_nodes=20_000,
        num_edges=1_000_000,
        feature_dim=100,
        num_classes=16,
        power=2.1,
        theta_cap_exp=0.7,
        train_fraction=0.1,
        paper_num_nodes=2_000_000,
    ),
    # ogbn-papers100M: 111M nodes, 3.2B edges, avg deg 28.8, feat dim 128
    "papers": DatasetSpec(
        name="papers",
        num_nodes=120_000,
        num_edges=3_400_000,
        feature_dim=128,
        num_classes=32,
        power=2.1,
        theta_cap_exp=0.7,
        train_fraction=0.05,
        paper_num_nodes=111_000_000,
    ),
    # Friendster: 66M nodes, 3.6B edges, avg deg 54.5, feat dim 256
    "friendster": DatasetSpec(
        name="friendster",
        num_nodes=70_000,
        num_edges=3_800_000,
        feature_dim=256,
        num_classes=24,
        power=2.1,
        theta_cap_exp=0.7,
        train_fraction=0.05,
        paper_num_nodes=66_000_000,
    ),
    # small graph for unit tests and the quickstart example
    "tiny": DatasetSpec(
        name="tiny",
        num_nodes=1_000,
        num_edges=20_000,
        feature_dim=16,
        num_classes=4,
        train_fraction=0.3,
        seed=3,
    ),
}


class PermutedRows:
    """The rows ``base[order]``, read through ``order`` and never copied
    whole.

    Shape, dtype and byte size answer without reading a row; a row read
    ``rows[index]`` returns ``base[order[index]]``, the same values a
    permuted copy would give, while only ``base`` stays resident.
    """

    def __init__(self, base: np.ndarray, order: np.ndarray):
        self._base, self._order = base, order
        self.dtype = base.dtype
        self.shape = (len(order), *base.shape[1:])
        self.ndim = len(self.shape)
        self.nbytes = int(np.prod(self.shape)) * self.dtype.itemsize

    def __getitem__(self, index):
        return self._base[self._order[index]]

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        """A fresh permuted copy (whole-matrix readers only)."""
        return np.asarray(self._base[self._order], dtype=dtype)


@dataclass(frozen=True)
class Dataset:
    """A loaded dataset: graph + node features + labels + splits."""

    name: str
    graph: CSRGraph
    features: np.ndarray | PermutedRows  # float32[num_nodes, feature_dim]
    labels: np.ndarray  # int64[num_nodes]
    train_nodes: np.ndarray
    val_nodes: np.ndarray
    test_nodes: np.ndarray
    num_classes: int
    spec: DatasetSpec = field(repr=False)

    @property
    def num_nodes(self) -> int:
        return self.graph.num_nodes

    @property
    def feature_dim(self) -> int:
        return self.features.shape[1]

    @property
    def feature_nbytes(self) -> int:
        return self.features.nbytes

    def permuted(self, old_to_new: np.ndarray, graph: CSRGraph) -> "Dataset":
        """The same dataset under a node renumbering (see reorder module);
        its features read through the renumbering, never copied."""
        new_to_old = np.empty_like(old_to_new)
        new_to_old[old_to_new] = np.arange(len(old_to_new))
        return Dataset(
            name=self.name,
            graph=graph,
            features=PermutedRows(self.features, new_to_old),
            labels=self.labels[new_to_old],
            train_nodes=np.sort(old_to_new[self.train_nodes]),
            val_nodes=np.sort(old_to_new[self.val_nodes]),
            test_nodes=np.sort(old_to_new[self.test_nodes]),
            num_classes=self.num_classes,
            spec=self.spec,
        )


def _generate(spec: DatasetSpec) -> Dataset:
    rng = make_rng(spec.seed)
    graph, community = dcsbm_graph(
        num_nodes=spec.num_nodes,
        num_edges=spec.num_edges,
        num_communities=spec.num_classes,
        intra_prob=spec.intra_prob,
        power=spec.power,
        theta_cap_exp=spec.theta_cap_exp,
        rng=rng,
        return_communities=True,
    )
    labels = community.astype(np.int64)

    # features: class centroid + Gaussian noise -> learnable but not trivial
    centroids = rng.normal(0.0, 1.0, size=(spec.num_classes, spec.feature_dim))
    noise = rng.normal(0.0, 1.5, size=(spec.num_nodes, spec.feature_dim))
    features = (centroids[labels] + noise).astype(np.float32)

    perm = rng.permutation(spec.num_nodes)
    n_train = int(spec.train_fraction * spec.num_nodes)
    n_val = max(1, spec.num_nodes // 50)
    train = np.sort(perm[:n_train])
    val = np.sort(perm[n_train : n_train + n_val])
    test = np.sort(perm[n_train + n_val : n_train + n_val + n_val])
    return Dataset(
        name=spec.name,
        graph=graph,
        features=features,
        labels=labels,
        train_nodes=train,
        val_nodes=val,
        test_nodes=test,
        num_classes=spec.num_classes,
        spec=spec,
    )


def _cache_dir() -> Path:
    """Where generated datasets are persisted between processes.

    Benchmarks spawn many processes; regenerating the multi-million-edge
    graphs each time would dominate runtime, so generation results are
    stored as uncompressed ``.npz`` (loading skips a decompression pass
    that would cost most of a load) keyed by the spec and the file
    format.  Override with ``REPRO_DATA_DIR``.
    """
    return Path(os.environ.get("REPRO_DATA_DIR", Path.home() / ".cache" / "repro-dsp"))


def _spec_key(spec: DatasetSpec) -> str:
    return (
        f"{spec.name}-n{spec.num_nodes}-e{spec.num_edges}-f{spec.feature_dim}"
        f"-c{spec.num_classes}-p{spec.intra_prob}-w{spec.power}"
        f"-x{spec.theta_cap_exp}-s{spec.seed}-t{spec.train_fraction}-v2"
    )


def _save(path: Path, ds: Dataset) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(".tmp.npz")
    np.savez(
        tmp,
        indptr=ds.graph.indptr,
        indices=ds.graph.indices,
        features=ds.features,
        labels=ds.labels,
        train=ds.train_nodes,
        val=ds.val_nodes,
        test=ds.test_nodes,
    )
    os.replace(tmp, path)


def _load_npz(path: Path, spec: DatasetSpec) -> Dataset:
    with np.load(path) as z:
        graph = CSRGraph(indptr=z["indptr"], indices=z["indices"])
        return Dataset(
            name=spec.name,
            graph=graph,
            features=z["features"],
            labels=z["labels"],
            train_nodes=z["train"],
            val_nodes=z["val"],
            test_nodes=z["test"],
            num_classes=spec.num_classes,
            spec=spec,
        )


@lru_cache(maxsize=8)
def _load_cached(name: str) -> Dataset:
    spec = DATASET_SPECS[name]
    path = _cache_dir() / f"{_spec_key(spec)}.npz"
    if path.exists():
        try:
            return _load_npz(path, spec)
        except (OSError, KeyError, ValueError):
            path.unlink(missing_ok=True)  # corrupt cache; regenerate
    ds = _generate(spec)
    try:
        _save(path, ds)
    except OSError:
        pass  # caching is best-effort
    return ds


#: user-registered datasets (see :func:`register_dataset`)
_REGISTERED: dict[str, Dataset] = {}


def register_dataset(dataset: Dataset, overwrite: bool = False) -> None:
    """Make a user-built :class:`Dataset` loadable by name.

    Lets external graphs (see :mod:`repro.graph.io`) run through every
    training system: ``RunConfig(dataset=<registered name>)``.
    """
    name = dataset.name
    if not overwrite and (name in DATASET_SPECS or name in _REGISTERED):
        raise ConfigError(f"dataset {name!r} already exists")
    _REGISTERED[name] = dataset


def load_dataset(name: str) -> Dataset:
    """Load (generating and caching on first use) a named dataset."""
    if name in _REGISTERED:
        return _REGISTERED[name]
    if name not in DATASET_SPECS:
        raise ConfigError(
            f"unknown dataset {name!r}; available: "
            f"{sorted(DATASET_SPECS) + sorted(_REGISTERED)}"
        )
    return _load_cached(name)


@lru_cache(maxsize=32)
def _partition_cached(name: str, num_parts: int, seed: int):
    from repro.graph.partition import Partition, metis_partition

    ds = _load_cached(name)
    spec = ds.spec
    path = _cache_dir() / f"{_spec_key(spec)}-part{num_parts}-s{seed}.npy"
    if path.exists():
        try:
            return Partition(np.load(path), num_parts)
        except (OSError, ValueError):
            path.unlink(missing_ok=True)
    part = metis_partition(ds.graph, num_parts, rng=seed)
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_suffix(".tmp.npy")
        np.save(tmp, part.assignment)
        os.replace(tmp, path)
    except OSError:
        pass
    return part


def load_partition(name: str, num_parts: int, seed: int = 0):
    """METIS-like partition of a named dataset, cached on disk.

    Partitioning the multi-million-edge graphs takes seconds; the
    benchmark suite needs the same (dataset, k) partitions over and
    over, so they are persisted alongside the dataset cache.
    """
    if name in _REGISTERED:
        # user datasets have no spec-keyed disk cache; partition directly
        from repro.graph.partition import metis_partition

        return metis_partition(_REGISTERED[name].graph, num_parts, rng=seed)
    if name not in DATASET_SPECS:
        raise ConfigError(f"unknown dataset {name!r}")
    return _partition_cached(name, num_parts, seed)
