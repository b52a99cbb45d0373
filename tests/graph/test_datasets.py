"""Tests for the synthetic datasets."""

import numpy as np
import pytest

from repro.graph import DATASET_SPECS, datasets, load_dataset
from repro.graph.reorder import renumber_by_partition
from repro.graph.partition import hash_partition
from repro.utils import ConfigError


class TestSpecs:
    def test_paper_datasets_present(self):
        assert {"products", "papers", "friendster"} <= set(DATASET_SPECS)

    def test_average_degrees_match_paper_shape(self):
        """Table 3: products 50.5, papers 28.8, friendster 54.5."""
        for name, target in [("products", 50.5), ("papers", 28.8), ("friendster", 54.5)]:
            spec = DATASET_SPECS[name]
            avg = spec.num_edges / spec.num_nodes
            assert avg == pytest.approx(target, rel=0.2)

    def test_feature_dims_match_paper(self):
        assert DATASET_SPECS["products"].feature_dim == 100
        assert DATASET_SPECS["papers"].feature_dim == 128
        assert DATASET_SPECS["friendster"].feature_dim == 256

    def test_friendster_features_dominate_topology(self):
        """Table 3: for Friendster the feature bytes exceed topology bytes."""
        ds = load_dataset("tiny")  # cheap sanity of the property accessor
        assert ds.feature_nbytes == ds.features.nbytes
        f = DATASET_SPECS["friendster"]
        topo_bytes = f.num_edges * 8
        assert f.feature_nbytes > 0.5 * topo_bytes


class TestLoading:
    def test_tiny_loads(self):
        ds = load_dataset("tiny")
        assert ds.num_nodes == 1000
        assert ds.features.shape == (1000, 16)
        assert ds.features.dtype == np.float32
        assert ds.labels.shape == (1000,)
        assert ds.num_classes == 4

    def test_cached(self):
        assert load_dataset("tiny") is load_dataset("tiny")

    def test_cache_file_round_trip(self, tmp_path):
        ds = load_dataset("tiny")
        path = tmp_path / "tiny.npz"
        datasets._save(path, ds)
        back = datasets._load_npz(path, ds.spec)
        for attr in ("features", "labels", "train_nodes", "val_nodes", "test_nodes"):
            a, b = getattr(back, attr), getattr(ds, attr)
            assert a.dtype == b.dtype, attr
            assert np.array_equal(a, b), attr
        for attr in ("indptr", "indices"):
            a, b = getattr(back.graph, attr), getattr(ds.graph, attr)
            assert a.dtype == b.dtype, attr
            assert np.array_equal(a, b), attr
        assert back.num_classes == ds.num_classes

    def test_unknown_name(self):
        with pytest.raises(ConfigError):
            load_dataset("nope")

    def test_splits_disjoint(self):
        ds = load_dataset("tiny")
        train, val, test = set(ds.train_nodes), set(ds.val_nodes), set(ds.test_nodes)
        assert not (train & val) and not (train & test) and not (val & test)
        assert len(train) > 0 and len(val) > 0 and len(test) > 0

    def test_labels_correlate_with_features(self):
        """Nearest-centroid on features must beat random guessing by a lot."""
        ds = load_dataset("tiny")
        centroids = np.stack(
            [ds.features[ds.labels == c].mean(axis=0) for c in range(ds.num_classes)]
        )
        d = ((ds.features[:, None, :] - centroids[None]) ** 2).sum(axis=2)
        acc = np.mean(np.argmin(d, axis=1) == ds.labels)
        assert acc > 2.0 / ds.num_classes

    def test_permuted_consistency(self):
        ds = load_dataset("tiny")
        part = hash_partition(ds.num_nodes, 4, seed=0)
        new_graph, _, nb = renumber_by_partition(ds.graph, part)
        pd = ds.permuted(nb.old_to_new, new_graph)
        v_old = int(ds.train_nodes[0])
        v_new = int(nb.old_to_new[v_old])
        assert np.array_equal(pd.features[v_new], ds.features[v_old])
        assert pd.labels[v_new] == ds.labels[v_old]
        assert v_new in set(pd.train_nodes)
