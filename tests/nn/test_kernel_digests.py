"""Pinned forward/backward digests of the GNN models.

The segment kernels under the models (row gather backward, segment sum
and mean) must reproduce ``np.add.at``'s accumulation order exactly, so
outputs and gradients are bit-identical to the scatter implementation
they replaced.  The digests below were computed with that ``np.add.at``
implementation on a CSP sample of the tiny dataset; any change to a
kernel's summation order shows up here as a digest mismatch.
"""

import hashlib

import numpy as np
import pytest

from repro.graph import load_dataset
from repro.nn import GAT, GCN, GraphSAGE, Tensor, cross_entropy
from repro.sampling import CollectiveSampler, CSPConfig
from repro.sampling.local import GraphPatch

#: sha256 over (output, input gradient, parameter gradients), computed
#: with the ``np.add.at`` kernels
PINNED = {
    "sage-mean":
        "cd5c2b691a65669eab512c2f6e295aa9a8077301ba47357c07090b49138b2233",
    "sage-pool":
        "537c3f00224f7776e37602c417255f38b5b608304a2141c3e1c98429e9aa01ee",
    "gcn":
        "1a7df605ce1e7525fa5929e3995466b92810e1f2daa83cfe6e9bcf7483d96c87",
    "gat-2head":
        "edbafe7bb2185b0c69e2171abc67652442b412f806246a1351e7823b6b6ceda1",
}

MODELS = {
    "sage-mean": lambda d, c: GraphSAGE(d, 16, c, num_layers=2, seed=7),
    "sage-pool": lambda d, c: GraphSAGE(d, 16, c, num_layers=2, seed=7,
                                        aggregator="pool"),
    "gcn": lambda d, c: GCN(d, 16, c, num_layers=2, seed=7),
    "gat-2head": lambda d, c: GAT(d, 16, c, num_layers=2, seed=7, num_heads=2),
}


@pytest.fixture(scope="module")
def batch():
    """A CSP sample of the tiny dataset split over two GPUs."""
    ds = load_dataset("tiny")
    half = ds.num_nodes // 2
    bounds = np.array([0, half, ds.num_nodes])
    patches = [GraphPatch.from_graph(ds.graph, 0, half),
               GraphPatch.from_graph(ds.graph, half, ds.num_nodes)]
    sampler = CollectiveSampler(patches, bounds, seed=11)
    seeds = [np.arange(0, 48, dtype=np.int64),
             np.arange(half, half + 48, dtype=np.int64)]
    samples, _, _ = sampler.sample(seeds, CSPConfig(fanout=(6, 4)))
    return ds, samples[0]


def model_digest(name: str, ds, sample) -> str:
    model = MODELS[name](ds.features.shape[1], ds.num_classes)
    x = Tensor(ds.features[sample.all_nodes], requires_grad=True)
    out = model(sample, x)
    cross_entropy(out, ds.labels[sample.seeds]).backward()
    h = hashlib.sha256(out.data.tobytes())
    h.update(x.grad.tobytes())
    for p in model.parameters():
        h.update(p.grad.tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("name", sorted(PINNED))
def test_model_digest_pinned(batch, name):
    assert model_digest(name, *batch) == PINNED[name]
