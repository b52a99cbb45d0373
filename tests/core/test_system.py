"""Integration tests: the six end-to-end systems."""

import copy

import numpy as np
import pytest

from repro.core import RunConfig, SYSTEMS, build_system
from repro.nn import Adam, Tensor, cross_entropy
from repro.utils import ConfigError


CFG = RunConfig(
    dataset="tiny", num_gpus=4, hidden_dim=16, batch_size=16, fanout=(5, 3),
    seed=1,
)


@pytest.fixture(scope="module", params=sorted(SYSTEMS))
def system(request):
    return build_system(request.param, CFG)


class TestAllSystems:
    def test_epoch_runs_and_learns(self, system):
        m1 = system.run_epoch()
        m2 = system.run_epoch()
        assert m1.epoch_time > 0
        assert m1.sample_time > 0
        assert m1.num_batches >= 2
        assert np.isfinite(m1.loss)
        assert m2.loss < m1.loss * 1.2  # training is not diverging

    def test_metrics_consistency(self, system):
        m = system.run_epoch(max_batches=2, functional=False)
        assert m.epoch_time > 0
        assert np.isnan(m.loss)  # functional off -> no loss
        assert m.nvlink_bytes >= 0 and m.pcie_bytes >= 0


class TestConfigValidation:
    def test_unknown_system(self):
        with pytest.raises(ConfigError):
            build_system("magic", CFG)

    def test_bad_config(self):
        with pytest.raises(ConfigError):
            RunConfig(num_gpus=0)
        with pytest.raises(ConfigError):
            RunConfig(model="magic")
        with pytest.raises(ConfigError):
            RunConfig(batch_size=0)

    def test_no_sequential_switch(self):
        # a sequential run is the DSP-Seq system, not a config flag
        with pytest.raises(TypeError):
            RunConfig(pipeline=False)

    def test_with_override(self):
        cfg = CFG.with_(num_gpus=2)
        assert cfg.num_gpus == 2 and cfg.dataset == "tiny"

    def test_too_large_batch_rejected(self):
        cfg = CFG.with_(batch_size=10_000)
        sys = build_system("DGL-UVA", cfg)
        with pytest.raises(ConfigError):
            sys.run_epoch()


class TestDSPSpecifics:
    @pytest.fixture(scope="class")
    def dsp(self):
        return build_system("DSP", CFG)

    def test_seeds_copartitioned(self, dsp):
        seeds = dsp.data.train_nodes[:64]
        per_gpu = dsp._assign_seeds(seeds)
        for g, chunk in enumerate(per_gpu):
            if len(chunk):
                assert (dsp.sampler.owner_of(chunk) == g).all()

    def test_functional_false_freezes_model(self, dsp):
        before = [p.data.copy() for p in dsp.model.parameters()]
        dsp.run_epoch(max_batches=2, functional=False)
        after = dsp.model.parameters()
        for b, a in zip(before, after):
            assert np.array_equal(b, a.data)

    def test_replicas_stay_synchronized(self):
        """BSP: the one parameter set holds, bit for bit, what each of k
        replicas holds when k copies train on the same samples and
        average their gradients in GPU order — also when some GPUs get
        no seeds (8 GPUs, 2 seeds each: most batches leave one idle)."""
        idle_steps = []
        for cfg in (CFG, CFG.with_(num_gpus=8, batch_size=2)):
            system = build_system("DSP", cfg)
            replicas = [copy.deepcopy(system.model) for _ in range(system.k)]
            steps = []
            for seeds in system._global_batches()[:6]:
                samples, _ = system._sample(system._assign_seeds(seeds))
                feats, _, _ = system._load([s.all_nodes for s in samples])
                system._train_batch(samples, feats, functional=True)
                steps.append((samples, [feats[g] for g in range(system.k)]))
            idle_steps.append(sum(any(len(s.seeds) == 0 for s in samples)
                                  for samples, _ in steps))
            _k_replica_bsp(replicas, steps, system.data.labels, cfg.lr)
            for model in replicas:
                for a, b in zip(model.state(), system.model.state()):
                    assert a.tobytes() == b.tobytes()
        assert idle_steps[1] > 0

    def test_pipeline_not_slower_than_seq(self):
        pipe = build_system("DSP", CFG).run_epoch(functional=False)
        seq = build_system("DSP-Seq", CFG).run_epoch(functional=False)
        assert pipe.epoch_time <= seq.epoch_time * 1.05

    def test_evaluate_returns_probability(self, dsp):
        acc = dsp.evaluate(dsp.data.val_nodes)
        assert 0.0 <= acc <= 1.0

    def test_training_beats_chance(self):
        dsp = build_system("DSP", CFG.with_(seed=3, lr=1e-2))
        for _ in range(8):
            m = dsp.run_epoch()
        assert m.val_accuracy > 1.3 / dsp.data.num_classes


class TestRunEpochValidation:
    def test_zero_max_batches_rejected(self):
        with pytest.raises(ConfigError):
            build_system("DSP", CFG).run_epoch(max_batches=0, functional=False)


class TestSystemComparisons:
    """The headline orderings of Table 4, on the tiny dataset."""

    @pytest.fixture(scope="class")
    def times(self):
        out = {}
        for name in SYSTEMS:
            sys = build_system(name, CFG)
            out[name] = sys.run_epoch(functional=False).epoch_time
        return out

    def test_dsp_fastest(self, times):
        for name, t in times.items():
            if name != "DSP":
                assert times["DSP"] <= t

    def test_gpu_systems_beat_cpu_systems(self, times):
        assert times["DGL-UVA"] < times["DGL-CPU"]
        assert times["DGL-UVA"] < times["PyG"]


def _k_replica_bsp(replicas, steps, labels, lr) -> None:
    """Train ``replicas`` as k separate models with k optimizers: each
    active GPU's replica runs its own forward and backward, then every
    replica's gradient becomes the mean of all k in GPU order (an idle
    replica still holding its previous mean) and every replica steps."""
    k = len(replicas)
    opts = [Adam(m.parameters(), lr=lr) for m in replicas]
    for samples, feats in steps:
        total = sum(len(s.seeds) for s in samples)
        active = False
        for g, sample in enumerate(samples):
            if len(sample.seeds) == 0:
                continue
            out = replicas[g](sample, Tensor(feats[g]))
            loss = cross_entropy(out, labels[sample.seeds])
            opts[g].zero_grad()
            (loss * (len(sample.seeds) * k / total)).backward()
            active = True
        if not active:
            continue
        param_lists = [m.parameters() for m in replicas]
        for i in range(len(param_lists[0])):
            grads = [pl[i].grad for pl in param_lists if pl[i].grad is not None]
            if grads:
                mean = np.sum(grads, axis=0) / k
                for pl in param_lists:
                    pl[i].grad = mean.copy()
        for opt in opts:
            opt.step()
