"""Integration tests: the six end-to-end systems."""

import numpy as np
import pytest

from repro.core import RunConfig, SYSTEMS, build_system
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
        before = [p.data.copy() for p in dsp.models[0].parameters()]
        dsp.run_epoch(max_batches=2, functional=False)
        after = dsp.models[0].parameters()
        for b, a in zip(before, after):
            assert np.array_equal(b, a.data)

    def test_replicas_stay_synchronized(self, dsp):
        """BSP: after an epoch all replicas hold identical parameters."""
        dsp.run_epoch()
        p0 = dsp.models[0].state()
        for model in dsp.models[1:]:
            for a, b in zip(p0, model.state()):
                np.testing.assert_allclose(a, b, rtol=1e-5, atol=1e-6)

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
