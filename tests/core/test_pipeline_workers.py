"""Tests for the multi-instance worker support in the pipeline runner."""

import numpy as np
import pytest

from repro.core.cost import OpCost
from repro.core.pipeline import PipelineRunner
from repro.hw import Cluster
from repro.utils import ConfigError

K = 2


def kernel(dur):
    return OpCost(label="k", per_gpu=np.full(K, dur), stage=dur, threads=256)


def collective(dur):
    return OpCost(label="c", per_gpu=np.full(K, dur), stage=dur, threads=128,
                  collective=True)


def batches(n, s=1.0, l=0.3, t=0.3):
    return [
        {"sample": [collective(s)], "load": [collective(l)],
         "train": [kernel(t)]}
        for _ in range(n)
    ]


@pytest.fixture
def cluster():
    return Cluster.dgx1(K)


class TestMultiWorker:
    def test_two_samplers_break_the_sampler_bottleneck(self, cluster):
        """With the sampler as bottleneck, a second instance overlaps
        consecutive batches' sampling collectives."""
        b = batches(10, s=1.0, l=0.1, t=0.1)
        one = PipelineRunner(cluster, b, sampler_workers=1).run()
        two = PipelineRunner(cluster, b, sampler_workers=2).run()
        assert two.epoch_time < 0.75 * one.epoch_time

    def test_completes_with_many_workers(self, cluster):
        b = batches(12)
        res = PipelineRunner(cluster, b, sampler_workers=3,
                             loader_workers=2).run()
        assert res.epoch_time > 0

    def test_trainer_stays_in_order(self, cluster):
        """BSP: the trainer consumes batches 0..B-1 in order even when
        loaders finish out of order — total time must cover them all."""
        # loader 0's batches are slow, loader 1's fast
        b = []
        for t in range(6):
            l_dur = 1.0 if t % 2 == 0 else 0.05
            b.append({"sample": [kernel(0.05)],
                      "load": [collective(l_dur)],
                      "train": [kernel(0.2)]})
        res = PipelineRunner(cluster, b, loader_workers=2).run()
        # 3 slow loads of 1.0 dominate; all 6 train kernels (1.2) follow
        # partially overlapped: wall must be >= slow-load chain
        assert res.epoch_time >= 3 * 1.0

    def test_trainer_consumes_in_batch_order(self, cluster):
        """The trace proves the ordering: with two out-of-order loaders
        the trainer's spans still carry batch tags 0..B-1 ascending."""
        from repro.obs import Tracer

        b = []
        for t in range(8):
            l_dur = 0.8 if t % 2 == 0 else 0.05
            b.append({"sample": [kernel(0.05)],
                      "load": [collective(l_dur)],
                      "train": [kernel(0.1)]})
        tr = Tracer()
        PipelineRunner(cluster, b, loader_workers=2, tracer=tr).run()
        for g in range(K):
            trained = sorted(
                tr.spans(cat="train", track=f"trainer-gpu{g}"),
                key=lambda ev: ev.start,
            )
            assert [ev.args["batch"] for ev in trained] == list(range(8))
        # and the loads really did run on two interleaved worker tracks
        load_tracks = {ev.track for ev in tr.spans(cat="load")}
        assert load_tracks == {f"loader{w}-gpu{g}"
                               for w in range(2) for g in range(K)}

    def test_worker_counts_validated(self, cluster):
        with pytest.raises(ConfigError):
            PipelineRunner(cluster, batches(2), sampler_workers=0)

    def test_single_worker_unchanged(self, cluster):
        """workers=1 must be byte-identical to the original pipeline."""
        b = batches(8)
        a = PipelineRunner(cluster, b).run()
        c = PipelineRunner(cluster, b, sampler_workers=1,
                           loader_workers=1).run()
        assert a.epoch_time == pytest.approx(c.epoch_time)

    def test_loaders_consume_in_batch_order(self, cluster):
        """Two samplers finish batches 0 and 1 in opposite orders on the
        two GPUs; each loader still launches its load collectives in
        batch order, so every GPU joins them in one order (CCC)."""
        from repro.obs import Tracer

        def local(per_gpu):
            return OpCost(label="k", per_gpu=np.array(per_gpu), stage=1.0,
                          threads=256)

        b = [{"sample": [local([1.0, 0.1] if t % 2 == 0 else [0.1, 1.0])],
              "load": [collective(0.2)], "train": [kernel(0.1)]}
             for t in range(6)]
        tr = Tracer()
        res = PipelineRunner(cluster, b, sampler_workers=2, tracer=tr).run()
        assert res.epoch_time > 0
        for g in range(K):
            loaded = sorted(tr.spans(cat="load", track=f"loader0-gpu{g}"),
                            key=lambda ev: ev.start)
            assert [ev.args["batch"] for ev in loaded] == list(range(6))

    @pytest.mark.parametrize("workers", [(2, 1), (3, 2)])
    def test_more_samplers_than_loaders_complete(self, workers):
        from repro.core import RunConfig, build_system

        s, l = workers
        cfg = RunConfig(dataset="tiny", num_gpus=2, hidden_dim=16,
                        batch_size=8, fanout=(5, 3), sampler_workers=s,
                        loader_workers=l)
        m = build_system("DSP-Pull", cfg).run_epoch(max_batches=4,
                                                     functional=False)
        assert m.epoch_time > 0
