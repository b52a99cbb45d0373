"""Tests for the multi-core run executor (:mod:`repro.parallel`)."""

import pytest

from repro.parallel import RunSpec, adopt_system, default_workers, run_tasks
from repro.parallel import _SYSTEM_CACHE, _reset_worker_state
from repro.utils import ConfigError, WorkerError


def _echo(label, x):
    return ("echo", label, x)


def _boom(label):
    raise ValueError(f"boom in {label}")


def _reject(label):
    raise ConfigError(f"x expects a count >= 1, got 0 in {label}",
                      field="x", expects="a count >= 1")


class TestDefaultWorkers:
    def test_at_least_one_and_capped(self):
        assert default_workers() >= 1
        assert default_workers(cap=2) <= 2
        assert default_workers(cap=1) == 1


class TestRunTasks:
    def specs(self, n=5):
        return [
            RunSpec(_echo, f"run{i}", {"label": f"run{i}", "x": i})
            for i in range(n)
        ]

    def test_empty(self):
        assert run_tasks([], workers=4) == []

    def test_inline_results_in_spec_order(self):
        out = run_tasks(self.specs(), workers=1)
        assert [r[2] for r in out] == [0, 1, 2, 3, 4]

    def test_pool_results_in_spec_order(self):
        out = run_tasks(self.specs(), workers=2)
        assert out == run_tasks(self.specs(), workers=1)

    def test_single_spec_runs_inline_even_with_workers(self):
        out = run_tasks(self.specs(1), workers=4)
        assert out == [("echo", "run0", 0)]

    @pytest.mark.parametrize("workers", [1, 2])
    def test_crash_surfaces_child_traceback(self, workers):
        specs = self.specs(2) + [RunSpec(_boom, "bad", {"label": "bad"})]
        with pytest.raises(WorkerError) as err:
            run_tasks(specs, workers=workers)
        assert err.value.label == "bad"
        assert "ValueError: boom in bad" in err.value.child_traceback
        assert "Traceback" in err.value.child_traceback
        assert err.value.__cause__ is None  # only rejections are chained

    @pytest.mark.parametrize("workers", [1, 2])
    def test_rejection_is_the_cause(self, workers):
        specs = self.specs(2) + [RunSpec(_reject, "bad", {"label": "bad"})]
        with pytest.raises(WorkerError) as err:
            run_tasks(specs, workers=workers)
        cause = err.value.__cause__
        assert isinstance(cause, ConfigError)
        assert (cause.field, cause.expects) == ("x", "a count >= 1")
        assert "ConfigError" in err.value.child_traceback

    def test_worker_state_reset_drops_adopted_systems(self):
        class FakeSystem:
            name = "fake"
            config = ("cfg",)

        adopt_system(FakeSystem())
        assert _SYSTEM_CACHE
        _reset_worker_state()
        assert not _SYSTEM_CACHE


class TestRunSpecPickling:
    def test_spec_round_trips_through_pickle(self):
        import pickle

        from repro.core import RunConfig
        from repro.serve.sweep import _serve_point

        spec = RunSpec(_serve_point, "qps500", {
            "system_name": "DSP", "config": RunConfig(dataset="tiny"),
            "qps": 500.0, "trace_path": "t-qps500.json",
        })
        clone = pickle.loads(pickle.dumps(spec))
        assert clone == spec
        assert clone.fn is _serve_point
