"""Tests for the perf baseline regression gate and the fake clock."""

import json
from pathlib import Path

import pytest

from repro.bench.perf import BENCH_NAMES, _make_clock, diff_against_baseline
from repro.utils import ConfigError

ROOT = Path(__file__).resolve().parent.parent


def payload(quick=False, **speedups):
    return {
        "schema_version": 2,
        "quick": quick,
        "benchmarks": {
            name: {"speedup": s, "wall_s_before": 1.0,
                   "wall_s_after": 1.0 / s, "batches_per_s": s}
            for name, s in speedups.items()
        },
    }


class TestDiffAgainstBaseline:
    def test_no_regression_passes(self):
        report, regs = diff_against_baseline(
            payload(csp_layer=3.0, epoch=1.5),
            payload(csp_layer=3.1, epoch=1.4),
        )
        assert regs == []
        assert "ok" in report

    def test_regression_flagged_beyond_tolerance(self):
        report, regs = diff_against_baseline(
            payload(csp_layer=2.0), payload(csp_layer=3.0), tolerance=0.2
        )
        assert regs == ["csp_layer"]
        assert "REGRESSED" in report

    def test_within_tolerance_ok(self):
        _, regs = diff_against_baseline(
            payload(csp_layer=2.5), payload(csp_layer=3.0), tolerance=0.2
        )
        assert regs == []

    def test_improvement_never_regresses(self):
        _, regs = diff_against_baseline(
            payload(csp_layer=9.0), payload(csp_layer=3.0)
        )
        assert regs == []

    def test_one_sided_benchmarks_reported_not_gated(self):
        report, regs = diff_against_baseline(
            payload(csp_layer=3.0, sweep=2.0), payload(csp_layer=3.0)
        )
        assert regs == []
        assert "only in fresh run" in report
        report, regs = diff_against_baseline(
            payload(csp_layer=3.0), payload(csp_layer=3.0, old_bench=1.0)
        )
        assert regs == []
        assert "only in baseline" in report

    def test_quick_flag_mismatch_noted(self):
        report, _ = diff_against_baseline(
            payload(quick=True, csp_layer=3.0),
            payload(quick=False, csp_layer=3.0),
        )
        assert "quick flags differ" in report


class TestFakeClock:
    def test_fake_clock_is_deterministic(self):
        a, b = _make_clock("fake"), _make_clock("fake")
        assert [a() for _ in range(3)] == [b() for _ in range(3)]
        assert a() == pytest.approx(3e-3)  # 1ms per reading

    def test_wall_clock_and_callable_pass_through(self):
        import time

        assert _make_clock("wall") is time.perf_counter
        fn = lambda: 0.0  # noqa: E731
        assert _make_clock(fn) is fn

    def test_unknown_clock_rejected(self):
        with pytest.raises(ConfigError):
            _make_clock("sundial")


@pytest.mark.parametrize("path", [
    "BENCH_perf.json",
    "benchmarks/perf/BENCH_perf_quick.json",
])
def test_committed_baseline_covers_every_bench(path):
    """Both committed perf records gate exactly the registered benches:
    a bench missing from one is silently ungated there."""
    doc = json.loads((ROOT / path).read_text())
    assert sorted(doc["benchmarks"]) == sorted(BENCH_NAMES)
