"""Tests of the benchmark itself: span arithmetic, seed threading, output
checks, and a shrunk run of every workload on the ``tiny`` dataset.

    PYTHONPATH=src python -m pytest perfbench -q
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import flows  # noqa: E402
import run  # noqa: E402
from spans import Span, SpanRecorder, covered, self_times  # noqa: E402


def _span(sid, start, end, parent=None):
    return Span(sid, f"s{sid}", start, end, parent, "")


# -- self-time arithmetic ------------------------------------------------
def test_self_time_nested():
    spans = [_span(0, 0, 10), _span(1, 2, 5, 0), _span(2, 3, 4, 1)]
    assert self_times(spans) == {0: 7, 1: 2, 2: 1}


def test_self_time_overlapping_children_counted_once():
    spans = [_span(0, 0, 10), _span(1, 1, 4, 0), _span(2, 3, 6, 0),
             _span(3, 8, 9, 0)]
    assert self_times(spans)[0] == pytest.approx(10 - 5 - 1)


def test_self_time_child_clipped_to_parent():
    spans = [_span(0, 0, 10), _span(1, 8, 12, 0), _span(2, -3, 1, 0)]
    assert self_times(spans)[0] == pytest.approx(10 - 2 - 1)


def test_covered_disjoint_and_contained():
    assert covered([(0, 1), (2, 3), (2.5, 2.7)], 0, 10) == pytest.approx(2)
    assert covered([], 0, 10) == 0


def test_recorder_nesting_ids_parents_groups():
    ticks = iter(range(100))
    rec = SpanRecorder(clock=lambda: next(ticks))
    rec.group = "epoch0"
    with rec.span("outer"):
        with rec.span("a"):
            pass
        rec.group = "epoch0/batch1"
        with rec.span("b"):
            with rec.span("c"):
                pass
    by_name = {s.name: s for s in rec.spans}
    assert by_name["outer"].parent is None
    assert by_name["a"].parent == by_name["b"].parent == by_name["outer"].sid
    assert by_name["c"].parent == by_name["b"].sid
    assert len({s.sid for s in rec.spans}) == 4
    assert by_name["outer"].group == "epoch0"  # group taken at open
    assert by_name["c"].group == "epoch0/batch1"
    own = self_times(rec.spans)
    assert sum(own.values()) == by_name["outer"].duration


# -- the seed reaches both configs ------------------------------------------
@pytest.mark.parametrize("seed", [0, 7])
def test_seed_threads_into_run_and_workload_configs(seed):
    wl = flows.workload("serve-friendster-drift")
    assert flows.run_config(wl, seed, 1000).seed == seed
    serve_cfg, wl_cfg = flows.serve_configs(wl, seed)
    assert wl_cfg.seed == seed
    assert serve_cfg.tenancy.seed == seed


def test_setup_builds_with_seed(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_DATA_DIR", str(tmp_path))
    from spans import NullRecorder

    state = flows.setup(flows.workload("serve-friendster-drift", tiny=True),
                        5, NullRecorder())
    assert state["system"].config.seed == 5
    assert state["stream"].config.seed == 5


# -- output checks --------------------------------------------------------
TINY_SERVE = flows.workload("serve-friendster-drift", tiny=True)


def _serve_result(**point):
    n = TINY_SERVE.requests
    p = {"qps": 1.0, "offered": n, "completed": n, "shed": 0, **point}
    return TINY_SERVE, {"units": 1, "sims": [[p, dict(p)]]}


def test_checks_pass_on_conserved_stream():
    wl, result = _serve_result()
    assert flows.check(wl, result, [[], []]) == []


def test_check_catches_lost_requests():
    wl, result = _serve_result(completed=TINY_SERVE.requests - 2, shed=1)
    assert any("!= offered" in e for e in flows.check(wl, result, [[], []]))


def test_check_catches_invariant_violation_and_missing_finalize():
    wl, result = _serve_result()
    assert flows.check(wl, result, [["[clock] back"], []])
    assert flows.check(wl, result, [[]])


def test_check_catches_bad_training_outcome():
    wl = flows.workload("train-products")
    sim = {"epoch_ms": 1.0, "loss": float("nan"), "val_accuracy": 0.5}
    errors = flows.check(wl, {"units": 1, "sims": [sim]}, [])
    assert len(errors) == 2


# -- BENCHMARK.json agrees with the code -------------------------------------
def test_benchmark_json_matches_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert list(flows.WORKLOADS) == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


def test_refuses_to_run_without_program_source(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "train-products",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


# -- shrunk end-to-end runs ---------------------------------------------------
@pytest.mark.parametrize("name", run.WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_run(name, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", name,
         "--seed", "3", "--seconds", "0.5", "--trace", str(trace), "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True
    assert line["attempted"] >= 1
    names = run.PER_LAYER if trace else run.END_TO_END
    assert {k: v["unit"] for k, v in line["metrics"].items()} == names
    if not trace:
        assert all(v["value"] > 0 for v in line["metrics"].values())
