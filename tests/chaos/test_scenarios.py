"""Chaos regression suite: the systems x scenarios resilience matrix.

Every cell of the matrix must terminate (no raw deadlock), keep the
invariant oracle clean, and land on the expected degraded behaviour:
stragglers slow the epoch, sampler crashes lose batches but complete,
a crashed trainer stalls DSP's pipelined systems with a diagnosed
:class:`~repro.utils.errors.PipelineStall`, and cache-peer loss
degrades partitioned-cache serving while leaving DGL-UVA (no GPU
cache) untouched.  The determinism tests pin the acceptance contract:
the report is bit-identical across repeated runs and worker counts.
"""

import hashlib
import json

import pytest

from repro.chaos import SCENARIOS, format_report, resilience_report
from repro.chaos.scenarios import run_scenario
from repro.control import ControllerConfig
from repro.core import RunConfig
from repro.engine import Simulator
from repro.utils.errors import ConfigError
from tests.engine.reference_core import HeapSimulator

SYSTEMS = ("DSP", "DSP-Pull", "DGL-UVA")
CFG = RunConfig(dataset="tiny", num_gpus=2, hidden_dim=16, batch_size=8,
                fanout=(5, 3), seed=0)

#: sha256 of ``json.dumps(matrix, sort_keys=True)`` for the fixture
#: below, per scheduler core class: the invariant ``checks`` totals
#: count dispatch batches on the engine's bucketed core and single
#: events on the heap-core oracle; every other field is equal
MATRIX_SHA256 = {
    Simulator: "df471cbe533559d270205874328a60b6a871a043727e36764abc5824468b672b",
    HeapSimulator: "18bbd175dff6542ac25880b2576af901fb6753435f8e227926db8b91ade9d049",
}

SERVE_SCENARIOS = sorted(s.name for s in SCENARIOS.values()
                         if s.mode == "serve")
#: the same digest over the serve-mode cells with the controller pass
CONTROLLER_SHA256 = (
    "ff2308a2453264363c3eac377e99c38d82847d16d21c640c4ca0f05dca1c5c81"
)


def _matrix():
    return resilience_report(SYSTEMS, sorted(SCENARIOS), CFG,
                             max_batches=4, requests=64, qps=2000.0)


def _sha(matrix) -> str:
    return hashlib.sha256(json.dumps(matrix, sort_keys=True).encode()).hexdigest()


@pytest.fixture(scope="module")
def matrix():
    """The full resilience matrix, computed once for the module."""
    return _matrix()


def _cell(matrix, system, scenario):
    return matrix["systems"][system][scenario]


class TestMatrixShape:
    def test_every_cell_present(self, matrix):
        assert set(matrix["systems"]) == set(SYSTEMS)
        for system in SYSTEMS:
            assert set(matrix["systems"][system]) == set(SCENARIOS)
        assert matrix["summary"]["runs"] == len(SYSTEMS) * len(SCENARIOS)

    def test_every_run_terminates_with_known_outcome(self, matrix):
        for system in SYSTEMS:
            for scenario in SCENARIOS:
                r = _cell(matrix, system, scenario)
                assert r["outcome"] in ("completed", "stalled")

    def test_invariants_clean_everywhere(self, matrix):
        assert matrix["summary"]["invariant_violations"] == 0
        assert matrix["summary"]["invariants_clean"]
        for system in SYSTEMS:
            for scenario in SCENARIOS:
                r = _cell(matrix, system, scenario)
                for key in ("invariants", "baseline_invariants"):
                    if r[key] is not None:
                        assert r[key]["clean"], (system, scenario, r[key])
                # a stalled run aborts before end-of-run reconciliation;
                # everything that completed must have been finalized
                if r["outcome"] == "completed":
                    assert r["invariants"]["finalized"]
                assert r["baseline_invariants"]["finalized"]

    def test_pinned_digest(self, matrix):
        """The whole matrix, byte for byte: a refactor of the chaos,
        serving or control layers must not move any cell."""
        assert _sha(matrix) == MATRIX_SHA256[Simulator]

    def test_pinned_digest_on_heap_core(self, heap_core):
        """The same matrix on the heap-core oracle."""
        assert _sha(_matrix()) == MATRIX_SHA256[heap_core]

    def test_controller_pass_pinned(self):
        """Serve-mode cells with the with-controller third pass, byte
        for byte (``slo_minutes_violated_controller``,
        ``controller_actions``, ``controller_shed`` included)."""
        m = resilience_report(SYSTEMS, SERVE_SCENARIOS, CFG, max_batches=4,
                              requests=64, qps=2000.0,
                              controller=ControllerConfig())
        for cells in m["systems"].values():
            for cell in cells.values():
                assert {"slo_minutes_violated_controller",
                        "controller_actions", "controller_shed"} <= set(cell)
        assert _sha(m) == CONTROLLER_SHA256

    def test_unknown_scenario_fails_fast(self):
        with pytest.raises(ConfigError):
            resilience_report(["DSP"], ["meteor-strike"], CFG)
        with pytest.raises(ConfigError):
            run_scenario("DSP", "meteor-strike", CFG)


class TestTimingFaultsDegradeButComplete:
    @pytest.mark.parametrize("scenario", ["straggler", "link-degrade",
                                          "link-flap", "collective-drop"])
    @pytest.mark.parametrize("system", SYSTEMS)
    def test_slower_but_lossless(self, matrix, system, scenario):
        r = _cell(matrix, system, scenario)
        assert r["outcome"] == "completed"
        assert r["slowdown"] > 1.1  # the fault visibly costs time
        assert r["lost_batches"] == 0
        assert r["degraded_rounds"] == 0

    def test_straggler_magnitude(self, matrix):
        # a 4x straggler over 60% of the epoch roughly doubles it
        assert _cell(matrix, "DSP", "straggler")["slowdown"] == pytest.approx(
            2.11, abs=0.3)

    def test_collective_drop_rounds_recover(self, matrix):
        # the watchdog re-forms every round once the drop window ends:
        # aborts may happen, but nothing is abandoned
        for system in SYSTEMS:
            r = _cell(matrix, system, "collective-drop")
            assert r["degraded_rounds"] == 0


class TestWorkerCrashes:
    def test_sampler_crash_completes_with_lost_batches(self, matrix):
        for system in ("DSP", "DSP-Pull"):
            r = _cell(matrix, system, "sampler-crash")
            assert r["outcome"] == "completed"
            assert r["lost_batches"] == 6
            assert r["degraded_rounds"] == 12
            assert r["aborted_rounds"] == 48

    def test_sampler_crash_on_sequential_baseline(self, matrix):
        # DGL-UVA runs the sequential pipeline: downstream stages of the
        # crashed sampler are skipped cleanly, no collectives degrade
        r = _cell(matrix, "DGL-UVA", "sampler-crash")
        assert r["outcome"] == "completed"
        assert r["lost_batches"] == 2
        assert r["degraded_rounds"] == 0

    def test_trainer_crash_stalls_pipelined_systems(self, matrix):
        for system in ("DSP", "DSP-Pull"):
            r = _cell(matrix, system, "trainer-crash")
            assert r["outcome"] == "stalled"
            assert r["dead_workers"] == ["trainer-gpu0"]
            assert r["epoch_time"] is None

    def test_trainer_crash_completes_sequentially(self, matrix):
        # the sequential baseline skips the dead trainer's stages
        # instead of wedging on a full queue
        r = _cell(matrix, "DGL-UVA", "trainer-crash")
        assert r["outcome"] == "completed"
        assert r["lost_batches"] == 3
        assert r["degraded_rounds"] == 3


class TestCachePeerLoss:
    def test_partitioned_caches_degrade_gracefully(self, matrix):
        for system in ("DSP", "DSP-Pull"):
            r = _cell(matrix, system, "cache-peer-loss")
            assert r["outcome"] == "completed"
            assert r["mode"] == "serve"
            assert r["degraded"] == 64  # every request lost its shard
            assert r["completed"] == 64  # ...but all were still served
            assert r["shed"] == 0
            # the failover path's penalty shows in latency, not in the
            # elapsed time the arrival window sets
            assert r["p99_ms"] > r["baseline_p99_ms"]

    def test_uncached_baseline_is_immune(self, matrix):
        r = _cell(matrix, "DGL-UVA", "cache-peer-loss")
        assert r["outcome"] == "completed"
        assert r["degraded"] == 0
        assert r["slowdown"] == pytest.approx(1.0)
        assert r["p99_ms"] == r["baseline_p99_ms"]


class TestDeterminism:
    """Same seed + plan => byte-identical report, however executed."""

    SUBSET = ("straggler", "sampler-crash", "cache-peer-loss")

    def test_repeated_runs_identical(self):
        kw = dict(max_batches=3, requests=32, qps=2000.0)
        a = resilience_report(["DSP"], self.SUBSET, CFG, **kw)
        b = resilience_report(["DSP"], self.SUBSET, CFG, **kw)
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)

    def test_worker_count_invisible(self):
        kw = dict(max_batches=3, requests=32, qps=2000.0)
        serial = resilience_report(["DSP", "DGL-UVA"], self.SUBSET, CFG, **kw)
        fanned = resilience_report(["DSP", "DGL-UVA"], self.SUBSET, CFG,
                                   workers=2, **kw)
        assert (json.dumps(serial, sort_keys=True)
                == json.dumps(fanned, sort_keys=True))


class TestFormatReport:
    def test_renders_every_cell_and_summary(self, matrix):
        text = format_report(matrix)
        for system in SYSTEMS:
            assert system in text
        for scenario in SCENARIOS:
            assert scenario in text
        assert "dead: trainer-gpu0" in text
        assert f"{matrix['summary']['runs']} runs" in text
        assert "invariants clean" in text

    def test_json_safe(self, matrix):
        json.dumps(matrix)  # must not raise
