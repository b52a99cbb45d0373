"""Tests for the invariant oracle: every checked property, both modes."""

import pytest

from repro.chaos.invariants import BYTES_RTOL, InvariantChecker
from repro.utils.errors import InvariantViolation


class TestClockMonotone:
    def test_forward_time_is_clean(self):
        inv = InvariantChecker()
        for t in (0.0, 0.5, 0.5, 1.0):
            inv.on_event_time(t)
        assert inv.clean

    def test_backwards_time_raises_in_strict_mode(self):
        inv = InvariantChecker()
        inv.on_event_time(1.0)
        with pytest.raises(InvariantViolation) as err:
            inv.on_event_time(0.5)
        assert err.value.invariant == "clock-monotone"

    def test_collect_mode_records_instead(self):
        inv = InvariantChecker(strict=False)
        inv.on_event_time(1.0)
        inv.on_event_time(0.5)
        assert not inv.clean
        assert "clock-monotone" in inv.violations[0]


class TestQueueBound:
    def test_at_capacity_is_legal(self):
        inv = InvariantChecker()
        inv.on_queue_push("q", depth=2, capacity=2)
        assert inv.clean

    def test_overflow_detected(self):
        inv = InvariantChecker(strict=False)
        inv.on_queue_push("samples-gpu0", depth=3, capacity=2)
        assert any("queue-bound" in v and "samples-gpu0" in v
                   for v in inv.violations)


class TestCccLaunchOrder:
    def test_contiguous_order_is_clean(self):
        inv = InvariantChecker()
        for g in (0, 1):
            for pos, tag in enumerate(("a", "b", "c")):
                inv.on_launch(g, tag, pos)
        assert inv.clean

    def test_divergent_position_detected(self):
        inv = InvariantChecker(strict=False)
        inv.on_launch(0, "a", 0)
        inv.on_launch(1, "a", 1)  # same tag, different global position
        assert any("ccc-launch-order" in v for v in inv.violations)

    def test_skipped_position_detected(self):
        inv = InvariantChecker(strict=False)
        inv.on_launch(0, "a", 0)
        inv.on_launch(0, "c", 2)  # gpu 0 never launched position 1
        assert any("expected 1" in v for v in inv.violations)


class TestByteConservation:
    def test_reconciles_within_tolerance(self):
        inv = InvariantChecker()
        inv.on_bytes("nvlink", 1000.0)
        inv.on_bytes("nvlink", 500.0)
        inv.finalize(expected_bytes={"nvlink": 1500.0 * (1 + BYTES_RTOL / 2)})
        assert inv.clean
        assert inv.finalized

    def test_mismatch_beyond_tolerance_detected(self):
        inv = InvariantChecker(strict=False)
        inv.on_bytes("pcie", 1000.0)
        inv.finalize(expected_bytes={"pcie": 2000.0})
        assert any("link-bytes" in v for v in inv.violations)

    def test_missing_link_counts_as_zero(self):
        inv = InvariantChecker(strict=False)
        inv.on_bytes("nvlink", 10.0)  # observed on a link never expected
        inv.finalize(expected_bytes={})
        assert not inv.clean


class TestNoLostBatches:
    def test_all_triples_accounted(self):
        inv = InvariantChecker()
        inv.on_stage_done(0, "sample", 0)
        inv.note_lost(0, "train", 0, reason="worker-crash")
        inv.finalize(expected_batches={(0, "sample", 0), (0, "train", 0)})
        assert inv.clean
        assert inv.summary()["lost_batches"] == 1

    def test_vanished_triple_detected(self):
        inv = InvariantChecker(strict=False)
        inv.on_stage_done(0, "sample", 0)
        inv.finalize(expected_batches={(0, "sample", 0), (1, "sample", 0)})
        assert any("no-lost-batches" in v and "unaccounted" in v
                   for v in inv.violations)

    def test_completed_and_lost_overlap_detected(self):
        inv = InvariantChecker(strict=False)
        inv.on_stage_done(0, "train", 3)
        inv.note_lost(0, "train", 3, reason="confused")
        inv.finalize(expected_batches={(0, "train", 3)})
        assert any("both completed and lost" in v for v in inv.violations)


class TestSummary:
    def test_summary_shape(self):
        inv = InvariantChecker(strict=False)
        inv.on_event_time(1.0)
        inv.on_event_time(0.0)
        s = inv.summary()
        assert s["checks"] >= 2
        assert s["clean"] is False
        assert len(s["violations"]) == 1
        assert s["finalized"] is False

    def test_checks_count_grows(self):
        inv = InvariantChecker()
        before = inv.checks
        inv.on_event_time(0.0)
        inv.on_queue_push("q", 0, 2)
        inv.on_launch(0, "t", 0)
        assert inv.checks == before + 3


class TestViolationTimelines:
    """A checker installed on a simulator annotates each violation onto
    that simulator's tracer and metrics registry."""

    @staticmethod
    def overfilled_run():
        from repro.engine import BoundedQueue, Simulator
        from repro.engine.simulator import Timeout
        from repro.metrics import MetricsRegistry
        from repro.obs import Tracer

        tracer, registry = Tracer(), MetricsRegistry(window_s=1.0)
        inv = InvariantChecker(strict=False)
        sim = Simulator(tracer=tracer, metrics=registry, invariants=inv)
        q = BoundedQueue(sim, 1, name="q")

        def overfill():
            yield Timeout(0.5)
            yield q.put("a")
            q._push("b")  # bypasses the capacity check a put makes

        sim.spawn(overfill())
        sim.run()
        return inv, tracer, registry

    def test_queue_bound_violation_on_both_timelines(self):
        inv, tracer, registry = self.overfilled_run()
        assert len(inv.violations) == 1 and "queue-bound" in inv.violations[0]
        marks = [(ev.ts, ev.track, ev.args["detail"]) for ev in tracer.events
                 if ev.name == "violation:queue-bound"]
        assert marks == [(0.5, "chaos", "queue q holds 2 items > capacity 1")]
        assert [(t, name) for t, name, _ in registry.events] == [
            (0.5, "violation:queue-bound")]

    def test_end_of_run_violation_also_annotated(self):
        inv, tracer, registry = self.overfilled_run()
        inv.finalize(expected_bytes={"nvlink": 1.0})
        assert [name for _, name, _ in registry.events] == [
            "violation:queue-bound", "violation:link-bytes"]
        assert sum(ev.name == "violation:link-bytes"
                   for ev in tracer.events) == 1
