"""Tests for the discrete-event simulator core."""

import pytest

from repro.engine import Simulator, Timeout
from repro.engine.simulator import Process
from repro.utils import ReproError
from tests.engine.reference_core import HeapSimulator


class TestEventLoop:
    def test_time_advances(self):
        sim = Simulator()
        seen = []

        def proc():
            yield Timeout(1.0)
            seen.append(sim.now)
            yield Timeout(2.0)
            seen.append(sim.now)

        sim.spawn(proc())
        assert sim.run() == pytest.approx(3.0)
        assert seen == [pytest.approx(1.0), pytest.approx(3.0)]

    def test_fifo_at_equal_times(self):
        sim = Simulator()
        order = []
        for i in range(5):
            def proc(i=i):
                yield Timeout(1.0)
                order.append(i)
            sim.spawn(proc())
        sim.run()
        assert order == [0, 1, 2, 3, 4]

    def test_subgenerator_call(self):
        sim = Simulator()
        out = []

        def child(x):
            yield Timeout(0.5)
            return x * 2

        def parent():
            v = yield child(21)
            out.append(v)

        sim.spawn(parent())
        sim.run()
        assert out == [42]

    def test_process_result(self):
        sim = Simulator()

        def proc():
            yield Timeout(1.0)
            return "done"

        p = sim.spawn(proc())
        sim.run()
        assert p.done and p.result == "done"

    def test_negative_delay_rejected(self):
        with pytest.raises(ReproError):
            Timeout(-1.0)

    def test_unsupported_yield(self):
        sim = Simulator()

        def proc():
            yield 42

        sim.spawn(proc())
        with pytest.raises(ReproError):
            sim.run()

    def test_run_until(self):
        sim = Simulator()

        def proc():
            yield Timeout(10.0)

        sim.spawn(proc())
        assert sim.run(until=3.0) == pytest.approx(3.0)
        assert sim.unfinished

    def test_many_processes_interleave(self):
        sim = Simulator()
        log = []

        def proc(name, dt):
            for _ in range(3):
                yield Timeout(dt)
                log.append((name, round(sim.now, 6)))

        sim.spawn(proc("a", 1.0))
        sim.spawn(proc("b", 1.5))
        sim.run()
        assert ("a", 1.0) in log and ("b", 1.5) in log
        assert log.index(("a", 1.0)) < log.index(("b", 1.5))


class TestEventsProcessed:
    @pytest.mark.parametrize("use_heap", [False, True])
    def test_counts_every_dispatch(self, use_heap):
        sim = HeapSimulator() if use_heap else Simulator()

        def proc():
            yield Timeout(1.0)
            yield Timeout(1.0)

        sim.spawn(proc())        # 1 spawn event + 2 timeout resumptions
        sim.schedule(0.5, lambda: None)   # 1 callback event
        sim.run()
        assert sim.events_processed == 4

    def test_counter_survives_until_cutoff(self):
        sim = Simulator()

        def proc():
            yield Timeout(1.0)
            yield Timeout(10.0)

        sim.spawn(proc())
        sim.run(until=2.0)
        assert sim.events_processed == 2  # spawn + first timeout
        sim.run()
        assert sim.events_processed == 3

    def test_exported_to_metrics_registry(self):
        from repro.metrics import MetricsRegistry

        reg = MetricsRegistry()
        sim = Simulator(metrics=reg)

        def proc():
            yield Timeout(1.0)

        sim.spawn(proc())
        sim.run()
        counters = {
            (i["name"],): i for i in reg.to_dict()["instruments"]
            if i["name"] == "engine_events"
        }
        assert counters[("engine_events",)]["total"] == sim.events_processed


class TestLazyWaitingOn:
    def test_blocked_timeout_formats_on_demand(self):
        sim = Simulator()

        def proc():
            yield Timeout(2.5)

        p = sim.spawn(proc())
        sim.run(until=1.0)
        # raw descriptor is the request itself; property renders legacy label
        assert isinstance(p._wait, Timeout)
        assert p.waiting_on == "timeout(2.5)"
        assert "timeout(2.5)" in repr(p)

    def test_waiting_on_accepts_legacy_strings(self):
        # third-party primitives may still assign preformatted strings
        p = Process("x", iter(()))
        p.waiting_on = "custom(wait)"
        assert p.waiting_on == "custom(wait)"
        p.waiting_on = None
        assert p.waiting_on is None

    def test_unblocked_process_has_no_label(self):
        sim = Simulator()

        def proc():
            yield Timeout(1.0)

        p = sim.spawn(proc())
        sim.run()
        assert p.waiting_on is None and p.done

