"""Bit-identical equivalence of the engine core and the heap oracle.

The bucketed calendar core (:class:`Simulator`) must dispatch events in
exactly the order of the ``(time, seq)`` heap core kept as a test
oracle (:class:`HeapSimulator`, ``reference_core.py``) — same event
log, same final clock, same ``events_processed``, same deadlock
forensics.  These tests drive *randomly generated programs* (mixed
timeouts with heavily duplicated timestamps, queue put/get chains,
resource hold/release, schedule/resume callbacks, ``until`` cutoffs,
and deliberately deadlocking shapes) through both cores and compare
everything observable.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.engine import (
    BoundedQueue,
    Rendezvous,
    Resource,
    Simulator,
    Timeout,
)
from repro.utils import DeadlockError
from tests.engine.reference_core import HeapSimulator

#: quantized delays: many events share a timestamp, which is exactly
#: the case the bucketed core optimizes (and where ordering bugs hide)
DELAYS = (0.0, 0.1, 0.1, 0.2, 0.3)


def _random_program(rng: random.Random, max_procs: int = 6,
                    max_ops: int = 8) -> dict:
    """A program spec: queues, resources, and per-process op lists."""
    num_queues = rng.randint(1, 3)
    num_resources = rng.randint(1, 2)
    procs = []
    for _ in range(rng.randint(2, max_procs)):
        ops = []
        for _ in range(rng.randint(1, max_ops)):
            kind = rng.choice(("sleep", "put", "get", "hold", "timer"))
            if kind == "sleep":
                ops.append(("sleep", rng.choice(DELAYS)))
            elif kind == "put":
                ops.append(("put", rng.randrange(num_queues), rng.random()))
            elif kind == "get":
                ops.append(("get", rng.randrange(num_queues)))
            elif kind == "hold":
                ops.append(("hold", rng.randrange(num_resources),
                            rng.randint(1, 3), rng.choice(DELAYS)))
            else:  # schedule a bare callback
                ops.append(("timer", rng.choice(DELAYS)))
        procs.append(ops)
    return {
        "queues": num_queues,
        "resources": num_resources,
        "procs": procs,
    }


def _run_program(program: dict, core: type[Simulator], until=None,
                 tracer=None):
    """Execute a program spec on one core; returns every observable:
    the event log, final clock, events_processed, and the deadlock
    message (None if the run completed)."""
    sim = core(tracer=tracer)
    queues = [BoundedQueue(sim, 2, name=f"q{i}")
              for i in range(program["queues"])]
    resources = [Resource(sim, capacity=3, name=f"r{i}")
                 for i in range(program["resources"])]
    log = []

    def worker(pid, ops):
        for oi, op in enumerate(ops):
            kind = op[0]
            if kind == "sleep":
                yield Timeout(op[1])
            elif kind == "put":
                yield queues[op[1]].put((pid, op[2]))
            elif kind == "get":
                got = yield queues[op[1]].get()
                log.append((round(sim.now, 9), pid, oi, "got", got))
            elif kind == "hold":
                _, ri, n, dur = op
                yield resources[ri].acquire(n)
                yield Timeout(dur)
                resources[ri].release(n)
            elif kind == "timer":
                sim.schedule(op[1],
                             lambda p=pid, o=oi:
                             log.append((round(sim.now, 9), p, o, "cb")))
            log.append((round(sim.now, 9), pid, oi, kind))

    for pid, ops in enumerate(program["procs"]):
        sim.spawn(worker(pid, ops), name=f"w{pid}")

    deadlock = None
    try:
        sim.run(until=until)
    except DeadlockError as err:
        deadlock = (str(err), dict(err.waiting))
    return {
        "log": log,
        "now": sim.now,
        "events": sim.events_processed,
        "deadlock": deadlock,
    }


def _assert_identical(program: dict, until=None):
    heap = _run_program(program, HeapSimulator, until=until)
    bucket = _run_program(program, Simulator, until=until)
    assert bucket["log"] == heap["log"]
    assert bucket["now"] == heap["now"]  # bit-identical, not approx
    assert bucket["events"] == heap["events"]
    assert bucket["deadlock"] == heap["deadlock"]


class TestRandomPrograms:
    @pytest.mark.parametrize("seed", range(40))
    def test_seeded_fuzz(self, seed):
        """Random schedule/resume/Timeout mixes dispatch identically."""
        _assert_identical(_random_program(random.Random(seed)))

    @pytest.mark.parametrize("seed", range(20))
    def test_seeded_fuzz_with_until(self, seed):
        """``until`` cutoffs stop both cores at the same instant with
        the same events dispatched."""
        rng = random.Random(1000 + seed)
        program = _random_program(rng)
        _assert_identical(program, until=rng.choice((0.0, 0.1, 0.25, 1.0)))

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_hypothesis_fuzz(self, seed):
        _assert_identical(_random_program(random.Random(seed)))


class TestDuplicateTimestamps:
    def test_zero_delay_storm_is_fifo_on_both_cores(self):
        """Zero-delay chains scheduled during a dispatch batch run in
        scheduling order on both cores (the live-bucket append case)."""
        def program_log(core):
            sim = core()
            order = []

            def chain(name, depth):
                for d in range(depth):
                    yield Timeout(0.0)
                    order.append((name, d, sim.now))

            for i in range(5):
                sim.spawn(chain(i, 4), name=f"c{i}")
            sim.run()
            return order, sim.events_processed

        heap_order, heap_ev = program_log(HeapSimulator)
        bucket_order, bucket_ev = program_log(Simulator)
        assert bucket_order == heap_order
        assert bucket_ev == heap_ev

    def test_same_time_callbacks_interleave_identically(self):
        def run(core):
            sim = core()
            hits = []
            for i in range(6):
                sim.schedule(0.5, lambda i=i: hits.append(i))
                sim.schedule(0.25 + 0.25, lambda i=i: hits.append(100 + i))
            sim.run()
            return hits

        assert run(Simulator) == run(HeapSimulator)


class TestRendezvousTimerStorm:
    """Producer/consumer pairs over bounded queues, a contended SM pool,
    periodic rendezvous rounds and a timer storm whose deadlines are
    quantized (many timers share one timestamp: the admission batcher's
    max-wait shape).  The fuzzed programs above have no rendezvous op;
    this mix does."""

    @staticmethod
    def _drive(core: type[Simulator], pairs: int, rounds: int,
               barrier_every: int) -> Simulator:
        sim = core()
        sm = Resource(sim, capacity=max(2, pairs // 2), name="sm")
        rdv = Rendezvous(sim, name="rdv")
        queues = [BoundedQueue(sim, 4, name=f"q{i}") for i in range(pairs)]

        def tick():
            pass

        def timers():
            for _ in range(rounds):
                for j in range(4):
                    sim.schedule((1 + (j % 2)) * 1e-4, tick)
                yield Timeout(1e-4)

        ticks = [Timeout(r * 1e-4) for r in range(7)]

        def producer(q, i):
            for r in range(rounds):
                yield ticks[r % 7]
                yield q.put((i, r))

        def consumer(q, i):
            for r in range(rounds):
                yield q.get()
                yield sm.acquire(1)
                yield ticks[1]
                sm.release(1)
                if r % barrier_every == 0:
                    yield rdv.arrive(("b", r), pairs)

        sim.spawn(timers(), name="timers")
        for i, q in enumerate(queues):
            sim.spawn(producer(q, i), name=f"p{i}")
            sim.spawn(consumer(q, i), name=f"c{i}")
        sim.run()
        return sim

    @pytest.mark.parametrize("barrier_every", [1, 16])
    def test_cores_agree(self, barrier_every):
        heap = self._drive(HeapSimulator, pairs=8, rounds=60,
                           barrier_every=barrier_every)
        bucket = self._drive(Simulator, pairs=8, rounds=60,
                             barrier_every=barrier_every)
        assert bucket.now == heap.now  # bit-identical, not approx
        assert bucket.events_processed == heap.events_processed


class TestDeadlockForensics:
    def test_deadlock_message_identical(self):
        """Both cores name the same blocked processes with the same
        formatted waiting_on labels (the lazy descriptors render to the
        legacy strings)."""
        def run(core):
            sim = core()
            q = BoundedQueue(sim, 1, name="stuckq")
            r = Resource(sim, capacity=1, name="sm")

            def getter():
                yield q.get()

            def hog():
                yield r.acquire(1)
                yield q.get()  # never satisfied -> holds r forever

            def blocked():
                yield Timeout(0.1)
                yield r.acquire(1)

            sim.spawn(getter(), name="getter")
            sim.spawn(hog(), name="hog")
            sim.spawn(blocked(), name="blocked")
            with pytest.raises(DeadlockError) as err:
                sim.run()
            return str(err.value), dict(err.value.waiting)

        heap_msg, heap_waiting = run(HeapSimulator)
        bucket_msg, bucket_waiting = run(Simulator)
        assert bucket_msg == heap_msg
        assert bucket_waiting == heap_waiting
        assert heap_waiting["getter"] == "get(stuckq)"
        assert heap_waiting["blocked"] == "acquire(sm, 1)"


class TestTracedUntracedConsistency:
    """The bucketed core uses an inlined trampoline when untraced and
    the instrumented ``_step`` when traced — the observable event order
    must not depend on which one ran."""

    @pytest.mark.parametrize("seed", range(10))
    def test_tracer_does_not_change_order(self, seed):
        from repro.obs import Tracer

        program = _random_program(random.Random(2000 + seed))
        plain = _run_program(program, Simulator)
        traced = _run_program(program, Simulator, tracer=Tracer())
        assert traced["log"] == plain["log"]
        assert traced["now"] == plain["now"]
        assert traced["events"] == plain["events"]
        assert traced["deadlock"] == plain["deadlock"]

