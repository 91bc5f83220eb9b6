"""Direct tests of the calendar-bucket :class:`EventQueue` and the
batched fast paths built on it.

The queue contract under test is the classic ``(time, sequence)``
discipline: distinct times drain in heap order, same-time events drain
in global insertion order (FIFO *is* the sequence), and the in-bucket
cursor makes partial drains — including an exception thrown mid-batch —
resumable without losing or reordering events.
"""

import pytest

from repro.des.events import Timeout
from repro.des.queue import EventQueue
from repro.des.simulator import Simulator
from repro.errors import SimulationError


def drain(queue):
    """Pop everything, returning the (time, args) history."""
    out = []
    while queue:
        t, cb, args = queue.pop()
        out.append((t, args))
        cb(*args)
    return out


class TestEventQueueOrdering:
    def test_distinct_times_drain_in_heap_order(self):
        q = EventQueue()
        seen = []
        for t in (3.0, 1.0, 2.0, 0.5):
            q.push(t, seen.append, (t,))
        assert [t for t, _args in drain(q)] == [0.5, 1.0, 2.0, 3.0]
        assert seen == [0.5, 1.0, 2.0, 3.0]

    def test_same_time_events_are_fifo(self):
        q = EventQueue()
        seen = []
        for i in range(32):
            q.push(1.0, seen.append, (i,))
        drain(q)
        assert seen == list(range(32))

    def test_interleaved_times_preserve_insertion_within_each(self):
        q = EventQueue()
        seen = []
        for i in range(12):
            q.push(float(i % 3), seen.append, ((i % 3, i),))
        drain(q)
        assert seen == sorted(seen)  # (time, insertion-index) lexicographic

    def test_len_and_bool_track_pushes_and_pops(self):
        q = EventQueue()
        assert len(q) == 0 and not q
        q.push(1.0, lambda: None)
        q.push(1.0, lambda: None)
        q.push(2.0, lambda: None)
        assert len(q) == 3 and q
        q.pop()
        assert len(q) == 2
        drain(q)
        assert len(q) == 0 and not q

    def test_peek_time_does_not_consume(self):
        q = EventQueue()
        q.push(2.0, lambda: None)
        q.push(1.0, lambda: None)
        assert q.peek_time() == 1.0
        assert q.peek_time() == 1.0
        assert len(q) == 2
        t, _cb, _args = q.pop()
        assert t == 1.0
        assert q.peek_time() == 2.0

    def test_push_during_pop_drain_lands_after_queued_same_time(self):
        # A callback scheduling "now" must fire after everything already
        # queued at that time — the old higher-sequence-number behaviour.
        q = EventQueue()
        seen = []

        def first():
            seen.append("first")
            q.push(1.0, seen.append, ("injected",))

        q.push(1.0, first)
        q.push(1.0, seen.append, ("second",))
        drain(q)
        assert seen == ["first", "second", "injected"]


class TestBucketClaiming:
    def test_claim_and_full_release_retires_bucket(self):
        q = EventQueue()
        seen = []
        for i in range(3):
            q.push(1.0, seen.append, (i,))
        q.push(2.0, seen.append, ("later",))
        t, bucket = q.claim_bucket()
        assert t == 1.0
        cursor = bucket[0]
        while cursor < len(bucket):
            cb, args = bucket[cursor], bucket[cursor + 1]
            cursor += 2
            cb(*args)
        q.release_bucket(t, bucket, cursor)
        assert seen == [0, 1, 2]
        assert len(q) == 1
        assert q.peek_time() == 2.0

    def test_partial_release_resumes_where_it_stopped(self):
        q = EventQueue()
        seen = []
        for i in range(4):
            q.push(1.0, seen.append, (i,))
        t, bucket = q.claim_bucket()
        cursor = bucket[0]
        for _ in range(2):  # drain only half the bucket
            cb, args = bucket[cursor], bucket[cursor + 1]
            cursor += 2
            cb(*args)
        q.release_bucket(t, bucket, cursor)
        assert seen == [0, 1]
        assert len(q) == 2
        drain(q)
        assert seen == [0, 1, 2, 3]

    def test_same_time_push_lands_in_claimed_bucket(self):
        q = EventQueue()
        q.push(1.0, lambda: None)
        t, bucket = q.claim_bucket()
        before = len(bucket)
        q.push(1.0, lambda: None)
        assert len(bucket) == before + 2  # cb + args slots, same live list


class TestBareNumberSleeps:
    def test_float_and_int_yields_sleep_like_timeouts(self):
        sim = Simulator()
        stamps = []

        def body():
            yield 1.5
            stamps.append(sim.now)
            yield 2  # bare int
            stamps.append(sim.now)
            yield Timeout(0.5)
            stamps.append(sim.now)

        sim.run_process(body())
        assert stamps == [pytest.approx(1.5), pytest.approx(3.5), pytest.approx(4.0)]

    def test_bare_zero_yield_is_a_zero_delay_hop(self):
        sim = Simulator()
        order = []

        def hopper(tag):
            order.append((tag, "before"))
            yield 0
            order.append((tag, "after"))

        sim.spawn(hopper("a"))
        sim.spawn(hopper("b"))
        sim.run()
        assert sim.now == 0.0
        assert order == [
            ("a", "before"),
            ("b", "before"),
            ("a", "after"),
            ("b", "after"),
        ]

    def test_negative_bare_yield_fails_the_process(self):
        sim = Simulator()

        def body():
            yield -0.5

        with pytest.raises(SimulationError):
            sim.run_process(body())

    def test_bare_yields_match_timeout_yields_exactly(self):
        def workload(sim, bare):
            trace = []

            def body(delays):
                for d in delays:
                    yield d if bare else Timeout(d)
                    trace.append((sim.now, sim.events_executed))

            for k in range(3):
                sim.spawn(body([0.25 * (k + 1)] * 4))
            sim.run()
            return trace

        a, b = Simulator(), Simulator()
        assert workload(a, bare=True) == workload(b, bare=False)
        assert a.events_executed == b.events_executed


class TestMidBatchExceptions:
    def test_exception_mid_batch_leaves_queue_consistent(self):
        # Three same-time processes; the middle one explodes inside a
        # run_fast() batch drain.  The queue must stay consistent so a
        # plain run() afterwards finishes the survivors.
        sim = Simulator()
        seen = []

        def ok(tag):
            yield 1.0
            seen.append(tag)

        def boom():
            yield 1.0
            raise RuntimeError("mid-batch")

        sim.spawn(ok("a"))
        proc = sim.spawn(boom(), name="boom")
        sim.spawn(ok("b"))
        sim.run_fast()
        assert proc.completion.done and not proc.completion.ok
        assert seen == ["a", "b"]
        assert sim.pending_events == 0
        assert sim.now == pytest.approx(1.0)

    def test_run_after_mid_batch_failure_drains_remainder(self):
        sim = Simulator()
        seen = []

        def watcher():
            # An unfailed daemon observing later times proves the heap /
            # bucket bookkeeping survived the earlier in-bucket failure.
            for _ in range(3):
                yield 1.0
                seen.append(sim.now)

        def boom():
            yield 1.0
            raise ValueError("kaboom")

        sim.spawn(watcher(), daemon=True)
        proc = sim.spawn(boom(), name="boom")
        sim.run_fast()
        assert proc.completion.done and not proc.completion.ok
        assert isinstance(proc.completion.exception, ValueError)
        assert seen == [pytest.approx(t) for t in (1.0, 2.0, 3.0)]

    def test_run_fast_until_peeks_without_popping_boundary(self):
        sim = Simulator()
        seen = []

        def body():
            for _ in range(4):
                yield 1.0
                seen.append(sim.now)

        sim.spawn(body(), daemon=True)
        assert sim.run_fast(until=2.5) == 2.5
        assert seen == [pytest.approx(1.0), pytest.approx(2.0)]
        # The 3.0 event was peeked, not popped: still pending, runs next.
        assert sim.pending_events == 1
        assert sim.run_fast() == pytest.approx(4.0)
        assert seen[-1] == pytest.approx(4.0)
