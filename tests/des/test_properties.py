"""Property-based tests for the DES kernel: determinism and invariants."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.des.events import Timeout
from repro.des.resources import Resource, Store
from repro.des.simulator import Simulator
from repro.errors import SimulationError


@st.composite
def schedules(draw):
    """A random multi-process workload: per-process lists of step delays."""
    n_procs = draw(st.integers(1, 6))
    return [
        draw(st.lists(st.floats(0.0, 2.0, allow_nan=False), min_size=1, max_size=8))
        for _ in range(n_procs)
    ]


def _run_schedule(schedule, capacity):
    """Run the workload through a shared resource; return its full history."""
    sim = Simulator(seed=1)
    res = Resource(sim, capacity=capacity)
    history = []

    def worker(name, delays):
        for i, d in enumerate(delays):
            yield Timeout(d)
            yield res.acquire()
            history.append((sim.now, name, i, "acq"))
            yield Timeout(0.1)
            res.release()
            history.append((sim.now, name, i, "rel"))

    for i, delays in enumerate(schedule):
        sim.spawn(worker("p%d" % i, delays), name="p%d" % i)
    sim.run()
    return history, sim.now, sim.events_executed


class TestDeterminism:
    @given(schedule=schedules(), capacity=st.integers(1, 3))
    @settings(max_examples=50, deadline=None)
    def test_identical_runs_identical_histories(self, schedule, capacity):
        a = _run_schedule(schedule, capacity)
        b = _run_schedule(schedule, capacity)
        assert a == b

    @given(schedule=schedules())
    @settings(max_examples=40, deadline=None)
    def test_time_never_goes_backwards(self, schedule):
        history, final, _ = _run_schedule(schedule, capacity=1)
        times = [h[0] for h in history]
        assert times == sorted(times)
        assert not history or final >= times[-1]


class TestResourceInvariants:
    @given(
        schedule=schedules(),
        capacity=st.integers(1, 3),
    )
    @settings(max_examples=50, deadline=None)
    def test_capacity_never_exceeded(self, schedule, capacity):
        sim = Simulator()
        res = Resource(sim, capacity=capacity)
        peak = [0]

        def worker(delays):
            for d in delays:
                yield Timeout(d)
                yield res.acquire()
                peak[0] = max(peak[0], res.in_use)
                assert res.in_use <= capacity
                yield Timeout(0.05)
                res.release()

        for i, delays in enumerate(schedule):
            sim.spawn(worker(delays), name="w%d" % i)
        sim.run()
        assert res.in_use == 0  # all released at the end
        assert 0 < peak[0] <= capacity

    @given(n_items=st.integers(0, 20), n_consumers=st.integers(1, 5))
    @settings(max_examples=40, deadline=None)
    def test_store_conserves_items(self, n_items, n_consumers):
        sim = Simulator()
        store = Store(sim)
        received = []

        def consumer():
            while True:
                item = yield store.get()
                if item is None:
                    return
                received.append(item)

        def producer():
            for i in range(n_items):
                yield Timeout(0.01)
                store.put(i)
            for _ in range(n_consumers):
                store.put(None)  # poison pills
            yield Timeout(0)

        for c in range(n_consumers):
            sim.spawn(consumer(), name="c%d" % c)
        sim.spawn(producer(), name="p")
        sim.run()
        assert sorted(received) == list(range(n_items))


class TestRandomStreamProperties:
    @given(names=st.lists(st.text(min_size=1, max_size=10), min_size=2, max_size=5, unique=True))
    @settings(max_examples=30, deadline=None)
    def test_streams_order_independent(self, names):
        import numpy as np

        sim1, sim2 = Simulator(seed=9), Simulator(seed=9)
        draws1 = {n: sim1.random.stream(n).random(3).tolist() for n in names}
        draws2 = {
            n: sim2.random.stream(n).random(3).tolist() for n in reversed(names)
        }
        assert draws1 == draws2
