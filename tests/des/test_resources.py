"""Unit tests for Resource (FIFO server pools) and Store (channels)."""

import pytest

from repro.des.events import Timeout
from repro.des.resources import Resource, Store
from repro.des.simulator import Simulator
from repro.errors import SimulationError


def test_resource_capacity_one_serializes():
    sim = Simulator()
    res = Resource(sim, capacity=1, name="disk")
    done = []

    def worker(name):
        yield res.acquire()
        try:
            yield Timeout(1.0)
        finally:
            res.release()
        done.append((sim.now, name))

    sim.spawn(worker("a"), name="a")
    sim.spawn(worker("b"), name="b")
    sim.spawn(worker("c"), name="c")
    sim.run()
    assert done == [(1.0, "a"), (2.0, "b"), (3.0, "c")]


def test_resource_capacity_two_overlaps():
    sim = Simulator()
    res = Resource(sim, capacity=2)
    done = []

    def worker(name):
        yield from res.serve(1.0)
        done.append((sim.now, name))

    for name in "abcd":
        sim.spawn(worker(name), name=name)
    sim.run()
    assert done == [(1.0, "a"), (1.0, "b"), (2.0, "c"), (2.0, "d")]


def test_resource_fifo_ordering():
    sim = Simulator()
    res = Resource(sim, capacity=1)
    order = []

    def worker(name, arrive):
        yield Timeout(arrive)
        yield res.acquire()
        order.append(name)
        yield Timeout(0.5)
        res.release()

    sim.spawn(worker("late", 0.2), name="late")
    sim.spawn(worker("early", 0.1), name="early")
    sim.spawn(worker("first", 0.0), name="first")
    sim.run()
    assert order == ["first", "early", "late"]


def test_release_without_acquire_raises():
    sim = Simulator()
    res = Resource(sim, capacity=1)
    with pytest.raises(SimulationError):
        res.release()


def test_resource_capacity_validation():
    sim = Simulator()
    with pytest.raises(SimulationError):
        Resource(sim, capacity=0)


def test_serve_releases_on_exception():
    sim = Simulator()
    res = Resource(sim, capacity=1)

    def failing():
        try:
            yield res.acquire()
            raise RuntimeError("mid-hold")
        finally:
            res.release()

    def after():
        yield Timeout(0.1)
        yield res.acquire()
        res.release()
        return "got it"

    sim.spawn(failing(), name="failing")
    assert sim.run_process(after(), name="after") == "got it"


def test_utilization_accounting():
    sim = Simulator()
    res = Resource(sim, capacity=1)

    def worker():
        yield from res.serve(2.0)
        yield Timeout(2.0)  # idle period

    sim.run_process(worker())
    assert res.utilization() == pytest.approx(0.5)
    assert res.total_acquires == 1


def test_store_put_then_get():
    sim = Simulator()
    store = Store(sim)
    store.put("x")
    store.put("y")

    def getter():
        a = yield store.get()
        b = yield store.get()
        return [a, b]

    assert sim.run_process(getter()) == ["x", "y"]


def test_store_get_blocks_until_put():
    sim = Simulator()
    store = Store(sim)

    def producer():
        yield Timeout(3.0)
        store.put("late-item")

    def consumer():
        item = yield store.get()
        return (sim.now, item)

    sim.spawn(producer(), name="producer")
    assert sim.run_process(consumer()) == (3.0, "late-item")


def test_store_getters_served_in_order():
    sim = Simulator()
    store = Store(sim)
    got = []

    def consumer(name):
        item = yield store.get()
        got.append((name, item))

    def producer():
        yield Timeout(1.0)
        store.put(1)
        store.put(2)

    sim.spawn(consumer("first"), name="c1")
    sim.spawn(consumer("second"), name="c2")
    sim.spawn(producer(), name="p")
    sim.run()
    assert got == [("first", 1), ("second", 2)]


def test_store_try_get():
    sim = Simulator()
    store = Store(sim)
    assert store.try_get() is None
    store.put(9)
    assert len(store) == 1
    assert store.try_get() == 9
    assert store.try_get() is None


def test_random_streams_independent_and_stable():
    sim1 = Simulator(seed=42)
    sim2 = Simulator(seed=42)
    a1 = sim1.random.stream("disk").random(5)
    # Interleave another stream in sim2 before asking for "disk":
    _ = sim2.random.stream("network").random(3)
    a2 = sim2.random.stream("disk").random(5)
    assert a1 == pytest.approx(a2)


def test_random_streams_differ_across_seeds():
    import numpy as np

    s1 = Simulator(seed=1).random.stream("x").random(4)
    s2 = Simulator(seed=2).random.stream("x").random(4)
    assert not np.allclose(s1, s2)
