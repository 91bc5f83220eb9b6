"""The kernel's rule for completions that are already settled when yielded.

A process that yields a completion which has already *succeeded* continues
in the same dispatch with its value; pending and failed completions,
timeouts and composite waits go through the event queue.  ``try_acquire``
is the allocation-free form of acquiring a free slot and must leave the
same history as ``yield acquire()``.
"""

from hypothesis import given, settings, strategies as st

from repro.des.events import AllOf, Timeout
from repro.des.resources import Resource, Store
from repro.des.simulator import Simulator
from repro.obs.tracepoints import TelemetryConfig, session


def test_draining_a_prefilled_store_takes_one_event():
    # A recursive resume would overflow the Python stack well before
    # 20,000 ready items; the resume loop keeps the depth flat.
    sim = Simulator()
    store = Store(sim)
    for i in range(20_000):
        store.put(i)

    def drain():
        total = 0
        for _ in range(20_000):
            total += yield store.get()
        return total

    assert sim.run_process(drain()) == 199_990_000
    assert sim.events_executed == 1  # the process start; every get was ready


def test_succeeded_completion_continues_before_same_instant_events():
    sim = Simulator()
    ready = sim.completion("ready").succeed(7)
    order = []

    def waiter():
        order.append(("waiter", (yield ready)))

    def bystander():
        order.append(("bystander",))
        yield Timeout(0.0)

    sim.spawn(waiter(), name="waiter")
    sim.spawn(bystander(), name="bystander")
    sim.run()
    assert order == [("waiter", 7), ("bystander",)]
    assert sim.events_executed == 3  # two starts + the bystander's timeout


def test_failed_completion_is_thrown_in_through_the_queue():
    sim = Simulator()
    failed = sim.completion("boom").fail(RuntimeError("boom"))
    order = []

    def waiter():
        try:
            yield failed
        except RuntimeError as exc:
            order.append(("caught", str(exc)))

    def bystander():
        order.append(("bystander",))
        yield Timeout(0.0)

    sim.spawn(waiter(), name="waiter")
    sim.spawn(bystander(), name="bystander")
    sim.run()
    # The waiter was spawned first, yet the bystander runs before the
    # failure reaches it: the throw is a queued event of its own.
    assert order == [("bystander",), ("caught", "boom")]
    assert sim.events_executed == 4


def test_ready_completion_after_a_throw_continues_in_the_same_dispatch():
    sim = Simulator()
    failed = sim.completion().fail(RuntimeError("x"))
    ready = sim.completion().succeed("after")

    def body():
        try:
            yield failed
        except RuntimeError:
            pass
        return (yield ready)

    assert sim.run_process(body()) == "after"
    assert sim.events_executed == 2  # the start + the throw


def test_composite_waits_on_ready_completions_keep_the_queue_hop():
    sim = Simulator()
    parts = [sim.completion().succeed(i) for i in range(3)]

    def body():
        return (yield AllOf(parts))

    assert sim.run_process(body()) == [0, 1, 2]
    assert sim.events_executed == 4  # the start + one callback per part


class TestTryAcquire:
    def test_takes_free_slots_then_refuses(self):
        sim = Simulator()
        res = Resource(sim, capacity=2)
        assert res.try_acquire() and res.try_acquire()
        assert not res.try_acquire()
        assert res.in_use == 2 and res.total_acquires == 2
        res.release()
        assert res.in_use == 1

    def test_never_jumps_the_fifo_queue(self):
        sim = Simulator()
        res = Resource(sim, capacity=1)
        order = []

        def holder():
            assert res.try_acquire()
            yield Timeout(1.0)
            res.release()  # hands the slot straight to the waiter

        def waiter():
            yield res.acquire()
            order.append(("waiter", sim.now))
            yield Timeout(1.0)
            res.release()

        def latecomer():
            yield Timeout(1.0)
            # At t=1 the slot already belongs to the waiter.
            if not res.try_acquire():
                yield res.acquire()
            order.append(("latecomer", sim.now))
            res.release()

        sim.spawn(holder(), name="holder")
        sim.spawn(waiter(), name="waiter")
        sim.spawn(latecomer(), name="latecomer")
        sim.run()
        assert order == [("waiter", 1.0), ("latecomer", 2.0)]


@st.composite
def contention(draw):
    """Per-process lists of (think time, hold time) pairs, plus a capacity."""
    step = st.tuples(
        st.sampled_from([0.0, 0.25, 0.5, 1.0]),
        st.sampled_from([0.0, 0.25, 0.5, 0.75]),
    )
    procs = draw(st.lists(st.lists(step, min_size=1, max_size=6), min_size=1, max_size=6))
    return procs, draw(st.integers(1, 3))


def _contend(procs, capacity, use_try):
    sim = Simulator()
    res = Resource(sim, capacity=capacity)
    grants = []

    def worker(name, steps):
        for think, hold in steps:
            yield Timeout(think)
            if not (use_try and res.try_acquire()):
                yield res.acquire()
            grants.append((sim.now, name))
            yield Timeout(hold)
            res.release()

    for i, steps in enumerate(procs):
        sim.spawn(worker(i, steps), name="w%d" % i)
    sim.run()
    return grants, res.total_acquires, res.utilization(), sim.events_executed, sim.now


@given(case=contention())
@settings(max_examples=80, deadline=None)
def test_try_acquire_leaves_the_history_of_yield_acquire(case):
    procs, capacity = case
    assert _contend(procs, capacity, use_try=True) == _contend(
        procs, capacity, use_try=False
    )


def _mixed(run):
    """A workload with contention, ready and pending store items, and joins."""
    sim = Simulator(seed=3)
    res = Resource(sim, capacity=2, name="pool")
    mail = Store(sim, name="mail")
    for i in range(5):
        mail.put(i)
    log = []

    def worker(i):
        yield Timeout(0.1 * (i % 3))
        for _ in range(3):
            yield from res.serve(0.2)
            log.append((sim.now, i, (yield mail.get())))
            mail.put(i)

    def producer():
        yield Timeout(0.05)
        for i in range(4):
            mail.put(100 + i)
            yield Timeout(0.3)

    def main():
        procs = [sim.spawn(worker(i), name="w%d" % i) for i in range(6)]
        sim.spawn(producer(), name="producer")
        yield AllOf([p.completion for p in procs])
        return len(log)

    sim.spawn(main(), name="main")
    run(sim)
    return log, sim.now, sim.events_executed


def test_every_run_loop_dispatches_the_same_events():
    plain = _mixed(lambda sim: sim.run())
    fast = _mixed(lambda sim: sim.run_fast(check_first=1))
    with session(TelemetryConfig(spans=False)) as col:
        observed = _mixed(lambda sim: sim.run())
    assert plain == fast == observed
    assert col.metrics.snapshot()["counters"]["des.events_dispatched"] == plain[2]
