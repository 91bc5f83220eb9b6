"""Unit tests for the DES kernel run loop, processes, and commands."""

import contextlib

import pytest

from repro.des.events import AllOf, AnyOf, Completion, Timeout
from repro.des.simulator import Simulator
from repro.errors import DeadlockError, ProcessError, SimTimeError, SimulationError
from repro.obs.tracepoints import session


def test_empty_simulation_runs_to_time_zero():
    sim = Simulator()
    assert sim.run() == 0.0
    assert sim.now == 0.0


def test_timeout_advances_time():
    sim = Simulator()

    def body():
        yield Timeout(1.5)
        yield Timeout(0.5)
        return sim.now

    result = sim.run_process(body())
    assert result == pytest.approx(2.0)
    assert sim.now == pytest.approx(2.0)


def test_timeout_carries_value():
    sim = Simulator()

    def body():
        got = yield Timeout(1.0, value="wakeup")
        return got

    assert sim.run_process(body()) == "wakeup"


def test_negative_timeout_rejected():
    with pytest.raises(SimulationError):
        Timeout(-1.0)


def test_process_return_value_via_completion():
    sim = Simulator()

    def body():
        yield Timeout(1)
        return 42

    proc = sim.spawn(body(), name="answer")
    sim.run()
    assert proc.completion.value == 42
    assert not proc.alive


def test_spawn_requires_generator():
    sim = Simulator()

    def not_a_generator():
        return 1

    with pytest.raises(ProcessError):
        sim.spawn(not_a_generator)  # passed the function itself
    with pytest.raises(ProcessError):
        sim.spawn(not_a_generator())


def test_processes_interleave_deterministically():
    sim = Simulator()
    log = []

    def worker(name, delay):
        yield Timeout(delay)
        log.append((sim.now, name))
        yield Timeout(delay)
        log.append((sim.now, name))

    sim.spawn(worker("a", 1.0), name="a")
    sim.spawn(worker("b", 1.5), name="b")
    sim.run()
    assert log == [(1.0, "a"), (1.5, "b"), (2.0, "a"), (3.0, "b")]


def test_simultaneous_events_fire_in_spawn_order():
    sim = Simulator()
    log = []

    def worker(name):
        yield Timeout(1.0)
        log.append(name)

    for name in ["first", "second", "third"]:
        sim.spawn(worker(name), name=name)
    sim.run()
    assert log == ["first", "second", "third"]


def test_wait_on_completion_receives_value():
    sim = Simulator()
    comp = sim.completion("door")

    def opener():
        yield Timeout(2.0)
        comp.succeed("opened")

    def waiter():
        value = yield comp
        return (sim.now, value)

    sim.spawn(opener(), name="opener")
    result = sim.run_process(waiter(), name="waiter")
    assert result == (2.0, "opened")


def test_wait_on_already_settled_completion():
    sim = Simulator()
    comp = sim.completion()
    comp.succeed(7)

    def waiter():
        value = yield comp
        return value

    assert sim.run_process(waiter()) == 7


def test_completion_failure_is_thrown_into_waiter():
    sim = Simulator()
    comp = sim.completion()

    class Boom(Exception):
        pass

    def failer():
        yield Timeout(1.0)
        comp.fail(Boom("bang"))

    def waiter():
        try:
            yield comp
        except Boom:
            return "caught"
        return "not caught"

    sim.spawn(failer(), name="failer")
    assert sim.run_process(waiter()) == "caught"


def test_completion_cannot_settle_twice():
    sim = Simulator()
    comp = sim.completion()
    comp.succeed(1)
    with pytest.raises(SimulationError):
        comp.succeed(2)
    with pytest.raises(SimulationError):
        comp.fail(ValueError("late"))


def test_completion_value_while_pending_raises():
    sim = Simulator()
    comp = sim.completion("pending")
    with pytest.raises(SimulationError):
        _ = comp.value


def test_fail_requires_exception_instance():
    sim = Simulator()
    comp = sim.completion()
    with pytest.raises(TypeError):
        comp.fail("not an exception")


def test_all_of_waits_for_everything():
    sim = Simulator()
    comps = [sim.completion(str(i)) for i in range(3)]

    def settler(i, delay):
        yield Timeout(delay)
        comps[i].succeed(i * 10)

    def waiter():
        values = yield AllOf(comps)
        return (sim.now, values)

    sim.spawn(settler(0, 3.0), name="s0")
    sim.spawn(settler(1, 1.0), name="s1")
    sim.spawn(settler(2, 2.0), name="s2")
    when, values = sim.run_process(waiter())
    assert when == 3.0
    assert values == [0, 10, 20]  # input order, not settle order


def test_all_of_empty_resumes_immediately():
    sim = Simulator()

    def waiter():
        values = yield AllOf([])
        return values

    assert sim.run_process(waiter()) == []


def test_any_of_returns_first_settler():
    sim = Simulator()
    comps = [sim.completion(str(i)) for i in range(3)]

    def settler(i, delay):
        yield Timeout(delay)
        comps[i].succeed("v%d" % i)

    def waiter():
        index, value = yield AnyOf(comps)
        return (sim.now, index, value)

    sim.spawn(settler(0, 3.0), name="s0")
    sim.spawn(settler(1, 1.0), name="s1")
    sim.spawn(settler(2, 2.0), name="s2")
    assert sim.run_process(waiter()) == (1.0, 1, "v1")


def test_any_of_empty_rejected():
    sim = Simulator()
    with pytest.raises(SimulationError):
        AnyOf([])


def test_deadlock_detection_names_blocked_process():
    sim = Simulator()
    comp = sim.completion("never")

    def stuck():
        yield comp

    sim.spawn(stuck(), name="stuck-proc")
    with pytest.raises(DeadlockError) as err:
        sim.run()
    assert any("stuck-proc" in b for b in err.value.blocked)


def test_daemon_processes_do_not_deadlock():
    sim = Simulator()
    comp = sim.completion("never")

    def server():
        yield comp

    def client():
        yield Timeout(1.0)
        return "done"

    sim.spawn(server(), name="server", daemon=True)
    assert sim.run_process(client()) == "done"


def test_run_until_stops_early():
    sim = Simulator()

    def body():
        yield Timeout(10.0)

    sim.spawn(body(), name="long")
    final = sim.run(until=3.0)
    assert final == 3.0
    assert sim.live_processes  # still pending


def test_yield_from_composes_subactivities():
    sim = Simulator()

    def sub(duration):
        yield Timeout(duration)
        return duration * 2

    def body():
        a = yield from sub(1.0)
        b = yield from sub(2.0)
        return a + b

    assert sim.run_process(body()) == 6.0
    assert sim.now == 3.0


def test_yielding_garbage_fails_the_process():
    sim = Simulator()

    def body():
        yield "nonsense"

    proc = sim.spawn(body(), name="bad")
    sim.run()
    assert isinstance(proc.completion.exception, ProcessError)


def test_process_body_exception_fails_completion():
    sim = Simulator()

    def body():
        yield Timeout(1.0)
        raise ValueError("inside")

    proc = sim.spawn(body(), name="raiser")
    sim.run()
    assert isinstance(proc.completion.exception, ValueError)


def test_joining_another_process():
    sim = Simulator()

    def child():
        yield Timeout(5.0)
        return "child-result"

    def parent():
        proc = sim.spawn(child(), name="child")
        value = yield proc.completion
        return (sim.now, value)

    assert sim.run_process(parent()) == (5.0, "child-result")


def test_interrupt_throws_into_process():
    sim = Simulator()
    comp = sim.completion("never")

    def body():
        try:
            yield comp
        except ProcessError:
            return "interrupted"

    def killer(proc):
        yield Timeout(1.0)
        proc.interrupt()

    proc = sim.spawn(body(), name="victim")
    sim.spawn(killer(proc), name="killer")
    sim.run()
    assert proc.completion.value == "interrupted"


def test_schedule_into_past_rejected():
    sim = Simulator()
    with pytest.raises(SimTimeError):
        sim.schedule(-0.1, lambda: None)


def test_events_executed_is_deterministic():
    def build_and_run():
        sim = Simulator(seed=7)

        def worker(n):
            for _ in range(n):
                yield Timeout(0.1)

        for i in range(5):
            sim.spawn(worker(i + 1), name="w%d" % i)
        sim.run()
        return sim.events_executed, sim.now

    assert build_and_run() == build_and_run()


def test_pending_events_and_is_idle():
    sim = Simulator()
    assert sim.is_idle
    assert sim.pending_events == 0

    def body():
        yield Timeout(1.0)
        yield Timeout(1.0)

    sim.spawn(body())
    assert sim.pending_events == 1  # the spawn's first step
    assert not sim.is_idle
    sim.run()
    assert sim.is_idle
    assert sim.pending_events == 0


def test_run_until_leaves_pending_events_queryable():
    sim = Simulator()
    log = []

    def body():
        yield Timeout(1.0)
        log.append("early")
        yield Timeout(9.0)
        log.append("late")
        return sim.now

    proc = sim.spawn(body(), name="two-phase")
    assert sim.run(until=5.0) == 5.0
    assert sim.now == 5.0
    assert log == ["early"]
    assert sim.pending_events == 1  # the 10.0s resume is still queued
    assert not sim.is_idle
    assert proc.alive


def test_run_resumes_after_until_stop():
    sim = Simulator()

    def body():
        yield Timeout(1.0)
        yield Timeout(9.0)
        return sim.now

    proc = sim.spawn(body(), name="two-phase")
    sim.run(until=5.0)
    # A second run() picks the queued event back up and drains to the end.
    assert sim.run() == pytest.approx(10.0)
    assert sim.is_idle
    assert proc.completion.value == pytest.approx(10.0)


def test_run_fast_matches_run_exactly():
    def history(fast):
        sim = Simulator(seed=3)
        log = []

        def worker(n, dt):
            for i in range(n):
                yield Timeout(dt)
                log.append((sim.now, n, i))

        for i in range(4):
            sim.spawn(worker(i + 1, 0.5 + 0.25 * i), name="w%d" % i)
        end = sim.run_fast() if fast else sim.run()
        return log, end, sim.events_executed

    assert history(fast=True) == history(fast=False)


def test_run_fast_honors_until_and_resumes():
    sim = Simulator()

    def body():
        yield Timeout(1.0)
        yield Timeout(9.0)
        return sim.now

    proc = sim.spawn(body())
    assert sim.run_fast(until=5.0) == 5.0
    assert sim.pending_events == 1
    assert sim.run_fast() == pytest.approx(10.0)
    assert proc.completion.value == pytest.approx(10.0)


@pytest.mark.parametrize("loop", ["run", "run_fast", "observed"])
def test_until_in_the_past_is_refused_not_rewound(loop):
    def drain(sim, until):
        if loop == "run_fast":
            return sim.run_fast(until=until)
        return sim.run(until=until)

    def sleeper():
        yield 10.0
        yield 10.0

    with session() if loop == "observed" else contextlib.nullcontext():
        sim = Simulator()
        sim.spawn(sleeper(), name="sleeper")
        assert drain(sim, 15.0) == 15.0
        with pytest.raises(SimTimeError, match="before the current time"):
            drain(sim, 5.0)
        # Nothing moved: the clock, the pending 20.0 resume and the count.
        assert sim.now == 15.0
        assert sim.pending_events == 1
        executed = sim.events_executed
        assert drain(sim, 15.0) == 15.0  # the current instant is allowed
        assert sim.events_executed == executed
        assert drain(sim, None) == 20.0
        assert sim.is_idle


def test_run_fast_still_checks_warmup_window():
    sim = Simulator()
    # Schedule an event, advance time past it manually, then corrupt the
    # clock: the warm-up window must still catch backwards time.
    sim._queue.push(1.0, lambda: None, ())
    sim._now = 2.0
    with pytest.raises(SimTimeError):
        sim.run_fast(check_first=10)


def test_run_fast_skips_check_after_window():
    sim = Simulator()
    for i in range(5):
        sim._queue.push(float(i), lambda: None, ())
    sim._now = 100.0  # all events are "in the past"
    # check_first=0 disables the backwards-time check entirely: the loop
    # must dispatch anyway (and rewind now), demonstrating the check is
    # really gone from the hot path.
    assert sim.run_fast(check_first=0) == 4.0
    assert sim.events_executed == 5


def test_wall_time_rates_exposed_after_run():
    sim = Simulator()

    def body():
        for _ in range(100):
            yield Timeout(0.5)

    sim.spawn(body())
    assert sim.wall_seconds == 0.0
    assert sim.events_per_sec == 0.0
    assert sim.wall_time_per_sim_second == 0.0
    sim.run()
    assert sim.wall_seconds > 0.0
    assert sim.events_per_sec > 0.0
    assert sim.wall_time_per_sim_second > 0.0
    assert sim.events_per_sec == pytest.approx(
        sim.events_executed / sim.wall_seconds
    )
    assert sim.wall_time_per_sim_second == pytest.approx(
        sim.wall_seconds / sim.now
    )


def test_wall_time_accumulates_across_runs():
    sim = Simulator()

    def body():
        yield Timeout(1.0)
        yield Timeout(9.0)

    sim.spawn(body())
    sim.run_fast(until=5.0)
    first = sim.wall_seconds
    assert first > 0.0
    sim.run_fast()
    assert sim.wall_seconds > first


def test_events_per_sec_clamps_sub_resolution_wall_time():
    # Regression: a run whose events all dispatch inside one timer tick
    # (wall_seconds ~ 0) must report a large finite rate, not divide by
    # zero or pretend nothing ran.
    sim = Simulator()
    sim._events_executed = 1000
    sim._wall_seconds = 0.0
    assert sim.events_per_sec == pytest.approx(1000 / 1e-9)
    sim._wall_seconds = 2.0
    assert sim.events_per_sec == pytest.approx(500.0)


def test_events_per_sec_is_zero_before_any_dispatch():
    sim = Simulator()
    sim._wall_seconds = 0.5  # wall time without events stays a zero rate
    assert sim.events_per_sec == 0.0
