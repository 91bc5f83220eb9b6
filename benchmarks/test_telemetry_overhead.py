"""Tier-2 bench: disabled telemetry costs <= 2% on the DES hot loop.

The observability PR's contract: all tracepoints compile down to a
single ``STATE.collector is None`` branch (and the run loops pay it once
per ``run()`` call, not per event), so simulations with telemetry off
keep the fast-path numbers of the pre-telemetry simulator.

The guard drains an identical event storm through ``run()`` (the
shipped loop, telemetry disabled) and through an inline replica of the
pre-telemetry hot loop, interleaved min-of-N to shed scheduler noise,
and fails if the shipped loop is more than 2% slower (plus a small
absolute epsilon so sub-millisecond jitter cannot fail the build on its
own).
"""

import gc
from heapq import heappop
from time import perf_counter

import pytest

from repro.des.simulator import Simulator
from repro.obs.tracepoints import enabled

pytestmark = pytest.mark.slow

N_EVENTS = 200_000
REPEATS = 9
MAX_OVERHEAD = 0.02
EPSILON_SECONDS = 2e-3


def _nop():
    pass


def _storm(n=N_EVENTS):
    """A simulator with ``n`` trivial events queued directly (no processes)."""
    sim = Simulator()
    push = sim._queue.push
    for i in range(n):
        push(i * 1e-6, _nop, ())
    return sim


def _baseline_drain(sim, until=None):
    """Inline replica of the telemetry-free ``run`` batch drain.

    Identical to the shipped loop minus the ``STATE.collector`` check,
    the ``until`` range check and wall-clock accounting — i.e. exactly
    the costs the telemetry layer is allowed to add.  The per-batch
    ``try/except`` stays: it is the kernel's exception-resumability
    contract, not telemetry.  A drained bucket is retired inline, as the
    shipped loop does.
    """
    queue = sim._queue
    times = queue._times
    buckets = queue._buckets
    executed = 0
    while times:
        t = times[0]
        if until is not None and t > until:
            sim._now = until
            return until
        if t < sim._now:
            raise AssertionError("backwards time")
        sim._now = t
        bucket = buckets[t]
        start = i = bucket[0]
        try:
            while i < len(bucket):
                callback = bucket[i]
                args = bucket[i + 1]
                i += 2
                callback(*args)
        except BaseException:
            executed += (i - start) >> 1
            queue.release_bucket(t, bucket, i)
            raise
        n = (i - start) >> 1
        executed += n
        queue._len -= n
        heappop(times)
        del buckets[t]
    sim._events_executed += executed
    return sim._now


def _time(fn):
    sim = _storm()
    gc.collect()
    gc.disable()
    try:
        t0 = perf_counter()
        fn(sim)
        elapsed = perf_counter() - t0
    finally:
        gc.enable()
    assert sim.events_executed == N_EVENTS
    return elapsed


def test_disabled_telemetry_overhead_within_two_percent():
    assert not enabled(), "telemetry must be off for the overhead guard"
    shipped, baseline = [], []
    for _ in range(REPEATS):
        # Interleave so clock drift and cache state hit both loops alike.
        shipped.append(_time(Simulator.run))
        baseline.append(_time(_baseline_drain))
    best_shipped, best_baseline = min(shipped), min(baseline)
    overhead = best_shipped / best_baseline - 1.0
    print(
        "\ntelemetry-off overhead: shipped %.4fs vs baseline %.4fs "
        "(%+.2f%%, %d events, min of %d)"
        % (best_shipped, best_baseline, overhead * 100, N_EVENTS, REPEATS)
    )
    assert best_shipped <= best_baseline * (1.0 + MAX_OVERHEAD) + EPSILON_SECONDS, (
        "telemetry-disabled run is %.2f%% slower than the pre-telemetry "
        "loop (budget: %.0f%%)" % (overhead * 100, MAX_OVERHEAD * 100)
    )


def test_wall_time_rates_come_for_free():
    """The satellite counters the loops now maintain are populated..."""
    sim = _storm(10_000)
    sim.run()
    assert sim.wall_seconds > 0
    assert sim.events_per_sec > 0
    assert sim.wall_time_per_sim_second > 0
