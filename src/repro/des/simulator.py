"""The simulation run loop.

A :class:`Simulator` owns virtual time (seconds, starting at 0.0), the
event queue, and the set of live processes.  ``run()`` drains the queue;
if it drains while non-daemon processes are still blocked, that is a
deadlock in the simulated system and raises
:class:`~repro.errors.DeadlockError` with the culprits' names, every
blocked process's wait reason, and (when telemetry is on) the last
dispatched events — silent hangs are the worst failure mode of a
simulated cluster, so they are loud here.

:meth:`Simulator.run` drains the calendar-bucket queue
(:mod:`repro.des.queue`) one same-timestamp **batch** at a time: the
heap is touched once per distinct simulated instant, and every event
sharing that instant dispatches from a flat list — zero-delay cascades
(completion settling, process starts) never re-enter heap discipline.
Each batch is checked once against backwards time travel, one
comparison per distinct instant.  Batching changes per-event overhead,
never history: the events dispatched, their order and the
``events_executed`` fingerprint are those of a one-event-at-a-time drain.

An event is a resume a process actually waited for.  A process that
yields a completion which has already succeeded continues inside the
dispatch that is running it (:class:`~repro.des.process.Process`), so a
free resource's grant or a ready store item costs no event; this makes
``events_executed`` lower than in kernels that re-queued such a process,
for the same simulated history.

When a telemetry session (:mod:`repro.obs.tracepoints`) is active,
``run()`` routes to a second loop, :meth:`Simulator._run_observed`,
which dispatches one event at a time and additionally feeds the
dispatched-event ring buffer and samples queue depth.  The selection
happens once per ``run()`` call, so the disabled-telemetry hot loop is
byte-for-byte the uninstrumented one — telemetry off costs nothing per
event.

Both loops also accumulate host wall-clock time, exposed as
:attr:`Simulator.wall_seconds`, :attr:`Simulator.events_per_sec` and
:attr:`Simulator.wall_time_per_sim_second` so benchmarks stop re-deriving
those rates ad hoc.  (Wall time is *host* time: it never feeds telemetry
snapshots, which must stay deterministic.)
"""

from __future__ import annotations

from heapq import heappop
from time import perf_counter
from typing import Any, Callable, Generator, Optional

from repro.des.events import Completion, Timeout
from repro.des.process import Process
from repro.des.queue import EventQueue
from repro.des.rand import RandomStreams
from repro.errors import DeadlockError, SimTimeError
from repro.obs.tracepoints import STATE as _TELEMETRY

__all__ = ["Simulator"]


class Simulator:
    """Deterministic discrete-event simulator.

    Parameters
    ----------
    seed:
        Root seed for all randomness (see :class:`~repro.des.rand.RandomStreams`).
        Two simulators with the same seed and the same spawn sequence produce
        identical histories.

    Every run loop dispatches the same events in the same order: timer
    expiries, settles of completions a process was already waiting on,
    failures thrown into processes, and process starts.  Yielding a
    completion that has already succeeded is not among them — the process
    continues in the current dispatch.
    """

    __slots__ = (
        "_now",
        "_queue",
        "_live",
        "random",
        "seed",
        "_events_executed",
        "_wall_seconds",
        "fault_plane",
    )

    def __init__(self, seed: int = 0):
        self._now = 0.0
        self._queue = EventQueue()
        self._live: dict[int, Process] = {}
        self.random = RandomStreams(seed)
        self.seed = seed
        self._events_executed = 0
        self._wall_seconds = 0.0
        # Set by repro.faults.plane.FaultPlane.install(); subsystems consult
        # it with getattr(sim, "fault_plane", None)-style gates so a plain
        # simulator pays nothing for the fault plane's existence.
        self.fault_plane = None

    # -- time & scheduling --------------------------------------------------

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    @property
    def events_executed(self) -> int:
        """Total kernel events dispatched so far (a determinism fingerprint)."""
        return self._events_executed

    @property
    def pending_events(self) -> int:
        """Number of scheduled events not yet dispatched."""
        return len(self._queue)

    @property
    def is_idle(self) -> bool:
        """True when no events remain to dispatch (a ``run()`` would return
        immediately, or raise if non-daemon processes are still blocked)."""
        return not self._queue

    # -- host-time rates ------------------------------------------------------

    @property
    def wall_seconds(self) -> float:
        """Cumulative host wall-clock spent inside this simulator's run loops."""
        return self._wall_seconds

    @property
    def events_per_sec(self) -> float:
        """Dispatch rate: kernel events per host second (0 before any run).

        The denominator is clamped at 1 ns: a sub-resolution run (events
        dispatched, but ``perf_counter`` advanced by ~0 on a coarse
        timer) reports a large finite rate rather than dividing by zero
        or collapsing to 0.0 as if nothing ran.  The rate compares kernel
        speed only between kernels with the same dispatch rules: when a
        change removes events (as 1.1.0's ready-completion rule did), it
        can fall while the run gets faster — compare :attr:`wall_seconds`.
        """
        if self._events_executed <= 0:
            return 0.0
        return self._events_executed / max(self._wall_seconds, 1e-9)

    @property
    def wall_time_per_sim_second(self) -> float:
        """Host seconds burned per simulated second (0 before time advances)."""
        if self._now <= 0:
            return 0.0
        return self._wall_seconds / self._now

    def schedule(self, delay: float, callback: Callable[..., None], *args: Any) -> None:
        """Run ``callback(*args)`` after ``delay`` simulated seconds."""
        if delay < 0:
            raise SimTimeError("cannot schedule into the past (delay=%r)" % delay)
        self._queue.push(self._now + delay, callback, args)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Convenience constructor for the Timeout command."""
        return Timeout(delay, value)

    def completion(self, name: str = "") -> Completion:
        """Create a pending completion bound to this simulator."""
        return Completion(self, name=name)

    # -- processes ------------------------------------------------------------

    def spawn(
        self,
        gen: Generator[Any, Any, Any],
        name: str = "process",
        daemon: bool = False,
    ) -> Process:
        """Start a new simulated process from generator ``gen``.

        The process takes its first step at the current simulated instant
        (not synchronously inside this call).
        """
        proc = Process(self, gen, name=name, daemon=daemon)
        self._live[id(proc)] = proc
        proc._start()
        return proc

    def _process_finished(self, proc: Process) -> None:
        self._live.pop(id(proc), None)

    @property
    def live_processes(self) -> list[Process]:
        """Processes that have been spawned and not yet finished."""
        return list(self._live.values())

    # -- run loop -------------------------------------------------------------

    def _raise_if_deadlocked(self) -> None:
        """Queue is drained: blocked non-daemon processes mean a deadlock."""
        if any(not p.daemon for p in self._live.values()):
            culprits = [
                "%s (waiting on %s)" % (p.name, p.waiting_on or "nothing?")
                for p in self._live.values()
                if not p.daemon
            ]
            wait_reasons = [
                "%s%s (waiting on %s)"
                % (p.name, " [daemon]" if p.daemon else "", p.waiting_on or "nothing?")
                for p in self._live.values()
            ]
            col = _TELEMETRY.collector
            recent = col.format_ring() if col is not None else None
            raise DeadlockError(
                culprits, wait_reasons=wait_reasons, recent_events=recent
            )

    def _check_until(self, until: Optional[float]) -> None:
        """A horizon before the current instant would rewind the clock."""
        if until is not None and until < self._now:
            raise SimTimeError(
                "run(until=%r) is before the current time %r" % (until, self._now)
            )

    def run(self, until: Optional[float] = None) -> float:
        """Execute events until the queue drains (or simulated ``until``).

        Returns the final simulated time.  Raises
        :class:`~repro.errors.DeadlockError` if the queue drains while
        non-daemon processes remain blocked, and
        :class:`~repro.errors.SimTimeError` if ``until`` lies before the
        current time.  Stopping at ``until`` leaves later events queued
        (see :attr:`pending_events`); a subsequent ``run()`` resumes from
        them.
        """
        self._check_until(until)
        col = _TELEMETRY.collector
        if col is not None:
            return self._run_observed(until, col)
        # Hot loop: the queue's time heap and bucket table are hoisted to
        # locals, and each distinct timestamp is drained as one batch.
        queue = self._queue
        times = queue._times
        buckets = queue._buckets
        executed = 0
        t0_wall = perf_counter()
        try:
            while times:
                t = times[0]
                if until is not None and t > until:
                    self._now = until
                    return until
                if t < self._now:
                    raise SimTimeError(
                        "event queue went backwards: %r < %r" % (t, self._now)
                    )
                self._now = t
                bucket = buckets[t]
                start = i = bucket[0]
                try:
                    # Callbacks may append same-time events to the live
                    # bucket; re-reading len() each step drains them too.
                    # Buckets are flat [cursor, cb, args, cb, args, ...],
                    # so the events dispatched are the cursor's advance / 2.
                    while i < len(bucket):
                        callback = bucket[i]
                        args = bucket[i + 1]
                        i += 2
                        callback(*args)
                except BaseException:
                    # Persist partial progress so a later run() resumes.
                    executed += (i - start) >> 1
                    queue.release_bucket(t, bucket, i)
                    raise
                # Drained: retire the bucket inline (what release_bucket
                # does for a full drain, without the call).
                n = (i - start) >> 1
                executed += n
                queue._len -= n
                heappop(times)
                del buckets[t]
        finally:
            self._events_executed += executed
            self._wall_seconds += perf_counter() - t0_wall
        self._raise_if_deadlocked()
        return self._now

    def _run_observed(self, until: Optional[float], col: Any) -> float:
        """Instrumented drain used while a telemetry session is active.

        Dispatches the identical event history as :meth:`run` (the
        backwards-time check is kept on every event — observed runs trade
        speed for visibility), additionally feeding the collector's ring
        buffer and sampling queue depth.  Telemetry reads only simulated
        time, so its output is deterministic.
        """
        queue = self._queue
        pop = queue.pop
        peek_time = queue.peek_time
        ring = col.ring
        every = col.config.queue_sample_every
        executed = 0
        t0_wall = perf_counter()
        try:
            while queue._len:
                if until is not None and peek_time() > until:
                    self._now = until
                    return until
                t, callback, args = pop()
                if t < self._now:
                    raise SimTimeError(
                        "event queue went backwards: %r < %r" % (t, self._now)
                    )
                self._now = t
                executed += 1
                ring.append((t, callback, args))
                if executed % every == 0:
                    col.des_queue_depth(t, queue._len)
                callback(*args)
        finally:
            self._events_executed += executed
            self._wall_seconds += perf_counter() - t0_wall
            col.des_events(executed)
        self._raise_if_deadlocked()
        return self._now

    def run_process(self, gen: Generator[Any, Any, Any], name: str = "main") -> Any:
        """Spawn ``gen``, run to completion, and return its result.

        The common entry point for whole-simulation drivers: raises the
        process's exception if it failed.
        """
        proc = self.spawn(gen, name=name)
        self.run()
        return proc.completion.value
