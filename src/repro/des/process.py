"""Generator-coroutine simulated processes.

A process body is a plain Python generator.  It makes progress by yielding
commands to the kernel:

``yield dt`` (a bare ``float`` or ``int``)
    suspend for ``dt`` simulated seconds — the no-allocation fast path
    the simulated OS/FS/MPI layers use on their hot paths (no
    :class:`~repro.des.events.Timeout` object, no argument-tuple
    allocation);
``yield Timeout(dt)``
    the same, carrying an optional resume value;
``yield completion``
    suspend until the :class:`~repro.des.events.Completion` settles; the
    yield expression evaluates to its value (or raises its failure).  A
    completion that has *already succeeded* does not suspend at all: the
    body continues in the same dispatch with its value, exactly as if it
    had never yielded (see :meth:`Process._resume_send`);
``yield AllOf([...])`` / ``yield AnyOf([...])``
    composite waits.

Sub-activities compose with ``yield from``, so a simulated syscall is just
a generator the caller delegates to.  The generator's ``return`` value
becomes the success value of :attr:`Process.completion`, letting processes
wait on each other like threads being joined.
"""

from __future__ import annotations

from heapq import heappush
from typing import Any, Generator, Optional

from repro.des.events import AllOf, AnyOf, Completion, Timeout, _PENDING
from repro.errors import ProcessError

__all__ = ["Process"]

#: Shared resume-args tuple for valueless timeouts (bare-number yields):
#: every such resume sends None, so one tuple serves them all.
_RESUME_NONE = (None,)


class Process:
    """A running simulated activity driven by the kernel.

    Not instantiated directly — use :meth:`repro.des.simulator.Simulator.spawn`.

    Resume rule: a yielded command that must wait (a timeout, a pending or
    failed completion, a composite wait) suspends the body and costs one
    kernel event when it resumes.  A yielded completion that has already
    succeeded does not: the body continues in the same dispatch, before
    any other event queued for the current instant, just as if the value
    had been returned by a call.  ``if not r.try_acquire(): yield
    r.acquire()`` (see :class:`~repro.des.resources.Resource`) is the
    allocation-free spelling of the same thing.

    Attributes
    ----------
    name:
        Diagnostic name, used in deadlock reports.
    daemon:
        Daemon processes (server loops) are allowed to be abandoned when the
        simulation ends and do not count toward deadlock detection.
    completion:
        Settles with the generator's return value when the process finishes,
        or with its exception if the body raises.
    """

    __slots__ = ("_sim", "_gen", "name", "daemon", "completion", "_waiting_on")

    def __init__(
        self,
        sim: Any,
        gen: Generator[Any, Any, Any],
        name: str = "process",
        daemon: bool = False,
    ):
        if not hasattr(gen, "send") or not hasattr(gen, "throw"):
            raise ProcessError(
                "process body must be a generator, got %r — did you forget a "
                "yield, or pass the function instead of calling it?" % (gen,)
            )
        self._sim = sim
        self._gen = gen
        self.name = name
        self.daemon = daemon
        self.completion = Completion(sim, name="proc:%s" % name)
        # Raw blocking command (Timeout/Completion), a pre-formatted string
        # for composite waits, or None when runnable.
        self._waiting_on: Any = None

    # -- state ------------------------------------------------------------

    @property
    def alive(self) -> bool:
        """True while the body has not yet returned or raised."""
        return not self.completion.done

    @property
    def waiting_on(self) -> Optional[str]:
        """Human-readable description of the current blocking command.

        Formatted lazily: the hot resume path stores the raw command and
        this property renders it only when a deadlock report (or a curious
        test) actually asks.
        """
        w = self._waiting_on
        if w is None or type(w) is str:
            return w
        if isinstance(w, (float, int)):
            return "timeout(%g)" % w
        if isinstance(w, Timeout):
            return "timeout(%g)" % w.delay
        if isinstance(w, Completion):
            return "completion(%s)" % (w.name or "?")
        return repr(w)  # pragma: no cover - no other command is stored raw

    # -- kernel driving ---------------------------------------------------

    def _start(self) -> None:
        sim = self._sim
        sim._queue.push(sim._now, self._resume_send, (None,))

    def _resume_send(self, value: Any) -> None:
        """Resume the generator with ``value`` from the settled command.

        The one resume path for an already-succeeded completion: while the
        body yields completions that have succeeded (a free resource's
        grant, a pre-filled store's item), their values are sent straight
        back in this same dispatch.  It is a loop, not recursion, so a body
        draining thousands of ready items never deepens the Python stack.

        The two commands that dominate every simulation are handled
        inline: a non-negative bare-number sleep is appended to its
        calendar bucket (an inline :meth:`EventQueue.push`), and a pending
        exact :class:`Completion` gets :meth:`_on_completion` appended to
        its callbacks.  Everything else — failed completions, ``Timeout``
        objects, composite waits, negative sleeps, subclasses — goes
        through :meth:`_handle`, exactly as before.

        The bound method is built afresh for each wait, never cached on
        the instance: ``self._resume = self._resume_send`` would make
        every process a reference cycle, and the cyclic collector's extra
        passes cost more than the attribute lookup saves.
        """
        # Inline of ``not self.alive`` (cancelled/interrupted after
        # scheduling): this runs once per kernel event, so the two
        # property descriptor hops are worth skipping.
        completion = self.completion
        if completion._value is not _PENDING or completion._exception is not None:
            return
        send = self._gen.send
        while True:
            try:
                command = send(value)
            except StopIteration as stop:
                self._finish_ok(stop.value)
                return
            except BaseException as exc:
                self._finish_fail(exc)
                return
            cls = command.__class__
            if cls is float or cls is int:
                if command >= 0:
                    # Bare-number sleep: the shared ``_RESUME_NONE`` tuple
                    # carries the None resume value.
                    self._waiting_on = command
                    sim = self._sim
                    time = sim._now + command
                    queue = sim._queue
                    bucket = queue._buckets.get(time)
                    if bucket is None:
                        heappush(queue._times, time)
                        queue._buckets[time] = [1, self._resume_send, _RESUME_NONE]
                    else:
                        bucket.append(self._resume_send)
                        bucket.append(_RESUME_NONE)
                    queue._len += 1
                    return
            elif cls is Completion:
                # ``_value`` is set only by succeed(): a failed completion
                # keeps it pending and is thrown in through the queue.
                if command._value is not _PENDING:
                    value = command._value
                    continue
                if command._exception is None:
                    self._waiting_on = command
                    command._callbacks.append(self._on_completion)
                    return
            elif isinstance(command, Completion) and command._value is not _PENDING:
                value = command._value
                continue
            self._handle(command)
            return

    def _resume_throw(self, exc: BaseException) -> None:
        """Resume the generator by throwing ``exc`` at the yield point."""
        completion = self.completion
        if completion._value is not _PENDING or completion._exception is not None:
            return
        try:
            command = self._gen.throw(exc)
        except StopIteration as stop:
            self._finish_ok(stop.value)
            return
        except BaseException as raised:
            self._finish_fail(raised)
            return
        if isinstance(command, Completion) and command._value is not _PENDING:
            self._resume_send(command._value)
        else:
            self._handle(command)

    def _handle(self, command: Any) -> None:
        """Arrange for the process to be resumed when ``command`` settles."""
        # The general path: ``_resume_send`` handles non-negative numbers
        # and pending completions inline and sends everything else here;
        # ``_resume_throw`` sends every command here.
        # The raw command is stored instead of a formatted description
        # (see ``waiting_on``), and a validated Timeout goes straight onto
        # the queue — its delay was range-checked at construction, so the
        # ``schedule()`` wrapper's re-check is redundant.  Exact-type tests
        # keep subclasses on the general isinstance path below.
        cls = command.__class__
        if cls is float or cls is int:
            # Bare-number sleep: no Timeout object, no args tuple — the
            # shared ``_RESUME_NONE`` singleton carries the None resume
            # value for every valueless timeout in the system.
            if command >= 0:
                self._waiting_on = command
                sim = self._sim
                sim._queue.push(sim._now + command, self._resume_send, _RESUME_NONE)
            else:
                exc = ProcessError(
                    "process %r yielded negative sleep %r" % (self.name, command)
                )
                self._sim.schedule(0.0, self._resume_throw, exc)
        elif cls is Timeout:
            self._waiting_on = command
            sim = self._sim
            sim._queue.push(sim._now + command.delay, self._resume_send, (command.value,))
        elif cls is Completion:
            self._waiting_on = command
            command.add_callback(self._on_completion)
        elif isinstance(command, Timeout):
            self._waiting_on = command
            self._sim.schedule(command.delay, self._resume_send, command.value)
        elif isinstance(command, Completion):
            self._waiting_on = command
            command.add_callback(self._on_completion)
        elif isinstance(command, AllOf):
            self._wait_all(command)
        elif isinstance(command, AnyOf):
            self._wait_any(command)
        else:
            exc = ProcessError(
                "process %r yielded unsupported command %r" % (self.name, command)
            )
            # Surface the bug inside the process so its completion fails too.
            self._sim.schedule(0.0, self._resume_throw, exc)

    def _on_completion(self, completion: Completion) -> None:
        if completion._exception is not None:
            self._resume_throw(completion._exception)
        else:
            self._resume_send(completion._value)

    def _wait_all(self, command: AllOf) -> None:
        self._waiting_on = "all_of(%d)" % len(command.completions)
        remaining = [len(command.completions)]
        failed = [False]
        if remaining[0] == 0:
            self._sim.schedule(0.0, self._resume_send, [])
            return

        def on_one(completion: Completion) -> None:
            if failed[0] or not self.alive:
                return
            if completion.exception is not None:
                failed[0] = True
                self._resume_throw(completion.exception)
                return
            remaining[0] -= 1
            if remaining[0] == 0:
                self._resume_send([c._value for c in command.completions])

        for c in command.completions:
            c.add_callback(on_one)

    def _wait_any(self, command: AnyOf) -> None:
        self._waiting_on = "any_of(%d)" % len(command.completions)
        settled = [False]

        def on_one(index: int, completion: Completion) -> None:
            if settled[0] or not self.alive:
                return
            settled[0] = True
            if completion.exception is not None:
                self._resume_throw(completion.exception)
            else:
                self._resume_send((index, completion._value))

        for i, c in enumerate(command.completions):
            c.add_callback(lambda comp, i=i: on_one(i, comp))

    # -- termination ------------------------------------------------------

    def _finish_ok(self, value: Any) -> None:
        self._waiting_on = None
        self._sim._process_finished(self)
        self.completion.succeed(value)

    def _finish_fail(self, exc: BaseException) -> None:
        self._waiting_on = None
        self._sim._process_finished(self)
        self.completion.fail(exc)

    def interrupt(self, exc: Optional[BaseException] = None) -> None:
        """Throw ``exc`` (default :class:`ProcessError`) into the process."""
        if exc is None:
            exc = ProcessError("process %r interrupted" % self.name)
        self._sim.schedule(0.0, self._resume_throw, exc)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "alive" if self.alive else "finished"
        return "<Process %s %s>" % (self.name, state)
