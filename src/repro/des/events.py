"""Event primitives for the DES kernel.

A :class:`Completion` is a one-shot promise living inside a simulation: it
is created pending, succeeds (or fails) exactly once, and notifies
registered callbacks at the simulated instant it settles.  Processes wait on
completions by yielding them.

:class:`Timeout` is the command a process yields to advance its own virtual
time; :class:`AllOf`/:class:`AnyOf` compose completions.
"""

from __future__ import annotations

from heapq import heappush
from typing import Any, Callable, Iterable, Optional

from repro.errors import SimulationError

__all__ = ["Completion", "Timeout", "AllOf", "AnyOf"]

_PENDING = object()


class Completion:
    """A one-shot settled-exactly-once promise bound to a simulator.

    Callbacks registered via :meth:`add_callback` run at the simulated time
    the completion settles (scheduled through the simulator, never inline,
    so settle order is deterministic and re-entrancy-safe).

    A process that yields a completion which has *already succeeded*
    registers no callback: it continues in the same dispatch with the
    value (see :class:`~repro.des.process.Process`).  Only pending
    completions, and failed ones, which are thrown in through the queue,
    cost a kernel event.
    """

    __slots__ = ("_sim", "_value", "_exception", "_callbacks", "name")

    def __init__(self, sim: "Any", name: str = ""):
        self._sim = sim
        self._value: Any = _PENDING
        self._exception: Optional[BaseException] = None
        self._callbacks: list[Callable[[Completion], None]] = []
        self.name = name

    # -- state ------------------------------------------------------------

    @property
    def done(self) -> bool:
        """True once the completion has succeeded or failed."""
        return self._value is not _PENDING or self._exception is not None

    @property
    def ok(self) -> bool:
        """True if the completion succeeded (False while pending or failed)."""
        return self._value is not _PENDING and self._exception is None

    @property
    def value(self) -> Any:
        """The success value.  Raises if pending or failed."""
        if self._exception is not None:
            raise self._exception
        if self._value is _PENDING:
            raise SimulationError("completion %r is still pending" % (self.name,))
        return self._value

    @property
    def exception(self) -> Optional[BaseException]:
        """The failure exception, or None."""
        return self._exception

    # -- settling ---------------------------------------------------------

    def succeed(self, value: Any = None) -> "Completion":
        """Settle successfully with ``value`` and schedule callbacks now."""
        # Inline of ``self.done``: every resource grant and join settles here.
        if self._value is not _PENDING or self._exception is not None:
            raise SimulationError("completion %r already settled" % (self.name,))
        self._value = value
        if self._callbacks:
            self._dispatch()
        return self

    def fail(self, exception: BaseException) -> "Completion":
        """Settle with a failure; waiters have ``exception`` thrown into them."""
        if self.done:
            raise SimulationError("completion %r already settled" % (self.name,))
        if not isinstance(exception, BaseException):
            raise TypeError("fail() requires an exception instance")
        self._exception = exception
        self._dispatch()
        return self

    def _dispatch(self) -> None:
        # Direct append to the current instant's calendar bucket (an inline
        # EventQueue.push per waiter, in registration order): settling is
        # the kernel's hottest edge, and the zero delay needs no range
        # check.  Most settles (a free resource's grant, a ready store
        # item) have no waiter yet.
        if not self._callbacks:
            return
        callbacks, self._callbacks = self._callbacks, []
        sim = self._sim
        queue, now = sim._queue, sim._now
        bucket = queue._buckets.get(now)
        if bucket is None:
            heappush(queue._times, now)
            bucket = queue._buckets[now] = [1]
        args = (self,)
        for cb in callbacks:
            bucket.append(cb)
            bucket.append(args)
        queue._len += len(callbacks)

    # -- waiting ----------------------------------------------------------

    def add_callback(self, callback: Callable[["Completion"], None]) -> None:
        """Run ``callback(self)`` at the simulated time this settles.

        If already settled, the callback is scheduled at the current instant.
        """
        if self.done:
            self._sim.schedule(0.0, callback, self)
        else:
            self._callbacks.append(callback)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "pending"
        if self._exception is not None:
            state = "failed(%r)" % self._exception
        elif self._value is not _PENDING:
            state = "ok(%r)" % (self._value,)
        return "<Completion %s %s>" % (self.name or id(self), state)


class Timeout:
    """Command: suspend the yielding process for ``delay`` simulated seconds.

    ``value`` is what the process receives back when it resumes (defaults
    to None); useful for self-documenting waits.
    """

    __slots__ = ("delay", "value")

    def __init__(self, delay: float, value: Any = None):
        if delay < 0:
            raise SimulationError("negative timeout: %r" % (delay,))
        self.delay = float(delay)
        self.value = value

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return "Timeout(%g)" % self.delay


class AllOf:
    """Command: resume when *all* the given completions settle successfully.

    The process receives the list of values (in input order).  If any
    completion fails, the first failure (in settle order) is thrown into
    the waiting process.
    """

    __slots__ = ("completions",)

    def __init__(self, completions: Iterable[Completion]):
        self.completions = list(completions)
        for c in self.completions:
            if not isinstance(c, Completion):
                raise TypeError("AllOf requires Completions, got %r" % (c,))


class AnyOf:
    """Command: resume when *any* of the given completions settles.

    The process receives a ``(index, value)`` pair identifying the first
    completion to settle.  A failure of the first settler is propagated.
    """

    __slots__ = ("completions",)

    def __init__(self, completions: Iterable[Completion]):
        self.completions = list(completions)
        if not self.completions:
            raise SimulationError("AnyOf of zero completions would never settle")
        for c in self.completions:
            if not isinstance(c, Completion):
                raise TypeError("AnyOf requires Completions, got %r" % (c,))
