"""Contention primitives: FIFO resources and message stores.

:class:`Resource` models a service point with fixed concurrency (a disk, a
file server, a network link's token): processes acquire, hold for however
long their service takes, and release.  FIFO ordering keeps simulations
deterministic and fair, matching the queueing behaviour of real I/O stacks
closely enough for the paper's overhead phenomena.

:class:`Store` is an unbounded FIFO channel used for message passing (MPI
point-to-point delivery, RPC request queues).
"""

from __future__ import annotations

from collections import deque
from typing import Any, Generator, Optional

from repro.des.events import Completion
from repro.errors import SimulationError

__all__ = ["Resource", "Store"]


class Resource:
    """A FIFO server pool with ``capacity`` concurrent slots.

    Typical use inside a process body::

        if not res.try_acquire():
            yield res.acquire()
        try:
            yield service_time
        finally:
            res.release()

    or equivalently ``yield from res.serve(service_time)``.  A plain
    ``yield res.acquire()`` has the same history: a free slot's completion
    has already succeeded when it is yielded, and the kernel continues the
    process in the same dispatch.  :meth:`try_acquire` only skips the
    :class:`~repro.des.events.Completion` and the resume.
    """

    def __init__(self, sim: Any, capacity: int = 1, name: str = "resource"):
        if capacity < 1:
            raise SimulationError("resource capacity must be >= 1")
        self._sim = sim
        self.capacity = capacity
        self.name = name
        # Formatted once: acquire() runs per simulated I/O, and a per-call
        # "%s" format shows up in profiles.
        self._acquire_name = "acquire:%s" % name
        self._in_use = 0
        self._waiters: deque[Completion] = deque()
        # Cumulative busy time integral, for utilization reporting.
        self._busy_time = 0.0
        self._last_change = 0.0
        self._total_acquires = 0

    # -- acquisition --------------------------------------------------------

    def try_acquire(self) -> bool:
        """Take a free slot now and return True, or return False if all
        ``capacity`` slots are held.

        The accounting is :meth:`acquire`'s (busy-time integral,
        ``total_acquires``), minus the :class:`~repro.des.events.Completion`.
        A free slot implies no waiters (:meth:`release` hands a slot
        straight to the oldest one), so this never jumps the FIFO queue.
        """
        in_use = self._in_use
        if in_use < self.capacity:
            now = self._sim._now
            self._busy_time += in_use * (now - self._last_change)
            self._last_change = now
            self._in_use = in_use + 1
            self._total_acquires += 1
            return True
        return False

    def acquire(self) -> Completion:
        """Return a completion that settles when a slot is granted."""
        comp = Completion(self._sim, name=self._acquire_name)
        if self.try_acquire():
            comp.succeed(self)
        else:
            self._waiters.append(comp)
        return comp

    def release(self) -> None:
        """Give back one slot; the oldest waiter (if any) is granted next."""
        in_use = self._in_use
        if in_use <= 0:
            raise SimulationError("release of %r with no slot held" % self.name)
        now = self._sim._now
        self._busy_time += in_use * (now - self._last_change)
        self._last_change = now
        if self._waiters:
            # The slot passes straight to the oldest waiter: in_use is
            # unchanged, and the grant happens at the same instant.
            self._total_acquires += 1
            self._waiters.popleft().succeed(self)
        else:
            self._in_use = in_use - 1

    def serve(self, service_time: float) -> Generator[Any, Any, None]:
        """Sub-activity: acquire, hold for ``service_time``, release.

        Use with ``yield from``.
        """
        if not self.try_acquire():
            yield self.acquire()
        try:
            yield service_time
        finally:
            self.release()

    # -- introspection --------------------------------------------------------

    @property
    def in_use(self) -> int:
        return self._in_use

    @property
    def queue_length(self) -> int:
        return len(self._waiters)

    @property
    def total_acquires(self) -> int:
        return self._total_acquires

    def utilization(self) -> float:
        """Mean busy fraction over [0, now] (0 if no time has passed)."""
        now = self._sim._now
        self._busy_time += self._in_use * (now - self._last_change)
        self._last_change = now
        if now <= 0:
            return 0.0
        return self._busy_time / (now * self.capacity)


class Store:
    """Unbounded FIFO channel of items between processes.

    ``put`` never blocks; ``get`` returns a completion settling when an item
    is available.  Items are delivered in put order; pending getters are
    served in get order.
    """

    def __init__(self, sim: Any, name: str = "store"):
        self._sim = sim
        self.name = name
        self._get_name = "get:%s" % name
        self._items: deque[Any] = deque()
        self._getters: deque[Completion] = deque()

    def put(self, item: Any) -> None:
        """Deposit an item, waking the oldest pending getter if any."""
        if self._getters:
            self._getters.popleft().succeed(item)
        else:
            self._items.append(item)

    def get(self) -> Completion:
        """Return a completion that settles with the next item."""
        comp = Completion(self._sim, name=self._get_name)
        if self._items:
            comp.succeed(self._items.popleft())
        else:
            self._getters.append(comp)
        return comp

    def try_get(self) -> Optional[Any]:
        """Non-blocking get: the next item, or None if empty."""
        if self._items:
            return self._items.popleft()
        return None

    def __len__(self) -> int:
        return len(self._items)
