"""The simulator's time-ordered event queue (columnar calendar buckets).

The queue is a two-level calendar structure tuned for the dispatch
patterns a discrete-event simulation actually produces:

* ``_times`` — a :mod:`heapq` min-heap of **distinct** timestamps;
* ``_buckets`` — ``time -> bucket`` where a bucket is a flat list:
  slot 0 is the drain cursor and the rest are ``callback, args``
  alternating in insertion order (columnar pairs, no per-event tuple).

Simultaneous events therefore cost one heap operation *per distinct
timestamp* instead of one per event, and **zero allocations** per queued
event: the flat bucket layout appends the callback and its pre-built
args tuple as two list slots instead of wrapping them in a fresh pair
tuple.  Settling completions, zero-delay schedules, and process starts —
the kernel's hottest edges, which all fire "now" — append to an existing
bucket in O(1) and are drained as one batch by the simulator's run loop
without re-touching the heap.

Ordering is exactly the classic ``(time, sequence)`` discipline: the
heap orders distinct times, and FIFO buckets preserve global insertion
order within a time, so histories are byte-identical with the old
one-tuple-per-event heap.  An explicit sequence counter is no longer
needed; FIFO *is* the sequence.

The in-bucket cursor (slot 0) makes partial consumption safe: ``pop``
and the simulator's batch drain advance the cursor, callbacks may
append new same-time events to the live bucket mid-drain (they fire
after every event already queued at that time, exactly as a higher
sequence number used to), and an exception mid-batch leaves the queue
consistent for a subsequent ``run()``.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Callable, Dict, List, Tuple

__all__ = ["EventQueue"]


class EventQueue:
    """Calendar queue of scheduled callbacks ordered by (time, insertion)."""

    __slots__ = ("_times", "_buckets", "_len")

    def __init__(self) -> None:
        self._times: List[float] = []  # heap of distinct timestamps
        # time -> [cursor, cb0, args0, cb1, args1, ...]; cursor starts at 1.
        self._buckets: Dict[float, list] = {}
        self._len = 0

    def __len__(self) -> int:
        return self._len

    def __bool__(self) -> bool:
        return self._len > 0

    def push(self, time: float, callback: Callable[..., None], args: tuple = ()) -> None:
        """Schedule ``callback(*args)`` at absolute simulated ``time``."""
        bucket = self._buckets.get(time)
        if bucket is None:
            heappush(self._times, time)
            self._buckets[time] = [1, callback, args]
        else:
            bucket.append(callback)
            bucket.append(args)
        self._len += 1

    def pop(self) -> Tuple[float, Callable[..., None], tuple]:
        """Remove and return the earliest ``(time, callback, args)``."""
        times = self._times
        t = times[0]
        bucket = self._buckets[t]
        i = bucket[0]
        callback = bucket[i]
        args = bucket[i + 1]
        i += 2
        if i == len(bucket):
            heappop(times)
            del self._buckets[t]
        else:
            bucket[0] = i
        self._len -= 1
        return t, callback, args

    def peek_time(self) -> float:
        """Time of the earliest scheduled event (queue must be non-empty)."""
        return self._times[0]

    # -- batch access (the simulator's drain) ------------------------------

    def release_bucket(self, time: float, bucket: list, cursor: int) -> None:
        """Finish draining the earliest bucket: retire it, or persist
        partial progress.

        The drain reads ``bucket`` (``_buckets[time]``, left live so
        same-time pushes append to it and are drained too) from its
        cursor (slot 0) onward, two slots per event.  ``cursor`` is the
        next undrained slot; consumed events are inferred from how far it
        moved past the stored cursor.  The bucket is removed only when
        fully drained, so an exception thrown by a callback leaves a
        resumable queue.
        """
        self._len -= (cursor - bucket[0]) >> 1
        if cursor == len(bucket):
            heappop(self._times)
            del self._buckets[time]
        else:
            bucket[0] = cursor
