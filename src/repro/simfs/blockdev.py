"""Block-device timing model.

A disk is a FIFO resource whose service time for an extent is::

    t = seek (if non-sequential) + rotational settle + nbytes / stream_bw

Sequentiality is judged per *stream* (a (file, client) pair supplied by the
caller), not per raw LBA, approximating the write-back aggregation a real
OS performs: a client appending to its own file keeps streaming even while
other clients interleave.
"""

from __future__ import annotations

from typing import Any, Generator, Hashable, Optional

from repro.des.resources import Resource
from repro.machine import DiskParams
from repro.obs.tracepoints import STATE as _TELEMETRY

__all__ = ["BlockDevice"]


class BlockDevice:
    """One disk: FIFO queue + per-stream sequentiality tracking."""

    def __init__(self, sim: Any, params: Optional[DiskParams] = None, name: str = "disk"):
        self.sim = sim
        self.params = params or DiskParams()
        self.queue = Resource(sim, capacity=1, name=name)
        self.name = name
        # stream key -> next expected offset for sequential continuation
        self._stream_pos: dict[Hashable, int] = {}
        self._bytes_served = 0
        self._ops_served = 0
        self._seeks = 0

    def is_sequential(self, stream: Hashable, offset: int) -> bool:
        """Would an access at ``offset`` continue ``stream``'s last extent?"""
        return self._stream_pos.get(stream) == offset

    def service(
        self, stream: Hashable, offset: int, nbytes: int
    ) -> Generator[Any, Any, float]:
        """Sub-activity: queue for the disk and transfer one extent.

        Returns the service time charged (excluding queueing delay).
        Use with ``yield from``.
        """
        if not self.queue.try_acquire():
            yield self.queue.acquire()
        try:
            sequential = self.is_sequential(stream, offset)
            t = self.params.service_time(nbytes, sequential)
            if not sequential:
                self._seeks += 1
            self._stream_pos[stream] = offset + nbytes
            self._bytes_served += nbytes
            self._ops_served += 1
            col = _TELEMETRY.collector
            if col is not None:
                col.disk_op(
                    self.name, self.sim.now, nbytes, sequential, self.queue.in_use
                )
            if t > 0:
                yield t
        finally:
            self.queue.release()
            col = _TELEMETRY.collector
            if col is not None:
                col.metrics.sample(
                    "disk.%s.busy" % self.name, self.sim.now, self.queue.in_use
                )
        return t

    # -- accounting -----------------------------------------------------------

    @property
    def bytes_served(self) -> int:
        return self._bytes_served

    @property
    def ops_served(self) -> int:
        return self._ops_served

    @property
    def seeks(self) -> int:
        return self._seeks
