"""ext3-like local file system on a block device or RAID array."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Generator, Optional

from repro.des.resources import Resource
from repro.machine import DiskParams
from repro.simfs.blockdev import BlockDevice
from repro.simfs.raid import Raid5Geometry, Raid5Model
from repro.simfs.vfs import CallerContext, FileSystem, Inode

__all__ = ["LocalFS", "LocalFSParams"]


@dataclass(frozen=True)
class LocalFSParams:
    """Software costs of the local file system layer.

    Attributes
    ----------
    meta_op_cost:
        CPU time of one metadata operation (dentry walk, inode update).
    journal_cost:
        Extra cost per metadata *mutation* (ext3 journals metadata).
    """

    meta_op_cost: float = 20e-6
    journal_cost: float = 80e-6


_MUTATING_META = {"open", "truncate", "unlink", "mkdir", "rename", "fsync"}


class LocalFS(FileSystem):
    """A local file system backed by one disk (or an analytic RAID-5 array).

    Construct with either a :class:`~repro.simfs.blockdev.BlockDevice` (per
    extent queueing on a single spindle) or a
    :class:`~repro.simfs.raid.Raid5Model` (analytic service times on a
    FIFO array queue).
    """

    fstype = "ext3"
    parallel_compatible = False  # a node-local FS cannot serve a parallel job

    def __init__(
        self,
        sim: Any,
        device: Optional[BlockDevice] = None,
        raid: Optional[Raid5Model] = None,
        params: Optional[LocalFSParams] = None,
        name: str = "",
    ):
        super().__init__(sim, name=name)
        if device is None and raid is None:
            device = BlockDevice(sim, DiskParams(), name="%s-disk" % (name or self.fstype))
        if device is not None and raid is not None:
            raise ValueError("pass either a block device or a RAID model, not both")
        self.device = device
        self.raid = raid
        # One request queue in front of the array when using the analytic model.
        self._raid_queue = Resource(sim, capacity=1, name="raidq") if raid else None
        self._raid_streams: dict[Any, int] = {}
        self.params = params or LocalFSParams()

    # -- timing hooks -----------------------------------------------------------

    def _meta_service(self, ctx: CallerContext, op: str) -> Generator[Any, Any, None]:
        cost = self.params.meta_op_cost
        if op in _MUTATING_META:
            cost += self.params.journal_cost
        yield cost

    def _data_service(
        self, ctx: CallerContext, inode: Inode, offset: int, nbytes: int, stream: Any
    ) -> Generator[Any, Any, None]:
        if self.device is not None:
            yield from self.device.service(stream, offset, nbytes)
            return
        assert self.raid is not None and self._raid_queue is not None
        if not self._raid_queue.try_acquire():
            yield self._raid_queue.acquire()
        try:
            sequential = self._raid_streams.get(stream) == offset
            self._raid_streams[stream] = offset + nbytes
            t = self.raid.service_time(offset, nbytes, sequential)
            if t > 0:
                yield t
        finally:
            self._raid_queue.release()

    def _read_service(self, ctx, inode, offset, nbytes, stream):
        yield from self._data_service(ctx, inode, offset, nbytes, stream)

    def _write_service(self, ctx, inode, offset, nbytes, stream):
        yield from self._data_service(ctx, inode, offset, nbytes, stream)
