"""Parallel file system: files striped across storage servers.

Models the LANL parallel file system of §4.1.2: clients stripe file data
round-robin (PanFS/Lustre style) over ``n_servers`` storage servers, each
backed by a RAID-5 array (the paper's 252 drives divided among servers,
64 KiB RAID stripe).  The behaviours that matter for the paper's figures:

* per-operation costs (RPC, locks, seeks) amortize as block size grows —
  the "bandwidth as a logarithmic function of block size" of Figure 2;
* shared-file writes (N-to-1) pay extent-lock serialization that private
  files (N-to-N) do not;
* strided shared writes land non-sequentially on each server and pay a
  seek per operation, which non-strided and N-to-N writes avoid.

Large operations fan out to multiple servers in parallel (one child
process per server chunk), so big blocks also gain server parallelism
within a single call — the second reason bandwidth climbs with block size.
"""

from __future__ import annotations

from typing import Any, Dict, Generator, List, Optional, Set, Tuple

from repro.cluster.network import Network
from repro.des.events import AllOf
from repro.des.resources import Resource
from repro.machine import PFSParams
from repro.obs.tracepoints import STATE as _TELEMETRY
from repro.simfs.raid import Raid5Geometry, Raid5Model
from repro.simfs.vfs import CallerContext, FileSystem, Inode

__all__ = ["ParallelFS"]


class _Server:
    """One storage server: request queue + analytic RAID-5 array."""

    def __init__(self, sim: Any, index: int, params: PFSParams):
        self.index = index
        self.queue = Resource(
            sim, capacity=params.server_threads, name="oss%d" % index
        )
        self.raid = Raid5Model(
            Raid5Geometry(params.drives_per_server, params.raid_stripe_width),
            params.disk,
        )
        # (ino, client) -> next sequential server-local offset
        self.stream_pos: Dict[Tuple[int, int], int] = {}
        self.bytes_served = 0
        self.ops_served = 0
        self.seeks = 0


class ParallelFS(FileSystem):
    """A striped, multi-server parallel file system."""

    fstype = "pfs"
    parallel_compatible = True

    def __init__(
        self,
        sim: Any,
        network: Network,
        params: Optional[PFSParams] = None,
        name: str = "",
    ):
        super().__init__(sim, name=name)
        self.network = network
        self.params = params or PFSParams()
        self.servers = [_Server(sim, i, self.params) for i in range(self.params.n_servers)]
        # Metadata server: one queue for all namespace operations.
        self.mds = Resource(sim, capacity=2, name="mds:%s" % (name or "pfs"))
        # ino -> client node indices that have it open (shared-file detection)
        self._openers: Dict[int, Set[int]] = {}
        # ino -> extent lock token
        self._locks: Dict[int, Resource] = {}

    # -- striping arithmetic -----------------------------------------------------

    def map_stripes(self, offset: int, nbytes: int) -> List[Tuple[int, int, int]]:
        """Split a file extent into ``(server, server_offset, nbytes)`` chunks.

        Round-robin striping: file stripe unit ``u`` lives on server
        ``u % n_servers`` at server-local unit index ``u // n_servers``.
        Adjacent units on the same server are merged into one chunk.
        """
        if offset < 0 or nbytes < 0:
            raise ValueError("negative offset/length")
        w = self.params.stripe_width
        n = self.params.n_servers
        raw: List[Tuple[int, int, int]] = []
        pos = offset
        end = offset + nbytes
        while pos < end:
            unit, in_unit = divmod(pos, w)
            run = min(w - in_unit, end - pos)
            server = unit % n
            server_off = (unit // n) * w + in_unit
            raw.append((server, server_off, run))
            pos += run
        # Merge adjacent same-server chunks (contiguous server offsets).
        merged: List[Tuple[int, int, int]] = []
        for server, soff, run in raw:
            if merged and merged[-1][0] == server and merged[-1][1] + merged[-1][2] == soff:
                s, o, r = merged[-1]
                merged[-1] = (s, o, r + run)
            else:
                merged.append((server, soff, run))
        return merged

    # -- open/close bookkeeping ---------------------------------------------------

    def op_open(self, ctx: CallerContext, relpath: str, flags: int, mode: int = 0o644):
        """Open, additionally tracking which clients share the file."""
        ino = yield from super().op_open(ctx, relpath, flags, mode)
        self._openers.setdefault(ino, set()).add(ctx.node.index)
        return ino

    def note_close(self, ctx: CallerContext, ino: int) -> None:
        """Called by the OS layer when a process closes the file."""
        openers = self._openers.get(ino)
        if openers is not None:
            openers.discard(ctx.node.index)
            if not openers:
                self._openers.pop(ino, None)
                self._locks.pop(ino, None)

    def _is_shared(self, ino: int) -> bool:
        return len(self._openers.get(ino, ())) > 1

    # -- timing hooks ---------------------------------------------------------------

    def _meta_service(self, ctx: CallerContext, op: str) -> Generator[Any, Any, None]:
        # Metadata is an RPC to the metadata server.
        col = _TELEMETRY.collector
        if col is not None:
            col.pfs_meta_rpc()
        yield from self.network.transfer(ctx.node.nic, 128)
        if not self.mds.try_acquire():
            yield self.mds.acquire()
        try:
            yield self.params.rpc_overhead
        finally:
            self.mds.release()
        yield self.network.config.latency

    def _server_chunk(
        self,
        ctx: CallerContext,
        server: _Server,
        ino: int,
        server_off: int,
        nbytes: int,
        write: bool,
    ) -> Generator[Any, Any, None]:
        """One chunk on one server: wire transfer + RAID service."""
        # Payload moves over the client's NIC (requests for writes,
        # replies for reads use the same link in this model).
        yield from self.network.transfer(ctx.node.nic, 128 + nbytes)
        if not server.queue.try_acquire():
            yield server.queue.acquire()
        try:
            yield self.params.rpc_overhead
            stream = (ino, ctx.node.index)
            sequential = server.stream_pos.get(stream) == server_off
            server.stream_pos[stream] = server_off + nbytes
            if not sequential:
                server.seeks += 1
            t = server.raid.service_time(server_off, nbytes, sequential)
            col = _TELEMETRY.collector
            if col is not None:
                col.pfs_chunk(
                    server.queue.name,
                    self.sim.now,
                    nbytes,
                    sequential,
                    server.queue.in_use,
                )
            if t > 0:
                yield t
            server.bytes_served += nbytes
            server.ops_served += 1
        finally:
            server.queue.release()
            col = _TELEMETRY.collector
            if col is not None:
                col.metrics.sample(
                    "pfs.%s.in_use" % server.queue.name,
                    self.sim.now,
                    server.queue.in_use,
                )

    def _data_service(
        self, ctx: CallerContext, inode: Inode, offset: int, nbytes: int, write: bool
    ) -> Generator[Any, Any, None]:
        # Shared-file writes serialize briefly on a distributed extent lock.
        if write and self._is_shared(inode.ino):
            lock = self._locks.get(inode.ino)
            if lock is None:
                lock = self._locks[inode.ino] = Resource(
                    self.sim, capacity=1, name="extlock:%d" % inode.ino
                )
            col = _TELEMETRY.collector
            t_lock = self.sim.now if col is not None else 0.0
            if not lock.try_acquire():
                yield lock.acquire()
            try:
                yield self.params.extent_lock_time
            finally:
                lock.release()
            if col is not None:
                col.pfs_lock_wait(self.sim.now - t_lock)
        w = self.params.stripe_width
        unit, in_unit = divmod(offset, w)
        if offset >= 0 and 0 < nbytes <= w - in_unit:
            # Inside one stripe unit: map_stripes' single chunk, unbuilt.
            n = self.params.n_servers
            yield from self._server_chunk(
                ctx, self.servers[unit % n], inode.ino,
                (unit // n) * w + in_unit, nbytes, write,
            )
            return
        chunks = self.map_stripes(offset, nbytes)
        if len(chunks) == 1:
            server, soff, run = chunks[0]
            yield from self._server_chunk(
                ctx, self.servers[server], inode.ino, soff, run, write
            )
            return
        # Fan out to servers in parallel, one child activity per chunk.
        completions = []
        for server, soff, run in chunks:
            proc = self.sim.spawn(
                self._server_chunk(ctx, self.servers[server], inode.ino, soff, run, write),
                name="pfs-chunk:s%d" % server,
            )
            completions.append(proc.completion)
        yield AllOf(completions)

    # The hooks hand back _data_service's generator rather than wrapping it
    # in one more ``yield from`` frame that every resume would pass through.
    def _write_service(self, ctx, inode, offset, nbytes, stream):
        return self._data_service(ctx, inode, offset, nbytes, write=True)

    def _read_service(self, ctx, inode, offset, nbytes, stream):
        return self._data_service(ctx, inode, offset, nbytes, write=False)

    # -- introspection ----------------------------------------------------------------

    def server_stats(self) -> List[Dict[str, int]]:
        """Per-server byte/op/seek counters (for tests and reports)."""
        return [
            {
                "server": s.index,
                "bytes_served": s.bytes_served,
                "ops_served": s.ops_served,
                "seeks": s.seeks,
            }
            for s in self.servers
        ]
