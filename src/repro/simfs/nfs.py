"""NFS-like network file system.

Every operation is a synchronous RPC from the caller's node to one server:
request over the network, server-side service on the backing local file
system, reply back.  Data operations additionally move the payload over
the wire in ``rsize``/``wsize`` chunks, which is why NFS bandwidth is so
sensitive to small operations — per-RPC costs dominate.

Tracefs was validated on NFS by its authors (and by the paper, §2.2); the
paper also found that an NFS-backed setup is not a *parallel* file system:
a single server serializes the cluster, which our model reproduces — all
RPCs funnel through one server resource.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Generator, Optional

from repro.cluster.network import Network
from repro.des.resources import Resource
from repro.simfs.localfs import LocalFS
from repro.simfs.vfs import CallerContext, FileSystem, Inode
from repro.units import KiB

__all__ = ["NFS", "NFSParams"]


@dataclass(frozen=True)
class NFSParams:
    """Protocol parameters.

    Attributes
    ----------
    rpc_overhead:
        Server CPU time to decode/dispatch one RPC.
    wsize:
        Maximum payload per WRITE RPC (rsize is assumed equal).
    server_threads:
        Concurrent RPCs the server processes (nfsd thread count).
    """

    rpc_overhead: float = 40e-6
    wsize: int = 64 * KiB
    server_threads: int = 8

    def __post_init__(self) -> None:
        if self.wsize <= 0:
            raise ValueError("wsize must be positive")
        if self.server_threads < 1:
            raise ValueError("server_threads must be >= 1")


class NFS(FileSystem):
    """Network file system: RPCs from client nodes to one backing server."""

    fstype = "nfs"
    parallel_compatible = False  # single server — not a parallel FS

    def __init__(
        self,
        sim: Any,
        network: Network,
        backing: Optional[LocalFS] = None,
        params: Optional[NFSParams] = None,
        name: str = "",
    ):
        super().__init__(sim, name=name)
        self.network = network
        self.backing = backing or LocalFS(sim, name="nfs-backing")
        self.params = params or NFSParams()
        self.server = Resource(
            sim, capacity=self.params.server_threads, name="nfsd:%s" % (name or "nfs")
        )

    # The NFS namespace *is* the backing FS's namespace: clients see the
    # server's tree.  Point our ns at it so metadata stays consistent.
    @property
    def ns(self):  # type: ignore[override]
        return self.backing.ns

    @ns.setter
    def ns(self, value):  # the base constructor assigns a fresh Namespace
        pass  # discarded: backing owns the namespace

    # -- RPC machinery ----------------------------------------------------------

    def _rpc(self, ctx: CallerContext, payload: int) -> Generator[Any, Any, None]:
        """One request/reply exchange carrying ``payload`` data bytes."""
        # Request (small header + payload for writes).
        yield from self.network.transfer(ctx.node.nic, 128 + payload)
        if not self.server.try_acquire():
            yield self.server.acquire()
        try:
            yield self.params.rpc_overhead
        finally:
            self.server.release()
        # Reply header (replies carrying read payloads add it in _read_service).
        yield self.network.config.latency

    def _meta_service(self, ctx: CallerContext, op: str) -> Generator[Any, Any, None]:
        yield from self._rpc(ctx, 0)
        yield from self.backing._meta_service(ctx, op)

    def _chunked(self, nbytes: int):
        w = self.params.wsize
        full, rem = divmod(nbytes, w)
        return [w] * full + ([rem] if rem else [])

    def _write_service(
        self, ctx: CallerContext, inode: Inode, offset: int, nbytes: int, stream: Any
    ) -> Generator[Any, Any, None]:
        pos = offset
        for chunk in self._chunked(nbytes):
            yield from self._rpc(ctx, chunk)
            yield from self.backing._write_service(ctx, inode, pos, chunk, stream)
            pos += chunk

    def _read_service(
        self, ctx: CallerContext, inode: Inode, offset: int, nbytes: int, stream: Any
    ) -> Generator[Any, Any, None]:
        pos = offset
        for chunk in self._chunked(nbytes):
            yield from self._rpc(ctx, 0)
            yield from self.backing._read_service(ctx, inode, pos, chunk, stream)
            # Reply carries the payload back to the client.
            yield from self.network.transfer(ctx.node.nic, chunk)
            pos += chunk
