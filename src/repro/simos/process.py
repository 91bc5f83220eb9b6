"""Simulated processes and their system-call interface.

A :class:`SimProcess` is the OS-level identity of one running program on
one node: a PID, a UID, a file-descriptor table, and — crucially for this
library — the two interposition chains (syscall-level and library-level)
that tracing frameworks attach to.

Every syscall is a generator the application body drives with ``yield
from``.  The dispatch wrapper charges kernel-crossing CPU, runs attached
interposers' entry/exit costs, executes the VFS operation, and emits one
:class:`~repro.trace.events.TraceEvent` per attached interposer — with
timestamps from the node's *local* (skewed, drifting) clock, as a real
tracer would record.

Memory-mapped I/O is modelled explicitly because the paper calls it out as
a blind spot: ``strace``/``ltrace``-style tracers "cannot track
memory-mapped I/Os" (§4.1.1, §4.3), while Tracefs's VFS-level capture sees
it (§4.2).  :meth:`SimProcess.mmap` emits the single ``SYS_mmap2`` event a
real tracer would see; subsequent :meth:`mmap_write`/:meth:`mmap_read`
calls go straight to the file system with *no* syscall dispatch.
"""

from __future__ import annotations

from typing import Any, Generator, List, Optional

from repro.errors import BadFileDescriptor, InvalidArgument, NodeCrashed, SimOSError
from repro.obs.tracepoints import STATE as _TELEMETRY
from repro.simfs.vfs import (
    CallerContext,
    O_APPEND,
    OpenFile,
    VFS,
)
from repro.simos import syscalls as sc
from repro.simos.interpose import Interposer
from repro.trace.events import EventLayer, TraceEvent

__all__ = ["SimProcess", "SEEK_SET", "SEEK_CUR", "SEEK_END"]

SEEK_SET = 0
SEEK_CUR = 1
SEEK_END = 2


class SimProcess:
    """One simulated process: fd table + syscall interface + tracer seams."""

    def __init__(
        self,
        sim: Any,
        node: Any,
        vfs: VFS,
        pid: int,
        uid: int = 1000,
        user: str = "jdoe",
        rank: Optional[int] = None,
    ):
        self.sim = sim
        self.node = node
        self.vfs = vfs
        self.pid = pid
        self.uid = uid
        self.user = user
        self.rank = rank
        self.ctx = CallerContext(node=node, pid=pid, uid=uid, user=user)
        self.fds: dict[int, OpenFile] = {}
        self._next_fd = 3
        self.syscall_interposers: List[Interposer] = []
        self.libcall_interposers: List[Interposer] = []
        self.syscall_count = 0
        self.libcall_count = 0

    # -- tracer attachment -------------------------------------------------------

    def attach(self, interposer: Interposer, layer: EventLayer) -> None:
        """Attach a tracer seam at the given layer."""
        if layer is EventLayer.SYSCALL:
            self.syscall_interposers.append(interposer)
        elif layer is EventLayer.LIBCALL:
            self.libcall_interposers.append(interposer)
        else:
            raise InvalidArgument("processes expose syscall and libcall seams only")

    def detach_all(self) -> None:
        """Remove every attached tracer seam."""
        self.syscall_interposers.clear()
        self.libcall_interposers.clear()

    @property
    def cpu_factor(self) -> float:
        """Combined CPU slowdown from the node and every attached tracer."""
        f = self.node.cpu_factor
        for ip in self.syscall_interposers:
            f *= ip.cpu_factor
        for ip in self.libcall_interposers:
            f *= ip.cpu_factor
        return f

    # -- time charging --------------------------------------------------------------

    def _charge(self, seconds: float) -> Generator[Any, Any, None]:
        """Charge CPU-side work, scaled by the current slowdown factor."""
        if seconds > 0:
            col = _TELEMETRY.collector
            if col is not None:
                node_index = self.node.index
                col.cpu_busy(node_index, self.sim.now, +1)
                yield seconds * self.cpu_factor
                col.cpu_busy(node_index, self.sim.now, -1)
            else:
                yield seconds * self.cpu_factor

    # -- dispatch wrappers -------------------------------------------------------------

    def _dispatch(
        self,
        layer: EventLayer,
        interposers: List[Interposer],
        base_cost: float,
        name: str,
        args: tuple,
        body: Generator[Any, Any, Any],
        **typed: Any,
    ) -> Generator[Any, Any, Any]:
        trace_result = typed.pop("trace_result", None)
        node = self.node
        plane = self.sim.fault_plane
        if plane is not None and plane.node_down(node.index):
            raise NodeCrashed(
                "node %d (%s) is down: cannot dispatch %s"
                % (node.index, node.hostname, name)
            )
        col = _TELEMETRY.collector
        t0_sim = self.sim.now if col is not None else 0.0
        # Only a traced call needs the node-local clock (the event's
        # timestamp and duration); tracers attach before a process runs.
        t0_local = node.now_local() if interposers else 0.0
        # The charge helpers are inlined here (this generator runs for
        # every simulated syscall/libcall): a ``yield from self._charge(x)``
        # costs a generator object plus two extra frame switches per use,
        # which the hot path cannot afford.  Semantics are identical.
        if base_cost > 0:
            if col is not None:
                node_index = node.index
                col.cpu_busy(node_index, self.sim.now, +1)
                yield base_cost * self.cpu_factor
                col.cpu_busy(node_index, self.sim.now, -1)
            else:
                yield base_cost * self.cpu_factor
        for ip in interposers:
            ip.intercept(name)
            cost = ip.entry_cost(name)
            if cost > 0:
                yield cost
        result: Any = None
        error: Optional[SimOSError] = None
        try:
            result = yield from body
        except SimOSError as exc:
            error = exc
            result = "-1 %s" % exc.errno_name
        for ip in interposers:
            cost = ip.exit_cost(name)
            if cost > 0:
                yield cost
        if interposers:
            # What the tracer prints as "= result": errno strings pass
            # through; structured returns (stat buffers, directory lists)
            # show the syscall's 0, as in real traces.
            if error is not None:
                rendered = result
            elif trace_result is not None:
                rendered = trace_result
            elif result is None or isinstance(result, (int, str)):
                rendered = result
            else:
                rendered = 0
            duration = max(0.0, node.now_local() - t0_local)
            event = TraceEvent(
                timestamp=t0_local,
                duration=duration,
                layer=layer,
                name=name,
                args=args,
                result=rendered,
                pid=self.pid,
                rank=self.rank,
                hostname=node.hostname,
                user=self.user,
                **typed,
            )
            for ip in interposers:
                ip.record(event)
        if col is not None:
            # Telemetry spans use global simulated time (not the node's
            # skewed local clock) so tracks from different nodes line up
            # in Perfetto and the payload stays deterministic.
            if self.rank is not None:
                tid, tname = self.rank, "rank %d" % self.rank
            else:
                tid, tname = self.pid, "pid %d" % self.pid
            col.os_call(
                node.index,
                node.hostname,
                tid,
                tname,
                layer.value,
                name,
                t0_sim,
                self.sim.now - t0_sim,
                typed.get("nbytes"),
            )
        if error is not None:
            raise error
        return result

    def _syscall(self, name: str, args: tuple, body, **typed):
        self.syscall_count += 1
        return self._dispatch(
            EventLayer.SYSCALL,
            self.syscall_interposers,
            self.node.params.syscall_cost,
            name,
            args,
            body,
            **typed,
        )

    def _libcall(self, name: str, args: tuple, body, **typed):
        self.libcall_count += 1
        return self._dispatch(
            EventLayer.LIBCALL,
            self.libcall_interposers,
            self.node.params.libcall_cost,
            name,
            args,
            body,
            **typed,
        )

    # -- fd table -----------------------------------------------------------------------

    def _alloc_fd(self, handle: OpenFile) -> int:
        fd = self._next_fd
        self._next_fd += 1
        self.fds[fd] = handle
        return fd

    def _handle(self, fd: int) -> OpenFile:
        handle = self.fds.get(fd)
        if handle is None or handle.closed:
            raise BadFileDescriptor("fd %d" % fd)
        return handle

    def open_fds(self) -> List[int]:
        """Currently open descriptor numbers, sorted."""
        return sorted(self.fds)

    # -- syscalls ------------------------------------------------------------------------

    def open(self, path: str, flags: int, mode: int = 0o644):
        """open(2): resolve/create ``path``; returns a new fd."""

        def body():
            fs, rel = self.vfs.resolve(path)
            ino = yield from fs.op_open(self.ctx, rel, flags, mode)
            handle = OpenFile(fs, ino, path, flags)
            return self._alloc_fd(handle)

        return self._syscall(
            sc.SYS_OPEN,
            (path, sc.format_open_flags(flags), "0%o" % mode),
            body(),
            path=path,
        )

    def close(self, fd: int):
        """close(2): release the descriptor."""

        def body():
            handle = self._handle(fd)
            handle.closed = True
            del self.fds[fd]
            note = getattr(handle.fs, "note_close", None)
            if note is not None:
                note(self.ctx, handle.ino)
            yield 0
            return 0

        return self._syscall(sc.SYS_CLOSE, (fd,), body(), fd=fd)

    def _io_stream(self, handle: OpenFile) -> tuple:
        return (handle.ino, self.node.index)

    def write(self, fd: int, nbytes: int):
        """write(2): write at the file position; returns bytes written."""

        def body():
            handle = self._handle(fd)
            if not handle.writable:
                raise BadFileDescriptor("fd %d not open for writing" % fd)
            if handle.flags & O_APPEND:
                handle.position = handle.fs.ns.by_ino(handle.ino).size
            offset = handle.position
            seconds = self.node.copy_cost(nbytes)
            if _TELEMETRY.collector is not None:
                yield from self._charge(seconds)
            elif seconds > 0:
                yield seconds * self.cpu_factor
            n = yield from handle.fs.op_write(
                self.ctx, handle.ino, offset, nbytes, self._io_stream(handle)
            )
            handle.position = offset + n
            return n

        handle = self.fds.get(fd)
        return self._syscall(
            sc.SYS_WRITE,
            (fd, "0x%x" % (0x8000000 + fd), nbytes),
            body(),
            fd=fd,
            nbytes=nbytes,
            offset=(handle.position if handle else None),
            path=(handle.path if handle else None),
        )

    def read(self, fd: int, nbytes: int):
        """read(2): read at the file position; returns bytes read (0 at EOF)."""

        def body():
            handle = self._handle(fd)
            if not handle.readable:
                raise BadFileDescriptor("fd %d not open for reading" % fd)
            offset = handle.position
            n = yield from handle.fs.op_read(
                self.ctx, handle.ino, offset, nbytes, self._io_stream(handle)
            )
            seconds = self.node.copy_cost(n)
            if _TELEMETRY.collector is not None:
                yield from self._charge(seconds)
            elif seconds > 0:
                yield seconds * self.cpu_factor
            handle.position = offset + n
            return n

        handle = self.fds.get(fd)
        return self._syscall(
            sc.SYS_READ,
            (fd, "0x%x" % (0x8000000 + fd), nbytes),
            body(),
            fd=fd,
            nbytes=nbytes,
            offset=(handle.position if handle else None),
            path=(handle.path if handle else None),
        )

    def pwrite(self, fd: int, nbytes: int, offset: int):
        """pwrite(2): positioned write; the file position is untouched."""

        def body():
            handle = self._handle(fd)
            if not handle.writable:
                raise BadFileDescriptor("fd %d not open for writing" % fd)
            seconds = self.node.copy_cost(nbytes)
            if _TELEMETRY.collector is not None:
                yield from self._charge(seconds)
            elif seconds > 0:
                yield seconds * self.cpu_factor
            return (
                yield from handle.fs.op_write(
                    self.ctx, handle.ino, offset, nbytes, self._io_stream(handle)
                )
            )

        handle = self.fds.get(fd)
        return self._syscall(
            sc.SYS_PWRITE,
            (fd, "0x%x" % (0x8000000 + fd), nbytes, offset),
            body(),
            fd=fd,
            nbytes=nbytes,
            offset=offset,
            path=(handle.path if handle else None),
        )

    def pread(self, fd: int, nbytes: int, offset: int):
        """pread(2): positioned read; the file position is untouched."""

        def body():
            handle = self._handle(fd)
            if not handle.readable:
                raise BadFileDescriptor("fd %d not open for reading" % fd)
            n = yield from handle.fs.op_read(
                self.ctx, handle.ino, offset, nbytes, self._io_stream(handle)
            )
            seconds = self.node.copy_cost(n)
            if _TELEMETRY.collector is not None:
                yield from self._charge(seconds)
            elif seconds > 0:
                yield seconds * self.cpu_factor
            return n

        handle = self.fds.get(fd)
        return self._syscall(
            sc.SYS_PREAD,
            (fd, "0x%x" % (0x8000000 + fd), nbytes, offset),
            body(),
            fd=fd,
            nbytes=nbytes,
            offset=offset,
            path=(handle.path if handle else None),
        )

    def lseek(self, fd: int, offset: int, whence: int = SEEK_SET):
        """lseek(2): move the file position; returns the new position."""

        def body():
            handle = self._handle(fd)
            if whence == SEEK_SET:
                new = offset
            elif whence == SEEK_CUR:
                new = handle.position + offset
            elif whence == SEEK_END:
                new = handle.fs.ns.by_ino(handle.ino).size + offset
            else:
                raise InvalidArgument("bad whence %r" % whence)
            if new < 0:
                raise InvalidArgument("seek before start of file")
            handle.position = new
            return new
            yield  # pragma: no cover - makes body a generator; never reached

        return self._syscall(
            sc.SYS_LSEEK, (fd, offset, whence), body(), fd=fd, offset=offset
        )

    def stat(self, path: str):
        """stat(2): attributes of the file at ``path``."""

        def body():
            fs, rel = self.vfs.resolve(path)
            return (yield from fs.op_stat(self.ctx, rel))

        return self._syscall(sc.SYS_STAT, (path,), body(), path=path)

    def fstat(self, fd: int):
        """fstat(2): attributes of the open file."""

        def body():
            handle = self._handle(fd)
            return (yield from handle.fs.op_fstat(self.ctx, handle.ino))

        return self._syscall(sc.SYS_FSTAT, (fd,), body(), fd=fd)

    def unlink(self, path: str):
        """unlink(2): remove the directory entry."""

        def body():
            fs, rel = self.vfs.resolve(path)
            yield from fs.op_unlink(self.ctx, rel)
            return 0

        return self._syscall(sc.SYS_UNLINK, (path,), body(), path=path)

    def mkdir(self, path: str, mode: int = 0o755):
        """mkdir(2): create a directory."""

        def body():
            fs, rel = self.vfs.resolve(path)
            yield from fs.op_mkdir(self.ctx, rel, mode)
            return 0

        return self._syscall(sc.SYS_MKDIR, (path, "0%o" % mode), body(), path=path)

    def readdir(self, path: str):
        """getdents(2)-style directory listing (sorted names)."""

        def body():
            fs, rel = self.vfs.resolve(path)
            return (yield from fs.op_readdir(self.ctx, rel))

        return self._syscall(sc.SYS_READDIR, (path,), body(), path=path)

    def rename(self, old: str, new: str):
        """rename(2): move within one file system (EXDEV across mounts)."""

        def body():
            fs_old, rel_old = self.vfs.resolve(old)
            fs_new, rel_new = self.vfs.resolve(new)
            if fs_old is not fs_new:
                from repro.errors import CrossDeviceLink

                raise CrossDeviceLink("%s -> %s" % (old, new))
            yield from fs_old.op_rename(self.ctx, rel_old, rel_new)
            return 0

        return self._syscall(sc.SYS_RENAME, (old, new), body(), path=old)

    def statfs(self, path: str):
        """statfs(2): file-system totals for the mount holding ``path``."""

        def body():
            fs, rel = self.vfs.resolve(path)
            return (yield from fs.op_statfs(self.ctx))

        return self._syscall(sc.SYS_STATFS, (path, 84), body(), path=path)

    def fsync(self, fd: int):
        """fsync(2): flush the open file."""

        def body():
            handle = self._handle(fd)
            yield from handle.fs.op_fsync(self.ctx, handle.ino)
            return 0

        return self._syscall(sc.SYS_FSYNC, (fd,), body(), fd=fd)

    def fcntl(self, fd: int, cmd: int, arg: int = 0):
        """fcntl(2): descriptor control (modelled as a no-op)."""

        def body():
            self._handle(fd)
            yield 0
            return 0

        return self._syscall(sc.SYS_FCNTL, (fd, cmd, arg), body(), fd=fd)

    # -- memory-mapped I/O (the tracer blind spot) --------------------------------------

    def mmap(self, fd: int, length: int):
        """Map a file region.  This is the only mmap-related syscall a
        ptrace-style tracer ever sees — subsequent access is invisible."""

        def body():
            self._handle(fd)
            yield 0
            return 0x40000000 + fd  # fake mapping address

        return self._syscall(
            sc.SYS_MMAP, (0, length, 3, 1, fd, 0), body(), fd=fd, nbytes=length
        )

    def mmap_write(self, fd: int, offset: int, nbytes: int):
        """Store into a mapping: reaches the FS with NO syscall dispatch."""
        handle = self._handle(fd)
        yield from self._charge(self.node.copy_cost(nbytes))
        return (
            yield from handle.fs.op_write(
                self.ctx, handle.ino, offset, nbytes, self._io_stream(handle)
            )
        )

    def mmap_read(self, fd: int, offset: int, nbytes: int):
        """Load from a mapping: reaches the FS with NO syscall dispatch."""
        handle = self._handle(fd)
        return (
            yield from handle.fs.op_read(
                self.ctx, handle.ino, offset, nbytes, self._io_stream(handle)
            )
        )
