"""MPI-IO: file access through the MPI library.

``MPI_File_*`` functions are library calls whose bodies issue ordinary
syscalls — exactly the two-level structure visible in the paper's Figure 1
raw trace, where one ``MPI_File_open(...)`` line is followed by the
``SYS_statfs64`` / ``SYS_open`` / ``SYS_fcntl64`` calls the library makes
underneath.  An ltrace-level tracer records both layers; an strace-level
tracer records only the ``SYS_*`` lines.

``write_at`` is implemented as seek+write (two syscalls), matching the
ADIO/UFS driver of the paper's mpich 1.2.6 era and giving the "constant
number of traced events ... for each block" that drives LANL-Trace's
overhead curve.
"""

from __future__ import annotations

from typing import Any, Generator, Optional

from repro.errors import InvalidArgument, ReplayError
from repro.simfs.vfs import O_CREAT, O_RDONLY, O_RDWR, O_WRONLY
from repro.simmpi.comm import MPIRank
from repro.simos.process import SEEK_SET

__all__ = [
    "MPIFile",
    "MPI_MODE_CREATE",
    "MPI_MODE_RDONLY",
    "MPI_MODE_WRONLY",
    "MPI_MODE_RDWR",
    "Request",
]

# Real MPI-2 constants.
MPI_MODE_CREATE = 1
MPI_MODE_RDONLY = 2
MPI_MODE_WRONLY = 4
MPI_MODE_RDWR = 8


def _amode_to_flags(amode: int) -> int:
    if amode & MPI_MODE_RDWR:
        flags = O_RDWR
    elif amode & MPI_MODE_WRONLY:
        flags = O_WRONLY
    elif amode & MPI_MODE_RDONLY:
        flags = O_RDONLY
    else:
        raise InvalidArgument("amode must include an access mode")
    if amode & MPI_MODE_CREATE:
        flags |= O_CREAT
    return flags


class Request:
    """A nonblocking I/O request (returned by ``iwrite_at``)."""

    def __init__(self, completion: Any):
        self.completion = completion

    @property
    def done(self) -> bool:
        return self.completion.done


class MPIFile:
    """An open MPI-IO file for one rank."""

    def __init__(self, mpi: MPIRank, fd: int, path: str, collective: bool):
        self.mpi = mpi
        self.fd = fd
        self.path = path
        self.collective = collective
        self.closed = False

    # -- lifecycle ------------------------------------------------------------

    @classmethod
    def open(
        cls,
        mpi: MPIRank,
        path: str,
        amode: int = MPI_MODE_WRONLY | MPI_MODE_CREATE,
        collective: bool = True,
    ) -> Generator[Any, Any, "MPIFile"]:
        """MPI_File_open.  ``collective=True`` synchronizes all ranks of the
        communicator (shared-file N-to-1 use); ``collective=False`` opens
        independently (COMM_SELF-style, for N-to-N private files)."""
        proc = mpi.proc
        flags = _amode_to_flags(amode)

        def body():
            # The library probes the file system, then opens, then fcntls —
            # the Figure 1 syscall sequence.
            yield from proc.statfs(path)
            fd = yield from proc.open(path, flags, 0o664)
            yield from proc.fcntl(fd, 1, 0)
            if collective:
                inst, is_last = mpi.comm.join_collective(mpi.rank, "File_open", None, None)
                if is_last:
                    yield mpi.comm._tree_latency()
                    inst.release.succeed(None)
                else:
                    yield inst.release
            return fd

        fd = yield from proc._libcall(
            "MPI_File_open",
            ("MPI_COMM_WORLD" if collective else "MPI_COMM_SELF", path, amode),
            body(),
            path=path,
        )
        return cls(mpi, fd, path, collective)

    def close(self) -> Generator[Any, Any, None]:
        """MPI_File_close (collective if the open was)."""
        proc = self.mpi.proc
        mpi = self.mpi

        def body():
            yield from proc.close(self.fd)
            if self.collective:
                inst, is_last = mpi.comm.join_collective(mpi.rank, "File_close", None, None)
                if is_last:
                    yield mpi.comm._tree_latency()
                    inst.release.succeed(None)
                else:
                    yield inst.release
            return 0

        yield from proc._libcall("MPI_File_close", (self.path,), body(), path=self.path)
        self.closed = True

    def _check_open(self) -> None:
        if self.closed:
            raise ReplayError("MPI file %s used after close" % self.path)

    # -- data access --------------------------------------------------------------

    def write_at(self, offset: int, nbytes: int) -> Generator[Any, Any, int]:
        """MPI_File_write_at: explicit-offset write (seek + write).

        Returns the libcall generator itself rather than forwarding it
        (one frame less per resume); callers drive it with ``yield from``
        at once, so the closed-file check runs at the same instant.
        """
        self._check_open()
        proc = self.mpi.proc

        def body():
            yield from proc.lseek(self.fd, offset, SEEK_SET)
            return (yield from proc.write(self.fd, nbytes))

        return proc._libcall(
            "MPI_File_write_at",
            (self.path, offset, nbytes),
            body(),
            path=self.path,
            nbytes=nbytes,
            offset=offset,
            fd=self.fd,
        )

    def read_at(self, offset: int, nbytes: int) -> Generator[Any, Any, int]:
        """MPI_File_read_at: explicit-offset read (seek + read); returns the
        libcall generator, like :meth:`write_at`."""
        self._check_open()
        proc = self.mpi.proc

        def body():
            yield from proc.lseek(self.fd, offset, SEEK_SET)
            return (yield from proc.read(self.fd, nbytes))

        return proc._libcall(
            "MPI_File_read_at",
            (self.path, offset, nbytes),
            body(),
            path=self.path,
            nbytes=nbytes,
            offset=offset,
            fd=self.fd,
        )

    def write_at_all(
        self,
        offset: Optional[int] = None,
        nbytes: Optional[int] = None,
        extents: Optional[list] = None,
    ) -> Generator[Any, Any, int]:
        """MPI_File_write_at_all: collective write with two-phase I/O.

        The classic ROMIO optimization (an *extension* beyond the paper's
        mpich 1.2.6-era seek+write path).  Each rank contributes either one
        contiguous extent (``offset``, ``nbytes``) or a list of ``extents``
        — e.g. all of its strided blocks at once, the MPI-datatype use
        case.  Two phases:

        1. **exchange** — every rank ships its payload toward the
           aggregators over the network and the extent lists are combined;
        2. **write** — the merged extent space is split into one contiguous
           *file domain* per rank, and each rank writes its own domain
           sequentially.

        This converts the paper's worst-case pattern — N-to-1 strided small
        blocks — into large sequential writes; the ablation benchmark
        quantifies the win.  Collective: every rank must call it.
        """
        self._check_open()
        proc = self.mpi.proc
        mpi = self.mpi
        if extents is None:
            if offset is None or nbytes is None:
                raise InvalidArgument("write_at_all needs (offset, nbytes) or extents")
            extents = [(offset, nbytes)]
        my_bytes = sum(ln for _, ln in extents)

        def merge(all_extents):
            runs = []
            for off, ln in sorted(all_extents):
                if ln <= 0:
                    continue
                if runs and runs[-1][0] + runs[-1][1] >= off:
                    runs[-1][1] = max(runs[-1][1], off + ln - runs[-1][0])
                else:
                    runs.append([off, ln])
            return runs

        def domains(runs, size):
            """Split merged runs into ``size`` contiguous byte domains."""
            total = sum(r[1] for r in runs)
            share = -(-total // size) if total else 0
            out = [[] for _ in range(size)]
            rank, used = 0, 0
            for off, ln in runs:
                pos = off
                remaining = ln
                while remaining > 0:
                    take = min(remaining, share - used) if share else remaining
                    if take <= 0:
                        rank, used = rank + 1, 0
                        continue
                    out[min(rank, size - 1)].append((pos, take))
                    pos += take
                    remaining -= take
                    used += take
                    if used >= share and rank < size - 1:
                        rank, used = rank + 1, 0
            return out

        def body():
            # Phase 1: exchange — payload moves toward the aggregators.
            if my_bytes > 0:
                yield from mpi.comm.network.transfer(proc.node.nic, my_bytes)
            inst, is_last = mpi.comm.join_collective(
                mpi.rank, "File_write_at_all", list(extents), None
            )
            if is_last:
                yield mpi.comm._tree_latency()
                inst.release.succeed(None)
            else:
                yield inst.release
            # Phase 2: each rank writes its contiguous file domain.
            all_extents = [e for v in inst.values.values() for e in v]
            runs = merge(all_extents)
            mine = domains(runs, mpi.size)[mpi.rank]
            for dom_off, dom_len in mine:
                yield from proc.pwrite(self.fd, dom_len, dom_off)
            # Everyone leaves together (data must be durable for all).
            inst2, is_last2 = mpi.comm.join_collective(
                mpi.rank, "File_write_at_all_end", None, None
            )
            if is_last2:
                yield mpi.comm._tree_latency()
                inst2.release.succeed(None)
            else:
                yield inst2.release
            return my_bytes

        first_off = extents[0][0] if extents else 0
        return (
            yield from proc._libcall(
                "MPI_File_write_at_all",
                (self.path, first_off, my_bytes),
                body(),
                path=self.path,
                nbytes=my_bytes,
                offset=first_off,
                fd=self.fd,
            )
        )

    def iwrite_at(self, offset: int, nbytes: int) -> Generator[Any, Any, Request]:
        """MPI_File_iwrite_at: nonblocking write; pair with :meth:`wait`."""
        self._check_open()
        proc = self.mpi.proc

        def io_child():
            yield from proc.lseek(self.fd, offset, SEEK_SET)
            return (yield from proc.write(self.fd, nbytes))

        def body():
            child = self.mpi.sim.spawn(
                io_child(), name="iwrite:%s@%d" % (self.path, offset)
            )
            yield 0
            return Request(child.completion)

        return (
            yield from proc._libcall(
                "MPI_File_iwrite_at",
                (self.path, offset, nbytes),
                body(),
                path=self.path,
                nbytes=nbytes,
                offset=offset,
                fd=self.fd,
            )
        )

    def wait(self, request: Request) -> Generator[Any, Any, int]:
        """MPIO_Wait: block until a nonblocking request completes."""
        proc = self.mpi.proc

        def body():
            return (yield request.completion)

        return (yield from proc._libcall("MPIO_Wait", (), body()))

    # -- metadata --------------------------------------------------------------------

    def get_size(self) -> Generator[Any, Any, int]:
        """MPI_File_get_size."""
        proc = self.mpi.proc

        def body():
            st = yield from proc.fstat(self.fd)
            return st.size

        return (yield from proc._libcall("MPI_File_get_size", (self.path,), body()))

    def set_size(self, size: int) -> Generator[Any, Any, None]:
        """MPI_File_set_size (truncate/extend)."""
        proc = self.mpi.proc
        handle = proc._handle(self.fd)

        def body():
            yield from handle.fs.op_truncate(proc.ctx, handle.ino, size)
            return None

        yield from proc._libcall(
            "MPI_File_set_size", (self.path, size), body(), path=self.path
        )

    def sync(self) -> Generator[Any, Any, None]:
        """MPI_File_sync."""
        proc = self.mpi.proc

        def body():
            yield from proc.fsync(self.fd)
            return None

        yield from proc._libcall("MPI_File_sync", (self.path,), body(), path=self.path)
