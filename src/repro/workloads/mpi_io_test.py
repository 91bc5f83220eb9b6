"""Reimplementation of the LANL ``mpi_io_test`` synthetic benchmark.

This is the application the paper traced for all its measurements ([4],
Figure 1's command line: ``mpi_io_test.exe -type 1 -strided 1 -size 32768
-nobj 1``).  The structure per rank:

1. global barrier (LANL-Trace brackets the app with its own timing
   barriers; the app also self-synchronizes);
2. ``MPI_File_open`` — collective for the shared-file (N-to-1) patterns,
   independent for N-to-N;
3. ``nobj`` explicit-offset writes of ``size`` bytes each, placed by the
   access pattern;
4. optional read-back verification pass;
5. close + final barrier;
6. rank 0 gathers per-rank local timings.

Arguments (a dict, mirroring the real tool's flags):

``pattern``
    an :class:`~repro.workloads.patterns.AccessPattern` (covers the real
    tool's ``-type``/``-strided``);
``block_size`` (``-size``)
    bytes per write;
``nobj`` (``-nobj``)
    writes per rank;
``path``
    target file (or basename for N-to-N);
``read_back``
    also read everything back (default False);
``sync``
    fsync before close (default False).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Generator, List, Optional

from repro.errors import InvalidArgument
from repro.simmpi.comm import MPIRank
from repro.simmpi.mpiio import (
    MPIFile,
    MPI_MODE_CREATE,
    MPI_MODE_RDONLY,
    MPI_MODE_WRONLY,
)
from repro.workloads.patterns import AccessPattern, file_path_for_rank, plan_io

__all__ = ["mpi_io_test", "MpiIoTestReport"]


@dataclass(frozen=True)
class MpiIoTestReport:
    """Per-rank report returned by the workload.

    Timings are from the rank's *local* clock (``MPI_Wtime``), so summing
    or comparing across ranks inherits skew — as in real life.
    """

    rank: int
    hostname: str
    bytes_written: int
    bytes_read: int
    t_open_local: float
    t_io_local: float
    t_total_local: float
    n_writes: int
    n_reads: int


def _parse_args(args: Dict[str, Any]):
    pattern = args.get("pattern", AccessPattern.N_TO_1_STRIDED)
    if isinstance(pattern, str):
        pattern = AccessPattern(pattern)
    block_size = int(args.get("block_size", 32768))
    nobj = int(args.get("nobj", 1))
    path = args.get("path", "/pfs/mpi_io_test.out")
    read_back = bool(args.get("read_back", False))
    sync = bool(args.get("sync", False))
    barriers = bool(args.get("barriers", True))
    barrier_every = int(args.get("barrier_every", 0))
    if block_size <= 0:
        raise InvalidArgument("block_size must be positive")
    if nobj <= 0:
        raise InvalidArgument("nobj must be positive")
    if barrier_every < 0:
        raise InvalidArgument("barrier_every must be >= 0")
    return pattern, block_size, nobj, path, read_back, sync, barriers, barrier_every


def mpi_io_test(mpi: MPIRank, args: Dict[str, Any]) -> Generator[Any, Any, MpiIoTestReport]:
    """The benchmark body for one rank (pass to :func:`repro.simmpi.runtime.mpirun`)."""
    pattern, block_size, nobj, path, read_back, sync, barriers, barrier_every = (
        _parse_args(args)
    )

    if barriers:
        yield from mpi.barrier()
    t_start = mpi.wtime()

    amode = MPI_MODE_WRONLY | MPI_MODE_CREATE
    target = file_path_for_rank(pattern, path, mpi.rank)
    f = yield from MPIFile.open(
        mpi, target, amode, collective=pattern.shared_file and barriers
    )
    t_opened = mpi.wtime()

    bytes_written = 0
    n_writes = 0
    for wpath, offset, nbytes in plan_io(
        pattern, mpi.rank, mpi.size, block_size, nobj, path
    ):
        n = yield from f.write_at(offset, nbytes)
        bytes_written += n
        n_writes += 1
        # The real tool self-synchronizes periodically (Figure 1's call
        # summary counts 29 MPI_Barrier calls for a single short run).
        if barrier_every and n_writes % barrier_every == 0:
            yield from mpi.barrier()

    if sync:
        yield from f.sync()
    yield from f.close()
    t_io_done = mpi.wtime()

    bytes_read = 0
    n_reads = 0
    if read_back:
        rf = yield from MPIFile.open(
            mpi, target, MPI_MODE_RDONLY, collective=pattern.shared_file and barriers
        )
        for rpath, offset, nbytes in plan_io(
            pattern, mpi.rank, mpi.size, block_size, nobj, path
        ):
            n = yield from rf.read_at(offset, nbytes)
            bytes_read += n
            n_reads += 1
        yield from rf.close()

    if barriers:
        yield from mpi.barrier()
    t_end = mpi.wtime()

    report = MpiIoTestReport(
        rank=mpi.rank,
        hostname=mpi.proc.node.hostname,
        bytes_written=bytes_written,
        bytes_read=bytes_read,
        t_open_local=t_opened - t_start,
        t_io_local=t_io_done - t_opened,
        t_total_local=t_end - t_start,
        n_writes=n_writes,
        n_reads=n_reads,
    )
    if barriers:
        # Rank 0 gathers everyone's report, like the real tool's summary.
        yield from mpi.gather(report, root=0)
    return report
