"""MPI-IO tests: file ops, the Figure 1 syscall sequence, nonblocking I/O."""

import pytest

from repro.cluster.cluster import Cluster
from repro.errors import InvalidArgument, ReplayError
from repro.harness.testbed import build_testbed
from repro.machine import ClusterConfig, TestbedConfig
from repro.simmpi.mpiio import (
    MPI_MODE_CREATE,
    MPI_MODE_RDONLY,
    MPI_MODE_RDWR,
    MPI_MODE_WRONLY,
    MPIFile,
    _amode_to_flags,
)
from repro.simmpi.runtime import mpirun
from repro.simos import syscalls as sc
from repro.simos.interpose import Interposer
from repro.trace.events import EventLayer
from repro.trace.records import TraceFile
from repro.units import KiB


def launch(app, nprocs=2, args=None, setup=None):
    tb = build_testbed(TestbedConfig())
    return mpirun(tb.cluster, tb.vfs, app, nprocs=nprocs, args=args or {}, setup=setup)


class TestAmode:
    def test_modes_translate(self):
        _amode_to_flags(MPI_MODE_RDONLY)
        _amode_to_flags(MPI_MODE_WRONLY | MPI_MODE_CREATE)
        _amode_to_flags(MPI_MODE_RDWR)

    def test_missing_access_mode_rejected(self):
        with pytest.raises(InvalidArgument):
            _amode_to_flags(MPI_MODE_CREATE)


class TestFileOps:
    def test_write_read_roundtrip_sizes(self):
        def app(mpi, args):
            f = yield from MPIFile.open(
                mpi, "/pfs/data", MPI_MODE_RDWR | MPI_MODE_CREATE
            )
            n = yield from f.write_at(mpi.rank * 1000, 1000)
            size = yield from f.get_size()
            got = yield from f.read_at(mpi.rank * 1000, 1000)
            yield from f.close()
            return n, size, got

        job = launch(app, nprocs=2)
        for n, size, got in job.results:
            assert n == 1000 and got == 1000
            assert size in (1000, 2000)  # depends on write interleaving

    def test_collective_open_synchronizes(self):
        def app(mpi, args):
            yield from mpi.proc._charge(0.2 * mpi.rank)
            f = yield from MPIFile.open(
                mpi, "/pfs/x", MPI_MODE_WRONLY | MPI_MODE_CREATE, collective=True
            )
            t = mpi.sim.now
            yield from f.close()
            return t

        job = launch(app, nprocs=3)
        assert max(job.results) - min(job.results) < 1e-6

    def test_independent_open_does_not_synchronize(self):
        def app(mpi, args):
            yield from mpi.proc._charge(0.2 * mpi.rank)
            f = yield from MPIFile.open(
                mpi, "/pfs/x%d" % mpi.rank, MPI_MODE_WRONLY | MPI_MODE_CREATE,
                collective=False,
            )
            t = mpi.sim.now
            yield from f.close()
            return t

        job = launch(app, nprocs=3)
        assert max(job.results) - min(job.results) >= 0.2

    def test_use_after_close_rejected(self):
        def app(mpi, args):
            f = yield from MPIFile.open(
                mpi, "/pfs/x", MPI_MODE_WRONLY | MPI_MODE_CREATE, collective=False
            )
            yield from f.close()
            try:
                yield from f.write_at(0, 10)
            except ReplayError:
                return "rejected"

        job = launch(app, nprocs=1)
        assert job.results[0] == "rejected"

    def test_set_size_and_sync(self):
        def app(mpi, args):
            f = yield from MPIFile.open(
                mpi, "/pfs/x", MPI_MODE_WRONLY | MPI_MODE_CREATE, collective=False
            )
            yield from f.set_size(12345)
            yield from f.sync()
            size = yield from f.get_size()
            yield from f.close()
            return size

        assert launch(app, nprocs=1).results[0] == 12345


class TestFigure1Sequence:
    def test_open_emits_statfs_open_fcntl(self):
        """MPI_File_open's body makes the §Figure-1 syscall sequence."""
        sinks = {}

        def setup(rank, proc, mpirank):
            sink = TraceFile(rank=rank)
            sinks[rank] = sink
            proc.attach(Interposer(sink, per_event_cost=0), EventLayer.SYSCALL)
            proc.attach(Interposer(sink, per_event_cost=0), EventLayer.LIBCALL)

        def app(mpi, args):
            f = yield from MPIFile.open(
                mpi, "/pfs/file", MPI_MODE_WRONLY | MPI_MODE_CREATE, collective=False
            )
            yield from f.write_at(0, 32 * KiB)
            yield from f.close()

        launch(app, nprocs=1, setup=setup)
        names = [e.name for e in sinks[0]]
        # library call present...
        assert "MPI_File_open" in names
        assert "MPI_File_write_at" in names
        # ...with the Figure 1 syscalls underneath, in order
        i_statfs = names.index(sc.SYS_STATFS)
        i_open = names.index(sc.SYS_OPEN)
        i_fcntl = names.index(sc.SYS_FCNTL)
        assert i_statfs < i_open < i_fcntl
        # write_at = seek + write
        assert sc.SYS_LSEEK in names and sc.SYS_WRITE in names

    def test_syscall_only_tracer_misses_library_layer(self):
        sinks = {}

        def setup(rank, proc, mpirank):
            sink = TraceFile(rank=rank)
            sinks[rank] = sink
            proc.attach(Interposer(sink, per_event_cost=0), EventLayer.SYSCALL)

        def app(mpi, args):
            f = yield from MPIFile.open(
                mpi, "/pfs/file", MPI_MODE_WRONLY | MPI_MODE_CREATE, collective=False
            )
            yield from f.close()

        launch(app, nprocs=1, setup=setup)
        names = [e.name for e in sinks[0]]
        assert "MPI_File_open" not in names
        assert sc.SYS_OPEN in names


class TestNonblocking:
    def test_iwrite_then_wait(self):
        def app(mpi, args):
            f = yield from MPIFile.open(
                mpi, "/pfs/nb", MPI_MODE_WRONLY | MPI_MODE_CREATE, collective=False
            )
            req = yield from f.iwrite_at(0, 64 * KiB)
            n = yield from f.wait(req)
            size = yield from f.get_size()
            yield from f.close()
            return n, size, req.done

        job = launch(app, nprocs=1)
        n, size, done = job.results[0]
        assert n == 64 * KiB and size == 64 * KiB and done

    def test_iwrite_overlaps_with_compute(self):
        def app(mpi, args):
            f = yield from MPIFile.open(
                mpi, "/pfs/nb", MPI_MODE_WRONLY | MPI_MODE_CREATE, collective=False
            )
            t0 = mpi.sim.now
            req = yield from f.iwrite_at(0, 1024 * KiB)
            yield from mpi.proc._charge(0.05)  # overlapped compute
            yield from f.wait(req)
            elapsed_overlapped = mpi.sim.now - t0
            yield from f.close()
            return elapsed_overlapped

        overlapped = launch(app, nprocs=1).results[0]

        def app_seq(mpi, args):
            f = yield from MPIFile.open(
                mpi, "/pfs/nb2", MPI_MODE_WRONLY | MPI_MODE_CREATE, collective=False
            )
            t0 = mpi.sim.now
            yield from f.write_at(0, 1024 * KiB)
            yield from mpi.proc._charge(0.05)
            sequential = mpi.sim.now - t0
            yield from f.close()
            return sequential

        sequential = launch(app_seq, nprocs=1).results[0]
        assert overlapped < sequential
