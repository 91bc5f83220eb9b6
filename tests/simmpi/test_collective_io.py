"""Two-phase collective I/O (write_at_all) tests."""

import pytest

from repro.errors import InvalidArgument
from repro.harness.figures import paper_testbed
from repro.harness.testbed import build_testbed
from repro.simmpi.mpiio import MPI_MODE_CREATE, MPI_MODE_WRONLY, MPIFile
from repro.simmpi.runtime import mpirun
from repro.units import KiB
from repro.workloads.patterns import AccessPattern, block_offset

NP = 8


def run_app(app, args=None, nprocs=NP):
    tb = build_testbed(paper_testbed(nprocs=nprocs))
    job = mpirun(tb.cluster, tb.vfs, app, nprocs=nprocs, args=args or {})
    return tb, job


def strided_app(collective, nobj, bs):
    def app(mpi, args):
        f = yield from MPIFile.open(
            mpi, "/pfs/out", MPI_MODE_WRONLY | MPI_MODE_CREATE, collective=True
        )
        total = 0
        if collective:
            extents = [
                (
                    block_offset(
                        AccessPattern.N_TO_1_STRIDED, mpi.rank, mpi.size, j, bs, nobj
                    ),
                    bs,
                )
                for j in range(nobj)
            ]
            total += yield from f.write_at_all(extents=extents)
        else:
            for j in range(nobj):
                off = block_offset(
                    AccessPattern.N_TO_1_STRIDED, mpi.rank, mpi.size, j, bs, nobj
                )
                total += yield from f.write_at(off, bs)
        yield from f.close()
        yield from mpi.barrier()
        return total

    return app


class TestCorrectness:
    def test_file_fully_written(self):
        tb, job = run_app(strided_app(True, nobj=16, bs=64 * KiB))
        assert tb.pfs.ns.lookup("out").size == NP * 16 * 64 * KiB
        assert all(r == 16 * 64 * KiB for r in job.results)

    def test_single_extent_form(self):
        def app(mpi, args):
            f = yield from MPIFile.open(
                mpi, "/pfs/one", MPI_MODE_WRONLY | MPI_MODE_CREATE, collective=True
            )
            n = yield from f.write_at_all(mpi.rank * 64 * KiB, 64 * KiB)
            yield from f.close()
            return n

        tb, job = run_app(app)
        assert tb.pfs.ns.lookup("one").size == NP * 64 * KiB
        assert all(r == 64 * KiB for r in job.results)

    def test_missing_arguments_rejected(self):
        def app(mpi, args):
            f = yield from MPIFile.open(
                mpi, "/pfs/bad", MPI_MODE_WRONLY | MPI_MODE_CREATE, collective=True
            )
            yield from f.write_at_all()

        with pytest.raises(InvalidArgument):
            run_app(app)

    def test_overlapping_extents_merge(self):
        """Overlapping contributions must not double-write or crash."""

        def app(mpi, args):
            f = yield from MPIFile.open(
                mpi, "/pfs/ovl", MPI_MODE_WRONLY | MPI_MODE_CREATE, collective=True
            )
            # every rank writes the same region
            yield from f.write_at_all(0, 128 * KiB)
            yield from f.close()
            return 0

        tb, _ = run_app(app)
        assert tb.pfs.ns.lookup("ovl").size == 128 * KiB

    def test_zero_length_contribution(self):
        """Ranks may contribute nothing (uneven decompositions)."""

        def app(mpi, args):
            f = yield from MPIFile.open(
                mpi, "/pfs/zero", MPI_MODE_WRONLY | MPI_MODE_CREATE, collective=True
            )
            nbytes = 64 * KiB if mpi.rank == 0 else 0
            n = yield from f.write_at_all(0, nbytes)
            yield from f.close()
            return n

        tb, job = run_app(app)
        assert tb.pfs.ns.lookup("zero").size == 64 * KiB
        assert job.results[0] == 64 * KiB and job.results[1] == 0


class TestPerformance:
    def test_collective_beats_independent_on_strided(self):
        """The two-phase payoff: strided small blocks become sequential
        file-domain writes."""
        _, independent = run_app(strided_app(False, nobj=64, bs=64 * KiB))
        _, collective = run_app(strided_app(True, nobj=64, bs=64 * KiB))
        assert collective.elapsed < 0.7 * independent.elapsed

    def test_collective_events_visible_to_tracers(self):
        from repro.frameworks.ptrace.framework import PTrace
        from repro.harness.experiment import run_traced

        def app(mpi, args):
            f = yield from MPIFile.open(
                mpi, "/pfs/t", MPI_MODE_WRONLY | MPI_MODE_CREATE, collective=True
            )
            yield from f.write_at_all(mpi.rank * 64 * KiB, 64 * KiB)
            yield from f.close()
            return 0

        _, traced = run_traced(PTrace, app, {}, config=paper_testbed(nprocs=4), nprocs=4)
        names = {e.name for e in traced.bundle.all_events()}
        assert "SYS_pwrite64" in names  # the aggregated domain writes
