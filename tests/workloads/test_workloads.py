"""mpi_io_test and other workload driver tests."""

import pytest

from repro.errors import InvalidArgument
from repro.harness.testbed import build_testbed
from repro.simmpi.runtime import mpirun
from repro.units import KiB
from repro.workloads.generators import (
    checkpoint,
    io_intensive,
    metadata_heavy,
    mmap_mix,
)
from repro.workloads.mpi_io_test import mpi_io_test
from repro.workloads.patterns import AccessPattern, total_file_bytes


def run(workload, args, nprocs=4):
    tb = build_testbed()
    job = mpirun(tb.cluster, tb.vfs, workload, nprocs=nprocs, args=args)
    return tb, job


class TestMpiIoTest:
    @pytest.mark.parametrize("pattern", list(AccessPattern))
    def test_writes_expected_bytes_and_file_sizes(self, pattern):
        args = {"pattern": pattern, "block_size": 64 * KiB, "nobj": 4, "path": "/pfs/out"}
        tb, job = run(mpi_io_test, args, nprocs=4)
        for r in job.results:
            assert r.bytes_written == 4 * 64 * KiB
            assert r.n_writes == 4
        if pattern.shared_file:
            assert tb.pfs.ns.lookup("out").size == total_file_bytes(
                pattern, 4, 64 * KiB, 4
            )
        else:
            for rank in range(4):
                assert tb.pfs.ns.lookup("out.%d" % rank).size == 4 * 64 * KiB

    def test_read_back(self):
        args = {
            "pattern": AccessPattern.N_TO_N,
            "block_size": 64 * KiB,
            "nobj": 2,
            "path": "/pfs/out",
            "read_back": True,
        }
        _, job = run(mpi_io_test, args)
        for r in job.results:
            assert r.bytes_read == r.bytes_written

    def test_string_pattern_accepted(self):
        args = {"pattern": "n-to-n", "block_size": 1024, "nobj": 1, "path": "/pfs/out"}
        _, job = run(mpi_io_test, args, nprocs=2)
        assert all(r.bytes_written == 1024 for r in job.results)

    def test_local_timings_reported(self):
        args = {"pattern": AccessPattern.N_TO_N, "block_size": 64 * KiB, "nobj": 2,
                "path": "/pfs/out"}
        _, job = run(mpi_io_test, args, nprocs=2)
        for r in job.results:
            assert r.t_total_local > 0
            assert r.t_io_local > 0

    def test_bad_args_rejected(self):
        with pytest.raises(InvalidArgument):
            run(mpi_io_test, {"block_size": 0})
        with pytest.raises(InvalidArgument):
            run(mpi_io_test, {"nobj": -1})
        with pytest.raises(InvalidArgument):
            run(mpi_io_test, {"barrier_every": -2})

    def test_barrier_every_emits_barriers(self):
        from repro.simos.interpose import Interposer
        from repro.trace.events import EventLayer
        from repro.trace.records import TraceFile

        tb = build_testbed()
        sinks = {}

        def setup(rank, proc, mpirank):
            sink = TraceFile(rank=rank)
            sinks[rank] = sink
            proc.attach(Interposer(sink, per_event_cost=0), EventLayer.LIBCALL)

        args = {"pattern": AccessPattern.N_TO_1_NONSTRIDED, "block_size": 1024,
                "nobj": 8, "barrier_every": 2, "path": "/pfs/out"}
        mpirun(tb.cluster, tb.vfs, mpi_io_test, nprocs=2, args=args, setup=setup)
        barrier_count = sum(1 for e in sinks[0] if e.name == "MPI_Barrier")
        # 2 app barriers + 8/2 = 4 periodic ones
        assert barrier_count == 6

    def test_barriers_false_runs_independently(self):
        args = {"pattern": AccessPattern.N_TO_N, "block_size": 1024, "nobj": 1,
                "path": "/pfs/out", "barriers": False}
        _, job = run(mpi_io_test, args, nprocs=2)
        assert all(r.bytes_written == 1024 for r in job.results)


class TestGenerators:
    def test_io_intensive_full_cycle(self):
        tb, job = run(
            io_intensive,
            {"base": "/tmp/work", "n_files": 3, "file_size": 64 * KiB, "block_size": 16 * KiB},
            nprocs=1,
        )
        r = job.results[0]
        assert r["bytes_written"] == 3 * 64 * KiB
        assert r["bytes_read"] == 3 * 64 * KiB
        # files were deleted afterwards
        assert tb.scratch.ns.readdir("work") == []

    def test_io_intensive_keep(self):
        tb, job = run(
            io_intensive,
            {"base": "/tmp/keepme", "n_files": 2, "file_size": 16 * KiB,
             "block_size": 16 * KiB, "keep": True},
            nprocs=1,
        )
        assert len(tb.scratch.ns.readdir("keepme")) == 2

    def test_checkpoint_writes_phase_files(self):
        tb, job = run(
            checkpoint,
            {"path": "/pfs/ckpt", "phases": 2, "compute_time": 0.01,
             "block_size": 32 * KiB, "blocks_per_phase": 2},
            nprocs=2,
        )
        for r in job.results:
            assert r["bytes_written"] == 2 * 2 * 32 * KiB
        for phase in range(2):
            assert tb.pfs.ns.lookup("ckpt.%d" % phase).size == 2 * 2 * 32 * KiB

    def test_metadata_heavy_leaves_nothing(self):
        tb, job = run(metadata_heavy, {"base": "/tmp/md", "n_files": 5}, nprocs=2)
        assert tb.scratch.ns.readdir("md") == []

    def test_mmap_mix_reports_split(self):
        tb, job = run(
            mmap_mix,
            {"path": "/tmp/mapped", "block_size": 16 * KiB, "n_mmap_writes": 3},
            nprocs=1,
        )
        r = job.results[0]
        assert r["visible_bytes"] == 16 * KiB
        assert r["mmap_bytes"] == 3 * 16 * KiB
        assert tb.scratch.ns.lookup("mapped.0").size == 4 * 16 * KiB


class TestHaloExchange:
    def test_ring_pattern_and_checkpoint(self):
        from repro.workloads.generators import halo_exchange

        tb, job = run(
            halo_exchange,
            {"path": "/pfs/halo", "iterations": 2, "halo_bytes": 8 * KiB,
             "block_size": 32 * KiB},
            nprocs=4,
        )
        for r in job.results:
            assert r["bytes_sent"] == 2 * 2 * 8 * KiB
            assert r["bytes_written"] == 32 * KiB
        assert tb.pfs.ns.lookup("halo").size == 4 * 32 * KiB
