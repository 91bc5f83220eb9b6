"""mpirun launcher tests."""

import pytest

from repro.cluster.cluster import Cluster
from repro.errors import MPIError
from repro.harness.testbed import build_testbed
from repro.machine import ClusterConfig
from repro.simmpi.runtime import mpirun


def test_nprocs_defaults_to_cluster_size():
    tb = build_testbed()

    def app(mpi, args):
        yield from mpi.barrier()
        return mpi.rank

    job = mpirun(tb.cluster, tb.vfs, app)
    assert job.results == list(range(len(tb.cluster.nodes)))


def test_zero_procs_rejected():
    tb = build_testbed()
    with pytest.raises(MPIError):
        mpirun(tb.cluster, tb.vfs, lambda mpi, args: iter(()), nprocs=0)


def test_ranks_round_robin_over_nodes():
    tb = build_testbed()
    n_nodes = len(tb.cluster.nodes)

    def app(mpi, args):
        yield from mpi.barrier()
        return mpi.proc.node.index

    job = mpirun(tb.cluster, tb.vfs, app, nprocs=n_nodes * 2)
    assert job.results[:n_nodes] == job.results[n_nodes:]


def test_elapsed_and_rank_end_times():
    tb = build_testbed()

    def app(mpi, args):
        yield from mpi.proc._charge(0.1 * (mpi.rank + 1))
        return mpi.rank

    job = mpirun(tb.cluster, tb.vfs, app, nprocs=3)
    assert job.elapsed == pytest.approx(0.3)
    assert job.rank_end_times == pytest.approx([0.1, 0.2, 0.3])
    assert job.nprocs == 3


def test_setup_and_teardown_called_per_rank():
    tb = build_testbed()
    setups, teardowns = [], []

    def app(mpi, args):
        yield from mpi.barrier()

    mpirun(
        tb.cluster,
        tb.vfs,
        app,
        nprocs=3,
        setup=lambda r, p, m: setups.append((r, p.pid)),
        teardown=lambda r, p, m: teardowns.append(r),
    )
    assert [s[0] for s in setups] == [0, 1, 2]
    assert sorted(set(s[1] for s in setups)) == [10000, 10001, 10002]
    assert teardowns == [0, 1, 2]


def test_rank_exception_propagates():
    tb = build_testbed()

    def app(mpi, args):
        yield from mpi.barrier()
        if mpi.rank == 1:
            raise ValueError("rank 1 exploded")

    with pytest.raises(ValueError, match="rank 1 exploded"):
        mpirun(tb.cluster, tb.vfs, app, nprocs=2)


def test_args_passed_through():
    tb = build_testbed()

    def app(mpi, args):
        yield from mpi.barrier()
        return args["x"] * 2

    job = mpirun(tb.cluster, tb.vfs, app, nprocs=2, args={"x": 21})
    assert job.results == [42, 42]


def test_run_false_defers_execution():
    tb = build_testbed()
    log = []

    def app(mpi, args):
        yield from mpi.barrier()
        log.append(mpi.rank)

    job = mpirun(tb.cluster, tb.vfs, app, nprocs=2, run=False)
    assert log == []
    tb.sim.run()
    assert sorted(log) == [0, 1]


def test_uid_and_user_propagate_to_processes():
    tb = build_testbed()

    def app(mpi, args):
        yield from mpi.barrier()

    job = mpirun(tb.cluster, tb.vfs, app, nprocs=2, uid=555, user="alice")
    assert all(p.uid == 555 and p.user == "alice" for p in job.procs)
