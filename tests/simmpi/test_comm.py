"""Point-to-point and collective communication tests."""

import pytest

from repro.cluster.cluster import Cluster
from repro.errors import CollectiveMismatch, RankError
from repro.machine import ClusterConfig
from repro.simfs.localfs import LocalFS
from repro.simfs.vfs import VFS
from repro.simmpi.comm import ANY_SOURCE, ANY_TAG, Communicator, MPIRank
from repro.simmpi.runtime import mpirun
from repro.simos.process import SimProcess


def launch(app, nprocs, args=None, **kw):
    cluster = Cluster(
        ClusterConfig(n_nodes=nprocs, clock_skew_stddev=0, clock_drift_stddev=0)
    )
    vfs = VFS(cluster.sim)
    vfs.mount("/", LocalFS(cluster.sim))
    return mpirun(cluster, vfs, app, nprocs=nprocs, args=args or {})


class TestPointToPoint:
    def test_send_recv_delivers_object(self):
        def app(mpi, args):
            if mpi.rank == 0:
                yield from mpi.send(1, {"a": 7, "b": 3.14}, tag=11)
                return "sent"
            data = yield from mpi.recv(source=0, tag=11)
            return data

        job = launch(app, 2)
        assert job.results[0] == "sent"
        assert job.results[1] == {"a": 7, "b": 3.14}

    def test_recv_blocks_until_send(self):
        def app(mpi, args):
            if mpi.rank == 0:
                yield from mpi.proc._charge(1.0)  # think before sending
                yield from mpi.send(1, "late")
                return None
            t0 = mpi.sim.now
            msg = yield from mpi.recv(source=0)
            return (msg, mpi.sim.now - t0)

        job = launch(app, 2)
        msg, waited = job.results[1]
        assert msg == "late"
        assert waited >= 1.0

    def test_wildcard_source_and_tag(self):
        def app(mpi, args):
            if mpi.rank == 0:
                a = yield from mpi.recv(source=ANY_SOURCE, tag=ANY_TAG)
                b = yield from mpi.recv(source=ANY_SOURCE, tag=ANY_TAG)
                return sorted([a, b])
            yield from mpi.send(0, "from-%d" % mpi.rank, tag=mpi.rank)
            return None

        job = launch(app, 3)
        assert job.results[0] == ["from-1", "from-2"]

    def test_tag_matching_skips_other_tags(self):
        def app(mpi, args):
            if mpi.rank == 0:
                yield from mpi.send(1, "first", tag=1)
                yield from mpi.send(1, "second", tag=2)
                return None
            two = yield from mpi.recv(source=0, tag=2)
            one = yield from mpi.recv(source=0, tag=1)
            return (two, one)

        job = launch(app, 2)
        assert job.results[1] == ("second", "first")

    def test_messages_preserve_fifo_per_pair(self):
        def app(mpi, args):
            if mpi.rank == 0:
                for i in range(5):
                    yield from mpi.send(1, i)
                return None
            got = []
            for _ in range(5):
                got.append((yield from mpi.recv(source=0)))
            return got

        job = launch(app, 2)
        assert job.results[1] == [0, 1, 2, 3, 4]

    def test_send_to_bad_rank(self):
        def app(mpi, args):
            if mpi.rank == 0:
                yield from mpi.send(5, "x")
            yield from mpi.barrier()

        with pytest.raises(RankError):
            launch(app, 2)

    def test_payload_bytes_cost_transfer_time(self):
        def app(mpi, args):
            if mpi.rank == 0:
                t0 = mpi.sim.now
                yield from mpi.send(1, "big", nbytes=args["nbytes"])
                return mpi.sim.now - t0
            yield from mpi.recv(source=0)
            return None

        small = launch(app, 2, {"nbytes": 1024}).results[0]
        big = launch(app, 2, {"nbytes": 64 * 1024 * 1024}).results[0]
        assert big > small


class TestCollectives:
    def test_barrier_synchronizes_all(self):
        def app(mpi, args):
            yield from mpi.proc._charge(0.1 * mpi.rank)  # staggered arrival
            yield from mpi.barrier()
            return mpi.sim.now

        job = launch(app, 4)
        # all ranks released at (approximately) the same true time
        assert max(job.results) - min(job.results) < 1e-6
        assert min(job.results) >= 0.3  # waited for the slowest

    def test_bcast_distributes_root_value(self):
        def app(mpi, args):
            value = {"payload": 42} if mpi.rank == 1 else None
            got = yield from mpi.bcast(value, root=1)
            return got

        job = launch(app, 4)
        assert all(r == {"payload": 42} for r in job.results)

    def test_gather_collects_in_rank_order(self):
        def app(mpi, args):
            got = yield from mpi.gather(mpi.rank * 10, root=0)
            return got

        job = launch(app, 4)
        assert job.results[0] == [0, 10, 20, 30]
        assert all(r is None for r in job.results[1:])

    def test_allgather(self):
        def app(mpi, args):
            return (yield from mpi.allgather(chr(ord("a") + mpi.rank)))

        job = launch(app, 3)
        assert all(r == ["a", "b", "c"] for r in job.results)

    def test_reduce_and_allreduce(self):
        def app(mpi, args):
            s = yield from mpi.reduce(mpi.rank + 1, root=0)
            m = yield from mpi.allreduce(mpi.rank, op=max)
            return s, m

        job = launch(app, 4)
        assert job.results[0] == (10, 3)
        assert all(r[1] == 3 for r in job.results)

    def test_scatter(self):
        def app(mpi, args):
            objs = [i * i for i in range(mpi.size)] if mpi.rank == 0 else None
            return (yield from mpi.scatter(objs, root=0))

        job = launch(app, 4)
        assert job.results == [0, 1, 4, 9]

    def test_scatter_wrong_length_fails(self):
        def app(mpi, args):
            objs = [1, 2] if mpi.rank == 0 else None  # too short for 3 ranks
            return (yield from mpi.scatter(objs, root=0))

        with pytest.raises(RankError):
            launch(app, 3)

    def test_mismatched_collectives_raise(self):
        def app(mpi, args):
            if mpi.rank == 0:
                yield from mpi.barrier()
            else:
                yield from mpi.bcast("x", root=1)

        with pytest.raises(CollectiveMismatch):
            launch(app, 2)

    def test_sequential_collectives_keep_order(self):
        def app(mpi, args):
            a = yield from mpi.allreduce(1)
            b = yield from mpi.allreduce(2)
            return (a, b)

        job = launch(app, 3)
        assert all(r == (3, 6) for r in job.results)

    def test_wtime_is_local_clock(self):
        cluster = Cluster(ClusterConfig(n_nodes=2, clock_skew_stddev=0.5, seed=1))
        vfs = VFS(cluster.sim)
        vfs.mount("/", LocalFS(cluster.sim))

        def app(mpi, args):
            yield from mpi.barrier()
            return mpi.wtime()

        job = mpirun(cluster, vfs, app, nprocs=2)
        # exiting the same barrier, yet the reported times differ: skew.
        assert abs(job.results[0] - job.results[1]) > 1e-3

    def test_get_rank_and_size_are_traced_libcalls(self):
        def app(mpi, args):
            r = yield from mpi.get_rank()
            s = yield from mpi.get_size()
            return (r, s, mpi.proc.libcall_count)

        job = launch(app, 2)
        assert job.results[0][:2] == (0, 2)
        assert job.results[0][2] >= 2
