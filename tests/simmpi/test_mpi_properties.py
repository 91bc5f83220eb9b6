"""Property-based tests for the simulated MPI runtime."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.cluster.cluster import Cluster
from repro.machine import ClusterConfig
from repro.simfs.localfs import LocalFS
from repro.simfs.vfs import VFS
from repro.simmpi.runtime import mpirun


def launch(app, nprocs, args=None):
    cluster = Cluster(
        ClusterConfig(n_nodes=nprocs, clock_skew_stddev=0, clock_drift_stddev=0)
    )
    vfs = VFS(cluster.sim)
    vfs.mount("/", LocalFS(cluster.sim))
    return mpirun(cluster, vfs, app, nprocs=nprocs, args=args or {})


@st.composite
def message_patterns(draw):
    """A random, deliverable message pattern: (sender, receiver, tag) list.

    Every message sent is also received (by-source matching), so the
    pattern always completes.
    """
    n = draw(st.integers(2, 5))
    n_msgs = draw(st.integers(0, 12))
    msgs = [
        (
            draw(st.integers(0, n - 1)),
            draw(st.integers(0, n - 1)),
            draw(st.integers(0, 3)),
        )
        for _ in range(n_msgs)
    ]
    msgs = [(s, r, t) for s, r, t in msgs if s != r]
    return n, msgs


@given(pattern=message_patterns())
@settings(max_examples=40, deadline=None)
def test_every_sent_message_is_received_exactly_once(pattern):
    n, msgs = pattern

    def app(mpi, args):
        yield from mpi.barrier()
        # send all my messages
        for s, r, t in msgs:
            if s == mpi.rank:
                yield from mpi.send(r, (s, r, t), tag=t)
        # receive everything addressed to me (in per-sender order)
        got = []
        for s, r, t in msgs:
            if r == mpi.rank:
                got.append((yield from mpi.recv(source=s, tag=t)))
        yield from mpi.barrier()
        return got

    job = launch(app, n)
    received = [m for rank_msgs in job.results for m in rank_msgs]
    assert sorted(received) == sorted(msgs)


@given(
    n=st.integers(2, 6),
    values=st.lists(st.integers(-1000, 1000), min_size=6, max_size=6),
    n_rounds=st.integers(1, 4),
)
@settings(max_examples=30, deadline=None)
def test_collective_algebra(n, values, n_rounds):
    """Reductions/gathers agree with plain Python over any inputs."""
    vals = values[:n]

    def app(mpi, args):
        out = []
        for _ in range(n_rounds):
            s = yield from mpi.allreduce(vals[mpi.rank])
            m = yield from mpi.allreduce(vals[mpi.rank], op=max)
            g = yield from mpi.allgather(vals[mpi.rank])
            out.append((s, m, g))
        return out

    job = launch(app, n)
    for rank_out in job.results:
        for s, m, g in rank_out:
            assert s == sum(vals)
            assert m == max(vals)
            assert g == vals


@given(
    n=st.integers(2, 5),
    delays=st.lists(st.floats(0.0, 0.5), min_size=5, max_size=5),
)
@settings(max_examples=30, deadline=None)
def test_barrier_is_a_barrier(n, delays):
    """No rank leaves before the slowest arrives, for any arrival skew."""

    def app(mpi, args):
        yield from mpi.proc._charge(delays[mpi.rank])
        arrived = mpi.sim.now
        yield from mpi.barrier()
        left = mpi.sim.now
        return arrived, left

    job = launch(app, n)
    slowest_arrival = max(a for a, _ in job.results)
    for _, left in job.results:
        assert left >= slowest_arrival


@given(n=st.integers(2, 5), root=st.integers(0, 4))
@settings(max_examples=20, deadline=None)
def test_bcast_scatter_duality(n, root):
    root %= n

    def app(mpi, args):
        payload = {"from": mpi.rank} if mpi.rank == root else None
        b = yield from mpi.bcast(payload, root=root)
        objs = list(range(n)) if mpi.rank == root else None
        s = yield from mpi.scatter(objs, root=root)
        return b, s

    job = launch(app, n)
    for rank, (b, s) in enumerate(job.results):
        assert b == {"from": root}
        assert s == rank
