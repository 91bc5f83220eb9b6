"""LocalFS, NFS, and ParallelFS behaviour and timing tests."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.cluster.cluster import Cluster
from repro.des.simulator import Simulator
from repro.machine import ClusterConfig, DiskParams, NetworkConfig, PFSParams
from repro.simfs.blockdev import BlockDevice
from repro.simfs.localfs import LocalFS, LocalFSParams
from repro.simfs.nfs import NFS, NFSParams
from repro.simfs.pfs import ParallelFS
from repro.simfs.raid import Raid5Geometry, Raid5Model
from repro.simfs.vfs import CallerContext, O_CREAT, O_WRONLY
from repro.units import KiB, MiB


def make_cluster(n=2):
    return Cluster(ClusterConfig(n_nodes=n, clock_skew_stddev=0, clock_drift_stddev=0))


def ctx_for(cluster, i=0, uid=1000):
    return CallerContext(node=cluster.node(i), pid=1, uid=uid, user="t")


class TestLocalFS:
    def test_device_xor_raid(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            LocalFS(
                sim,
                device=BlockDevice(sim),
                raid=Raid5Model(Raid5Geometry(4)),
            )

    def test_write_charges_device_time(self):
        cluster = make_cluster(1)
        sim = cluster.sim
        fs = LocalFS(sim, device=BlockDevice(sim, DiskParams(stream_bandwidth=60 * MiB)))
        c = ctx_for(cluster)

        def body():
            ino = yield from fs.op_open(c, "f", O_WRONLY | O_CREAT)
            t0 = sim.now
            yield from fs.op_write(c, ino, 0, 60 * MiB, stream=("f", 0))
            return sim.now - t0

        elapsed = sim.run_process(body())
        assert elapsed >= 1.0  # at least the streaming time

    def test_metadata_mutations_cost_journal(self):
        cluster = make_cluster(1)
        sim = cluster.sim
        params = LocalFSParams(meta_op_cost=10e-6, journal_cost=90e-6)
        fs = LocalFS(sim, params=params)
        c = ctx_for(cluster)

        def body():
            t0 = sim.now
            st_ = yield from fs.op_open(c, "f", O_WRONLY | O_CREAT)  # mutating
            t_open = sim.now - t0
            t0 = sim.now
            yield from fs.op_fstat(c, st_)  # read-only metadata
            t_stat = sim.now - t0
            return t_open, t_stat

        t_open, t_stat = sim.run_process(body())
        assert t_open == pytest.approx(100e-6)
        assert t_stat == pytest.approx(10e-6)

    def test_raid_backed_localfs(self):
        cluster = make_cluster(1)
        sim = cluster.sim
        fs = LocalFS(sim, raid=Raid5Model(Raid5Geometry(8, 64 * KiB)))
        c = ctx_for(cluster)

        def body():
            ino = yield from fs.op_open(c, "f", O_WRONLY | O_CREAT)
            yield from fs.op_write(c, ino, 0, 1 * MiB, stream=("f", 0))
            st_ = yield from fs.op_fstat(c, ino)
            return st_.size

        assert sim.run_process(body()) == 1 * MiB


class TestNFS:
    def test_params_validation(self):
        with pytest.raises(ValueError):
            NFSParams(wsize=0)
        with pytest.raises(ValueError):
            NFSParams(server_threads=0)

    def test_namespace_is_backing_namespace(self):
        cluster = make_cluster(1)
        nfs = NFS(cluster.sim, cluster.network)
        assert nfs.ns is nfs.backing.ns

    def test_write_chunked_into_wsize_rpcs(self):
        cluster = make_cluster(1)
        sim = cluster.sim
        nfs = NFS(cluster.sim, cluster.network, params=NFSParams(wsize=64 * KiB))
        c = ctx_for(cluster)
        before = cluster.network.messages

        def body():
            ino = yield from nfs.op_open(c, "f", O_WRONLY | O_CREAT)
            yield from nfs.op_write(c, ino, 0, 256 * KiB + 1, stream=("f", 0))

        sim.run_process(body())
        # open RPC + 5 write RPCs (4 full + 1 remainder)
        assert cluster.network.messages - before == 6

    def test_small_ops_cost_proportionally_more(self):
        def run(block):
            cluster = make_cluster(1)
            sim = cluster.sim
            nfs = NFS(sim, cluster.network)
            c = ctx_for(cluster)

            def body():
                ino = yield from nfs.op_open(c, "f", O_WRONLY | O_CREAT)
                t0 = sim.now
                total = 1 * MiB
                pos = 0
                while pos < total:
                    yield from nfs.op_write(c, ino, pos, block, stream=("f", 0))
                    pos += block
                return total / (sim.now - t0)

            return sim.run_process(body())

        bw_small = run(16 * KiB)
        bw_big = run(512 * KiB)
        assert bw_big > bw_small


class TestParallelFS:
    def test_params_validation(self):
        with pytest.raises(ValueError):
            PFSParams(n_servers=0)
        with pytest.raises(ValueError):
            PFSParams(stripe_width=0)

    def make_pfs(self, cluster, **kw):
        return ParallelFS(cluster.sim, cluster.network, PFSParams(**kw))

    def test_map_stripes_round_robin(self):
        cluster = make_cluster(1)
        pfs = self.make_pfs(cluster, n_servers=4, stripe_width=64 * KiB)
        chunks = pfs.map_stripes(0, 256 * KiB)
        assert [c[0] for c in chunks] == [0, 1, 2, 3]
        assert all(c[2] == 64 * KiB for c in chunks)
        # second stripe row lands back on server 0, offset advanced
        chunks2 = pfs.map_stripes(256 * KiB, 64 * KiB)
        assert chunks2 == [(0, 64 * KiB, 64 * KiB)]

    @given(
        offset=st.integers(0, 2**26),
        nbytes=st.integers(0, 2**22),
        n_servers=st.integers(1, 9),
    )
    @settings(max_examples=60, deadline=None)
    def test_map_stripes_partition_property(self, offset, nbytes, n_servers):
        cluster = make_cluster(1)
        pfs = self.make_pfs(cluster, n_servers=n_servers, stripe_width=64 * KiB)
        chunks = pfs.map_stripes(offset, nbytes)
        assert sum(c[2] for c in chunks) == nbytes
        for server, soff, run in chunks:
            assert 0 <= server < n_servers
            assert soff >= 0 and run > 0

    @given(offsets=st.lists(st.integers(0, 2**20 - 1), min_size=2, max_size=30, unique=True))
    @settings(max_examples=40, deadline=None)
    def test_map_stripes_injective(self, offsets):
        """Two different logical bytes never share a server location."""
        cluster = make_cluster(1)
        pfs = self.make_pfs(cluster, n_servers=5, stripe_width=4096)
        seen = {}
        for off in offsets:
            (server, soff, _run) = pfs.map_stripes(off, 1)[0]
            key = (server, soff)
            assert key not in seen
            seen[key] = off

    def test_large_write_fans_out_to_servers(self):
        cluster = make_cluster(1)
        sim = cluster.sim
        pfs = self.make_pfs(cluster, n_servers=8, stripe_width=64 * KiB)
        c = ctx_for(cluster)

        def body():
            ino = yield from pfs.op_open(c, "f", O_WRONLY | O_CREAT)
            yield from pfs.op_write(c, ino, 0, 1 * MiB, stream=("f", 0))

        sim.run_process(body())
        stats = pfs.server_stats()
        assert sum(s["bytes_served"] for s in stats) == 1 * MiB
        assert sum(1 for s in stats if s["ops_served"] > 0) == 8

    def test_shared_file_pays_lock_cost(self):
        """N-1 writes serialize on the extent lock; private files do not."""

        def run(shared):
            cluster = make_cluster(2)
            sim = cluster.sim
            pfs = ParallelFS(
                sim, cluster.network,
                PFSParams(n_servers=4, extent_lock_time=5e-3),
            )
            c0, c1 = ctx_for(cluster, 0), ctx_for(cluster, 1)

            def writer(c, path, offset):
                ino = yield from pfs.op_open(c, path, O_WRONLY | O_CREAT)
                for j in range(8):
                    yield from pfs.op_write(
                        c, ino, offset + j * 64 * KiB, 64 * KiB, stream=(path, c.node.index)
                    )

            if shared:
                sim.spawn(writer(c0, "shared", 0), name="w0")
                sim.spawn(writer(c1, "shared", 1 * MiB), name="w1")
            else:
                sim.spawn(writer(c0, "f0", 0), name="w0")
                sim.spawn(writer(c1, "f1", 0), name="w1")
            sim.run()
            return sim.now

        assert run(shared=True) > run(shared=False)

    def test_note_close_releases_shared_state(self):
        cluster = make_cluster(2)
        sim = cluster.sim
        pfs = self.make_pfs(cluster, n_servers=2)
        c0, c1 = ctx_for(cluster, 0), ctx_for(cluster, 1)

        def body():
            ino0 = yield from pfs.op_open(c0, "f", O_WRONLY | O_CREAT)
            ino1 = yield from pfs.op_open(c1, "f", O_WRONLY)
            assert pfs._is_shared(ino0)
            pfs.note_close(c1, ino1)
            assert not pfs._is_shared(ino0)
            pfs.note_close(c0, ino0)
            return True

        assert sim.run_process(body())

    def test_strided_pattern_causes_server_seeks(self):
        cluster = make_cluster(1)
        sim = cluster.sim
        pfs = self.make_pfs(cluster, n_servers=2, stripe_width=64 * KiB)
        c = ctx_for(cluster)

        def seq_body():
            ino = yield from pfs.op_open(c, "seq", O_WRONLY | O_CREAT)
            for j in range(8):
                yield from pfs.op_write(c, ino, j * 64 * KiB, 64 * KiB, stream=("seq", 0))

        sim.run_process(seq_body())
        seq_seeks = sum(s["seeks"] for s in pfs.server_stats())

        cluster2 = make_cluster(1)
        pfs2 = ParallelFS(cluster2.sim, cluster2.network, PFSParams(n_servers=2, stripe_width=64 * KiB))
        c2 = ctx_for(cluster2)

        def strided_body():
            ino = yield from pfs2.op_open(c2, "str", O_WRONLY | O_CREAT)
            for j in range(8):
                # jump by 4 stripes each time: lands on same server, far offset
                yield from pfs2.op_write(c2, ino, j * 4 * 64 * KiB, 64 * KiB, stream=("str", 0))

        cluster2.sim.run_process(strided_body())
        strided_seeks = sum(s["seeks"] for s in pfs2.server_stats())
        assert strided_seeks > seq_seeks
