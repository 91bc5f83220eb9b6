"""FaultPlane execution: installation, windows, injections, determinism."""

import pytest

from repro.cluster.cluster import Cluster
from repro.errors import DeadlockError, FaultError, InjectedIOError
from repro.faults.plane import FaultPlane, install_fault_plane
from repro.faults.schedule import (
    DiskErrorStorm,
    DiskSlowdown,
    FaultSchedule,
    LinkDegradation,
    NetworkPartition,
    NodeCrash,
)
from repro.machine import ClusterConfig
from repro.simfs.localfs import LocalFS
from repro.simfs.vfs import O_CREAT, O_WRONLY, VFS


def make_cluster(n=3, seed=0):
    return Cluster(
        ClusterConfig(
            n_nodes=n, seed=seed, clock_skew_stddev=0, clock_drift_stddev=0
        )
    )


class TestInstall:
    def test_install_hangs_plane_off_the_simulator(self):
        cluster = make_cluster()
        plane = install_fault_plane(FaultSchedule(), cluster)
        assert cluster.sim.fault_plane is plane

    def test_double_install_rejected(self):
        cluster = make_cluster()
        plane = FaultPlane(FaultSchedule())
        plane.install(cluster)
        with pytest.raises(FaultError, match="already installed"):
            plane.install(cluster)

    def test_crash_target_must_exist(self):
        cluster = make_cluster(n=2)
        sched = FaultSchedule.of(NodeCrash(at=0.1, node=5))
        with pytest.raises(FaultError, match="cluster has 2 node"):
            install_fault_plane(sched, cluster)


class TestNodeCrashWindow:
    def test_down_window_and_restart(self):
        cluster = make_cluster()
        sched = FaultSchedule.of(NodeCrash(at=1.0, node=0, restart_after=2.0))
        plane = install_fault_plane(sched, cluster)
        sim = cluster.sim
        samples = {}

        def probe():
            for t in (0.5, 1.5, 3.5):
                yield sim.timeout(t - sim.now)
                samples[t] = (plane.node_down(0), cluster.node(0).up)

        sim.run_process(probe())
        assert samples[0.5] == (False, True)
        assert samples[1.5] == (True, False)
        assert samples[3.5] == (False, True)  # restarted
        kinds = [kind for (_t, kind, _d) in plane.fault_log]
        assert kinds == ["node_crash", "node_restart"]
        assert plane.counters["node.crashes"] == 1


class TestNetworkFaults:
    def _transfer_duration(self, cluster, node, start_at, nbytes=1024):
        sim = cluster.sim

        def body():
            yield sim.timeout(start_at)
            t0 = sim.now
            yield from cluster.network.transfer(cluster.node(node).nic, nbytes)
            return sim.now - t0

        return sim.run_process(body())

    def test_partition_stalls_until_heal(self):
        cluster = make_cluster()
        sched = FaultSchedule.of(
            NetworkPartition(at=1.0, nodes=(0,), heal_after=1.0)
        )
        plane = install_fault_plane(sched, cluster)
        dur = self._transfer_duration(cluster, node=0, start_at=1.2)
        assert dur >= 0.8  # parked until the heal at t=2.0
        assert plane.counters["net.partition_stalls"] == 1

    def test_other_nodes_unaffected_by_partition(self):
        cluster = make_cluster()
        sched = FaultSchedule.of(
            NetworkPartition(at=1.0, nodes=(0,), heal_after=1.0)
        )
        plane = install_fault_plane(sched, cluster)
        dur = self._transfer_duration(cluster, node=1, start_at=1.2)
        assert dur < 0.5
        assert "net.partition_stalls" not in plane.counters

    def test_unhealed_partition_is_a_named_deadlock(self):
        cluster = make_cluster()
        sched = FaultSchedule.of(NetworkPartition(at=1.0, nodes=(0,)))
        install_fault_plane(sched, cluster)
        sim = cluster.sim

        def body():
            yield sim.timeout(1.2)
            yield from cluster.network.transfer(cluster.node(0).nic, 1024)

        sim.spawn(body(), name="sender")
        with pytest.raises(DeadlockError) as err:
            sim.run_fast()
        assert "partition:node0" in str(err.value)

    def test_link_drops_cost_backoff_retransmits(self):
        cluster = make_cluster()
        sched = FaultSchedule.of(
            LinkDegradation(
                at=0.0, duration=10.0, node=0,
                extra_latency=1e-3, drop_rate=1.0,
                retransmit_timeout=2e-3, max_retransmits=2,
            )
        )
        plane = install_fault_plane(sched, cluster)
        dur = self._transfer_duration(cluster, node=0, start_at=0.5)
        # 1ms latency spike + 2ms and 4ms retransmit timeouts, at least.
        assert dur >= 1e-3 + 2e-3 + 4e-3
        assert plane.counters["net.drops"] == 2
        assert plane.counters["net.latency_spikes"] == 1

    def test_drop_sequence_deterministic_per_seed(self):
        def run(seed):
            cluster = make_cluster(seed=seed)
            sched = FaultSchedule.of(
                LinkDegradation(at=0.0, duration=10.0, node=0, drop_rate=0.5)
            )
            plane = install_fault_plane(sched, cluster)
            for start in (0.1, 0.2, 0.3, 0.4):
                self._transfer_duration(cluster, node=0, start_at=0.0)
            return plane.counters.get("net.drops", 0)

        assert run(5) == run(5)


class TestDiskFaults:
    def _pfs_testbed(self, schedule, seed=0):
        from repro.simos.process import SimProcess

        cluster = make_cluster(seed=seed)
        sim = cluster.sim
        vfs = VFS(sim)
        vfs.mount("/", LocalFS(sim))
        vfs.mount("/pfs", LocalFS(sim))
        plane = install_fault_plane(schedule, cluster, vfs)
        proc = SimProcess(sim, cluster.node(0), vfs, pid=1)
        return sim, plane, proc

    def test_slowdown_applies_only_inside_window(self):
        sched = FaultSchedule.of(
            DiskSlowdown(at=0.0, duration=1.0, extra_latency=0.5, mount="/pfs")
        )
        sim, plane, proc = self._pfs_testbed(sched)

        def body():
            fd = yield from proc.open("/pfs/f", O_WRONLY | O_CREAT)
            t0 = sim.now
            yield from proc.write(fd, 10)
            inside = sim.now - t0
            yield sim.timeout(2.0 - sim.now)  # past the window
            t0 = sim.now
            yield from proc.write(fd, 10)
            return inside, sim.now - t0

        inside, outside = sim.run_process(body())
        assert inside >= 0.5
        assert outside < 0.5
        assert plane.counters["disk.delays"] >= 2  # open + first write
        assert plane.counters["disk.slowdowns"] == 1

    def test_storm_injects_eio_deterministically(self):
        def run(seed):
            sched = FaultSchedule.of(
                DiskErrorStorm(at=0.0, duration=10.0, error_rate=0.5,
                               mount="/pfs", ops=frozenset({"write"}))
            )
            sim, plane, proc = self._pfs_testbed(sched, seed=seed)
            hits = []

            def body():
                fd = yield from proc.open("/pfs/f", O_WRONLY | O_CREAT)
                for _ in range(20):
                    try:
                        yield from proc.write(fd, 10)
                        hits.append(False)
                    except InjectedIOError:
                        hits.append(True)

            sim.run_process(body())
            assert plane.counters["disk.errors"] == sum(hits)
            return hits

        assert run(3) == run(3)
        assert any(run(3)) and not all(run(3))

    def test_non_mount_point_target_rejected(self):
        cluster = make_cluster()
        vfs = VFS(cluster.sim)
        vfs.mount("/", LocalFS(cluster.sim))
        sched = FaultSchedule.of(
            DiskSlowdown(at=0.0, duration=1.0, extra_latency=1e-3,
                         mount="/not-a-mount")
        )
        with pytest.raises(FaultError, match="not a mount point"):
            install_fault_plane(sched, cluster, vfs)


class TestSnapshot:
    def test_snapshot_is_json_ready_and_ordered(self):
        from repro.obs.metrics import canonical_json

        cluster = make_cluster()
        sched = FaultSchedule.of(
            NodeCrash(at=1.0, node=0, restart_after=1.0),
            NetworkPartition(at=0.5, nodes=(1,), heal_after=0.2),
        )
        plane = install_fault_plane(sched, cluster)
        sim = cluster.sim

        def body():
            yield sim.timeout(5.0)

        sim.run_process(body())
        snap = plane.snapshot()
        assert set(snap) == {"schedule", "counters", "log"}
        times = [entry["t"] for entry in snap["log"]]
        assert times == sorted(times)
        assert [e["kind"] for e in snap["log"]] == [
            "partition", "heal", "node_crash", "node_restart"
        ]
        canonical_json(snap)  # must serialize without a custom encoder
