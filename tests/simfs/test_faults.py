"""The disk-fault layer (the fault plane's ScheduledFaultFS), including
tracer behaviour under faults."""

from repro.cluster.cluster import Cluster
from repro.errors import InjectedIOError
from repro.faults.plane import install_fault_plane
from repro.faults.schedule import DiskErrorStorm, DiskSlowdown, FaultSchedule
from repro.machine import ClusterConfig
from repro.simfs.localfs import LocalFS
from repro.simfs.vfs import VFS, CallerContext, O_CREAT, O_WRONLY

#: A storm rate so small no coin of these short tests ever hits, so the
#: coins are drawn but never end an operation.
NEVER = 1e-12


class FakeNode:
    index = 0
    hostname = "n0"

    def now_local(self):
        return 0.0


def ctx():
    return CallerContext(node=FakeNode(), pid=1, uid=1000, user="t")


def make(*events, seed=0):
    """(sim, plane, disk layer) for a schedule over a LocalFS at /pfs."""
    cluster = Cluster(ClusterConfig(n_nodes=1, seed=seed))
    sim = cluster.sim
    vfs = VFS(sim)
    vfs.mount("/", LocalFS(sim))
    vfs.mount("/pfs", LocalFS(sim))
    plane = install_fault_plane(FaultSchedule.of(*events), cluster, vfs)
    return sim, plane, vfs.resolve("/pfs")[0]


def storm(rate, ops=("write",), at=0.0, duration=100.0, mount="/pfs"):
    return DiskErrorStorm(
        at=at, duration=duration, error_rate=rate, mount=mount, ops=frozenset(ops)
    )


class TestDrawOrder:
    """Every eligible op draws one coin per storm, in schedule order;
    slowdowns and ineligible ops draw nothing."""

    def _error_sequence(self, *events, n=40, seed=11):
        sim, _plane, fs = make(*events, seed=seed)
        hits = []

        def body():
            ino = yield from fs.op_open(ctx(), "keep", O_WRONLY | O_CREAT)
            for i in range(n):
                try:
                    yield from fs.op_write(ctx(), ino, i * 10, 10, stream="s")
                    hits.append(False)
                except InjectedIOError:
                    hits.append(True)

        sim.run_process(body())
        return hits

    def test_error_sequence_unchanged_by_delay_rate(self):
        """Adding a slowdown must not reshuffle which ops error."""
        plain = self._error_sequence(storm(0.3))
        delayed = self._error_sequence(
            storm(0.3), DiskSlowdown(at=0.0, duration=100.0, extra_latency=1e-4)
        )
        assert plain == delayed
        assert any(plain) and not all(plain)

    def test_two_draws_per_eligible_op(self):
        _sim, _plane, fs = make(storm(NEVER), storm(NEVER))
        before = [fs._rng.random() for _ in range(4)]
        sim2, _plane2, fs2 = make(storm(NEVER), storm(NEVER))

        def body():
            ino = yield from fs2.op_open(ctx(), "f", O_WRONLY | O_CREAT)
            yield from fs2.op_write(ctx(), ino, 0, 10, stream="s")
            return [fs2._rng.random() for _ in range(2)]

        # Two storms: after one eligible op the stream sits exactly two
        # draws in, so the next values are draws 3 and 4.
        assert sim2.run_process(body()) == before[2:4]

    def test_ineligible_ops_draw_nothing(self):
        sim, _plane, fs = make(storm(1.0, ops=("unlink",)))
        _probe_sim, _probe_plane, probe_fs = make(storm(1.0, ops=("unlink",)))
        expected = probe_fs._rng.random()

        def body():
            ino = yield from fs.op_open(ctx(), "f", O_WRONLY | O_CREAT)
            yield from fs.op_write(ctx(), ino, 0, 10, stream="s")
            return fs._rng.random()

        # open/write are ineligible, so the stream is still at draw 1.
        assert sim.run_process(body()) == expected


class TestInjection:
    def test_zero_rates_transparent(self):
        sim, plane, fs = make(storm(1.0, at=50.0, duration=1.0))

        def body():
            ino = yield from fs.op_open(ctx(), "f", O_WRONLY | O_CREAT)
            yield from fs.op_write(ctx(), ino, 0, 100, stream="s")
            return (yield from fs.op_fstat(ctx(), ino)).size

        # Outside its window a storm neither injects nor draws.
        assert sim.run_process(body()) == 100
        assert "disk.errors" not in plane.counters

    def test_certain_failure(self):
        sim, plane, fs = make(storm(1.0))

        def body():
            ino = yield from fs.op_open(ctx(), "f", O_WRONLY | O_CREAT)
            try:
                yield from fs.op_write(ctx(), ino, 0, 100, stream="s")
            except InjectedIOError:
                return "EIO"

        assert sim.run_process(body()) == "EIO"
        assert plane.counters["disk.errors"] == 1

    def test_op_scoping(self):
        sim, _plane, fs = make(storm(1.0, ops=("unlink",)))

        def body():
            ino = yield from fs.op_open(ctx(), "f", O_WRONLY | O_CREAT)
            yield from fs.op_write(ctx(), ino, 0, 100, stream="s")  # unaffected
            return 0

        assert sim.run_process(body()) == 0

    def test_path_scoping(self):
        """A storm hits its mount only: /tmp is untouched, /pfs fails."""
        from repro.simos.process import SimProcess

        cluster = Cluster(ClusterConfig(n_nodes=1))
        sim = cluster.sim
        vfs = VFS(sim)
        vfs.mount("/", LocalFS(sim))
        vfs.mount("/pfs", LocalFS(sim))
        install_fault_plane(
            FaultSchedule.of(storm(1.0, ops=("open",))), cluster, vfs
        )
        proc = SimProcess(sim, cluster.node(0), vfs, pid=1)

        def body():
            yield from proc.open("/good-file", O_WRONLY | O_CREAT)
            try:
                yield from proc.open("/pfs/bad-file", O_WRONLY | O_CREAT)
            except InjectedIOError:
                return "EIO"

        assert sim.run_process(body()) == "EIO"

    def test_delay_injection_costs_time(self):
        sim, plane, fs = make(
            DiskSlowdown(at=0.0, duration=100.0, extra_latency=0.5, ops={"write"})
        )

        def body():
            ino = yield from fs.op_open(ctx(), "f", O_WRONLY | O_CREAT)
            t0 = sim.now
            yield from fs.op_write(ctx(), ino, 0, 100, stream="s")
            return sim.now - t0

        assert sim.run_process(body()) >= 0.5
        assert plane.counters["disk.delays"] == 1

    def test_deterministic_per_seed(self):
        def run(seed):
            sim, _plane, fs = make(storm(0.3), seed=seed)
            failures = []

            def body():
                ino = yield from fs.op_open(ctx(), "f", O_WRONLY | O_CREAT)
                for i in range(30):
                    try:
                        yield from fs.op_write(ctx(), ino, i * 10, 10, stream="s")
                        failures.append(False)
                    except InjectedIOError:
                        failures.append(True)

            sim.run_process(body())
            return failures

        assert run(7) == run(7)
        assert run(7) != run(8)
        assert any(run(7)) and not all(run(7))


class TestTracersUnderFaults:
    """Plane schedules run through the one run function."""

    def test_traced_run_records_errno_lines(self):
        """strace-style capture of failed calls: '= -1 EIO'."""
        from repro.frameworks.lanltrace.framework import LANLTrace
        from repro.harness.experiment import run_once

        def app(mpi, args):
            fd = yield from mpi.proc.open("/pfs/f", O_WRONLY | O_CREAT)
            try:
                yield from mpi.proc.write(fd, 100)
            except InjectedIOError:
                pass
            yield from mpi.proc.close(fd)

        outcome = run_once(
            app, {}, LANLTrace, nprocs=1, faults=FaultSchedule.of(storm(1.0))
        )
        assert outcome.status == "completed"
        write_events = [
            e for e in outcome.bundle.files[0] if e.name == "SYS_write"
        ]
        assert write_events[0].result == "-1 EIO"

    def test_workload_survives_flaky_storage(self):
        """End-to-end: a retry loop completes on a 20%-failure disk."""
        from repro.harness.experiment import run_once

        def app(mpi, args):
            fd = yield from mpi.proc.open("/pfs/out", O_WRONLY | O_CREAT)
            written = 0
            attempts = 0
            while written < 200 and attempts < 500:
                attempts += 1
                try:
                    written += yield from mpi.proc.pwrite(fd, 10, written)
                except InjectedIOError:
                    continue
            yield from mpi.proc.close(fd)
            return written, attempts

        outcome = run_once(
            app, {}, nprocs=1, seed=3, faults=FaultSchedule.of(storm(0.2))
        )
        written, attempts = outcome.raise_cause().job.results[0]
        assert written == 20 * 10
        assert attempts > 20  # some retries actually happened
