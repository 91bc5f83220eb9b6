"""Interposition mechanism tests: costs, filters, recording, blind spots."""

import pytest

from repro.cluster.cluster import Cluster
from repro.errors import FileNotFound
from repro.machine import ClusterConfig
from repro.simfs.localfs import LocalFS
from repro.simfs.vfs import O_CREAT, O_WRONLY, VFS
from repro.simos import syscalls as sc
from repro.simos.interpose import Interposer
from repro.simos.process import SimProcess
from repro.trace.events import EventLayer
from repro.trace.records import TraceFile


def make_env():
    cluster = Cluster(
        ClusterConfig(n_nodes=1, clock_skew_stddev=0, clock_drift_stddev=0)
    )
    vfs = VFS(cluster.sim)
    vfs.mount("/", LocalFS(cluster.sim))
    proc = SimProcess(cluster.sim, cluster.node(0), vfs, pid=7, rank=0)
    return cluster.sim, proc


def test_interposer_validation():
    with pytest.raises(ValueError):
        Interposer(TraceFile(), per_event_cost=-1)
    with pytest.raises(ValueError):
        Interposer(TraceFile(), cpu_factor=0.5)


def test_events_recorded_with_identity_and_typing():
    sim, proc = make_env()
    sink = TraceFile()
    proc.attach(Interposer(sink, per_event_cost=0), EventLayer.SYSCALL)

    def body():
        fd = yield from proc.open("/data.bin", O_WRONLY | O_CREAT)
        yield from proc.write(fd, 4096)
        yield from proc.close(fd)

    sim.run_process(body())
    names = [e.name for e in sink]
    assert names == [sc.SYS_OPEN, sc.SYS_WRITE, sc.SYS_CLOSE]
    open_ev = sink[0]
    assert open_ev.pid == 7 and open_ev.rank == 0
    assert open_ev.path == "/data.bin"
    assert open_ev.result == 3
    write_ev = sink[1]
    assert write_ev.nbytes == 4096 and write_ev.fd == 3 and write_ev.offset == 0
    assert write_ev.result == 4096


def test_per_event_cost_slows_traced_process():
    def run(cost):
        sim, proc = make_env()
        proc.attach(Interposer(TraceFile(), per_event_cost=cost), EventLayer.SYSCALL)

        def body():
            t0 = sim.now
            fd = yield from proc.open("/f", O_WRONLY | O_CREAT)
            yield from proc.close(fd)
            return sim.now - t0

        return sim.run_process(body())

    assert run(1e-3) == pytest.approx(run(0.0) + 2e-3)


def test_cpu_factor_slows_cpu_side_work():
    sim, proc = make_env()
    assert proc.cpu_factor == 1.0
    proc.attach(
        Interposer(TraceFile(), per_event_cost=0, cpu_factor=2.0), EventLayer.SYSCALL
    )
    assert proc.cpu_factor == 2.0


def test_failed_syscalls_recorded_with_errno():
    sim, proc = make_env()
    sink = TraceFile()
    proc.attach(Interposer(sink, per_event_cost=0), EventLayer.SYSCALL)

    def body():
        try:
            yield from proc.stat("/missing")
        except FileNotFound:
            pass

    sim.run_process(body())
    assert sink[0].result == "-1 ENOENT"


def test_filter_drops_records_but_ptrace_still_pays_stop():
    sim, proc = make_env()
    sink = TraceFile()
    ip = Interposer(
        sink, per_event_cost=1e-3, filter=lambda n: n == sc.SYS_WRITE
    )
    proc.attach(ip, EventLayer.SYSCALL)

    def body():
        t0 = sim.now
        fd = yield from proc.open("/f", O_WRONLY | O_CREAT)
        yield from proc.write(fd, 10)
        yield from proc.close(fd)
        return sim.now - t0

    sim.run_process(body())
    assert [e.name for e in sink] == [sc.SYS_WRITE]
    assert ip.events_intercepted == 3  # stop cost paid 3 times
    assert ip.events_recorded == 1


def test_charge_filtered_only_skips_unmatched_costs():
    """Preload interposition never sees calls it did not wrap."""

    def run(charge_filtered_only):
        sim, proc = make_env()
        ip = Interposer(
            TraceFile(),
            per_event_cost=1e-3,
            filter=lambda n: n == sc.SYS_WRITE,
            charge_filtered_only=charge_filtered_only,
        )
        proc.attach(ip, EventLayer.SYSCALL)

        def body():
            t0 = sim.now
            fd = yield from proc.open("/f", O_WRONLY | O_CREAT)
            yield from proc.write(fd, 10)
            yield from proc.close(fd)
            return sim.now - t0

        return sim.run_process(body()), ip

    t_preload, ip_preload = run(True)
    t_ptrace, ip_ptrace = run(False)
    assert t_ptrace == pytest.approx(t_preload + 2e-3)
    assert ip_preload.events_intercepted == 1
    assert ip_ptrace.events_intercepted == 3


def test_multiple_interposers_stack():
    sim, proc = make_env()
    a, b = TraceFile(), TraceFile()
    proc.attach(Interposer(a, per_event_cost=0), EventLayer.SYSCALL)
    proc.attach(Interposer(b, per_event_cost=0), EventLayer.SYSCALL)

    def body():
        fd = yield from proc.open("/f", O_WRONLY | O_CREAT)
        yield from proc.close(fd)

    sim.run_process(body())
    assert len(a) == len(b) == 2


def test_detach_all_stops_recording_and_costs():
    sim, proc = make_env()
    sink = TraceFile()
    proc.attach(Interposer(sink, per_event_cost=1.0), EventLayer.SYSCALL)
    proc.detach_all()

    def body():
        fd = yield from proc.open("/f", O_WRONLY | O_CREAT)
        yield from proc.close(fd)
        return sim.now

    assert sim.run_process(body()) < 0.5
    assert len(sink) == 0


def test_timestamps_use_local_clock():
    cluster = Cluster(ClusterConfig(n_nodes=1, clock_skew_stddev=0, clock_drift_stddev=0, clock_epoch=5000.0))
    vfs = VFS(cluster.sim)
    vfs.mount("/", LocalFS(cluster.sim))
    proc = SimProcess(cluster.sim, cluster.node(0), vfs, pid=1)
    sink = TraceFile()
    proc.attach(Interposer(sink, per_event_cost=0), EventLayer.SYSCALL)

    def body():
        fd = yield from proc.open("/f", O_WRONLY | O_CREAT)
        yield from proc.close(fd)

    cluster.sim.run_process(body())
    assert all(e.timestamp >= 5000.0 for e in sink)


class TestMmapBlindSpot:
    """§4.1.1/§4.3: ptrace-style tracers cannot track memory-mapped I/O."""

    def test_mmap_io_invisible_at_syscall_seam(self):
        sim, proc = make_env()
        sink = TraceFile()
        proc.attach(Interposer(sink, per_event_cost=0), EventLayer.SYSCALL)

        def body():
            fd = yield from proc.open("/f", O_WRONLY | O_CREAT)
            yield from proc.mmap(fd, 1 << 20)
            written = yield from proc.mmap_write(fd, 0, 65536)
            yield from proc.close(fd)
            return written

        assert sim.run_process(body()) == 65536
        names = [e.name for e in sink]
        # The mmap call itself is visible; the store through it is not.
        assert sc.SYS_MMAP in names
        assert sc.SYS_WRITE not in names
        # ...but the file really did grow (the FS saw the write).
        assert proc.vfs.resolve("/f")[0].ns.lookup("f").size == 65536

    def test_mmap_read_also_invisible(self):
        sim, proc = make_env()
        sink = TraceFile()
        proc.attach(Interposer(sink, per_event_cost=0), EventLayer.SYSCALL)

        def body():
            fd = yield from proc.open("/f", O_WRONLY | O_CREAT)
            yield from proc.mmap_write(fd, 0, 1000)
            yield from proc.mmap(fd, 1000)
            n = yield from proc.mmap_read(fd, 0, 1000)
            yield from proc.close(fd)
            return n

        assert sim.run_process(body()) == 1000
        assert sc.SYS_READ not in [e.name for e in sink]
