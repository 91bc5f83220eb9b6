"""Tracefs framework tests: mounting, granularity, anonymization, output."""

import pytest

from repro.core.casestudy import FRAMEWORK_CARDS
from repro.errors import NotTraceable, PermissionDenied
from repro.frameworks.tracefs.counters import EventCounters
from repro.frameworks.tracefs.framework import Tracefs, TracefsConfig
from repro.harness.experiment import measure_overhead, run_traced
from repro.harness.testbed import build_testbed
from repro.trace.binary_format import decode_trace_file
from repro.trace.events import EventLayer
from repro.units import KiB
from repro.workloads.generators import io_intensive, mmap_mix

KEY = b"0123456789abcdef"
IO_ARGS = {
    "base": "/tmp/work",
    "n_files": 6,
    "file_size": 128 * KiB,
    "block_size": 32 * KiB,
}


def traced(config=None, args=IO_ARGS, workload=io_intensive, nprocs=1):
    return run_traced(
        lambda: Tracefs(config or TracefsConfig(target_mount="/tmp")),
        workload,
        args,
        nprocs=nprocs,
    )


class TestMounting:
    def test_registered(self):
        assert Tracefs.name == "tracefs" and Tracefs.name in FRAMEWORK_CARDS

    def test_requires_root(self):
        """§2.2: kernel module => 'dealing with root permissions'."""
        tb = build_testbed()
        with pytest.raises(PermissionDenied):
            Tracefs(TracefsConfig(target_mount="/tmp", as_root=False)).prepare(tb)

    def test_parallel_fs_rejected_out_of_the_box(self):
        """§2.2: 'not compatible out of the box with our parallel file
        system' — and the mount table is left intact."""
        tb = build_testbed()
        with pytest.raises(NotTraceable):
            Tracefs(TracefsConfig(target_mount="/pfs")).prepare(tb)
        fs, _ = tb.vfs.resolve("/pfs/anything")
        assert fs is tb.pfs  # restored

    def test_parallel_port_can_be_forced(self):
        tb = build_testbed()
        fw = Tracefs(TracefsConfig(target_mount="/pfs", force_parallel_port=True))
        fw.prepare(tb)
        fs, _ = tb.vfs.resolve("/pfs/x")
        assert fs is fw.layer

    def test_nfs_and_local_supported(self):
        """The paper validated Tracefs on ext3 and NFS."""
        for mount in ("/tmp", "/home"):
            tb = build_testbed()
            fw = Tracefs(TracefsConfig(target_mount=mount))
            fw.prepare(tb)
            assert tb.vfs.resolve(mount + "/f")[0] is fw.layer

    def test_finalize_unmounts(self):
        _, tr = traced()
        # after finalize, a fresh testbed path check is impossible here,
        # but the bundle metadata records the mount and capture counts
        assert tr.bundle.metadata["target_mount"] == "/tmp"
        assert tr.bundle.metadata["ops_seen"] > 0


class TestCapture:
    def test_vfs_layer_events(self):
        _, tr = traced()
        events = tr.bundle.all_events()
        assert events
        assert all(e.layer is EventLayer.VFS for e in events)
        names = {e.name for e in events}
        assert {"vfs_open", "vfs_write", "vfs_read", "vfs_unlink"} <= names

    def test_counters_aggregate(self):
        _, tr = traced()
        counters = tr.bundle.metadata["counters"]
        assert counters["write"]["calls"] == 6 * 4  # 6 files x 4 blocks
        assert counters["write"]["nbytes"] == 6 * 128 * KiB

    def test_counters_only_mode_records_no_events(self):
        _, tr = traced(TracefsConfig(target_mount="/tmp", counters_only=True))
        assert tr.bundle.total_events() == 0
        assert tr.bundle.metadata["counters"]["write"]["calls"] > 0

    def test_sees_mmap_io_that_ptrace_misses(self):
        """§4.2: VFS capture includes memory-mapped I/O."""
        _, tr = traced(
            args={"path": "/tmp/mapped", "block_size": 16 * KiB, "n_mmap_writes": 5},
            workload=mmap_mix,
        )
        writes = [e for e in tr.bundle.all_events() if e.name == "vfs_write"]
        assert len(writes) == 6  # 1 explicit + 5 mmap stores

    def test_granularity_spec_limits_recording(self):
        cfg = TracefsConfig(target_mount="/tmp", spec="omit stat, fstat, readdir\ntrace *")
        _, tr = traced(cfg)
        names = {e.name for e in tr.bundle.all_events()}
        assert "vfs_stat" not in names
        assert "vfs_write" in names

    def test_spec_size_clause(self):
        cfg = TracefsConfig(
            target_mount="/tmp",
            spec="omit write if size < %d\ntrace *" % (32 * KiB),
        )
        _, tr = traced(
            cfg,
            args=dict(IO_ARGS, block_size=16 * KiB),
        )
        assert not [e for e in tr.bundle.all_events() if e.name == "vfs_write"]


class TestAnonymization:
    def test_field_encryption_applied_at_capture(self):
        cfg = TracefsConfig(
            target_mount="/tmp",
            encrypt_fields=("user", "path"),
            encryption_key=KEY,
        )
        _, tr = traced(cfg)
        for e in tr.bundle.all_events():
            assert e.user.startswith("enc:")
            if e.path is not None:
                assert e.path.startswith("enc:")

    def test_encrypted_fields_recoverable_with_key(self):
        import base64

        from repro.trace.crypto import cbc_decrypt

        cfg = TracefsConfig(
            target_mount="/tmp", encrypt_fields=("user",), encryption_key=KEY
        )
        _, tr = traced(cfg)
        token = tr.bundle.all_events()[0].user
        blob = base64.urlsafe_b64decode(token[4:])
        assert cbc_decrypt(KEY, blob[:8], blob[8:]) == b"jdoe"


class TestBinaryOutput:
    def test_serialized_trace_round_trips(self):
        holder = {}

        def factory():
            fw = Tracefs(TracefsConfig(target_mount="/tmp", compress=True))
            holder["fw"] = fw
            return fw

        run_traced(factory, io_intensive, IO_ARGS, nprocs=1)
        blob = holder["fw"].layer.serialize()
        tf = decode_trace_file(blob)
        assert len(tf) == holder["fw"].layer.ops_recorded
        assert tf.framework == "tracefs"


class TestOverhead:
    def test_full_tracing_within_authors_ceiling(self):
        """§2.2: 'up to 12.4% elapsed time overhead for tracing all file
        system operations on an I/O intensive workload'."""
        m = measure_overhead(
            lambda: Tracefs(TracefsConfig(target_mount="/tmp")),
            io_intensive,
            IO_ARGS,
            nprocs=1,
        )
        assert 0.0 < m.elapsed_overhead <= 0.124

    def test_advanced_features_add_overhead(self):
        base = measure_overhead(
            lambda: Tracefs(TracefsConfig(target_mount="/tmp")),
            io_intensive, IO_ARGS, nprocs=1,
        )
        fancy = measure_overhead(
            lambda: Tracefs(
                TracefsConfig(
                    target_mount="/tmp",
                    checksum=True,
                    encrypt_fields=("user", "path"),
                    encryption_key=KEY,
                )
            ),
            io_intensive, IO_ARGS, nprocs=1,
        )
        assert fancy.elapsed_overhead > base.elapsed_overhead

    def test_counter_mode_cheapest(self):
        full = measure_overhead(
            lambda: Tracefs(TracefsConfig(target_mount="/tmp")),
            io_intensive, IO_ARGS, nprocs=1,
        )
        counters = measure_overhead(
            lambda: Tracefs(TracefsConfig(target_mount="/tmp", counters_only=True)),
            io_intensive, IO_ARGS, nprocs=1,
        )
        assert counters.elapsed_overhead < full.elapsed_overhead

    def test_classification(self):
        from repro.core.features import Feature

        c = Tracefs(TracefsConfig()).classification()
        assert c.framework_name == "Tracefs"
        assert c.cell(Feature.TRACE_FORMAT) == "Binary"


class TestEventCountersUnit:
    def test_counter_arithmetic(self):
        c = EventCounters()
        c.record("write", 100, 0.5)
        c.record("write", 50, 0.25)
        c.record("stat", None, 0.1)
        assert c.calls("write") == 2
        assert c.nbytes("write") == 150
        assert c.total_time("write") == pytest.approx(0.75)
        assert c.calls("unlink") == 0
        assert c.total_calls == 3
        assert "write" in c.render()
        assert c.as_dict()["stat"]["calls"] == 1
