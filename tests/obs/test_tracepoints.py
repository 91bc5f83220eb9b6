"""Tracepoint state, collector domain methods, and payload export."""

import pytest

from repro.des.simulator import Simulator
from repro.obs.tracepoints import (
    STATE,
    TelemetryCollector,
    TelemetryConfig,
    current,
    describe_event,
    enabled,
    session,
)


class TestSessionState:
    def test_off_by_default(self):
        assert current() is None
        assert not enabled()

    def test_session_installs_and_restores(self):
        with session() as col:
            assert current() is col
            assert enabled()
        assert current() is None

    def test_sessions_nest_and_shadow(self):
        with session() as outer:
            with session() as inner:
                assert inner is not outer
                assert current() is inner
            assert current() is outer
        assert current() is None

    def test_session_restores_on_exception(self):
        with pytest.raises(RuntimeError):
            with session():
                raise RuntimeError("boom")
        assert STATE.collector is None


class TestCollectorDomains:
    def test_des_events_and_queue_depth(self):
        col = TelemetryCollector()
        col.des_events(10)
        col.des_events(5)
        col.des_queue_depth(1.0, 3)
        snap = col.metrics.snapshot()
        assert snap["counters"]["des.events_dispatched"] == 15
        assert snap["counters"]["des.run_calls"] == 2
        assert snap["timelines"]["des.queue_depth"]["samples"] == [[1.0, 3]]
        assert col.spans.counters == [(-1, "des.queue_depth", 1.0, 3)]

    def test_os_call_feeds_metrics_and_spans(self):
        col = TelemetryCollector()
        col.os_call(0, "n0", 2, "rank 2", "vfs", "write", 1.0, 0.25, 4096)
        snap = col.metrics.snapshot()
        assert snap["counters"]["os.calls.vfs"] == 1
        assert snap["counters"]["os.vfs.write"] == 1
        assert snap["histograms"]["os.io_request_bytes"]["count"] == 1
        assert col.spans.spans == [(0, 2, "write", "vfs", 1.0, 0.25, {"nbytes": 4096})]
        assert col.spans.thread_names[(0, 2)] == "rank 2"

    def test_os_call_without_spans(self):
        col = TelemetryCollector(TelemetryConfig(spans=False))
        col.os_call(0, "n0", 2, "rank 2", "vfs", "read", 0.0, 0.1, None)
        assert col.spans.spans == []
        assert col.metrics.snapshot()["counters"]["os.vfs.read"] == 1

    def test_cpu_busy_tracks_nesting_level(self):
        col = TelemetryCollector()
        col.cpu_busy(0, 0.0, +1)
        col.cpu_busy(0, 0.5, +1)
        col.cpu_busy(0, 1.0, -1)
        samples = col.metrics.snapshot()["timelines"]["cpu.node0.busy"]["samples"]
        assert samples == [[0.0, 1], [0.5, 2], [1.0, 1]]

    def test_network_and_storage_counters(self):
        col = TelemetryCollector()
        col.net_transfer(1024, 0.0, 0.5)
        col.net_nic("nic0", 0.1, 1)
        col.net_fabric(0.1, 4)
        col.disk_op("sda", 0.2, 512, False, 1)
        col.pfs_chunk("oss0", 0.3, 65536, True, 2)
        col.pfs_meta_rpc()
        col.pfs_lock_wait(0.01)
        col.cache_access("page", 3, 1)
        col.cache_writeback("page", 7)
        col.mpi_collective("barrier", 0, 0, 0.0, 0.2)
        col.mpi_message(256)
        c = col.metrics.snapshot()["counters"]
        assert c["net.transfers"] == 1 and c["net.bytes"] == 1024
        assert c["disk.sda.ops"] == 1 and c["disk.sda.seeks"] == 1
        assert c["pfs.oss0.ops"] == 1 and "pfs.oss0.seeks" not in c
        assert c["pfs.meta_rpcs"] == 1 and c["pfs.extent_locks"] == 1
        assert c["fscache.page.hits"] == 3 and c["fscache.page.misses"] == 1
        assert c["fscache.page.writebacks"] == 7
        assert c["mpi.collective.barrier"] == 1
        assert c["mpi.messages"] == 1 and c["mpi.message_bytes"] == 256

    def test_store_ingest_and_scan_counters(self):
        col = TelemetryCollector()
        col.store_ingest(4, 3, 1, 120)
        col.store_ingest(4, 0, 4, 120)
        col.store_scan(6, 2, 300)
        c = col.metrics.snapshot()["counters"]
        assert c["store.ingest.runs"] == 2
        assert c["store.ingest.segments"] == 8
        assert c["store.ingest.new_segments"] == 3
        assert c["store.ingest.deduped_segments"] == 5
        assert c["store.ingest.events"] == 240
        assert c["store.scan.queries"] == 1
        assert c["store.scan.segments_scanned"] == 6
        assert c["store.scan.segments_pruned"] == 2
        assert c["store.scan.events_matched"] == 300

    def test_ingest_inside_session_hits_store_counters(self, tmp_path):
        from repro.store.bank import TraceBank
        from repro.store.query import Query, run_query
        from repro.trace.events import EventLayer, TraceEvent
        from repro.trace.records import TraceBundle, TraceFile

        e = TraceEvent(timestamp=0.0, duration=0.001,
                       layer=EventLayer.SYSCALL, name="SYS_write")
        bank = TraceBank(tmp_path / "store")
        with session() as col:
            bank.ingest_bundle(TraceBundle(files={0: TraceFile([e])}))
            run_query(bank, Query(agg="ops"))
        c = col.metrics.snapshot()["counters"]
        assert c["store.ingest.runs"] == 1
        assert c["store.scan.queries"] == 1
        assert c["store.scan.events_matched"] == 1


class TestExport:
    def test_export_schema_and_purity(self):
        import json

        from repro.obs.metrics import canonical_json

        col = TelemetryCollector()
        col.des_events(3)
        col.os_call(0, "n0", 0, "rank 0", "vfs", "open", 0.0, 0.001, None)
        payload = col.export(end_time=1.5)
        assert payload["schema"] == "repro/telemetry/v1"
        assert payload["metrics"]["end_time"] == 1.5
        assert payload["trace"]["traceEvents"]
        # export() promises JSON-normal form: round trip is the identity.
        assert json.loads(canonical_json(payload)) == payload


class TestObservedRun:
    def _run(self, col_config=None):
        sim = Simulator(seed=7)
        fired = []
        for i in range(200):
            sim.schedule(i * 0.01, fired.append, i)
        if col_config is None:
            sim.run()
            return sim, fired, None
        with session(col_config) as col:
            sim.run()
        return sim, fired, col

    def test_ring_buffer_holds_last_events(self):
        _sim, _fired, col = self._run(TelemetryConfig(ring_size=50))
        assert len(col.ring) == 50
        lines = col.format_ring()
        assert len(lines) == 50
        assert all(line.startswith("t=") for line in lines)
        # Oldest retained entry is dispatch #150 of 200.
        assert col.ring[0][0] == pytest.approx(150 * 0.01)

    def test_queue_depth_sampled_periodically(self):
        _sim, _fired, col = self._run(TelemetryConfig(queue_sample_every=64))
        samples = col.metrics.timeline("des.queue_depth").samples
        assert samples  # 200 events / 64 -> at least 3 samples
        assert all(depth >= 0 for (_t, depth) in samples)

    def test_events_executed_identical_with_and_without_telemetry(self):
        sim_off, fired_off, _ = self._run(None)
        sim_on, fired_on, col = self._run(TelemetryConfig())
        assert sim_off.events_executed == sim_on.events_executed == 200
        assert fired_off == fired_on
        assert (
            col.metrics.counter("des.events_dispatched").value
            == sim_on.events_executed
        )


class TestDescribeEvent:
    def test_bound_method_with_named_owner(self):
        class Disk:
            name = "sda"

            def _service(self):
                pass

        line = describe_event(1.25, Disk()._service, (4096,))
        assert line == "t=1.250000000 service<sda>(4096)"

    def test_plain_function(self):
        def tick():
            pass

        line = describe_event(0.0, tick, ())
        assert "tick" in line and line.startswith("t=0.000000000")
