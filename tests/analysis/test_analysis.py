"""Call summaries, bandwidth arithmetic, timelines, data dependencies."""

import pytest

from repro.analysis.bandwidth import events_per_byte, payload_bytes, trace_bandwidth
from repro.analysis.dependencies import dependency_summary, infer_data_dependencies
from repro.analysis.summary import summarize_calls
from repro.analysis.timeline import global_timeline
from repro.analysis.skew import ClockEstimate
from repro.harness.parallel import PointResult, RunStats
from repro.trace.events import EventLayer, TraceEvent
from repro.trace.records import TraceBundle, TraceFile


def ev(name, ts=0.0, dur=0.001, rank=0, nbytes=None, path=None):
    return TraceEvent(
        timestamp=ts,
        duration=dur,
        layer=EventLayer.SYSCALL,
        name=name,
        rank=rank,
        nbytes=nbytes,
        path=path,
    )


class TestCallSummary:
    def test_counts_and_times(self):
        events = [
            ev("SYS_write", dur=0.01),
            ev("SYS_write", dur=0.02),
            ev("MPI_Barrier", dur=1.0),
        ]
        s = summarize_calls(events)
        assert s["SYS_write"].n_calls == 2
        assert s["SYS_write"].total_time == pytest.approx(0.03)
        assert s["MPI_Barrier"].n_calls == 1
        assert s.total_calls == 3
        assert s.total_time == pytest.approx(1.03)

    def test_rows_sorted_by_name(self):
        s = summarize_calls([ev("b"), ev("a"), ev("c")])
        assert [r.name for r in s.rows()] == ["a", "b", "c"]

    def test_accepts_bundle_and_file(self):
        tf = TraceFile([ev("SYS_read")])
        bundle = TraceBundle(files={0: tf, 1: TraceFile([ev("SYS_read")])})
        assert summarize_calls(tf)["SYS_read"].n_calls == 1
        assert summarize_calls(bundle)["SYS_read"].n_calls == 2

    def test_membership_and_len(self):
        s = summarize_calls([ev("x")])
        assert "x" in s and "y" not in s
        assert len(s) == 1

    def test_store_backed_summary_matches_direct(self, tmp_path):
        from repro.analysis.summary import summarize_store
        from repro.store.bank import TraceBank
        from repro.store.query import Query

        bundle = TraceBundle(
            files={
                0: TraceFile([ev("SYS_write", ts=0.0, dur=0.01, nbytes=4096),
                              ev("SYS_read", ts=0.1, dur=0.02, nbytes=512)]),
                1: TraceFile([ev("SYS_write", ts=0.2, dur=0.03, rank=1)]),
            }
        )
        bank = TraceBank(tmp_path / "store")
        bank.ingest_bundle(bundle)
        direct = summarize_calls(bundle)
        stored = summarize_store(str(bank.root), jobs=2)
        assert [r.name for r in stored.rows()] == [r.name for r in direct.rows()]
        for name in (r.name for r in direct.rows()):
            assert stored[name].n_calls == direct[name].n_calls
            # Shard-order float summation may differ from dict-order: approx.
            assert stored[name].total_time == pytest.approx(direct[name].total_time)

    def test_store_backed_summary_honors_query_filters(self, tmp_path):
        from repro.analysis.summary import summarize_store
        from repro.store.bank import TraceBank
        from repro.store.query import Query

        bank = TraceBank(tmp_path / "store")
        bank.ingest_bundle(
            TraceBundle(files={0: TraceFile([ev("SYS_write"), ev("SYS_read")])})
        )
        s = summarize_store(
            str(bank.root), query=Query.create(names=["SYS_read"])
        )
        assert [r.name for r in s.rows()] == ["SYS_read"]


class TestBandwidthHelpers:
    def test_payload_bytes_counts_io_only(self):
        events = [
            ev("SYS_write", nbytes=100),
            ev("SYS_read", nbytes=50),
            ev("SYS_open", nbytes=None),
            ev("MPI_Barrier"),
        ]
        assert payload_bytes(events) == 150

    def test_trace_bandwidth(self):
        tf = TraceFile(
            [ev("SYS_write", ts=0.0, dur=1.0, nbytes=1000),
             ev("SYS_write", ts=1.0, dur=1.0, nbytes=1000)]
        )
        bundle = TraceBundle(files={0: tf})
        assert trace_bandwidth(bundle) == pytest.approx(1000.0)

    def test_trace_bandwidth_empty(self):
        assert trace_bandwidth(TraceBundle()) == 0.0

    def test_events_per_byte_inverse_in_block_size(self):
        """The paper's §4.1.2 observation, as arithmetic."""

        def density(block):
            tf = TraceFile(
                [ev("SYS_write", ts=i * 0.01, nbytes=block) for i in range(10)]
            )
            return events_per_byte(TraceBundle(files={0: tf}))

        assert density(65536) == pytest.approx(density(131072) * 2)

    def test_overhead_percent(self):
        def point(untraced, traced):
            return PointResult(
                params=(), untraced=RunStats(untraced, 0, 0), traced=RunStats(traced, 0, 0)
            )

        assert 100.0 * point(10.0, 12.4).elapsed_overhead == pytest.approx(24.0)
        assert 100.0 * point(0.0, 5.0).elapsed_overhead == 0.0


class TestTimeline:
    def test_raw_merge_orders_by_local_time(self):
        bundle = TraceBundle(
            files={
                0: TraceFile([ev("a", ts=2.0, rank=0)], rank=0),
                1: TraceFile([ev("b", ts=1.0, rank=1)], rank=1),
            }
        )
        merged = global_timeline(bundle)
        assert [e.name for _, e in merged] == ["b", "a"]

    def test_corrected_merge_reorders(self):
        # rank 1's clock is 10 seconds ahead; correction moves it back
        bundle = TraceBundle(
            files={
                0: TraceFile([ev("a", ts=2.0, rank=0)], rank=0),
                1: TraceFile([ev("b", ts=11.0, rank=1)], rank=1),
            }
        )
        est = {
            0: ClockEstimate(0, 0.0, 1.0),
            1: ClockEstimate(1, -10.0, 1.0),
        }
        merged = global_timeline(bundle, est)
        assert [e.name for _, e in merged] == ["b", "a"]
        assert merged[0][0] == pytest.approx(1.0)


def mpiio_bundle(write_name):
    """Rank 0 writes ``/pfs/f`` with ``write_name``; rank 1 then reads it."""

    def call(name, ts, rank):
        return TraceEvent(timestamp=ts, duration=0.001, layer=EventLayer.LIBCALL,
                          name=name, rank=rank, path="/pfs/f", nbytes=4096, offset=0)

    return TraceBundle(
        files={
            0: TraceFile([call(write_name, 1.0, 0)], rank=0),
            1: TraceFile([call("MPI_File_read_at", 2.0, 1)], rank=1),
        }
    )


def ltrace_bundle(pattern, read_back=False):
    """A 2-rank ``mpi_io_test`` (16 x 64 KiB per rank) traced by LANL-Trace
    in ltrace mode: each MPI-IO transfer is captured as a libcall and as
    the syscall beneath it."""
    from repro.frameworks.lanltrace.framework import LANLTrace
    from repro.harness.experiment import run_traced
    from repro.units import KiB
    from repro.workloads.mpi_io_test import mpi_io_test

    _, traced = run_traced(
        LANLTrace, mpi_io_test,
        {"pattern": pattern, "path": "/pfs/t", "block_size": 64 * KiB,
         "nobj": 16, "read_back": read_back},
        nprocs=2,
    )
    return traced.bundle


class TestDataDependencies:
    def test_ltrace_counts_each_transfer_once(self):
        # Rank 0 reads back its half of the shared file 16 times after
        # rank 1's writes: one edge per MPI_File_read_at, not two.
        bundle = ltrace_bundle("n-to-1-strided", read_back=True)
        assert infer_data_dependencies(bundle) == {
            (1, 0): {"path": "/pfs/t", "count": 16}
        }

    @pytest.mark.parametrize("write", ["MPI_File_write_at", "MPI_File_iwrite_at"])
    def test_mpiio_write_then_read_is_an_edge(self, write):
        # A nonblocking MPI-IO write is as much a write as a blocking one.
        assert infer_data_dependencies(mpiio_bundle(write)) == {
            (0, 1): {"path": "/pfs/f", "count": 1}
        }

    def test_writer_reader_edge(self):
        bundle = TraceBundle(
            files={
                0: TraceFile(
                    [ev("SYS_write", ts=1.0, rank=0, nbytes=10, path="/pfs/shared")],
                    rank=0,
                ),
                1: TraceFile(
                    [ev("SYS_read", ts=2.0, rank=1, nbytes=10, path="/pfs/shared")],
                    rank=1,
                ),
            }
        )
        g = infer_data_dependencies(bundle)
        assert g == {(0, 1): {"path": "/pfs/shared", "count": 1}}
        assert "rank 0 -> rank 1" in dependency_summary(g)

    def test_no_edge_for_private_files(self):
        bundle = TraceBundle(
            files={
                0: TraceFile([ev("SYS_write", ts=1.0, rank=0, nbytes=1, path="/a")], rank=0),
                1: TraceFile([ev("SYS_read", ts=2.0, rank=1, nbytes=1, path="/b")], rank=1),
            }
        )
        g = infer_data_dependencies(bundle)
        assert g == {}
        assert "no cross-rank" in dependency_summary(g)

    def test_self_dependency_excluded(self):
        bundle = TraceBundle(
            files={
                0: TraceFile(
                    [
                        ev("SYS_write", ts=1.0, rank=0, nbytes=1, path="/f"),
                        ev("SYS_read", ts=2.0, rank=0, nbytes=1, path="/f"),
                    ],
                    rank=0,
                )
            }
        )
        assert infer_data_dependencies(bundle) == {}

    def test_skew_correction_changes_verdict(self):
        """With skewed clocks the read 'precedes' the write; corrected
        timestamps recover the true writer->reader edge."""
        bundle = TraceBundle(
            files={
                0: TraceFile(
                    # true time 1.0, but clock is 5s behind -> records -4.0
                    [ev("SYS_write", ts=-4.0, rank=0, nbytes=1, path="/f")],
                    rank=0,
                ),
                1: TraceFile(
                    [ev("SYS_read", ts=2.0, rank=1, nbytes=1, path="/f")], rank=1
                ),
            }
        )
        est = {0: ClockEstimate(0, 5.0, 1.0), 1: ClockEstimate(1, 0.0, 1.0)}
        raw = infer_data_dependencies(bundle)
        corrected = infer_data_dependencies(bundle, est)
        assert (0, 1) in raw  # happens to be right here
        assert (0, 1) in corrected
