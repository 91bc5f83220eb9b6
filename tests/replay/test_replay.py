"""Pseudo-app generation, replay engine, and fidelity tests."""

import dataclasses
import pickle

import pytest

from repro.errors import ReplayError
from repro.frameworks.lanltrace.framework import LANLTrace, LANLTraceConfig
from repro.harness.experiment import run_once, run_traced, run_untraced
from repro.harness.figures import paper_testbed
from repro.replay.fidelity import compare_end_to_end, compare_traces
from repro.replay.pseudoapp import PseudoApp, RankScript, ReplayOp, build_pseudoapp
from repro.replay.replayer import replay
from repro.trace.events import EventLayer, TraceEvent
from repro.trace.records import TraceBundle, TraceFile
from repro.units import KiB
from repro.workloads.mpi_io_test import mpi_io_test
from repro.workloads.patterns import AccessPattern

NP = 4
ARGS = {
    "pattern": AccessPattern.N_TO_1_NONSTRIDED,
    "block_size": 128 * KiB,
    "nobj": 16,
    "path": "/pfs/out",
}


def ev(name, ts, dur=0.001, layer=EventLayer.SYSCALL, **kw):
    return TraceEvent(timestamp=ts, duration=dur, layer=layer, name=name, **kw)


class TestReplayOpValidation:
    def test_negative_think_time(self):
        with pytest.raises(ReplayError):
            ReplayOp(kind="write", think_time=-1.0, nbytes=1)

    def test_io_ops_need_nbytes(self):
        with pytest.raises(ReplayError):
            ReplayOp(kind="write", think_time=0.0)
        ReplayOp(kind="sync", think_time=0.0)  # fine

    def test_a_slotted_frozen_value(self):
        op = ReplayOp("write", 0.5, "/pfs/f", 4096, 8192)
        assert op == ReplayOp(kind="write", think_time=0.5, path="/pfs/f",
                              offset=4096, nbytes=8192)
        assert hash(op) == hash(ReplayOp("write", 0.5, "/pfs/f", 4096, 8192))
        assert op != ReplayOp("write", 0.5, "/pfs/f", 4096, 8191)
        assert pickle.loads(pickle.dumps(op)) == op
        moved = dataclasses.replace(op, path="/pfs/replay/f")
        assert (moved.kind, moved.path, moved.nbytes) == ("write", "/pfs/replay/f", 8192)
        with pytest.raises(ReplayError):
            dataclasses.replace(op, think_time=-0.1)
        with pytest.raises(dataclasses.FrozenInstanceError):
            op.path = "/elsewhere"
        assert not hasattr(op, "__dict__")
        assert ReplayOp("sync", 0.0) == ReplayOp("sync", 0.0, None, None, None)


class TestBuildPseudoApp:
    def test_no_events_at_the_scripting_layer_is_an_error(self):
        # An empty schedule with nothing unreplayable would pass as an
        # exact replay of a trace it never looked at.
        tf = TraceFile(
            [
                ev("vfs_open", 0.0, layer=EventLayer.VFS, path="/pfs/f", result=3),
                ev("vfs_write", 1.0, layer=EventLayer.VFS, path="/pfs/f", fd=3,
                   nbytes=4096, offset=0),
                ev("vfs_read", 2.0, layer=EventLayer.VFS, path="/pfs/f", fd=3,
                   nbytes=4096, offset=0),
            ],
            rank=0,
        )
        bundle = TraceBundle(files={0: tf})
        with pytest.raises(ReplayError, match=r"^bundle has no libcall events "
                           r"to script from \(it holds vfs=3\)$"):
            build_pseudoapp(bundle, layer=EventLayer.LIBCALL)
        app = build_pseudoapp(bundle, layer=EventLayer.VFS)
        assert [op.kind for op in app.scripts[0].ops] == ["open", "write", "read"]

    def test_the_error_lists_every_layer_held(self):
        files = {
            0: TraceFile([ev("SYS_write", 0.0), ev("MPI_Send", 1.0, layer=EventLayer.NET)],
                         rank=0),
            1: TraceFile([ev("MPI_Recv", 0.5, layer=EventLayer.NET)], rank=1),
        }
        with pytest.raises(ReplayError, match=r"no vfs events .*\(it holds "
                           r"syscall=1, net=2\)$"):
            build_pseudoapp(TraceBundle(files=files), layer=EventLayer.VFS)

    def test_an_empty_or_sync_only_bundle_still_compiles(self):
        empty = build_pseudoapp(TraceBundle(files={0: TraceFile([], rank=0)}),
                                layer=EventLayer.SYSCALL)
        assert empty.scripts[0].ops == []
        sync = TraceFile([ev("MPI_Barrier", 0.0, layer=EventLayer.LIBCALL)], rank=0)
        app = build_pseudoapp(TraceBundle(files={0: sync}), layer=EventLayer.VFS)
        assert [op.kind for op in app.scripts[0].ops] == ["sync"]

    def test_syscall_script_from_events(self):
        tf = TraceFile(
            [
                ev("SYS_open", 0.0, path="/pfs/f", result=3),
                ev("SYS_write", 1.0, nbytes=4096, offset=0, path="/pfs/f", fd=3),
                ev("SYS_write", 2.5, nbytes=4096, offset=4096, path="/pfs/f", fd=3),
                ev("SYS_close", 3.0, fd=3, path="/pfs/f"),
            ],
            rank=0,
        )
        app = build_pseudoapp(
            TraceBundle(files={0: tf}), layer=EventLayer.SYSCALL
        )
        script = app.scripts[0]
        assert [op.kind for op in script.ops] == ["open", "write", "write", "close"]
        # think time between first write end (1.001) and second start (2.5)
        assert script.ops[2].think_time == pytest.approx(1.499)
        assert script.io_bytes == 8192
        assert script.n_io_ops == 2

    def test_deperturbation_subtracts_overhead(self):
        tf = TraceFile(
            [
                ev("SYS_write", 0.0, nbytes=1, offset=0, path="/f"),
                ev("SYS_write", 1.0, nbytes=1, offset=1, path="/f"),
            ],
            rank=0,
        )
        plain = build_pseudoapp(TraceBundle(files={0: tf}), layer=EventLayer.SYSCALL)
        depert = build_pseudoapp(
            TraceBundle(files={0: tf}),
            layer=EventLayer.SYSCALL,
            per_event_overhead=0.2,
        )
        assert depert.scripts[0].ops[1].think_time == pytest.approx(
            plain.scripts[0].ops[1].think_time - 0.2
        )

    def test_sync_markers_survive_any_layer(self):
        tf = TraceFile(
            [
                ev("SYS_write", 0.0, nbytes=1, offset=0, path="/f"),
                ev("MPI_Barrier", 1.0, layer=EventLayer.LIBCALL),
                ev("SYS_write", 2.0, nbytes=1, offset=1, path="/f"),
            ],
            rank=0,
        )
        app = build_pseudoapp(TraceBundle(files={0: tf}), layer=EventLayer.SYSCALL)
        assert [op.kind for op in app.scripts[0].ops] == ["write", "sync", "write"]

    def test_empty_bundle_rejected(self):
        with pytest.raises(ReplayError):
            build_pseudoapp(TraceBundle())

    def test_negative_gaps_clamped(self):
        # overlapping events (clock weirdness) must not produce negative think
        tf = TraceFile(
            [
                ev("SYS_write", 5.0, dur=2.0, nbytes=1, offset=0, path="/f"),
                ev("SYS_write", 5.5, nbytes=1, offset=1, path="/f"),
            ],
            rank=0,
        )
        app = build_pseudoapp(TraceBundle(files={0: tf}), layer=EventLayer.SYSCALL)
        assert all(op.think_time >= 0 for op in app.scripts[0].ops)


class TestReplayEngine:
    def make_app(self):
        return PseudoApp(
            scripts={
                0: RankScript(
                    rank=0,
                    ops=[
                        ReplayOp("open", 0.0, path="/pfs/replay.out"),
                        ReplayOp("write", 0.01, path="/pfs/replay.out", offset=0, nbytes=64 * KiB),
                        ReplayOp("write", 0.01, path="/pfs/replay.out", offset=64 * KiB, nbytes=64 * KiB),
                        ReplayOp("fsync", 0.0, path="/pfs/replay.out"),
                        ReplayOp("close", 0.0, path="/pfs/replay.out"),
                    ],
                ),
                1: RankScript(
                    rank=1,
                    ops=[
                        ReplayOp("write", 0.05, path="/pfs/replay.out", offset=128 * KiB, nbytes=64 * KiB),
                    ],
                ),
            }
        )

    def test_replay_moves_the_bytes(self):
        result = replay(self.make_app())
        assert result.bytes_replayed == 3 * 64 * KiB
        assert result.elapsed > 0.06  # think times at least

    def test_implicit_open_for_write_without_open_op(self):
        result = replay(self.make_app())  # rank 1 writes without open
        stats = result.job.results[1]
        assert stats.bytes_written == 64 * KiB
        assert stats.issued_write_bytes == 64 * KiB
        assert stats.ops_dict() == {"write": 1}  # the implicit open is not an op

    def test_sync_ops_barrier_when_honored(self):
        app = PseudoApp(
            scripts={
                0: RankScript(0, [ReplayOp("sync", 0.5)]),
                1: RankScript(1, [ReplayOp("sync", 0.0)]),
            }
        )
        r = replay(app, honor_sync=True)
        assert r.elapsed >= 0.5  # rank 1 waited for rank 0
        r2 = replay(app, honor_sync=False)
        assert r2.elapsed >= 0.5  # rank 0 still thinks 0.5
        # but rank 1 finished immediately
        assert r2.job.rank_end_times[1] < 0.1

    def test_unknown_op_kind_rejected(self):
        app = PseudoApp(
            scripts={0: RankScript(0, [ReplayOp("sync", 0.0)])}
        )
        app.scripts[0].ops[0] = ReplayOp("sync", 0.0)
        object.__setattr__(app.scripts[0].ops[0], "kind", "explode")
        with pytest.raises(ReplayError):
            replay(app)


class TestDivergenceDetection:
    """Partial captures must raise ReplayDivergence up front, never hang."""

    def test_mismatched_sync_counts_raise_before_launch(self):
        from repro.errors import ReplayDivergence

        app = PseudoApp(
            scripts={
                0: RankScript(0, [ReplayOp("sync", 0.0), ReplayOp("sync", 0.0)]),
                1: RankScript(1, [ReplayOp("sync", 0.0)]),
            }
        )
        with pytest.raises(ReplayDivergence) as err:
            replay(app, honor_sync=True)
        assert err.value.sync_counts == {0: 2, 1: 1}
        assert "rank 0: 2" in str(err.value)

    def test_divergent_app_still_replays_without_sync(self):
        app = PseudoApp(
            scripts={
                0: RankScript(0, [ReplayOp("sync", 0.0), ReplayOp("sync", 0.0)]),
                1: RankScript(1, [ReplayOp("sync", 0.0)]),
            }
        )
        replay(app, honor_sync=False)  # free-running replay is fine

    def test_crash_truncated_bundle_diverges_not_hangs(self):
        """End-to-end: a fault-plane node crash truncates one rank's
        capture; replaying the bundle reports divergence immediately."""
        from repro.errors import ReplayDivergence
        from repro.faults.schedule import FaultSchedule, NodeCrash

        outcome = run_once(
            mpi_io_test,
            {"path": "/pfs/diverge.out", "block_size": 64 * KiB, "nobj": 8},
            LANLTrace,
            config=paper_testbed(seed=0, nprocs=2),
            nprocs=2,
            seed=0,
            faults=FaultSchedule.of(NodeCrash(at=0.03, node=1), name="truncate"),
            horizon=120.0,
        )
        assert outcome.status == "node-crash"
        app = build_pseudoapp(outcome.bundle)
        with pytest.raises(ReplayDivergence):
            replay(app, honor_sync=True)


class TestFidelityMetrics:
    def test_end_to_end_error(self):
        f = compare_end_to_end(10.0, 10.6)
        assert f.error_percent == pytest.approx(6.0)
        assert compare_end_to_end(10.0, 9.4).error_percent == pytest.approx(6.0)

    def test_compare_traces_identical(self):
        tf = TraceFile([ev("SYS_write", 0.0, nbytes=10, offset=0)])
        b = TraceBundle(files={0: tf})
        out = compare_traces(b, b)
        assert out["op_count_similarity"] == 1.0
        assert out["byte_similarity"] == 1.0
        assert out["offset_coverage"] == 1.0
        w = out["per_class"]["write"]
        assert w["source_count"] == w["replay_count"] == 1
        assert w["byte_delta"] == 0 and w["count_delta"] == 0

    def test_compare_traces_disjoint(self):
        a = TraceBundle(files={0: TraceFile([ev("SYS_write", 0.0, nbytes=10, offset=0)])})
        b = TraceBundle(files={0: TraceFile([ev("SYS_read", 0.0, nbytes=99, offset=77)])})
        out = compare_traces(a, b)
        assert out["op_count_similarity"] == 0.0
        assert out["offset_coverage"] == 0.0

    def test_compare_traces_empty(self):
        out = compare_traces(TraceBundle(), TraceBundle())
        assert out["byte_similarity"] == 1.0


class TestFullPipelineFromLANLTrace:
    """The paper's 'trivial to imagine' replayer: LANL-Trace raw traces ->
    pseudo-application -> replay, verified with both §3.1 methods."""

    def test_lanl_trace_raw_traces_are_replayable(self):
        config = paper_testbed(nprocs=NP)
        untraced = run_untraced(mpi_io_test, ARGS, config=config, nprocs=NP)
        _, traced = run_traced(
            lambda: LANLTrace(LANLTraceConfig()),
            mpi_io_test, ARGS, config=config, nprocs=NP,
        )
        cfg = LANLTraceConfig()
        app = build_pseudoapp(
            traced.bundle,
            layer=EventLayer.SYSCALL,
            per_event_overhead=cfg.syscall_event_cost,
        )
        result = replay(app, config=config, seed=123)
        # byte volume is reproduced exactly
        assert result.bytes_replayed == sum(
            r.bytes_written for r in traced.job.results
        )
        # end-to-end runtime error within the ballpark the paper reports
        fid = compare_end_to_end(untraced.elapsed, result.elapsed)
        assert fid.error_percent < 25.0

    def test_replayed_trace_matches_original_signature(self):
        config = paper_testbed(nprocs=NP)
        _, traced = run_traced(
            lambda: LANLTrace(LANLTraceConfig()),
            mpi_io_test, ARGS, config=config, nprocs=NP,
        )
        app = build_pseudoapp(traced.bundle, layer=EventLayer.SYSCALL)

        # trace the replay itself (the paper's first verification method)
        from repro.frameworks.ptrace.framework import PTrace
        from repro.harness.testbed import build_testbed
        from repro.replay.replayer import _replay_rank
        from repro.simmpi.runtime import mpirun

        tb2 = build_testbed(config, seed=5)
        fw = PTrace()
        job = mpirun(
            tb2.cluster,
            tb2.vfs,
            _replay_rank,
            nprocs=app.nprocs,
            args={"pseudoapp": app, "honor_sync": True},
            setup=fw.setup_rank,
        )
        replay_bundle = fw.finalize(job)
        sim = compare_traces(traced.bundle, replay_bundle)
        assert sim["byte_similarity"] > 0.99
        assert sim["offset_coverage"] > 0.99
