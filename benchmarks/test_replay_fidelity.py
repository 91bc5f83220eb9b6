"""//TRACE trace replay fidelity (§4.3, Table 2 row).

Paper: fidelity error "as low as 6%", "trace replay accuracy is the
central focus of //TRACE", with "user-control over replay accuracy by
using sampling".  Verified with both §3.1 methods: end-to-end run time
(the ``time`` utility) and re-tracing the pseudo-application.
"""

from repro.frameworks.ptrace.framework import PTrace
from repro.frameworks.ptrace.replaygen import build_replayable
from repro.frameworks.ptrace.throttle import PTraceCollector
from repro.harness.experiment import measure_overhead
from repro.harness.figures import paper_testbed
from repro.replay.fidelity import compare_end_to_end, compare_traces
from repro.replay.replayer import replay
from repro.units import KiB
from repro.workloads.mpi_io_test import mpi_io_test
from repro.workloads.patterns import AccessPattern

NP = 4
ARGS = {
    "pattern": AccessPattern.N_TO_1_NONSTRIDED,
    "block_size": 256 * KiB,
    "nobj": 240,
    "path": "/pfs/out",
    "barrier_every": 16,
}


def _collect_and_replay(sampling):
    coll = PTraceCollector(sampling=sampling, epoch_duration=0.2)
    holder = {}

    def factory():
        holder["c"] = coll
        return coll

    m = measure_overhead(
        factory, mpi_io_test, ARGS, config=paper_testbed(nprocs=NP), nprocs=NP
    )
    res = holder["c"].result
    app = build_replayable(res, per_event_overhead=coll.base.config.per_event_cost)
    rr = replay(app, config=paper_testbed(nprocs=NP), seed=99)
    fid = compare_end_to_end(m.untraced.elapsed, rr.elapsed)
    return m, res, app, rr, fid


def test_replay_fidelity_at_full_sampling(once):
    m, res, app, rr, fid = once(_collect_and_replay, 1.0)
    print(
        "\nfull sampling: original %.2fs, replay %.2fs, error %.1f%% "
        "(paper: as low as 6%%)"
        % (m.untraced.elapsed, rr.elapsed, fid.error_percent)
    )
    assert app.metadata["sync_inserted"]
    # "as low as 6%": the well-informed replay lands in single digits
    assert fid.error_percent < 8.0
    # volume reproduced exactly
    assert rr.bytes_replayed == sum(r.bytes_written for r in m.traced.job.results)


def test_fidelity_degrades_without_dependency_knowledge(once):
    """The sampling dial's other end: a blind dependency map means no
    synchronization in the replay, and fidelity suffers.

    Measured on a load-imbalanced checkpoint application — when ranks
    finish compute at different times, barrier waits carry real weight,
    and a replay that does not re-synchronize underestimates the run."""
    from repro.frameworks.ptrace.replaygen import build_replayable
    from repro.frameworks.ptrace.throttle import PTraceCollector
    from repro.workloads.generators import checkpoint

    imbalanced = {
        "path": "/pfs/ck",
        "phases": 6,
        "compute_time": 0.25,
        "imbalance": 0.5,  # slowest rank computes ~2.5x the fastest
        "block_size": 128 * KiB,
        "blocks_per_phase": 8,
    }

    def run_one(sampling):
        coll = PTraceCollector(sampling=sampling, epoch_duration=0.2)
        holder = {}

        def factory():
            holder["c"] = coll
            return coll

        m = measure_overhead(
            factory, checkpoint, imbalanced, config=paper_testbed(nprocs=NP),
            nprocs=NP,
        )
        app = build_replayable(
            holder["c"].result,
            per_event_overhead=coll.base.config.per_event_cost,
        )
        rr = replay(app, config=paper_testbed(nprocs=NP), seed=99)
        return app, compare_end_to_end(m.untraced.elapsed, rr.elapsed)

    def measure_both():
        app_full, fid_full = run_one(1.0)
        app_blind, fid_blind = run_one(0.0)
        return fid_full, fid_blind, app_full, app_blind

    fid_full, fid_blind, app_full, app_blind = once(measure_both)
    print(
        "\nimbalanced workload replay error: full discovery %.1f%%, "
        "no discovery %.1f%%" % (fid_full.error_percent, fid_blind.error_percent)
    )
    assert app_full.metadata["sync_inserted"]
    assert not app_blind.metadata["sync_inserted"]
    assert fid_blind.error_percent > 3 * fid_full.error_percent
    assert fid_full.error_percent < 20.0


def test_replayed_trace_signature_matches(once):
    """§3.1's first verification method: trace the pseudo-application and
    compare the traces."""

    def run():
        _, res, app, _, _ = _collect_and_replay(1.0)
        from repro.harness.testbed import build_testbed
        from repro.replay.replayer import _replay_rank
        from repro.simmpi.runtime import mpirun

        tb = build_testbed(paper_testbed(nprocs=NP), seed=55)
        fw = PTrace()
        job = mpirun(
            tb.cluster, tb.vfs, _replay_rank, nprocs=app.nprocs,
            args={"pseudoapp": app, "honor_sync": True}, setup=fw.setup_rank,
        )
        return compare_traces(res.bundle, fw.finalize(job))

    similarity = once(run)
    print("\ntrace-vs-trace similarity: %r" % (similarity,))
    assert similarity["byte_similarity"] > 0.99
    assert similarity["offset_coverage"] > 0.99
    assert similarity["op_count_similarity"] > 0.95
