"""Deadlock reports: wait reasons, ring-buffer dump, enable-telemetry hint."""

import pytest

from repro.des.simulator import Simulator
from repro.errors import DeadlockError
from repro.obs.tracepoints import TelemetryConfig, session


def _deadlocking_sim():
    """A sim with some real activity, then a process stuck forever."""
    sim = Simulator(seed=3)

    def worker():
        for _ in range(80):
            yield sim.timeout(0.01)

    def stuck():
        yield sim.completion("never-signalled")

    def idle_daemon():
        yield sim.completion("daemon-idle")

    sim.spawn(worker(), name="worker")
    sim.spawn(stuck(), name="stuck-proc")
    sim.spawn(idle_daemon(), name="heartbeat", daemon=True)
    return sim


class TestWithTelemetry:
    def test_report_dumps_ring_and_wait_reasons(self):
        sim = _deadlocking_sim()
        with session(TelemetryConfig(ring_size=50)):
            with pytest.raises(DeadlockError) as err:
                sim.run()
        msg = str(err.value)
        assert "last 50 dispatched events (oldest first):" in msg
        assert msg.count("t=") == 50
        assert "blocked processes:" in msg
        assert "stuck-proc" in msg and "never-signalled" in msg
        # Daemons appear in the wait-reason dump, marked as such...
        assert "heartbeat [daemon]" in msg
        # ...but never among the culprits.
        assert not any("heartbeat" in b for b in err.value.blocked)

    def test_ring_smaller_than_history_keeps_newest(self):
        sim = _deadlocking_sim()
        with session(TelemetryConfig(ring_size=5)):
            with pytest.raises(DeadlockError) as err:
                sim.run()
        assert len(err.value.recent_events) == 5

    def test_no_hint_when_telemetry_was_on(self):
        sim = _deadlocking_sim()
        with session():
            with pytest.raises(DeadlockError) as err:
                sim.run()
        assert "enable telemetry" not in str(err.value)


class TestFaultKilledCollective:
    """A fault-killed rank mid-collective leaves its peers blocked forever;
    the deadlock dump must name every blocked rank and its wait reason."""

    def _crash_mid_barrier(self):
        from repro.faults.plane import FaultPlane
        from repro.faults.schedule import FaultSchedule, NodeCrash
        from repro.harness.figures import paper_testbed
        from repro.harness.testbed import build_testbed
        from repro.simmpi.runtime import mpirun

        tb = build_testbed(paper_testbed(seed=0, nprocs=4), seed=0)
        plane = FaultPlane(
            FaultSchedule.of(NodeCrash(at=0.05, node=1), name="kill-mid-collective")
        ).install(tb.cluster, tb.vfs)

        def app(mpi, args):
            # Rank 1 is still computing when the crash fires at t=0.05;
            # everyone else is already parked in the barrier.
            if mpi.rank == 1:
                yield mpi.sim.timeout(0.2)
            yield from mpi.barrier()

        job = mpirun(tb.cluster, tb.vfs, app, nprocs=4, run=False)
        with pytest.raises(DeadlockError) as err:
            tb.cluster.sim.run_fast()
        return err.value, job, plane

    def test_every_surviving_rank_named_with_wait_reason(self):
        err, job, _ = self._crash_mid_barrier()
        for rank in (0, 2, 3):
            entry = next(b for b in err.blocked if "rank%d" % rank in b)
            assert "waiting on" in entry
            assert "collective:barrier" in entry
        # The crashed rank is dead, not blocked — it must not be a culprit.
        assert not any("rank1" in b for b in err.blocked)

    def test_crashed_rank_completion_carries_the_root_cause(self):
        from repro.errors import NodeCrashed

        err, job, plane = self._crash_mid_barrier()
        comp = job.des_processes[1].completion
        assert comp.done
        assert isinstance(comp.exception, NodeCrashed)
        assert plane.counters.get("node.crashes") == 1


class TestWithoutTelemetry:
    def test_report_hints_at_telemetry(self):
        sim = _deadlocking_sim()
        with pytest.raises(DeadlockError) as err:
            sim.run()
        msg = str(err.value)
        assert err.value.recent_events is None
        assert "enable telemetry" in msg
        assert "--telemetry" in msg
        assert "blocked processes:" in msg

    def test_blocked_list_format_unchanged(self):
        sim = _deadlocking_sim()
        with pytest.raises(DeadlockError) as err:
            sim.run()
        assert any("stuck-proc" in b for b in err.value.blocked)
        assert any("waiting on" in b for b in err.value.blocked)
