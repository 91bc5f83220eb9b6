"""FaultSchedule: validation, canonicalization, windows, horizon checks."""

import pytest

from repro.errors import FaultError
from repro.faults.schedule import (
    FOREVER,
    DiskErrorStorm,
    DiskSlowdown,
    FaultSchedule,
    LinkDegradation,
    NetworkPartition,
    NodeCrash,
)


class TestEventValidation:
    def test_negative_time_rejected(self):
        with pytest.raises(FaultError):
            NodeCrash(at=-0.1, node=0)

    def test_non_positive_windows_rejected(self):
        with pytest.raises(FaultError):
            NodeCrash(at=0.0, node=0, restart_after=0.0)
        with pytest.raises(FaultError):
            DiskSlowdown(at=0.0, duration=-1.0, extra_latency=1e-3)

    def test_negative_node_rejected(self):
        with pytest.raises(FaultError):
            NodeCrash(at=0.0, node=-1)
        with pytest.raises(FaultError):
            LinkDegradation(at=0.0, duration=1.0, node=-2)

    def test_empty_partition_rejected(self):
        with pytest.raises(FaultError):
            NetworkPartition(at=0.0, nodes=())

    def test_partition_nodes_sorted_and_deduped(self):
        ev = NetworkPartition(at=0.0, nodes=(3, 1, 3, 2))
        assert ev.nodes == (1, 2, 3)

    def test_rate_bounds(self):
        with pytest.raises(FaultError):
            LinkDegradation(at=0.0, duration=1.0, node=0, drop_rate=1.5)
        with pytest.raises(FaultError):
            DiskErrorStorm(at=0.0, duration=1.0, error_rate=0.0)
        with pytest.raises(FaultError):
            DiskErrorStorm(at=0.0, duration=1.0, error_rate=1.1)

    def test_unknown_event_type_rejected(self):
        with pytest.raises(FaultError, match="unknown fault event"):
            FaultSchedule.of("not-a-fault")


class TestWindows:
    def test_unrecovered_events_last_forever(self):
        assert NodeCrash(at=1.0, node=0).window == (1.0, FOREVER)
        assert NetworkPartition(at=2.0, nodes=(0,)).window == (2.0, FOREVER)

    def test_recovered_events_close_their_window(self):
        assert NodeCrash(at=1.0, node=0, restart_after=2.0).window == (1.0, 3.0)
        assert NetworkPartition(at=1.0, nodes=(0,), heal_after=0.5).window == (1.0, 1.5)
        assert DiskSlowdown(at=2.0, duration=3.0, extra_latency=1e-3).window == (2.0, 5.0)


class TestCanonicalization:
    def test_listing_order_is_irrelevant(self):
        a = NodeCrash(at=0.5, node=1)
        b = DiskSlowdown(at=0.2, duration=1.0, extra_latency=1e-3)
        assert FaultSchedule.of(a, b) == FaultSchedule.of(b, a)
        assert hash(FaultSchedule.of(a, b)) == hash(FaultSchedule.of(b, a))

    def test_events_sorted_by_time(self):
        sched = FaultSchedule.of(
            NodeCrash(at=0.5, node=1),
            DiskSlowdown(at=0.2, duration=1.0, extra_latency=1e-3),
        )
        assert [e.at for e in sched.events] == [0.2, 0.5]

    def test_select_and_is_empty(self):
        assert FaultSchedule().is_empty
        sched = FaultSchedule.of(
            NodeCrash(at=0.1, node=0),
            NodeCrash(at=0.3, node=1),
            DiskSlowdown(at=0.2, duration=1.0, extra_latency=1e-3),
        )
        crashes = sched.select(NodeCrash)
        assert [e.node for e in crashes] == [0, 1]
        assert len(sched.select(NodeCrash, DiskSlowdown)) == 3
        assert sched.select(NetworkPartition) == ()

    def test_node_down_windows(self):
        sched = FaultSchedule.of(
            NodeCrash(at=0.1, node=0, restart_after=0.2),
            NodeCrash(at=1.0, node=0),
            NodeCrash(at=0.5, node=2, restart_after=0.1),
        )
        windows = sched.node_down_windows()
        assert windows[0] == [(0.1, pytest.approx(0.3)), (1.0, FOREVER)]
        assert windows[2] == [(0.5, pytest.approx(0.6))]
        assert 1 not in windows

    def test_describe(self):
        assert FaultSchedule().describe() == "no faults"
        sched = FaultSchedule.of(NodeCrash(at=0.1, node=0))
        assert sched.describe() == "1 event(s): NodeCrash@0.1"


class TestHorizonValidation:
    def test_none_horizon_always_passes(self):
        FaultSchedule.of(NodeCrash(at=1e9, node=0)).validate_horizon(None)

    def test_in_horizon_passes(self):
        FaultSchedule.of(NodeCrash(at=0.5, node=0)).validate_horizon(1.0)

    def test_late_event_named_in_error(self):
        sched = FaultSchedule.of(
            NodeCrash(at=0.5, node=0), NodeCrash(at=2.0, node=1)
        )
        with pytest.raises(FaultError, match="never fire"):
            sched.validate_horizon(1.0)
        with pytest.raises(FaultError, match="never fire"):
            # at == horizon is also unreachable (the run ends at `horizon`)
            sched.validate_horizon(2.0)
