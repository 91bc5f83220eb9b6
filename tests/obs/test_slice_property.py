"""Property: slicing a faulted run ranks the faulted layer in the top 2.

Whatever the injected fault's timing and magnitude, the slice's suspect
ranking must point at the fault plane's stack layer — a disk slowdown
indicts ``simfs``, a degraded link indicts ``network``.  The fault
events ride in as the archived schedule JSON, exactly as
``slice_from_store`` reads them back.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults.schedule import (
    DiskSlowdown,
    FaultSchedule,
    LinkDegradation,
    NetworkPartition,
)
from repro.harness.experiment import run_once
from repro.harness.figures import paper_testbed
from repro.obs.slice import causal_slice
from repro.obs.tracepoints import session
from repro.units import KiB
from repro.workloads.mpi_io_test import mpi_io_test

ARGS = {"path": "/pfs/x.out", "block_size": 64 * KiB, "nobj": 4}


def _slice_under(schedule):
    with session() as col:
        outcome = run_once(
            mpi_io_test, dict(ARGS),
            config=paper_testbed(seed=0, nprocs=2), nprocs=2, seed=0,
            faults=schedule, horizon=120.0,
        )
        assert outcome.status == "completed"
        payload = col.export(end_time=outcome.stats.elapsed)
    return causal_slice(
        payload, fault_events=schedule.to_json()["events"]
    )


def _top2(report):
    return [s["layer"] for s in report["suspects"][:2]]


class TestFaultedLayerRanksTop2:
    @settings(max_examples=6, deadline=None)
    @given(
        at=st.floats(0.0, 0.05),
        extra=st.floats(0.0005, 0.005),
    )
    def test_disk_slowdown_indicts_simfs(self, at, extra):
        schedule = FaultSchedule.of(
            DiskSlowdown(at=at, duration=60.0, extra_latency=extra),
            name="slow-disk",
        )
        report = _slice_under(schedule)
        assert "simfs" in _top2(report)
        assert any(
            c["type"] == "DiskSlowdown" for c in report["fault_candidates"]
        )

    @settings(max_examples=6, deadline=None)
    @given(
        at=st.floats(0.0, 0.05),
        extra=st.floats(0.0005, 0.005),
        node=st.integers(0, 1),
    )
    def test_link_degradation_indicts_network(self, at, extra, node):
        schedule = FaultSchedule.of(
            LinkDegradation(at=at, duration=60.0, node=node, extra_latency=extra),
            name="slow-link",
        )
        report = _slice_under(schedule)
        assert "network" in _top2(report)

    def test_healed_partition_indicts_network(self):
        schedule = FaultSchedule.of(
            NetworkPartition(at=0.01, nodes=(1,), heal_after=0.05),
            name="partition",
        )
        report = _slice_under(schedule)
        assert "network" in _top2(report)
        assert report["fault_candidates"][0]["type"] == "NetworkPartition"
