"""MsgTrace tests: the taxonomy's extensibility exercise (§6 future work)."""

import numpy as np
import pytest

from repro.core.casestudy import FRAMEWORK_CARDS
from repro.core.features import Feature
from repro.core.summary_table import render_summary_table
from repro.core.values import EventKind
from repro.frameworks.netmsg import MsgTrace, MsgTraceConfig
from repro.harness.experiment import measure_overhead, run_traced
from repro.trace.events import EventLayer
from repro.units import KiB
from repro.workloads.mpi_io_test import mpi_io_test
from repro.workloads.patterns import AccessPattern


def ring_app(mpi, args):
    """Each rank sends a payload to (rank+1) % size, then gathers."""
    nbytes = args.get("nbytes", 64 * KiB)
    dest = (mpi.rank + 1) % mpi.size
    yield from mpi.send(dest, "payload-%d" % mpi.rank, nbytes=nbytes)
    got = yield from mpi.recv()
    yield from mpi.barrier()
    yield from mpi.gather(got, root=0)
    return got


class TestCapture:
    def test_registered(self):
        assert MsgTrace.name == "msgtrace" and MsgTrace.name in FRAMEWORK_CARDS

    def test_records_net_layer_events(self):
        _, traced = run_traced(MsgTrace, ring_app, {}, nprocs=4)
        events = traced.bundle.all_events()
        assert events
        assert all(e.layer is EventLayer.NET for e in events)
        names = {e.name for e in events}
        assert {"MPI_Send", "MPI_Recv", "MPI_Barrier", "MPI_Gather"} <= names

    def test_point_to_point_only_filter(self):
        _, traced = run_traced(
            lambda: MsgTrace(MsgTraceConfig(point_to_point_only=True)),
            ring_app, {}, nprocs=4,
        )
        names = {e.name for e in traced.bundle.all_events()}
        assert names == {"MPI_Send", "MPI_Recv"}

    def test_io_calls_not_captured(self):
        _, traced = run_traced(
            MsgTrace, mpi_io_test,
            {"pattern": AccessPattern.N_TO_N, "block_size": 64 * KiB, "nobj": 2,
             "path": "/pfs/out"},
            nprocs=2,
        )
        names = {e.name for e in traced.bundle.all_events()}
        assert not any(n.startswith("SYS_") for n in names)
        assert not any(n.startswith("MPI_File") for n in names)


class TestCommunicationMatrix:
    def test_ring_topology_recovered(self):
        holder = {}

        def factory():
            fw = MsgTrace()
            holder["fw"] = fw
            return fw

        run_traced(factory, ring_app, {"nbytes": 1000}, nprocs=4)
        matrix = holder["fw"].communication_matrix()
        expected = np.zeros((4, 4), dtype=np.int64)
        for src in range(4):
            expected[src, (src + 1) % 4] = 1000
        assert np.array_equal(matrix, expected)

    def test_matrix_in_bundle_metadata(self):
        _, traced = run_traced(MsgTrace, ring_app, {"nbytes": 500}, nprocs=3)
        matrix = traced.bundle.metadata["comm_matrix"]
        assert matrix[0][1] == 500
        assert matrix[0][0] == 0


class TestTaxonomyExtensibility:
    """The §6 claim: the unchanged taxonomy classifies a non-I/O tracer."""

    def test_classification_is_valid(self):
        c = MsgTrace().classification()
        assert c.framework_name == "MsgTrace"
        assert EventKind.NETWORK_MESSAGES in c[Feature.EVENT_TYPES]
        assert len(c) == 13

    def test_renders_alongside_the_paper_frameworks(self):
        from repro.core.casestudy import paper_table2

        table = render_summary_table(
            list(paper_table2().values()) + [MsgTrace().classification()]
        )
        assert "MsgTrace" in table and "Network messages" in table

    def test_recommendation_engine_handles_it(self):
        from repro.core.casestudy import paper_table2
        from repro.core.requirements import Requirements, recommend

        everyone = list(paper_table2().values()) + [MsgTrace().classification()]
        recs = recommend(
            Requirements(required_event_kinds={EventKind.NETWORK_MESSAGES}), everyone
        )
        assert [r.framework_name for r in recs if r.qualifies] == ["MsgTrace"]

    def test_overhead_is_negligible(self):
        m = measure_overhead(
            MsgTrace, mpi_io_test,
            {"pattern": AccessPattern.N_TO_1_NONSTRIDED, "block_size": 256 * KiB,
             "nobj": 16, "path": "/pfs/out"},
            nprocs=4,
        )
        assert m.elapsed_overhead < 0.01
