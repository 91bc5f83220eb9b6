"""Critical-path attribution: forest recovery, layer map, straggler chain."""

import pytest

from obsutil import make_payload

from repro.errors import TelemetryError
from repro.obs.critpath import (
    DATA_SYSCALLS,
    STACK_LAYERS,
    SpanNode,
    build_forest,
    collapsed_stacks,
    critical_path,
    flamegraph_lines,
    payload_spans,
    render_critical_path,
    span_rollup,
    stack_layer,
)
from repro.obs.metrics import canonical_json
from repro.obs.spans import KERNEL_PID

# Two ranks: rank 0 runs an MPI-IO libcall wrapping a data syscall; rank 1
# runs a longer bare libcall and finishes last (the straggler).
SPANS = [
    (0, 0, "MPI_File_write_all", "libcall", 0.0, 0.010),
    (0, 0, "SYS_write", "syscall", 0.002, 0.006),
    (1, 1, "MPI_File_write_all", "libcall", 0.0, 0.012),
]


class TestStackLayer:
    @pytest.mark.parametrize(
        "cat,name,pid,layer",
        [
            ("kernel", "des.drain", KERNEL_PID, "des"),
            ("collective", "MPI_Barrier:wait", 0, "simmpi"),
            ("net", "net.send", 0, "network"),
            ("vfs", "vfs_write", 0, "simfs"),
            ("libcall", "MPI_File_open", 0, "simmpi"),
            ("libcall", "MPIO_Wait", 0, "simmpi"),
            ("libcall", "lt_record", 0, "framework"),
            ("syscall", "SYS_write", 0, "simfs"),
            ("syscall", "SYS_open", 0, "simos"),
            ("weird", "anything", 0, "framework"),
        ],
    )
    def test_attribution_table(self, cat, name, pid, layer):
        assert stack_layer(cat, name, pid) == layer
        assert layer in STACK_LAYERS

    def test_every_data_syscall_charges_simfs(self):
        for name in DATA_SYSCALLS:
            assert stack_layer("syscall", name, 0) == "simfs"


class TestBuildForest:
    def test_containment_becomes_nesting(self):
        forest = build_forest(payload_spans(make_payload(SPANS)))
        assert set(forest) == {(0, 0), (1, 1)}
        (root,) = forest[(0, 0)]
        assert root.name == "MPI_File_write_all"
        assert [c.name for c in root.children] == ["SYS_write"]
        assert root.self_time == pytest.approx(0.010 - 0.006)
        assert root.children[0].self_time == pytest.approx(0.006)

    def test_sequential_siblings_stay_siblings(self):
        spans = [
            (0, 0, "first", "syscall", 0.0, 0.001),
            (0, 0, "second", "syscall", 0.001, 0.001),
        ]
        forest = build_forest(payload_spans(make_payload(spans)))
        assert [r.name for r in forest[(0, 0)]] == ["first", "second"]

    def test_zero_duration_span_at_parent_end_stays_nested(self):
        # A 0-duration marker recorded exactly at its parent's completion
        # instant belongs inside the parent, not after it.
        spans = [
            (0, 0, "parent", "libcall", 0.0, 0.004),
            (0, 0, "marker", "syscall", 0.004, 0.0),
        ]
        forest = build_forest(payload_spans(make_payload(spans)))
        (root,) = forest[(0, 0)]
        assert [c.name for c in root.children] == ["marker"]

    def test_tied_zero_duration_spans_order_by_name_not_record_order(self):
        # Two zero-duration markers at the same instant: the recorder may
        # interleave them either way, but the recovered forest (and every
        # artifact derived from it) must not depend on record order.
        tied = [
            (0, 0, "b_marker", "syscall", 0.001, 0.0),
            (0, 0, "a_marker", "syscall", 0.001, 0.0),
        ]
        for spans in (tied, list(reversed(tied))):
            forest = build_forest(payload_spans(make_payload(spans)))
            assert [r.name for r in forest[(0, 0)]] == ["a_marker", "b_marker"]

    def test_tied_identical_intervals_nest_deterministically(self):
        tied = [
            (0, 0, "beta", "libcall", 0.0, 0.002),
            (0, 0, "alpha", "libcall", 0.0, 0.002),
        ]
        reports = [
            critical_path(make_payload(spans))
            for spans in (tied, list(reversed(tied)))
        ]
        assert canonical_json(reports[0]) == canonical_json(reports[1])
        forest = build_forest(payload_spans(make_payload(tied)))
        (root,) = forest[(0, 0)]
        assert root.name == "alpha"  # name breaks the (ts, dur) tie
        assert [c.name for c in root.children] == ["beta"]

    def test_self_time_clamps_at_zero(self):
        node = SpanNode("n", "syscall", 0.0, 0.001)
        node.children.append(SpanNode("c", "syscall", 0.0, 0.002))
        assert node.self_time == 0.0


class TestTrackStats:
    def test_busy_layers_and_names(self):
        forest = build_forest(payload_spans(make_payload(SPANS)))
        s = span_rollup(forest[(0, 0)], 0)
        assert s["busy"] == pytest.approx(0.010)
        assert s["end"] == pytest.approx(0.010)
        assert s["layers"]["simmpi"] == pytest.approx(0.004)
        assert s["layers"]["simfs"] == pytest.approx(0.006)
        assert s["names"]["SYS_write"] == {
            "count": 1,
            "total": pytest.approx(0.006),
            "self": pytest.approx(0.006),
        }


class TestCriticalPath:
    def test_straggler_and_chain(self):
        report = critical_path(make_payload(SPANS))
        assert report["schema"] == "repro/obs/critpath/v1"
        assert report["end_time"] == pytest.approx(0.012)
        assert report["n_spans"] == 3
        assert report["straggler"]["node"] == 1
        assert report["straggler"]["rank"] == 1
        assert [link["name"] for link in report["chain"]] == ["MPI_File_write_all"]
        assert report["chain"][0]["layer"] == "simmpi"
        assert report["layers"]["simmpi"] == pytest.approx(0.004 + 0.012)
        assert report["layers"]["simfs"] == pytest.approx(0.006)

    def test_kernel_track_charges_des(self):
        spans = [(KERNEL_PID, 0, "des.drain", "kernel", 0.0, 0.5)]
        report = critical_path(make_payload(spans))
        assert report["layers"] == {"des": 0.5}

    def test_straggler_ties_break_to_smallest_track(self):
        spans = [
            (1, 1, "a", "syscall", 0.0, 0.010),
            (0, 0, "b", "syscall", 0.0, 0.010),
        ]
        report = critical_path(make_payload(spans))
        assert (report["straggler"]["node"], report["straggler"]["rank"]) == (0, 0)

    def test_record_order_does_not_matter(self):
        a = critical_path(make_payload(SPANS))
        b = critical_path(make_payload(list(reversed(SPANS))))
        assert canonical_json(a) == canonical_json(b)

    def test_empty_payload_reports_nothing_to_attribute(self):
        report = critical_path(make_payload([]))
        assert report["straggler"] is None
        assert report["chain"] == []
        text = render_critical_path(report)
        assert "nothing to attribute" in text
        assert "--telemetry" in text

    def test_rejects_non_payload(self):
        with pytest.raises(TelemetryError):
            payload_spans({"schema": "something/else"})
        with pytest.raises(TelemetryError):
            payload_spans([1, 2, 3])


class TestFlamegraph:
    def test_collapsed_stacks_are_self_time_weighted(self):
        lines = flamegraph_lines(make_payload(SPANS))
        assert lines == sorted(lines)
        assert "node0 host00 rank 0;MPI_File_write_all 4000" in lines
        assert "node0 host00 rank 0;MPI_File_write_all;SYS_write 6000" in lines
        assert "node1 host01 rank 1;MPI_File_write_all 12000" in lines

    def test_semicolon_in_a_span_name_stays_one_frame(self):
        # An uploaded trace may name a call ``my;lib_call``: the collapsed
        # format splits frames on ``;``, so the writer escapes it.
        spans = [(0, 0, "my;lib_call", "libcall", 0.0, 0.002)]
        assert flamegraph_lines(make_payload(spans)) == [
            "node0 host00 rank 0;my,lib_call 2000"
        ]
        root = SpanNode("a;b", "service", 0.0, 0.003)
        root.children.append(SpanNode("c;d", "service", 0.001, 0.001))
        assert collapsed_stacks([("route", [root])]) == [
            "route;a,b 2000",
            "route;a,b;c,d 1000",
        ]

    def test_zero_weight_stacks_dropped(self):
        spans = [(0, 0, "instant", "syscall", 0.0, 0.0)]
        assert flamegraph_lines(make_payload(spans)) == []

    def test_render_names_the_straggler(self):
        text = render_critical_path(critical_path(make_payload(SPANS)))
        assert "straggler: node1 host01 rank 1" in text
        assert "slowest-rank chain" in text
