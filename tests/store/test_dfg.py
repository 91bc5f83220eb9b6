"""Directly-follows-graph construction over archived segments."""

import pytest

from storeutil import make_event

from repro.obs.metrics import canonical_json
from repro.store.bank import TraceBank
from repro.store.dfg import build_dfg, render_dfg_dot, render_dfg_text
from repro.store.query import Query
from repro.trace.records import TraceBundle, TraceFile


def seq_file(names, rank=0, base_ts=0.0):
    events = [
        make_event(name=n, ts=base_ts + i * 0.01, rank=rank)
        for i, n in enumerate(names)
    ]
    return TraceFile(events, rank=rank, framework="lanl-trace")


def make_bank(tmp_path, files):
    bank = TraceBank(tmp_path / "store")
    bank.ingest_bundle(
        TraceBundle(files={tf.rank: tf for tf in files}, metadata={"workload": "dfg"})
    )
    return bank


class TestGraphShape:
    def test_edge_weights(self, tmp_path):
        bank = make_bank(
            tmp_path, [seq_file(["open", "write", "write", "close"], rank=0)]
        )
        report = build_dfg(bank, Query())
        graph = report["graph"]
        assert graph["nodes"] == {"open": 1, "write": 2, "close": 1}
        assert graph["edges"] == {
            "open": {"write": 1},
            "write": {"write": 1, "close": 1},
        }
        assert graph["starts"] == {"open": 1}
        assert graph["ends"] == {"close": 1}
        assert graph["n_nodes"] == 3
        assert graph["n_edges"] == 3

    def test_edges_never_cross_segments(self, tmp_path):
        # rank 0 ends with "close"; rank 1 starts with "open".  If shard
        # boundaries leaked, a close->open edge would appear.
        bank = make_bank(
            tmp_path,
            [
                seq_file(["open", "close"], rank=0),
                seq_file(["open", "close"], rank=1),
            ],
        )
        graph = build_dfg(bank, Query())["graph"]
        assert graph["edges"] == {"open": {"close": 2}}
        assert graph["starts"] == {"open": 2}
        assert graph["ends"] == {"close": 2}

    def test_filters_apply_before_adjacency(self, tmp_path):
        # Dropping the middle op makes its neighbours adjacent.
        bank = make_bank(tmp_path, [seq_file(["open", "stat", "close"], rank=0)])
        q = Query.create(names=["open", "close"])
        graph = build_dfg(bank, q)["graph"]
        assert graph["edges"] == {"open": {"close": 1}}

    def test_empty_match_is_empty_graph(self, tmp_path):
        bank = make_bank(tmp_path, [seq_file(["open"], rank=0)])
        graph = build_dfg(bank, Query.create(names=["nope"]))["graph"]
        assert graph["nodes"] == {} and graph["edges"] == {}
        assert graph["n_nodes"] == 0 and graph["n_edges"] == 0


class TestEdgeTimes:
    def test_mean_gap_is_idle_time_between_ops(self, tmp_path):
        # seq_file spaces events 0.01 s apart with 0.001 s durations:
        # every directly-follows edge carries a 0.009 s idle gap.
        bank = make_bank(
            tmp_path, [seq_file(["open", "write", "write", "close"], rank=0)]
        )
        times = build_dfg(bank, Query())["graph"]["edge_times"]
        cell = times["open"]["write"]
        assert cell["count"] == 1
        assert cell["mean"] == pytest.approx(0.009)
        assert cell["sum"] == pytest.approx(0.009)
        assert cell["min"] == cell["max"] == pytest.approx(0.009)
        assert times["write"]["write"]["mean"] == pytest.approx(0.009)

    def test_repeated_edge_tracks_min_max_and_mean(self, tmp_path):
        events = [
            make_event(name=n, ts=ts, rank=0)
            for n, ts in [("x", 0.0), ("y", 0.004), ("x", 0.01), ("y", 0.02)]
        ]
        bank = make_bank(
            tmp_path, [TraceFile(events, rank=0, framework="lanl-trace")]
        )
        cell = build_dfg(bank, Query())["graph"]["edge_times"]["x"]["y"]
        # Gaps: 0.004-0.001 = 0.003 and 0.02-0.011 = 0.009.
        assert cell["count"] == 2
        assert cell["min"] == pytest.approx(0.003)
        assert cell["max"] == pytest.approx(0.009)
        assert cell["sum"] == pytest.approx(0.012)
        assert cell["mean"] == pytest.approx(0.006)

    def test_negative_gap_from_overlapping_captures_kept_raw(self, tmp_path):
        events = [
            make_event(name="a", ts=0.0, dur=0.01, rank=0),
            make_event(name="b", ts=0.005, rank=0),
        ]
        bank = make_bank(
            tmp_path, [TraceFile(events, rank=0, framework="lanl-trace")]
        )
        cell = build_dfg(bank, Query())["graph"]["edge_times"]["a"]["b"]
        assert cell["mean"] == pytest.approx(-0.005)

    def test_counts_agree_with_edge_weights(self, tmp_path):
        bank = make_bank(
            tmp_path,
            [seq_file(["open", "write", "write", "close"], rank=r) for r in range(3)],
        )
        graph = build_dfg(bank, Query())["graph"]
        for a, row in graph["edge_times"].items():
            for b, cell in row.items():
                assert cell["count"] == graph["edges"][a][b]

    def test_render_shows_mean_gap(self, tmp_path):
        bank = make_bank(tmp_path, [seq_file(["open", "close"], rank=0)])
        text = render_dfg_text(build_dfg(bank, Query()))
        assert "(mean gap 0.009000 s)" in text


class TestDeterminismAndRender:
    def test_jobs_do_not_change_bytes(self, tmp_path):
        bank = make_bank(
            tmp_path,
            [seq_file(["open", "write", "close"], rank=r) for r in range(4)],
        )
        q = Query()
        assert canonical_json(build_dfg(bank, q, jobs=1)) == canonical_json(
            build_dfg(bank, q, jobs=4)
        )

    def test_text_render(self, tmp_path):
        bank = make_bank(tmp_path, [seq_file(["open", "write", "close"], rank=0)])
        text = render_dfg_text(build_dfg(bank, Query()))
        assert "3 op(s), 2 edge(s)" in text
        assert "open" in text and "-> " in text
        assert "starts: open x1" in text

    def test_dot_render(self, tmp_path):
        bank = make_bank(tmp_path, [seq_file(["open", "close"], rank=0)])
        dot = render_dfg_dot(build_dfg(bank, Query()))
        assert dot.startswith("digraph dfg {")
        assert '"open" -> "close" [label="1"];' in dot
