"""End-to-end CLI coverage for the ``repro store`` command family."""

import json

import pytest

from storeutil import make_trace_file

from repro.cli import main
from repro.faults.corrupt import bit_flip
from repro.store.bank import TraceBank
from repro.trace.binary_format import encode_trace_file


@pytest.fixture
def store_with_run(tmp_path):
    """A store dir holding one 2-rank manual ingest, built via the CLI."""
    store = tmp_path / "bank"
    traces = []
    for rank in (0, 1):
        p = tmp_path / ("r%d.rtb" % rank)
        p.write_bytes(encode_trace_file(make_trace_file(rank=rank, n=6)))
        traces.append(str(p))
    assert main(["store", "ingest", "--store", str(store)] + traces) == 0
    return store


class TestIngestAndLs:
    def test_ingest_prints_dedup_counts(self, tmp_path, capsys):
        store = tmp_path / "bank"
        p = tmp_path / "t.rtb"
        p.write_bytes(encode_trace_file(make_trace_file(n=4)))
        assert main(["store", "ingest", "--store", str(store), str(p)]) == 0
        out = capsys.readouterr().out
        assert "1 segment(s) (1 new, 0 deduped), 4 event(s)" in out
        # Second identical ingest: nothing new lands on disk.
        assert main(["store", "ingest", "--store", str(store), str(p)]) == 0
        assert "(0 new, 1 deduped)" in capsys.readouterr().out

    def test_ls_lists_runs(self, store_with_run, capsys):
        assert main(["store", "ls", "--store", str(store_with_run)]) == 0
        out = capsys.readouterr().out
        assert "TraceBank archive: 1 run(s), 12 event(s)" in out
        assert "manual" in out

    def test_missing_store_is_an_error_not_a_traceback(self, tmp_path, capsys):
        rc = main(["store", "ls", "--store", str(tmp_path / "nope")])
        assert rc == 1
        assert "error:" in capsys.readouterr().err


class TestQueryAndDfg:
    def test_ops_text_table(self, store_with_run, capsys):
        assert main(["store", "query", "--store", str(store_with_run)]) == 0
        out = capsys.readouterr().out
        assert "Function Name" in out
        assert "SYS_write" in out
        assert "12 event(s)" in out

    def test_json_report_with_filters(self, store_with_run, capsys):
        rc = main(
            ["store", "query", "--store", str(store_with_run),
             "--agg", "bytes", "--ranks", "1", "--json"]
        )
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        assert report["schema"] == "repro/store/query/v1"
        assert report["result"]["ranks"] == {"1": {"events": 6, "bytes": 6 * 4096}}

    def test_jobs_flag_byte_identical(self, store_with_run, capsys):
        args = ["store", "query", "--store", str(store_with_run),
                "--agg", "events", "--json"]
        assert main(args) == 0
        serial = capsys.readouterr().out
        assert main(args + ["--jobs", "4"]) == 0
        assert capsys.readouterr().out == serial

    def test_bad_where_is_a_clean_error(self, store_with_run, capsys):
        rc = main(["store", "query", "--store", str(store_with_run),
                   "--where", "malformed"])
        assert rc == 1
        assert "key=value" in capsys.readouterr().err

    def test_dfg_text_and_dot(self, store_with_run, capsys):
        assert main(["store", "dfg", "--store", str(store_with_run)]) == 0
        assert "directly-follows graph" in capsys.readouterr().out
        assert main(["store", "dfg", "--store", str(store_with_run), "--dot"]) == 0
        assert capsys.readouterr().out.startswith("digraph dfg {")


class TestVerifyAndGc:
    def test_verify_ok_exit_zero(self, store_with_run, capsys):
        assert main(["store", "verify", "--store", str(store_with_run)]) == 0
        assert "OK" in capsys.readouterr().out

    def test_verify_corrupt_exit_one(self, store_with_run, capsys):
        bank = TraceBank(store_with_run, create=False)
        sha = bank.disk_segments()[0]
        path = bank.segment_path(sha)
        path.write_bytes(bit_flip(path.read_bytes(), 5))
        assert main(["store", "verify", "--store", str(store_with_run)]) == 1
        assert "CORRUPT" in capsys.readouterr().out

    def test_gc_dry_run_then_real(self, store_with_run, capsys):
        bank = TraceBank(store_with_run, create=False)
        run_id = bank.run_ids()[0]
        bank.manifest_path(run_id).unlink()
        assert main(["store", "gc", "--store", str(store_with_run),
                     "--dry-run", "--ttl-seconds", "0"]) == 0
        assert "would remove 2 unreferenced" in capsys.readouterr().out
        assert main(["store", "gc", "--store", str(store_with_run),
                     "--ttl-seconds", "0"]) == 0
        assert "removed 2 unreferenced" in capsys.readouterr().out
        assert bank.disk_segments() == []

    def test_gc_default_ttl_keeps_fresh_orphans(self, store_with_run, capsys):
        bank = TraceBank(store_with_run, create=False)
        bank.manifest_path(bank.run_ids()[0]).unlink()
        assert main(["store", "gc", "--store", str(store_with_run)]) == 0
        out = capsys.readouterr().out
        assert "removed 0 unreferenced" in out
        assert "2 fresh unreferenced segment(s) kept" in out
        assert len(bank.disk_segments()) == 2


class TestSweepIntegration:
    def test_figure_store_flag_archives_and_queries(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert main(["figure", "2", "--quick", "--store"]) == 0
        out = capsys.readouterr().out
        assert "archived 2 run(s) into the trace store" in out
        assert (tmp_path / ".repro-store" / "STORE.json").is_file()
        assert main(["store", "verify"]) == 0
        assert "OK" in capsys.readouterr().out
        assert main(["store", "query"]) == 0
        assert "Function Name" in capsys.readouterr().out

    def test_observe_and_summarize_on_store_dir(self, store_with_run, capsys):
        assert main(["observe", str(store_with_run)]) == 0
        assert "TraceBank archive" in capsys.readouterr().out
        assert main(["summarize", str(store_with_run)]) == 0
        out = capsys.readouterr().out
        assert "store-backed summary" in out and "SYS_write" in out
