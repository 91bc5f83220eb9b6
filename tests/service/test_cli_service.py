"""End-to-end CLI coverage for ``repro service ingest|query``.

The HTTP client shares the store CLI's translations: ``service query``
sends the query ``store query`` would run, so its answer is
byte-identical to ``store query --json`` over the tenant's namespace,
and both ingest commands read ``--meta`` with the same ``K=V`` parser.
"""

import pytest

from serviceutil import ServerThread
from storeutil import make_trace_file

from repro.cli import main
from repro.service.api import ServiceApp
from repro.store.bank import TraceBank
from repro.trace import text_format
from repro.trace.binary_format import encode_trace_file

#: Each filter flag once, plus combinations; ``{run}`` is a run id prefix.
FILTERS = [
    [],
    ["--ranks", "1", "2"],
    ["--ops", "SYS_read"],
    ["--layers", "syscall"],
    ["--path-glob", "/pfs/r*"],
    ["--since", "0.02"],
    ["--until", "0.05"],
    ["--since", "0.01", "--until", "0.06"],
    ["--where", "kind=service", "job=alpha"],
    ["--where", "job=beta"],
    ["--runs", "{run}"],
    ["--window", "0.02"],
    ["--limit", "3"],
    ["--ops", "SYS_write", "--ranks", "0", "--limit", "2", "--window", "0.03"],
]


@pytest.fixture(scope="module")
def served(tmp_path_factory):
    """A live service whose tenant ``alice`` holds three runs uploaded by
    ``service ingest``: binary files that carry their rank, and a text
    file that does not (it is filed under its position)."""
    root = tmp_path_factory.mktemp("svc-cli")
    traces = []
    for rank, name in ((0, "SYS_write"), (1, "SYS_read")):
        path = root / ("r%d.rtb" % rank)
        tf = make_trace_file(rank=rank, n=6, name=name, path="/pfs/r%d" % rank)
        path.write_bytes(encode_trace_file(tf))
        traces.append(str(path))
    unranked = make_trace_file(rank=2, n=5, base_ts=0.015)
    unranked.rank = None
    path = root / "unranked.trace"
    path.write_text(text_format.encode_trace_file(unranked))
    traces.append(str(path))
    with ServerThread(root / "svc") as srv:
        url = "http://%s:%d" % (srv.host, srv.port)
        argv = ["service", "ingest", "--url", url, "alice"] + traces
        assert main(argv + ["--meta", "job=alpha"]) == 0
        yield url, root / "svc" / "tenants" / "alice"


@pytest.mark.parametrize("agg", ["events", "ops", "bytes", "bandwidth"])
@pytest.mark.parametrize("flags", FILTERS, ids=lambda f: " ".join(f) or "none")
def test_service_query_is_byte_identical_to_store_query(served, capsys, agg, flags):
    url, namespace = served
    capsys.readouterr()
    run = TraceBank(namespace, create=False).run_ids()[1][:12]
    flags = [f.format(run=run) for f in flags]
    assert main(["service", "query", "--url", url, "alice", "--agg", agg] + flags) == 0
    answer = capsys.readouterr().out
    argv = ["store", "query", "--store", str(namespace), "--agg", agg, "--json"]
    assert main(argv + flags) == 0
    assert capsys.readouterr().out == answer


def test_ingest_files_each_trace_under_its_rank(served):
    _url, namespace = served
    manifests = TraceBank(namespace, create=False).manifests()
    assert sorted(seg.rank for m in manifests for seg in m.segments) == [0, 1, 2]
    assert {m.meta["job"] for m in manifests} == {"alpha"}
    assert {m.meta["framework"] for m in manifests} == {"lanl-trace"}


@pytest.mark.parametrize("item", ["kind", "=manual"])
@pytest.mark.parametrize(
    "argv",
    [
        ["store", "ingest", "--store", "{store}", "{trace}"],
        ["service", "ingest", "--url", "http://127.0.0.1:9", "alice", "{trace}"],
    ],
    ids=["store-ingest", "service-ingest"],
)
def test_malformed_meta_is_one_error_line(argv, item, capsys, tmp_path, monkeypatch):
    trace = tmp_path / "t.rtb"
    trace.write_bytes(encode_trace_file(make_trace_file()))
    sent = []
    monkeypatch.setattr("repro.cli._http_request", lambda *a, **kw: sent.append(a))
    argv = [a.format(store=tmp_path / "store", trace=trace) for a in argv]
    assert main(argv + ["--meta", "job=alpha", item]) == 1
    err = capsys.readouterr().err
    assert err == "error: --meta expects key=value, got %r\n" % item
    assert sent == []  # nothing is sent ...
    assert not (tmp_path / "store").exists()  # ... and nothing archived


def test_service_query_takes_no_jobs(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["service", "query", "alice", "--jobs", "2"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --jobs 2" in capsys.readouterr().err


@pytest.mark.parametrize("flag", ["--ops", "--layers", "--runs"])
def test_a_comma_in_a_filter_value_is_one_error_line(flag, capsys, monkeypatch):
    # The service splits these values on commas, so sending "a,b" would
    # answer a different query than ``store query`` runs for it.
    sent = []
    monkeypatch.setattr("repro.cli._http_request", lambda *a, **kw: sent.append(a))
    argv = ["service", "query", "--url", "http://127.0.0.1:9", "alice"]
    assert main(argv + [flag, "SYS_write,SYS_read"]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: ")
    assert "'SYS_write,SYS_read'" in err
    assert sent == []


@pytest.mark.parametrize("flag", ["--trace-ring", "--slowest-per-route"])
def test_serve_takes_no_trace_ring_flags(flag, capsys, tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["service", "serve", "--store", str(tmp_path), flag, "4"])
    assert exc.value.code == 2
    assert "unrecognized arguments: %s 4" % flag in capsys.readouterr().err
    traces = ServiceApp(tmp_path / "svc").traces  # the ring keeps its sizes
    assert (traces.ring_size, traces.slowest_per_route) == (512, 8)
