"""Archived runs as spans, and what the observatory reports for them.

The spans and track labels :func:`~repro.store.query.column_spans`
builds from a run's projected columns equal what
:func:`~repro.obs.critpath.payload_spans` and
:func:`~repro.obs.critpath.track_names` read from the run's telemetry
payload, bit for bit.

The store slice (every anchor kind, and the Perfetto and flamegraph
renderings of a path slice), the telemetry view of every run, and
``obs diagnose --json`` are checked against the SHA-256 digests of the
bytes commit 3241f20, which built every slice from a telemetry payload,
printed for the same three archives: the five-run ``archive`` fixture,
the committed store corpus, and a run whose records name no host on
some ranks.  A change to how an archived run becomes spans must leave
every digest as it is.
"""

import hashlib

import pytest

from storeutil import corpus_bank, make_bundle

from repro.cli import main
from repro.obs.critpath import payload_spans, track_names
from repro.obs.metrics import canonical_json
from repro.store.bank import TraceBank
from repro.store.query import (
    SPAN_FIELDS,
    column_spans,
    events_telemetry,
    run_columns,
    telemetry_view,
)

#: Anchor flags per kind, for each archive.
ANCHORS = {
    "fixture": {
        "straggler": [],
        "rank": ["--rank", "1"],
        "op": ["--op", "SYS_write"],
        "path": ["--path", "/pfs/*"],
    },
    "corpus": {
        "straggler": [],
        "rank": ["--rank", "1"],
        "op": ["--op", "SYS_open"],
        "path": ["--path", "/pfs/*"],
    },
    "unnamed-hosts": {
        "straggler": [],
        "rank": ["--rank", "2"],
        "op": ["--op", "SYS_write"],
        "path": ["--path", "/pfs/*"],
    },
}

#: sha256 of ``obs slice --json`` stdout followed by the text stdout.
SLICE_DIGESTS = {
    ("fixture", "straggler"):
        "8793073661cddd0132f86f8d8842b5bc557527909a9f9db92b7af976290c83a8",
    ("fixture", "rank"):
        "c2800e393140ebc0bb576087561491367276ae1ebef56079f99761a925523500",
    ("fixture", "op"):
        "8a7ddc3b7f7982dcfac401e477a28e0a2cf9bfa265f68292965e2072e74f5dec",
    ("fixture", "path"):
        "5ee4042c3b99a75f45734dc28011a0f506073586a1ab4824b552a449697c73fc",
    ("corpus", "straggler"):
        "b28947cc8d4b1943d255644f9dd300d4872a6c5c4adbbed415491fcf8b0a7ef1",
    ("corpus", "rank"):
        "b37494e66ecf5d92674aa607662db69729bb57f6c8abe756774373cdd858da2f",
    ("corpus", "op"):
        "c233d8645226a919c49b6eb16a7612a691c3e323d410b05dee5e9a2a1c99f86b",
    ("corpus", "path"):
        "bb09ae7c2579f0b2477b833c40b5bfc4390e2411587d0e4a7dd4909ebc2fabc7",
    ("unnamed-hosts", "straggler"):
        "26fc31eeef9e1c46a1d8196a7dbebf9822f42490a153c2b8e6316131de58f44d",
    ("unnamed-hosts", "rank"):
        "9a162ac40e9239f78e1cfd90911f9dc4bc8da0852566a5e863f6848d498cd933",
    ("unnamed-hosts", "op"):
        "d3ab2440c0441cae18d879c76671731e54c32379475a2dc2616cd0d224236b31",
    ("unnamed-hosts", "path"):
        "0150f2754f4f9cb39606a785f3ec4055dc0f2bbfb5d670e0f26ae58f9606f8e1",
}

#: sha256 of the ``--perfetto`` file, then of the ``--flame`` file, of
#: the path slice.
RENDER_DIGESTS = {
    "fixture": (
        "67bd969913d2c34fac1e9d653613ef1168b6997f2a412535d5878c323c1cc096",
        "98976b73e0658efc3d7fc5bfc4892a64bd573301b40c669f5fb4e4385528c98b",
    ),
    "corpus": (
        "04ed82335a022e3bb7c8f839b3dfe952079b69253b4af3d06f4b60dd150c9e62",
        "a900a3983fbde8316a07937acb6c4293b7d3bc7bdf4b232aaa1420f70e5a3a5b",
    ),
    "unnamed-hosts": (
        "c42c87ca615993a2d963da32fb1a2257787aacb4e902f6671b13ceac41972569",
        "5fea459654edca0054f6eb8181f60d5c4dcdce7fddfa584e33c484d3ddad983a",
    ),
}

#: sha256 of ``canonical_json(telemetry_view(bank, run))``, in run-id order.
VIEW_DIGESTS = {
    "fixture": [
        "ef082419bb6bdfbc1b3cccb31079aab66fe61f29b4f93f424f5e5fe363226ce3",
        "61b318af76e9c7a478aff785198a44f58523daadecfae0776111025e75d1a0d7",
        "7d7a53c39e3f5bacfc033f531a6641ac22576cda723062be267982bf813f61f1",
        "a40a14218e473e180542faa044a7cc476d64d79276da1a4d1b01961e87037b8f",
        "d5efef2aabb2756f02f06aebd6ed844e43d17e6ab7b867e23c6004107f6aa7f5",
    ],
    "corpus": [
        "a288f16208558293121d5f32dcb8f1dab875b0c3e18d85c5d208a0e143619c4d",
    ],
    "unnamed-hosts": [
        "b73b0989de01f06e1fe507a351b4f5be48907a2553cf8b97a5672536daf58516",
    ],
}

#: sha256 of ``obs diagnose --json`` stdout.
DIAGNOSE_DIGESTS = {
    "fixture": "1e7f56ec5ac46febf1a3989975043606c2c9b63c9d8eeba9f50dc7f23178a506",
    "corpus": "89db398ebf3e7297cc2a219fecb7df6ff60c9a64a6414f82f6ad2ad19819f551",
    "unnamed-hosts":
        "7d5b0e2d196481029955a50a52fb829747313db2e2fcd9ed3badb5d93fc3e053",
}


def _sha(data):
    if isinstance(data, str):
        data = data.encode("utf-8")
    return hashlib.sha256(data).hexdigest()


@pytest.fixture(params=["fixture", "corpus", "unnamed-hosts"])
def source(request, archive, tmp_path):
    """``(name, bank, run)``: the run each archive's slices are pinned on
    (the fixture's outlier, the corpus's one run, the one run of
    :func:`_unnamed_hosts_bank`)."""
    if request.param == "fixture":
        bank, ids = archive
        return "fixture", bank, ids[4]
    if request.param == "corpus":
        bank, expected = corpus_bank(tmp_path)
        return "corpus", bank, expected["runs"]["rtbf"]
    bank = _unnamed_hosts_bank(tmp_path / "unnamed")
    return "unnamed-hosts", bank, bank.run_ids()[0]


def _run(capsys, argv):
    assert main([str(a) for a in argv]) == 0
    return capsys.readouterr().out


class TestStoreOutputsPinned:
    @pytest.mark.parametrize("anchor", ["straggler", "rank", "op", "path"])
    def test_slice_reports(self, source, capsys, anchor):
        name, bank, run = source
        argv = ["obs", "slice", "--store", bank.root, run] + ANCHORS[name][anchor]
        out = _run(capsys, argv + ["--json"]) + _run(capsys, argv)
        assert _sha(out) == SLICE_DIGESTS[name, anchor]

    def test_path_slice_renderings(self, source, capsys, tmp_path):
        name, bank, run = source
        perfetto, flame = tmp_path / "slice.json", tmp_path / "slice.flame"
        _run(capsys, ["obs", "slice", "--store", bank.root, run]
             + ANCHORS[name]["path"] + ["--perfetto", perfetto, "--flame", flame])
        got = (_sha(perfetto.read_bytes()), _sha(flame.read_bytes()))
        assert got == RENDER_DIGESTS[name]

    def test_telemetry_views(self, source):
        name, bank, _run_id = source
        got = [_sha(canonical_json(telemetry_view(bank, run_id)))
               for run_id in bank.run_ids()]
        assert got == VIEW_DIGESTS[name]

    def test_diagnose_json(self, source, capsys):
        name, bank, _run_id = source
        out = _run(capsys, ["obs", "diagnose", "--store", bank.root, "--json"])
        assert _sha(out) == DIAGNOSE_DIGESTS[name]


def _unnamed_hosts_bank(root):
    """One run whose records name no host on rank 1 and two hosts, one
    of them unnamed, on rank 2: nodes come from the ``rank%d`` fallback
    too, numbered in sorted host order.  Rank 2's first timestamp changes in
    the last bit when scaled to microseconds and back
    (``0.10200000000000001 * 1e6 / 1e6 == 0.10200000000000002``)."""
    bundle = make_bundle(nranks=3, n=6)
    bundle.files[1].events[:] = [
        e.with_fields(hostname="") for e in bundle.files[1].events
    ]
    r2 = bundle.files[2].events
    for i in range(len(r2)):
        r2[i] = r2[i].with_fields(hostname="zeta" if i % 2 else "",
                                  timestamp=0.10200000000000001 + i)
    bank = TraceBank(root)
    bank.ingest_bundle(bundle)
    return bank


class TestSpansFromColumns:
    def test_spans_and_labels_equal_the_payloads(self, source):
        _name, bank, _run = source
        for manifest in bank.manifests():
            segments = run_columns(bank, manifest, SPAN_FIELDS + ("nbytes",))
            payload = events_telemetry(manifest.run_id, segments)
            spans, labels = column_spans(segments)
            assert spans, manifest.run_id
            # repr compares each float's bits (0.0 against -0.0 too).
            assert repr(spans) == repr(payload_spans(payload))
            assert labels == track_names(payload)

    def test_unnamed_hosts_fall_back_to_the_rank(self, tmp_path):
        bank = _unnamed_hosts_bank(tmp_path / "unnamed")
        (manifest,) = bank.manifests()
        _spans, labels = column_spans(run_columns(bank, manifest))
        assert labels == {
            (0, 0): "node0 host00 rank 0",
            (1, 1): "node1 rank1 rank 1",
            (2, 2): "node2 rank2 rank 2",
            (3, 2): "node3 zeta rank 2",
        }
