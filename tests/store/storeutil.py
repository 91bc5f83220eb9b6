"""Shared builders for the TraceBank archive tests.

Hand-built bundles (no simulator runs) keep these tests fast; every
builder is deterministic so content addresses and run ids are stable
within a test.  ``corpus/`` holds a committed legacy archive (see
:func:`corpus_bank`).
"""

import dataclasses
import json
import shutil
from pathlib import Path

from repro.store.bank import SEGMENT_CODEC, TraceBank
from repro.store.manifest import RunManifest, compute_run_id
from repro.store.query import Query
from repro.store.segments import SegmentMeta, content_address
from repro.trace.events import EventLayer, TraceEvent
from repro.trace.records import TraceBundle, TraceFile


def make_event(name="SYS_write", ts=0.0, dur=0.001, layer=EventLayer.SYSCALL,
               rank=0, path="/pfs/f", nbytes=4096, offset=0):
    return TraceEvent(
        timestamp=ts,
        duration=dur,
        layer=layer,
        name=name,
        args=(3, nbytes),
        result=nbytes,
        pid=100 + rank,
        rank=rank,
        hostname="host%02d" % rank,
        user="u",
        path=path,
        fd=3,
        nbytes=nbytes,
        offset=offset,
    )


def make_trace_file(rank=0, n=8, base_ts=0.0, name="SYS_write", **kw):
    events = [
        make_event(name=name, ts=base_ts + i * 0.01, rank=rank,
                   offset=i * 4096, **kw)
        for i in range(n)
    ]
    return TraceFile(events, hostname="host%02d" % rank, pid=100 + rank,
                     rank=rank, framework="lanl-trace")


def make_bundle(nranks=2, n=8, **kw):
    return TraceBundle(
        files={r: make_trace_file(rank=r, n=n, **kw) for r in range(nranks)},
        metadata={"framework": "lanl-trace", "workload": "unit"},
    )


def corpus_bundle():
    """The run archived in ``corpus/``.

    ``make_bundle(nranks=3, n=24)`` plus the cases old archives hold:
    varied ops, layers and missing optionals on rank 1 (including the
    numeric-looking string result ``"42"``, which RTBF re-parses as the
    int 42), offsets of 2**62 on rank 2, and an empty rank 3 segment.
    """
    bundle = make_bundle(nranks=3, n=24)
    r1 = bundle.files[1].events
    r1[3] = r1[3].with_fields(name="SYS_open", result=3, nbytes=None,
                              offset=None, args=("/pfs/f", 2))
    r1[5] = r1[5].with_fields(name="SYS_read", result="42")
    r1[7] = r1[7].with_fields(result="EAGAIN", rank=None, fd=None)
    r1[9] = r1[9].with_fields(name="vfs_write", layer=EventLayer.VFS,
                              path="/tmp/x", result=None)
    r1[11] = r1[11].with_fields(name="SYS_close", path=None, nbytes=None,
                                offset=None, args=(3,), result=0)
    r2 = bundle.files[2].events
    for i in range(len(r2)):
        r2[i] = r2[i].with_fields(offset=(1 << 62) if i % 2 else 0)
    bundle.files[3] = TraceFile([], hostname="host03", pid=103, rank=3,
                                framework="lanl-trace")
    return bundle


#: The queries the corpus archive's expected reports cover.
CORPUS_QUERIES = (
    Query.create(agg="ops"),
    Query.create(agg="bytes"),
    Query.create(agg="bandwidth", window=0.02),
    Query.create(agg="events", limit=40),
    Query.create(agg="ops", names=["SYS_write"], ranks=[0, 2]),
    Query.create(agg="events", since=0.05, until=0.2),
    Query.create(agg="events", path_glob="/pfs/*"),
    Query.create(agg="ops", layers=["syscall"]),
    Query.create(agg="ops", names=["not_present"]),
)


def bundle_json(bundle):
    """A loaded bundle as plain JSON (the corpus's expected form)."""
    files = {}
    for rank, tf in sorted(bundle.files.items()):
        files[str(rank)] = {
            "hostname": tf.hostname,
            "pid": tf.pid,
            "rank": tf.rank,
            "framework": tf.framework,
            "events": [
                dict(
                    {f.name: getattr(e, f.name) for f in dataclasses.fields(e)},
                    layer=e.layer.value,
                    args=list(e.args),
                )
                for e in tf.events
            ],
        }
    return {"metadata": bundle.metadata, "files": files}


#: The committed legacy archive: ``corpus_bundle()`` stored as RTBF
#: segments by commit 3190e05, plus the reports the current tree gives
#: for it (``corpus/generate.py``).  Ingesting ``corpus_bundle()`` today
#: writes the same files byte for byte.
CORPUS = Path(__file__).parent / "corpus"


def corpus_bank(tmp_path):
    """A writable copy of the corpus archive plus its ``expected.json``.

    ``expected["runs"]["rtbf"]`` is the run id, and
    ``expected["reports"]["rtbf"]`` holds that run's ``queries`` (one
    report per :data:`CORPUS_QUERIES` entry), ``dfg`` and ``bundle``.
    """
    root = tmp_path / "corpus"
    shutil.copytree(CORPUS / "archive", root)
    expected = json.loads((CORPUS / "expected.json").read_text("utf-8"))
    return TraceBank(root, create=False), expected


def plant_rtcf_run(bank):
    """File a one-segment run in the retired columnar format (RTCF).

    The segment starts with the RTCF magic and version; its manifest
    is filed as an RTCF writer filed one (``"format": "v2"`` codec, a
    summary of the events it held).  Returns ``(run_id, sha)``.
    """
    blob = b"RTCF\x02\x00" + bytes(26)
    sha = content_address(blob)
    path = bank.segment_path(sha)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_bytes(blob)
    seg = SegmentMeta(
        rank=0, sha256=sha, n_events=1, t_min=0.0, t_max=0.001,
        total_duration=0.001, payload_bytes=4096, encoded_bytes=len(blob),
        ops=(("SYS_write", 1),), layers=(("syscall", 1),),
    )
    codec = dict(SEGMENT_CODEC, format="v2")
    meta = {"framework": "lanl-trace", "workload": "unit"}
    run_id = compute_run_id(meta, [seg], codec)
    manifest = RunManifest(run_id=run_id, meta=meta, codec=codec,
                           segments=(seg,), n_events=1)
    bank.manifest_path(run_id).write_text(manifest.dumps())
    return run_id, sha
