"""Tier-2 bench: column projection vs full decode over RTBF segments.

Every archive aggregate (query, dfg, diagnose) reads segments as the
walker's raw records (:func:`~repro.trace.binary_format.read_records`,
under :meth:`~repro.store.bank.TraceBank.read_records`) and projects
only the fields it needs from them
(:func:`~repro.trace.binary_format.project`), instead of
:func:`~repro.trace.binary_format.decode_trace_file`, which builds a
:class:`TraceEvent` per record.  Measured here, at the segment sizes the
sweeps and the zoo actually archive (about 60 and 200 events) and over
one 50,000-event synthetic segment, and recorded into
``BENCH_codec.json``:

* the cost of a full decode and of projecting the ``ops`` aggregate's
  two columns (``name``, ``duration``), and their ratio;
* the bytes per stored event of each segment, the archive-size number
  the ``bytes_per_event`` baseline metric gates.

No floor is asserted on the ratio: it moves whenever either side gets
faster, and a wall-clock ratio on a noisy host fails at random.  What
the projection stands for, that a scan never builds events, is checked
exactly in ``tests/store/test_read_paths.py`` (``TestScansBuildNoEvents``
counts zero event builds per query and DFG), and the scan's own speed
is gated by perfbench's ``query_*`` and ``dfg_*`` bounds.

Timings use min-of-N over interleaved repetitions — this box jitters by
+/-20%, and the minimum is the least-noisy estimator of the true cost.
Both reads feed the same per-name (count, total-duration) aggregate,
checked equal before timing.

Lives in ``benchmarks/`` (outside the tier-1 ``testpaths``) and is
marked ``slow`` so the fast suite never pays for it.
"""

import json
import os
import time
from pathlib import Path

import pytest

from repro.store.segments import encode_segment
from repro.trace.binary_format import decode_trace_file, project, read_records
from repro.trace.events import EventLayer, TraceEvent
from repro.trace.records import TraceFile

pytestmark = pytest.mark.slow

#: Segment sizes: what sweep points and zoo runs write, and a large one.
SIZES = (60, 200, 50_000)
#: Events read per timed repetition (small segments repeat to reach it).
EVENTS_PER_REP = 50_000
REPS = 5
BENCH_OUT = Path(os.environ.get("BENCH_CODEC_OUT", "BENCH_codec.json"))

NAMES = ("SYS_read", "SYS_write", "SYS_open", "SYS_close", "MPI_File_write_at")
PATHS = ("/pfs/out/shard-0", "/pfs/out/shard-1", "/scratch/tmp")
OPS_FIELDS = ("name", "duration")


def synthetic_trace_file(n):
    """A sweep-shaped trace file: few distinct names/paths, hot columns."""
    events = [
        TraceEvent(
            timestamp=i * 1e-4,
            duration=5e-6 * (1 + i % 7),
            layer=EventLayer.SYSCALL if i % 3 else EventLayer.LIBCALL,
            name=NAMES[i % len(NAMES)],
            args=(3, 65536),
            result=65536,
            pid=4242,
            rank=i % 8,
            hostname="node%03d" % (i % 8),
            user="mpi",
            path=PATHS[i % len(PATHS)] if i % 4 else None,
            fd=3 + i % 4,
            nbytes=65536,
            offset=65536 * i,
        )
        for i in range(n)
    ]
    return TraceFile(events, hostname="node000", pid=4242, rank=0, framework="bench")


def ops_from_events(tf):
    """The ``ops`` aggregate over decoded event objects."""
    ops = {}
    for e in tf.events:
        cell = ops.setdefault(e.name, [0, 0.0])
        cell[0] += 1
        cell[1] += e.duration
    return ops


def ops_columns(blob):
    """The ``ops`` aggregate's columns, read as the query scan reads them."""
    rows = read_records(blob)
    return {f: project(rows, f) for f in OPS_FIELDS}


def ops_from_columns(cols):
    """The same aggregate from two projected columns."""
    ops = {}
    for name, duration in zip(cols["name"], cols["duration"]):
        cell = ops.setdefault(name, [0, 0.0])
        cell[0] += 1
        cell[1] += duration
    return ops


def min_of_n_interleaved(tasks, reps=REPS):
    """Best-of-``reps`` wall time per task, interleaving to share drift."""
    best = {name: float("inf") for name, _fn in tasks}
    for _ in range(reps):
        for name, fn in tasks:
            t0 = time.perf_counter()
            fn()
            best[name] = min(best[name], time.perf_counter() - t0)
    return best


def _write_bench(record):
    """Merge this module's measurements into the BENCH_codec.json artifact."""
    bench = {"schema": "repro/bench_codec/v2", "command": "benchmarks"}
    if BENCH_OUT.exists():
        try:
            old = json.loads(BENCH_OUT.read_text())
        except ValueError:
            old = {}
        if old.get("schema") == bench["schema"]:
            bench = old
    bench.setdefault("segments", {}).update(record)
    BENCH_OUT.write_text(json.dumps(bench, indent=2, sort_keys=True) + "\n")


@pytest.mark.parametrize("n_events", SIZES)
def test_projection_and_full_decode_costs(n_events):
    blob, _sha = encode_segment(synthetic_trace_file(n_events))
    assert ops_from_columns(ops_columns(blob)) == ops_from_events(
        decode_trace_file(blob)
    )
    loops = max(1, EVENTS_PER_REP // n_events)

    def decode():
        for _ in range(loops):
            decode_trace_file(blob)

    def columns():
        for _ in range(loops):
            ops_columns(blob)

    best = min_of_n_interleaved([("decode", decode), ("columns", columns)])
    decode_s = best["decode"] / loops
    columns_s = best["columns"] / loops
    speedup = decode_s / columns_s
    print(
        "\n%d-event segment: full decode %.3fms, ops projection %.3fms -> %.1fx"
        % (n_events, decode_s * 1e3, columns_s * 1e3, speedup)
    )
    _write_bench(
        {
            str(n_events): {
                "n_events": n_events,
                "encoded_bytes": len(blob),
                "bytes_per_event": len(blob) / n_events,
                "decode_seconds": decode_s,
                "columns_seconds": columns_s,
                "speedup_columns_over_decode": speedup,
                "scan_mb_per_sec": {
                    "decode": len(blob) / decode_s / 1e6,
                    "columns": len(blob) / columns_s / 1e6,
                },
            }
        }
    )
