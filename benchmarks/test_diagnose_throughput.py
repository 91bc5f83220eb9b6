"""Tier-2 bench: archive-scale diagnosis has to keep up with the archive.

``repro obs diagnose`` claims it scales to thousands of archived runs by
fingerprinting from column-projected scans instead of re-executing
anything.  This bench builds a synthetic 40-run archive (a realistic
sweep shape: 4 ranks, a few dozen ops per rank, a handful of runs with an
inflated write path), measures end-to-end ``diagnose_archive`` wall time
— fingerprints, grouping, MAD scoring, clustering, and the auto-slices
for every flagged outlier — and holds the runs-per-second rate to a
floor.

Timings use min-of-N: this box jitters, the minimum is the least-noisy
estimator.  Lives in ``benchmarks/`` (outside tier-1 ``testpaths``) and
is marked ``slow`` so the fast suite never pays for it.
"""

import time

import pytest

from repro.obs.diagnose import diagnose_archive
from repro.store.bank import TraceBank
from repro.trace.events import EventLayer, TraceEvent
from repro.trace.records import TraceBundle, TraceFile

pytestmark = pytest.mark.slow

N_RUNS = 40
N_RANKS = 4
WRITES_PER_RANK = 24
SLOW_RUNS = (7, 23, 31)  # seeds whose write path is inflated
REPS = 3
FLOOR_RUNS_PER_SEC = 2.0


def _event(name, layer, ts, dur, rank, offset=0):
    return TraceEvent(
        timestamp=ts,
        duration=dur,
        layer=layer,
        name=name,
        args=(3, 65536),
        result=65536,
        pid=100 + rank,
        rank=rank,
        hostname="node%03d" % rank,
        user="mpi",
        path="/pfs/out",
        fd=3,
        nbytes=65536,
        offset=offset,
    )


def _run_file(rank, seed, slow=False):
    """One rank's capture: an open, a write loop, a close — sweep-shaped.

    ``seed`` jitters the timestamps so every run has distinct content
    (the archive is content-addressed; identical runs dedup to one).
    """
    base = 1e-5 * seed
    write_dur = 0.004 if slow else 0.002
    events = [
        _event("SYS_open", EventLayer.SYSCALL, base, 0.001, rank),
    ]
    t = base + 0.001
    for i in range(WRITES_PER_RANK):
        events.append(
            _event("MPI_File_write_at", EventLayer.LIBCALL, t,
                   write_dur + 0.001, rank, offset=65536 * i)
        )
        events.append(
            _event("SYS_write", EventLayer.SYSCALL, t + 0.0005, write_dur,
                   rank, offset=65536 * i)
        )
        t += write_dur + 0.002
    events.append(_event("SYS_close", EventLayer.SYSCALL, t, 0.001, rank))
    return TraceFile(events, hostname="node%03d" % rank, pid=100 + rank,
                     rank=rank, framework="bench")


def build_archive(root):
    bank = TraceBank(root)
    for seed in range(N_RUNS):
        slow = seed in SLOW_RUNS
        bundle = TraceBundle(
            files={r: _run_file(r, seed, slow=slow) for r in range(N_RANKS)},
            metadata={"workload": "bench"},
        )
        bank.ingest_bundle(
            bundle,
            meta={
                "kind": "bench",
                "framework": "bench",
                "workload": "diagnose-bench",
                "nprocs": N_RANKS,
                "seed": seed,
                "scenario": "disk-slow" if slow else "baseline",
            },
        )
    return bank


def test_diagnose_throughput_meets_the_floor(tmp_path):
    bank = build_archive(tmp_path / "store")
    assert len(bank.manifests()) == N_RUNS

    best = float("inf")
    report = None
    for _ in range(REPS):
        t0 = time.perf_counter()
        report = diagnose_archive(str(tmp_path / "store"), jobs=1)
        best = min(best, time.perf_counter() - t0)

    # The measured pass has to do the real work: the inflated runs are
    # flagged and sliced.
    flagged = {o["meta"]["seed"] for o in report["outliers"]}
    assert flagged == set(SLOW_RUNS)
    assert all(o["suspect_layer"] == "simfs" for o in report["outliers"])
    assert all(o["slice"] is not None for o in report["outliers"])

    runs_per_sec = N_RUNS / best
    n_events = sum(m.n_events for m in bank.manifests())
    print(
        "\ndiagnose over %d run(s) (%d events): %.2fs -> %.1f runs/s"
        % (N_RUNS, n_events, best, runs_per_sec)
    )
    assert runs_per_sec >= FLOOR_RUNS_PER_SEC, (
        "diagnose at %.2f runs/s is under the %.1f floor"
        % (runs_per_sec, FLOOR_RUNS_PER_SEC)
    )
