"""Crash-shaped trace corruption: what a node crash does to capture files.

When the fault plane kills a node mid-job, the trace bytes that node was
writing end wherever the last flush landed: torn mid-record, and — on
real disks losing power — occasionally bit-flipped in the unsynced tail.
This module manufactures exactly those artifacts for the fuzz suite:

* :func:`torn_write` / :func:`bit_flip` — the two primitive corruptions;
* :func:`crash_truncation_corpus` — a deterministic, seeded corpus of
  torn/flipped variants of one encoded trace;
* :func:`crashed_rank_blob` — the end-to-end path: run a small traced job
  under a :class:`~repro.faults.schedule.NodeCrash`, take the crashed
  rank's partial capture out of the framework's bundle, and encode it —
  a *real* crash-truncated binary trace produced via the fault plane,
  not a synthetic approximation.
"""

from __future__ import annotations

from typing import Any, List, Optional

import numpy as np

from repro.errors import FaultError

__all__ = [
    "torn_write",
    "bit_flip",
    "crash_truncation_corpus",
    "crashed_rank_blob",
]


def torn_write(blob: bytes, keep: int) -> bytes:
    """The first ``keep`` bytes of ``blob`` — a write cut by a crash."""
    if not (0 <= keep <= len(blob)):
        raise FaultError("torn_write keep=%r outside [0, %d]" % (keep, len(blob)))
    return blob[:keep]


def bit_flip(blob: bytes, byte_index: int, mask: int = 0x01) -> bytes:
    """``blob`` with ``mask`` XORed into one byte — unsynced-tail damage."""
    if not (0 <= byte_index < len(blob)):
        raise FaultError("bit_flip index %r outside blob of %d bytes"
                         % (byte_index, len(blob)))
    if not (1 <= mask <= 0xFF):
        raise FaultError("mask must be a non-zero byte value")
    out = bytearray(blob)
    out[byte_index] ^= mask
    return bytes(out)


def crash_truncation_corpus(blob: bytes, seed: int = 0, n: int = 32) -> List[bytes]:
    """A deterministic corpus of crash-shaped corruptions of ``blob``.

    Half the variants are torn writes (cut points drawn over the full
    length, so most land mid-record), half are torn writes with one bit
    flipped in the surviving prefix.  Same ``blob``/``seed``/``n`` →
    byte-identical corpus, so hypothesis-free tests stay reproducible.
    """
    if not blob:
        raise FaultError("cannot build a corpus from an empty blob")
    rng = np.random.default_rng(seed)
    corpus: List[bytes] = []
    for i in range(n):
        cut = int(rng.integers(1, len(blob)))
        torn = torn_write(blob, cut)
        if i % 2 == 1 and len(torn) > 1:
            idx = int(rng.integers(0, len(torn)))
            mask = int(rng.integers(1, 256))
            torn = bit_flip(torn, idx, mask)
        corpus.append(torn)
    return corpus


def crashed_rank_blob(
    crash_node: int = 1,
    crash_at: float = 0.01,
    nprocs: int = 4,
    seed: int = 0,
    framework: str = "lanl-trace",
    workload_args: Optional[dict] = None,
) -> bytes:
    """A real crash-truncated binary trace, produced via the fault plane.

    Runs a small traced ``mpi_io_test`` job with a node crash, lets the
    framework's ``on_node_crash`` hook drop the crashed rank's unflushed
    tail, and returns that rank's surviving events encoded in the binary
    trace format — the artifact a post-mortem analysis tool would be
    handed.  Deterministic for fixed arguments.
    """
    from repro.faults.schedule import FaultSchedule, NodeCrash
    from repro.harness.experiment import run_once
    from repro.harness.figures import paper_testbed
    from repro.harness.parallel import WORKLOADS, as_framework_spec
    from repro.trace.binary_format import encode_trace_file
    from repro.units import KiB

    schedule = FaultSchedule.of(
        NodeCrash(at=crash_at, node=crash_node), name="crash-capture"
    )
    args = dict(
        workload_args
        or {"block_size": 64 * KiB, "nobj": 8, "path": "/pfs/crash.out"}
    )
    outcome = run_once(
        WORKLOADS["mpi_io_test"],
        args,
        as_framework_spec(framework).build,
        config=paper_testbed(seed=seed, nprocs=nprocs),
        nprocs=nprocs,
        seed=seed,
        faults=schedule,
        horizon=120.0,
    )
    bundle = outcome.bundle
    if bundle is None:
        raise FaultError("crashed run produced no trace bundle")
    crashed_rank = crash_node % nprocs
    tf = bundle.files.get(crashed_rank)
    if tf is None or not tf.events:
        raise FaultError(
            "rank %d has no surviving capture — crash fired before any "
            "events were recorded?" % crashed_rank
        )
    return encode_trace_file(tf)
