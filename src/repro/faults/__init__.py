"""Cluster-wide fault injection: schedules, the fault plane, chaos runs.

``repro.faults`` is the simulator-wide *fault plane*: one declarative,
seeded :class:`FaultSchedule` drives node crashes, network partitions,
link degradation and disk fault storms through hooks in the DES kernel,
the cluster network, the simulated OS and the VFS — deterministically,
off named RNG streams, so fault runs stay byte-identical across
``jobs=1``/``jobs=N``/warm-cache.  :class:`ScheduledFaultFS` is the one
disk-fault layer.  A faulted run is an ordinary
:func:`~repro.harness.experiment.run_once` given a schedule; the chaos
matrices run through the sweep executor and
:func:`~repro.faults.chaos.chaos_annotation` annotates their points.
"""

from repro.faults.chaos import (
    CHAOS_FRAMEWORKS,
    CHAOS_MATRICES,
    ChaosScenario,
    build_chaos_specs,
    chaos_annotation,
    render_chaos_report,
    run_chaos_matrix,
)
from repro.faults.corrupt import (
    bit_flip,
    crash_truncation_corpus,
    crashed_rank_blob,
    torn_write,
)
from repro.faults.plane import FaultPlane, ScheduledFaultFS, install_fault_plane
from repro.faults.schedule import (
    FOREVER,
    DiskErrorStorm,
    DiskSlowdown,
    FaultSchedule,
    LinkDegradation,
    NetworkPartition,
    NodeCrash,
)

__all__ = [
    "FOREVER",
    "NodeCrash",
    "NetworkPartition",
    "LinkDegradation",
    "DiskSlowdown",
    "DiskErrorStorm",
    "FaultSchedule",
    "FaultPlane",
    "ScheduledFaultFS",
    "install_fault_plane",
    "ChaosScenario",
    "CHAOS_FRAMEWORKS",
    "CHAOS_MATRICES",
    "chaos_annotation",
    "build_chaos_specs",
    "run_chaos_matrix",
    "render_chaos_report",
    "torn_write",
    "bit_flip",
    "crash_truncation_corpus",
    "crashed_rank_blob",
]
