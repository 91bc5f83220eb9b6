"""The paper's case study: canonical Table 2 classifications (§4).

These are the published classifications of the three frameworks, encoded
as validated data.  ``paper_table2()`` reproduces the table as printed;
the per-framework builders accept an ``overhead`` override so benchmarks
can substitute *measured* overhead rows (the reproduction's
paper-vs-measured comparison lives in EXPERIMENTS.md).  MsgTrace, the
fourth framework (:mod:`repro.frameworks.netmsg`), has its card here too,
and :data:`FRAMEWORK_CARDS` maps every framework name ``repro classify``
accepts to its card: classification is done by inspection (§3.1), so
printing a card loads no framework and no simulator.

Known paper inconsistency, preserved deliberately: §4.1.1's prose credits
LANL-Trace with simple timing-aggregation analysis output, but Table 2
prints "No" under Analysis tools for all three frameworks.  We encode the
table's value and note the prose here.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

from repro.core.classification import FrameworkClassification
from repro.core.features import Feature
from repro.core.values import (
    NA,
    AnonymizationLevel,
    EventKind,
    EventTypes,
    FidelityReport,
    GranularityControl,
    Likert,
    OverheadReport,
    TraceFormat,
    YesNo,
)

__all__ = [
    "FRAMEWORK_CARDS",
    "lanl_trace_classification",
    "tracefs_classification",
    "ptrace_classification",
    "msgtrace_classification",
    "paper_table2",
]


def lanl_trace_classification(
    overhead: Optional[OverheadReport] = None,
) -> FrameworkClassification:
    """Table 2, column 1 (§4.1.1)."""
    return FrameworkClassification(
        "LANL-Trace",
        {
            Feature.PARALLEL_FS_COMPATIBILITY: YesNo.YES,
            Feature.EASE_OF_INSTALLATION: Likert(2, "Easy"),
            Feature.ANONYMIZATION: AnonymizationLevel(0),
            Feature.EVENT_TYPES: EventTypes(
                {EventKind.SYSTEM_CALLS, EventKind.LIBRARY_CALLS}
            ),
            Feature.GRANULARITY_CONTROL: GranularityControl(
                1, "choice of strace (syscalls only) vs ltrace (+library calls)"
            ),
            Feature.REPLAYABLE_GENERATION: YesNo.NO,
            Feature.REPLAY_FIDELITY: NA,
            Feature.REVEALS_DEPENDENCIES: YesNo.NO,
            Feature.INTRUSIVENESS: Likert(1, "Passive"),
            Feature.ANALYSIS_TOOLS: YesNo.NO,
            Feature.TRACE_FORMAT: TraceFormat.HUMAN_READABLE,
            Feature.SKEW_DRIFT_ACCOUNTING: YesNo.YES,
            Feature.ELAPSED_TIME_OVERHEAD: overhead
            or OverheadReport(
                min_percent=24.0,
                max_percent=222.0,
                note="high variance due to different I/O access patterns",
            ),
        },
    )


def tracefs_classification(
    overhead: Optional[OverheadReport] = None,
) -> FrameworkClassification:
    """Table 2, column 2 (§4.2)."""
    return FrameworkClassification(
        "Tracefs",
        {
            Feature.PARALLEL_FS_COMPATIBILITY: YesNo.NO,
            Feature.EASE_OF_INSTALLATION: Likert(4, "Difficult"),
            Feature.ANONYMIZATION: AnonymizationLevel(
                4, "CBC encryption with field-level selection; not true randomization"
            ),
            Feature.EVENT_TYPES: EventTypes({EventKind.FS_OPERATIONS}),
            Feature.GRANULARITY_CONTROL: GranularityControl(
                5, "declarative spec of file system operations to trace"
            ),
            Feature.REPLAYABLE_GENERATION: YesNo.NO,
            Feature.REPLAY_FIDELITY: NA,
            Feature.REVEALS_DEPENDENCIES: YesNo.NO,
            Feature.INTRUSIVENESS: Likert(1, "Passive"),
            Feature.ANALYSIS_TOOLS: YesNo.NO,
            Feature.TRACE_FORMAT: TraceFormat.BINARY,
            Feature.SKEW_DRIFT_ACCOUNTING: NA,
            Feature.ELAPSED_TIME_OVERHEAD: overhead
            or OverheadReport(
                max_percent=12.4,
                note="authors' maximum for an I/O intensive benchmark",
            ),
        },
    )


def ptrace_classification(
    overhead: Optional[OverheadReport] = None,
) -> FrameworkClassification:
    """Table 2, column 3 (§4.3).  //TRACE."""
    return FrameworkClassification(
        "//TRACE",
        {
            Feature.PARALLEL_FS_COMPATIBILITY: YesNo.YES,
            Feature.EASE_OF_INSTALLATION: Likert(2, "Easy"),
            Feature.ANONYMIZATION: AnonymizationLevel(0),
            Feature.EVENT_TYPES: EventTypes({EventKind.IO_SYSTEM_CALLS}),
            Feature.GRANULARITY_CONTROL: GranularityControl(0),
            Feature.REPLAYABLE_GENERATION: YesNo.YES,
            Feature.REPLAY_FIDELITY: FidelityReport(
                6.0, "maximum across test applications; adjustable by sampling"
            ),
            Feature.REVEALS_DEPENDENCIES: YesNo.YES,
            Feature.INTRUSIVENESS: Likert(1, "Passive"),
            Feature.ANALYSIS_TOOLS: YesNo.NO,
            Feature.TRACE_FORMAT: TraceFormat.HUMAN_READABLE,
            Feature.SKEW_DRIFT_ACCOUNTING: YesNo.NO,
            Feature.ELAPSED_TIME_OVERHEAD: overhead
            or OverheadReport(
                min_percent=0.0,
                max_percent=205.0,
                note="adjustable by design via throttling sample rate",
            ),
        },
    )


def msgtrace_classification() -> FrameworkClassification:
    """MsgTrace classified by the *unchanged* I/O-tracing taxonomy — the
    future-work claim (§6) made concrete."""
    return FrameworkClassification(
        "MsgTrace",
        {
            Feature.PARALLEL_FS_COMPATIBILITY: YesNo.YES,  # FS-agnostic
            Feature.EASE_OF_INSTALLATION: Likert(1, "V. Easy"),
            Feature.ANONYMIZATION: AnonymizationLevel(0),
            Feature.EVENT_TYPES: EventTypes({EventKind.NETWORK_MESSAGES}),
            Feature.GRANULARITY_CONTROL: GranularityControl(
                2, "all communication calls, or point-to-point only"
            ),
            Feature.REPLAYABLE_GENERATION: YesNo.NO,
            Feature.REPLAY_FIDELITY: NA,
            Feature.REVEALS_DEPENDENCIES: YesNo.YES,  # the comm matrix
            Feature.INTRUSIVENESS: Likert(1, "Passive"),
            Feature.ANALYSIS_TOOLS: YesNo.YES,  # communication_matrix
            Feature.TRACE_FORMAT: TraceFormat.HUMAN_READABLE,
            Feature.SKEW_DRIFT_ACCOUNTING: YesNo.NO,
            Feature.ELAPSED_TIME_OVERHEAD: OverheadReport(
                max_percent=1.0, note="library interposition of MPI calls"
            ),
        },
    )


#: Framework name (each framework class's ``name``, plus the paper's
#: "//TRACE" spelling) -> the card its ``classification()`` returns at
#: default configuration.  The //TRACE collector shares //TRACE's card.
FRAMEWORK_CARDS: Dict[str, Callable[[], FrameworkClassification]] = {
    "lanl-trace": lanl_trace_classification,
    "tracefs": tracefs_classification,
    "ptrace": ptrace_classification,
    "//trace": ptrace_classification,
    "ptrace-collector": ptrace_classification,
    "msgtrace": msgtrace_classification,
}


def paper_table2() -> Dict[str, FrameworkClassification]:
    """All three published classifications, keyed by framework name."""
    return {
        c.framework_name: c
        for c in (
            lanl_trace_classification(),
            tracefs_classification(),
            ptrace_classification(),
        )
    }
