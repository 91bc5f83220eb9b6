"""The taxonomy's quantitative element: overhead measurement (§3.1).

The feature classification is "done by inspection"; overhead is "based
upon empirical measurements of the performance and end-to-end timing
overheads using a synthetic application benchmark".  This module is the
bridge between the two: it runs the measurement protocol from
:mod:`repro.harness.experiment` and condenses the results into the
:class:`~repro.core.values.OverheadReport` cell a classification carries.
"""

from __future__ import annotations

from typing import Callable, Iterable, List, Optional

from repro.core.values import OverheadReport
from repro.harness.experiment import measure_overhead
from repro.harness.parallel import sweep_args_for_block_size
from repro.machine import TestbedConfig
from repro.units import MiB
from repro.workloads.mpi_io_test import mpi_io_test
from repro.workloads.patterns import AccessPattern

__all__ = ["measure_overhead_report"]


def measure_overhead_report(
    framework_factory: Callable,
    block_sizes: Iterable[int],
    patterns: Iterable[AccessPattern] = tuple(AccessPattern),
    total_bytes_per_rank: int = 16 * MiB,
    config: Optional[TestbedConfig] = None,
    nprocs: int = 8,
    seed: int = 0,
    note: str = "",
) -> OverheadReport:
    """Measure a framework's elapsed-time-overhead cell empirically.

    Sweeps the synthetic benchmark over patterns × block sizes and
    condenses to the min/max range the paper reports (e.g. LANL-Trace's
    "24% - 222%").
    """
    overheads: List[float] = []
    for pattern in patterns:
        for bs in block_sizes:
            args = sweep_args_for_block_size(
                {"pattern": pattern, "path": "/pfs/mpi_io_test.out"},
                bs,
                total_bytes_per_rank,
            )
            m = measure_overhead(
                framework_factory, mpi_io_test, args, config, nprocs, seed
            )
            overheads.append(m.elapsed_overhead)
    return OverheadReport(
        min_percent=round(100.0 * min(overheads), 1),
        max_percent=round(100.0 * max(overheads), 1),
        note=note or "measured on the synthetic benchmark",
    )
