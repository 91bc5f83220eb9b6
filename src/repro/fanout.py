"""Order-preserving fan-out of independent tasks over a process pool.

The archive's scans (query shards, DFG shards, verify, diagnose) fan
out through :func:`parallel_map`.  It lives apart from the sweep
executor (:mod:`repro.harness.parallel`) and imports nothing from the
simulator, so commands that only read an archive do not load it.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from typing import Any, Callable, Iterable, List

from repro.errors import ReproError

__all__ = ["parallel_map"]


def parallel_map(fn: Callable[[Any], Any], items: Iterable[Any], jobs: int = 1) -> List[Any]:
    """Order-preserving map over a process pool (the archive's scan fan-out).

    The generic sibling of :func:`~repro.harness.parallel.run_sweep`:
    results always come back in input order regardless of completion
    order, so callers that merge partials sequentially get byte-identical
    output for any ``jobs``.  ``fn`` must be a module-level function and
    ``items`` pickle-safe when ``jobs > 1``; with one job (or one item)
    everything runs in-process with no pool overhead.
    """
    if jobs < 1:
        raise ReproError("jobs must be >= 1, got %r" % (jobs,))
    work = list(items)
    if jobs > 1 and len(work) > 1:
        with ProcessPoolExecutor(max_workers=min(jobs, len(work))) as pool:
            return list(pool.map(fn, work))
    return [fn(item) for item in work]
