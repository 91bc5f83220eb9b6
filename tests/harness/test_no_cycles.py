"""The simulated stack leaves no cyclic garbage behind.

The DES hot path builds a bound method for every wait instead of caching
one on each process (``self._resume = self._resume_send`` would make
every :class:`~repro.des.process.Process` a reference cycle), and the
rest of the stack frees what it allocates by reference counting alone.
So the cyclic collector never has anything to reclaim from a run; when
it does, its passes over a large traced run cost more than the hot path
saves.  ``gc.DEBUG_SAVEALL`` keeps every object a collection finds
unreachable in ``gc.garbage``, so an empty list after a run means the
run made no cycles.
"""

import gc

import pytest

from repro.frameworks.lanltrace import LANLTrace
from repro.harness.experiment import run_once, sweep_args_for_block_size
from repro.harness.figures import FIGURE_PATTERNS, paper_testbed
from repro.harness.parallel import WORKLOADS

KiB = 1024
MiB = 1024 * KiB


def _point(fig, block_size, traced):
    args = sweep_args_for_block_size(
        {"pattern": FIGURE_PATTERNS[fig], "path": "/pfs/mpi_io_test.out"},
        block_size,
        2 * MiB,
    )
    outcome = run_once(
        WORKLOADS["mpi_io_test"],
        args,
        framework_factory=LANLTrace if traced else None,
        config=paper_testbed(seed=0, nprocs=16),
    )
    assert outcome.cause is None
    assert (outcome.bundle is not None) == traced
    return outcome.events_executed


def _cyclic_garbage(fn):
    """Objects a full collection finds unreachable after ``fn()``."""
    gc.collect()
    saved = gc.get_debug()
    gc.set_debug(saved | gc.DEBUG_SAVEALL)
    try:
        fn()
        gc.collect()
        return [type(o).__qualname__ for o in gc.garbage]
    finally:
        gc.set_debug(saved)
        gc.garbage.clear()


@pytest.mark.parametrize("traced", [False, True], ids=["untraced", "lanl-trace"])
@pytest.mark.parametrize(
    "fig,block_size", [(2, 64 * KiB), (4, 1 * MiB)], ids=["fig2-64KiB", "fig4-1MiB"]
)
def test_a_sweep_point_makes_no_reference_cycles(fig, block_size, traced):
    _point(fig, block_size, traced)  # imports and first-call caches
    events = []
    garbage = _cyclic_garbage(lambda: events.append(_point(fig, block_size, traced)))
    assert events[0] > 0
    assert garbage == [], "cyclic garbage after the run: %s" % sorted(set(garbage))
