"""Regenerate ``expected.json``: the simulated history a known-good tree gave.

The corpus pins what the simulated stack computes, not how many kernel
events it took to compute it:

* ``figures``: the untraced and traced elapsed (``repr``) of every
  ``repro figures --quick`` point, and the run id each point archived
  with ``--store``;
* ``zoo``: per ``repro zoo matrix --smoke --store --replay-check`` row,
  the elapsed times, the archived run id, the signature verdict and the
  replay verdict;
* ``chaos``: the SHA-256 of the ``CHAOS_report.json`` that
  ``repro chaos --matrix smoke`` writes;
* ``chaos_run_ids``: per ``repro chaos --matrix smoke --store`` row, the
  run id of the archived (possibly partial) traced bundle — a run id
  hashes the manifest meta too, so this pins the chaos manifest extras;
* ``figure2_telemetry_sha256``: per Figure 2 point of
  ``repro figures --quick --telemetry``, the SHA-256 of the canonical
  telemetry payload file it writes (``fig2_bs<N>.telemetry.json``).

Run ids hash archived segment bytes, so they pin every traced event's
timestamp and duration too.  ``tests/harness/test_history_corpus.py``
recomputes :func:`collect` and requires exact equality.  The file here
was first written by commit e911b3f, the last tree whose kernel
re-queued a process that yielded an already-settled completion.  It was
regenerated by commit 13c4911 when the last two keys were added; every
earlier key came out unchanged::

    mkdir -p /tmp/history-writer
    git archive 13c4911 src | tar -x -C /tmp/history-writer
    PYTHONPATH=/tmp/history-writer/src python tests/harness/history_corpus/generate.py

Regenerate only when a change is *meant* to alter simulated history, and
say so where the change is recorded.
"""

import hashlib
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent


def collect(workdir: Path) -> dict:
    """Run the three sweeps (cold, no run cache) and return their history."""
    from repro.cli import _sweep_shape
    from repro.faults.chaos import run_chaos_matrix
    from repro.harness.figures import run_figures
    from repro.obs.metrics import canonical_json
    from repro.zoo.matrix import run_zoo_matrix

    blocks, total, nprocs = _sweep_shape(True)
    sweep = run_figures(
        figures=(2, 3, 4),
        block_sizes=blocks,
        total_bytes_per_rank=total,
        nprocs=nprocs,
        store=str(workdir / "figures-store"),
    )
    figures = {}
    for figno in sorted(sweep.series):
        series = sweep.series[figno]
        figures[str(figno)] = [
            {
                "block_size": p.block_size,
                "untraced": repr(m.untraced.elapsed),
                "traced": repr(m.traced.elapsed),
                "run_id": m.store_run_id,
            }
            for p, m in zip(series.points, series.measurements)
        ]

    report = run_zoo_matrix(
        smoke=True, store=str(workdir / "zoo-store"), replay_check=True
    )
    zoo = [
        {
            "scenario": row["scenario"],
            "untraced": repr(row["elapsed_untraced"]),
            "traced": repr(row["elapsed_traced"]),
            "run_id": row["store_run_id"],
            "signature_ok": row["signature"]["ok"],
            "replay_exact": row["fidelity"]["exact"],
        }
        for row in report["rows"]
    ]

    chaos = canonical_json(run_chaos_matrix(matrix="smoke")) + "\n"
    archived = run_chaos_matrix(matrix="smoke", store=str(workdir / "chaos-store"))
    chaos_run_ids = [
        {
            "framework": row["framework"],
            "scenario": row["scenario"],
            "run_id": row["store_run_id"],
        }
        for row in archived["rows"]
    ]

    fig2 = run_figures(
        figures=(2,),
        block_sizes=blocks,
        total_bytes_per_rank=total,
        nprocs=nprocs,
        telemetry=True,
    ).series[2]
    telemetry = {
        str(p.block_size): _sha256(canonical_json(m.telemetry) + "\n")
        for p, m in zip(fig2.points, fig2.measurements)
    }
    return {
        "figures": figures,
        "zoo": zoo,
        "chaos_report_sha256": _sha256(chaos),
        "chaos_run_ids": chaos_run_ids,
        "figure2_telemetry_sha256": telemetry,
    }


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def main() -> int:
    from repro.obs.metrics import canonical_json

    with tempfile.TemporaryDirectory() as tmp:
        history = collect(Path(tmp))
    (HERE / "expected.json").write_text(canonical_json(history) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
