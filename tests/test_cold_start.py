"""Commands that do not simulate do not import the simulator.

Importing the simulated stack (the DES kernel, the cluster, simos,
simfs, simmpi, the frameworks and the harness, plus numpy) costs about
0.35 s, several times what ``repro table2`` or an archive query need.
These tests run commands in a fresh interpreter and check which
modules they loaded.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import repro
from repro.cli import build_parser
from repro.faults.chaos import CHAOS_MATRICES
from repro.store import TraceBank
from repro.trace.events import EventLayer, TraceEvent
from repro.trace.records import TraceBundle, TraceFile

SIMULATOR = ("repro.des", "repro.simos", "repro.simfs", "repro.simmpi",
             "repro.cluster", "repro.harness", "repro.frameworks")

_PROBE = """
import json, sys
from repro.cli import main
rc = main(json.loads(sys.argv[1]))
print(json.dumps({"rc": rc, "modules": sorted(sys.modules)}))
"""


def _loaded(argv, cwd):
    """(exit code, simulator modules loaded) for ``repro argv`` run fresh."""
    src = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH", "")) if p
    )
    proc = subprocess.run(
        [sys.executable, "-c", _PROBE, json.dumps(argv)],
        cwd=str(cwd), env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.splitlines()[-1])
    heavy = [
        m for m in report["modules"]
        if m == "numpy" or m.startswith("numpy.")
        or any(m == p or m.startswith(p + ".") for p in SIMULATOR)
    ]
    return report["rc"], heavy


def _tiny_archive(root):
    events = [
        TraceEvent(timestamp=float(i), duration=0.5, layer=EventLayer.SYSCALL,
                   name="SYS_write", args=(3, 4096), result=4096, pid=7,
                   rank=0, hostname="n0", user="u", path="/pfs/f", fd=3,
                   nbytes=4096, offset=4096 * i)
        for i in range(4)
    ]
    bundle = TraceBundle(files={0: TraceFile(events, hostname="n0", rank=0)})
    TraceBank(root, create=True).ingest_bundle(bundle, meta={"kind": "unit"})
    return root


class TestNoSimulatorImports:
    def test_table2(self, tmp_path):
        assert _loaded(["table2"], tmp_path) == (0, [])

    def test_store_query_on_a_tiny_archive(self, tmp_path):
        store = str(_tiny_archive(tmp_path / "bank"))
        assert _loaded(["store", "query", "--store", store, "--agg", "ops"],
                       tmp_path) == (0, [])


def test_chaos_matrix_choices_match_the_chaos_module():
    parser = build_parser()
    (sub,) = [a for a in parser._actions if a.dest == "command"]
    chaos = sub.choices["chaos"]
    (matrix,) = [a for a in chaos._actions if a.dest == "matrix"]
    assert list(matrix.choices) == sorted(set(CHAOS_MATRICES) | {"zoo"})
