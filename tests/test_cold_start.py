"""Commands that do not simulate do not import the simulator.

Importing the simulated stack (the DES kernel, the cluster, simos,
simfs, simmpi, the frameworks and the harness, plus numpy) costs about
0.35 s, several times what ``repro table2``, an archive query or a sweep
served from a warm run cache need.  Parsing arguments loads no command's
code either, so ``repro --help`` imports neither the taxonomy
(``repro.core``) nor the trace codecs.  These tests run commands in a
fresh interpreter and check which modules they loaded.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.cli import build_parser, main
from repro.faults.chaos import CHAOS_MATRICES
from repro.store.bank import TraceBank
from repro.trace.anonymize import ANONYMIZABLE_FIELDS
from repro.trace.events import EventLayer, TraceEvent
from repro.trace.records import TraceBundle, TraceFile

SIMULATOR = ("repro.des", "repro.simos", "repro.simfs", "repro.simmpi",
             "repro.cluster", "repro.harness", "repro.frameworks")

#: What a sweep served from a warm run cache must not load: it builds run
#: specs and looks them up (``harness.parallel``, ``harness.runcache``),
#: but runs nothing.
SIMULATION = ("repro.des", "repro.simos", "repro.simfs", "repro.simmpi",
              "repro.cluster", "repro.frameworks", "repro.harness.experiment",
              "repro.harness.testbed")

_PROBE = """
import json, sys
from repro.cli import main
try:
    rc = main(json.loads(sys.argv[1]))
except SystemExit as exc:  # --help
    rc = exc.code
print(json.dumps({"rc": rc, "modules": sorted(sys.modules)}))
"""


def _env():
    """The environment with this checkout's ``src`` first on the path."""
    src = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH", "")) if p
    )
    return env


def _loaded(argv, cwd, heavy_prefixes=SIMULATOR):
    """(exit code, simulator modules loaded) for ``repro argv`` run fresh."""
    proc = subprocess.run(
        [sys.executable, "-c", _PROBE, json.dumps(argv)],
        cwd=str(cwd), env=_env(), capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.splitlines()[-1])
    heavy = [
        m for m in report["modules"]
        if m == "numpy" or m.startswith("numpy.")
        or any(m == p or m.startswith(p + ".") for p in heavy_prefixes)
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
    def test_help_loads_neither_the_taxonomy_nor_the_codecs(self, tmp_path):
        assert _loaded(["--help"], tmp_path, ("repro.core", "repro.trace")) == (0, [])

    def test_table2(self, tmp_path):
        assert _loaded(["table2"], tmp_path) == (0, [])

    def test_store_query_on_a_tiny_archive(self, tmp_path):
        store = str(_tiny_archive(tmp_path / "bank"))
        assert _loaded(["store", "query", "--store", store, "--agg", "ops"],
                       tmp_path) == (0, [])


@pytest.fixture(scope="module")
def sweep_dir(tmp_path_factory):
    """One cwd, and so one ``.repro-cache``, for the warm-sweep rows."""
    return tmp_path_factory.mktemp("warm")


@pytest.mark.parametrize(
    "argv",
    [["figure", "2", "--quick"], ["figures", "--quick"],
     ["chaos", "--matrix", "smoke", "--report-out", ""]],
    ids=["figure-2", "figures", "chaos-smoke"],
)
def test_a_warm_sweep_runs_nothing(argv, sweep_dir, monkeypatch, capsys):
    monkeypatch.chdir(sweep_dir)
    assert main(argv) == 0  # cold: simulates and fills the run cache
    capsys.readouterr()
    assert _loaded(argv, sweep_dir, SIMULATION) == (0, [])


def test_the_kernel_loads_only_the_telemetry_it_calls():
    probe = "import json, sys, repro.des.simulator; print(json.dumps(list(sys.modules)))"
    proc = subprocess.run([sys.executable, "-c", probe], env=_env(),
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    obs = {m for m in json.loads(proc.stdout) if m.startswith("repro.obs.")}
    assert obs <= {"repro.obs.metrics", "repro.obs.perfetto", "repro.obs.spans",
                   "repro.obs.tracepoints"}


def test_chaos_matrix_choices_match_the_chaos_module():
    assert _choices("chaos", "matrix") == sorted(set(CHAOS_MATRICES) | {"zoo"})


def _choices(command, dest):
    parser = build_parser()
    (sub,) = [a for a in parser._actions if a.dest == "command"]
    (action,) = [a for a in sub.choices[command]._actions if a.dest == dest]
    return list(action.choices)


def test_anonymize_fields_choices_match_the_anonymize_module():
    assert _choices("anonymize", "fields") == sorted(ANONYMIZABLE_FIELDS)
