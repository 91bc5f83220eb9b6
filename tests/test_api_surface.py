"""Library-wide API contracts: documentation, exports, determinism."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import repro
import repro.replay


def _walk_modules():
    yield repro
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if info.name.endswith("__main__"):
            continue  # importing it runs the CLI
        yield importlib.import_module(info.name)


class TestDocumentation:
    def test_every_module_has_a_docstring(self):
        undocumented = [
            m.__name__ for m in _walk_modules() if not (m.__doc__ or "").strip()
        ]
        assert undocumented == []

    def test_every_all_export_exists_and_is_documented(self):
        problems = []
        for mod in _walk_modules():
            for name in getattr(mod, "__all__", []):
                obj = getattr(mod, name, None)
                if obj is None:
                    problems.append("%s.%s missing" % (mod.__name__, name))
                    continue
                if callable(obj) and not isinstance(obj, type):
                    if not (getattr(obj, "__doc__", "") or "").strip():
                        problems.append("%s.%s undocumented" % (mod.__name__, name))
                elif isinstance(obj, type):
                    if not (obj.__doc__ or "").strip():
                        problems.append("%s.%s undocumented" % (mod.__name__, name))
        assert problems == []

    def test_public_classes_have_documented_public_methods(self):
        import inspect

        problems = []
        for mod in _walk_modules():
            for name in getattr(mod, "__all__", []):
                obj = getattr(mod, name, None)
                if not isinstance(obj, type):
                    continue
                for attr, member in vars(obj).items():
                    if attr.startswith("_") or not inspect.isfunction(member):
                        continue
                    if not (member.__doc__ or "").strip():
                        problems.append("%s.%s.%s" % (mod.__name__, name, attr))
        assert problems == []


class TestPackageInits:
    def test_subpackage_inits_hold_only_their_docstring(self):
        # Importing any module runs its package's __init__; one that
        # re-exports its submodules makes every import pay for them all.
        # repro.replay alone keeps three names its callers import from it.
        root = Path(repro.__file__).parent
        problems = []
        for init in sorted(root.glob("*/**/__init__.py")):
            body = ast.parse(init.read_text("utf-8")).body
            doc = body[:1]
            if not (doc and isinstance(doc[0], ast.Expr)
                    and isinstance(doc[0].value, ast.Constant)
                    and isinstance(doc[0].value.value, str)):
                problems.append("%s: no docstring" % init.relative_to(root))
            rest = body[1:]
            if init.parent.name == "replay":
                imported = [a.name for s in rest if isinstance(s, ast.ImportFrom)
                            for a in s.names]
                assert sorted(imported) == repro.replay.__all__ == [
                    "build_pseudoapp", "fidelity_report", "replay"]
                rest = [s for s in rest if not isinstance(s, ast.ImportFrom)
                        and ast.unparse(s) != "__all__ = %r" % repro.replay.__all__]
            if rest:
                problems.append("%s: %d statement(s) besides the docstring"
                                % (init.relative_to(root), len(rest)))
        assert problems == []


class TestFrameworkRegistry:
    def test_all_frameworks_registered_and_classifiable(self, capsys):
        # ``repro classify NAME`` prints from the case study's card table,
        # loading no framework; each card must be the one the framework
        # class itself reports at default configuration.
        from repro.cli import main
        from repro.core.summary_table import render_summary_table
        from repro.frameworks.lanltrace.framework import LANLTrace
        from repro.frameworks.netmsg import MsgTrace
        from repro.frameworks.ptrace.framework import PTrace
        from repro.frameworks.ptrace.throttle import PTraceCollector
        from repro.frameworks.tracefs.framework import Tracefs

        for cls in (LANLTrace, Tracefs, PTrace, PTraceCollector, MsgTrace):
            c = cls().classification()
            assert len(c) == 13, cls.name
            assert main(["classify", cls.name]) == 0
            assert capsys.readouterr().out == render_summary_table(c), cls.name

    def test_base_framework_defaults(self):
        from repro.frameworks.base import TracingFramework

        fw = TracingFramework()
        assert fw.wrap_app("sentinel") == "sentinel"
        fw.prepare(None)  # no-op
        fw.setup_rank(0, None, None)  # no-op
        with pytest.raises(NotImplementedError):
            fw.classification()


class TestEndToEndDeterminism:
    def test_figure_point_bit_identical_across_runs(self):
        from repro.harness.figures import figure_series
        from repro.units import KiB, MiB

        def one():
            s = figure_series(
                4, block_sizes=[128 * KiB], total_bytes_per_rank=1 * MiB, nprocs=4
            )
            p = s.points[0]
            return (
                p.untraced_bandwidth,
                p.traced_bandwidth,
                p.bandwidth_overhead,
                p.elapsed_overhead,
            )

        assert one() == one()

    def test_traced_bundle_identical_across_runs(self):
        from repro.frameworks.lanltrace.framework import LANLTrace
        from repro.harness.experiment import run_traced
        from repro.units import KiB
        from repro.workloads.mpi_io_test import mpi_io_test
        from repro.workloads.patterns import AccessPattern

        def one():
            _, traced = run_traced(
                LANLTrace, mpi_io_test,
                {"pattern": AccessPattern.N_TO_N, "block_size": 64 * KiB,
                 "nobj": 4, "path": "/pfs/out"},
                nprocs=2,
            )
            return traced.bundle.all_events()

        assert one() == one()


class TestNFSReadPath:
    def test_read_moves_payload_back_over_the_wire(self):
        from repro.cluster.cluster import Cluster
        from repro.machine import ClusterConfig
        from repro.simfs.nfs import NFS
        from repro.simfs.vfs import CallerContext, O_CREAT, O_RDWR
        from repro.units import KiB

        cluster = Cluster(ClusterConfig(n_nodes=1))
        sim = cluster.sim
        nfs = NFS(sim, cluster.network)
        ctx = CallerContext(node=cluster.node(0), pid=1, uid=1000, user="t")

        def body():
            ino = yield from nfs.op_open(ctx, "f", O_RDWR | O_CREAT)
            yield from nfs.op_write(ctx, ino, 0, 256 * KiB, stream="s")
            before = cluster.network.bytes_moved
            n = yield from nfs.op_read(ctx, ino, 0, 256 * KiB, stream="s")
            reply_bytes = cluster.network.bytes_moved - before
            return n, reply_bytes

        n, reply_bytes = sim.run_process(body())
        assert n == 256 * KiB
        assert reply_bytes >= 256 * KiB  # payload traveled back
