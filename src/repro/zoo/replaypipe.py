"""The trace → simulated-cluster replay pipeline.

One entry point, :func:`replay_pipeline`, takes *any* trace source —

* a **TraceBank run id** (or unique prefix) inside an archive created
  with ``--store``: the full multi-rank bundle, with its manifest
  metadata, exactly as the traced run produced it;
* a **library trace file** written by ``repro convert``/``repro trace``
  (binary ``.rtb`` or the text format, sniffed by magic);
* a **raw strace capture** of a real application (``strace -f -T -ttt``
  output, parsed by the hardened :mod:`repro.host.parser` and split into
  per-pid ranks) — the "real trace" half of the zoo's promise;

— compiles it into a pseudo-application
(:func:`repro.replay.pseudoapp.build_pseudoapp`), replays it on a fresh
simulated cluster under a documented timing policy, and returns the
fidelity report comparing the replayed op mix, bytes and timing against
the source.  The report is canonical-JSON data: byte-identical across
reruns of the same source with the same knobs.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from repro.errors import NotMounted, ReplayError
from repro.harness.testbed import build_testbed
from repro.machine import TestbedConfig
from repro.obs.metrics import canonical_json
from repro.replay.fidelity import fidelity_report
from repro.replay.pseudoapp import _LIBCALL_KINDS, _SYNC_LIBCALLS, build_pseudoapp
from repro.replay.replayer import replay
from repro.trace.decode import decode_trace_bytes
from repro.trace.events import EventLayer
from repro.trace.records import TraceBundle, TraceFile

__all__ = [
    "choose_layer",
    "load_source",
    "remap_paths",
    "render_fidelity_report",
    "replay_pipeline",
    "source_elapsed",
]


def _bundle_from_strace(text: Union[str, bytes], label: str) -> Tuple[TraceBundle, Dict[str, Any]]:
    """A strace capture as a bundle: one trace file (rank) per pid."""
    from repro.host.parser import parse_strace

    parsed = parse_strace(text)
    if not parsed.events:
        raise ReplayError(
            "no replayable syscalls parsed from strace source %r "
            "(%d line(s), warnings: %s)"
            % (label, parsed.n_lines, dict(parsed.warnings) or "none")
        )
    by_pid: Dict[int, List[Any]] = {}
    for e in parsed.events:
        by_pid.setdefault(e.pid, []).append(e)
    bundle = TraceBundle(metadata={"framework": "strace", "source": label})
    for rank, pid in enumerate(sorted(by_pid)):
        bundle.add_file(
            rank,
            TraceFile(events=tuple(by_pid[pid]), pid=pid, rank=rank,
                      framework="strace"),
        )
    return bundle, {
        "kind": "strace",
        "pids": len(by_pid),
        "lines": parsed.n_lines,
        "parse_warnings": dict(sorted(parsed.warnings.items())),
    }


def _bundle_from_files(paths: Sequence[Path]) -> Tuple[TraceBundle, Dict[str, Any]]:
    """Library trace file(s) — binary or text — as a bundle, one per rank."""
    bundle = TraceBundle.from_files(decode_trace_bytes(p.read_bytes()) for p in paths)
    bundle.metadata["source"] = str(paths[0])
    return bundle, {"kind": "trace-file", "files": len(paths)}


def _looks_like_strace(data: bytes) -> bool:
    """Sniff: does any early line match the strace syscall shape?"""
    from repro.host.parser import _LINE_RE, _RESUMED_RE

    head = data[:8192].decode("utf-8", errors="backslashreplace")
    for line in head.splitlines()[:50]:
        line = line.strip()
        if line and (_LINE_RE.match(line) or _RESUMED_RE.match(line)):
            return True
    return False


def load_source(
    sources: Sequence[Union[str, Path]],
    store: Optional[Union[str, Path]] = None,
) -> Tuple[TraceBundle, Dict[str, Any]]:
    """Resolve trace sources to a bundle plus a provenance record.

    A single non-path source is treated as a TraceBank run-id prefix
    when ``store`` points at an archive; file paths are sniffed (binary
    magic → library binary format; strace-shaped text → the host parser;
    anything else → the library text format).  Multiple paths become one
    bundle with one rank per file.
    """
    if not sources:
        raise ReplayError("no trace source given")
    first = str(sources[0])
    store_root = Path(store) if store is not None else None
    is_store = store_root is not None and (store_root / "STORE.json").is_file()
    if is_store and not Path(first).exists():
        from repro.store.bank import TraceBank

        bank = TraceBank(store, create=False)
        manifest = bank.manifest(first)
        run_id = manifest.run_id
        bundle = bank.load_run_bundle(manifest)
        # An archived bundle's metadata IS the manifest meta (workload,
        # framework, args...) — it rides into the report as provenance.
        return bundle, {
            "kind": "store",
            "store": str(store),
            "run_id": run_id,
            "meta": {k: v for k, v in sorted(bundle.metadata.items())},
        }
    paths = [Path(str(s)) for s in sources]
    for p in paths:
        if not p.exists():
            raise ReplayError(
                "trace source %r is neither a readable file nor a run id "
                "in a --store archive" % str(p)
            )
    if len(paths) == 1:
        from repro.trace import binary_format

        data = paths[0].read_bytes()
        if data[:4] != binary_format.MAGIC and _looks_like_strace(data):
            return _bundle_from_strace(data, str(paths[0]))
    return _bundle_from_files(paths)


def choose_layer(bundle: TraceBundle) -> EventLayer:
    """Pick the scripting layer a bundle replays most faithfully from.

    Library-level captures (//TRACE-style MPI-IO interposition) script at
    LIBCALL; anything with syscall events scripts at SYSCALL (the richer,
    fd-resolving path — LANL-Trace and strace sources); VFS-only bundles
    (Tracefs) script at VFS.
    """
    layers = {e.layer for e in bundle.all_events()}
    if EventLayer.SYSCALL in layers:
        return EventLayer.SYSCALL
    if EventLayer.LIBCALL in layers and any(
        e.name in _LIBCALL_KINDS or e.name in _SYNC_LIBCALLS
        for e in bundle.all_events()
        if e.layer is EventLayer.LIBCALL
    ):
        return EventLayer.LIBCALL
    if EventLayer.VFS in layers:
        return EventLayer.VFS
    return EventLayer.SYSCALL


def source_elapsed(bundle: TraceBundle) -> Optional[float]:
    """The source's own end-to-end span, for the §3.1 timing comparison.

    Prefers the traced run's recorded elapsed when the bundle metadata
    carries one; falls back to the event timestamp span.
    """
    for key in ("elapsed", "elapsed_traced"):
        val = bundle.metadata.get(key)
        if isinstance(val, (int, float)) and val > 0:
            return float(val)
    events = bundle.all_events()
    if not events:
        return None
    start = min(e.timestamp for e in events)
    end = max(e.end_timestamp for e in events)
    span = end - start
    return span if span > 0 else None


def remap_paths(app: "Any", root: str) -> "Any":
    """Re-root every scripted path under ``root`` (a simulated mount).

    A real application's trace references host paths (``/etc/hosts``,
    ``/home/...``) the simulated cluster does not mount; re-rooting them
    under e.g. ``/pfs/replay`` makes the schedule executable without
    changing its shape — op counts, sizes and offsets are untouched, so
    fidelity exactness is preserved.
    """
    from dataclasses import replace as _replace

    prefix = "/" + root.strip("/")
    for script in app.scripts.values():
        script.ops = [
            _replace(op, path=prefix + "/" + op.path.lstrip("/"))
            if op.path is not None
            else op
            for op in script.ops
        ]
    app.metadata["remap_root"] = prefix
    return app


def replay_pipeline(
    sources: Sequence[Union[str, Path]],
    store: Optional[Union[str, Path]] = None,
    layer: str = "auto",
    timing: str = "afap",
    seed: int = 0,
    honor_sync: bool = True,
    per_event_overhead: float = 0.0,
    config: Optional[TestbedConfig] = None,
    remap_root: Optional[str] = None,
) -> Dict[str, Any]:
    """source → pseudo-app → simulated replay → fidelity report.

    ``timing`` picks the documented policy (``afap`` by default: replays
    against a possibly-different simulated cluster compare op schedules,
    not wall time; pass ``preserve`` for the paper's end-to-end check).
    ``remap_root`` re-roots scripted paths under a simulated mount;
    strace sources default to ``/pfs/replay`` (host paths are not
    simulated mounts), everything else to no remap; a scripted path
    outside every simulated mount raises :class:`~repro.errors.ReplayError`
    naming it and the mounts.  Returns the ``repro/replay/fidelity/v1``
    report with the source's provenance attached under ``"resolution"``.
    """
    bundle, resolution = load_source(sources, store=store)
    if remap_root is None and resolution.get("kind") == "strace":
        remap_root = "/pfs/replay"
    if layer == "auto":
        script_layer = choose_layer(bundle)
    else:
        try:
            script_layer = EventLayer(layer)
        except ValueError:
            raise ReplayError(
                "unknown scripting layer %r (known: auto, %s)"
                % (layer, ", ".join(l.value for l in EventLayer))
            ) from None
    app = build_pseudoapp(
        bundle, layer=script_layer, per_event_overhead=per_event_overhead
    )
    if remap_root:
        app = remap_paths(app, remap_root)
    try:
        result = replay(
            app, config=config, seed=seed, honor_sync=honor_sync, timing=timing
        )
    except NotMounted as exc:
        mounts = ", ".join(sorted(build_testbed(config).vfs.mounts()))
        raise ReplayError(
            "replayed path %s is not under a simulated mount (%s); re-root "
            "the trace's paths with --remap-root, e.g. --remap-root /pfs/replay"
            % (exc, mounts)
        ) from None
    report = fidelity_report(
        app,
        result,
        source_label=str(resolution.get("run_id") or sources[0]),
        original_elapsed=source_elapsed(bundle),
    )
    report["resolution"] = resolution
    return json.loads(canonical_json(report))


def render_fidelity_report(report: Dict[str, Any]) -> str:
    """The fidelity report as a human-readable text block."""
    src = report["source"]
    rep = report["replay"]
    lines = [
        "Replay fidelity: %s" % (src["label"] or "(unnamed source)"),
        "  source: framework=%s layer=%s nprocs=%d ops=%d bytes=%d"
        % (
            src["framework"] or "?",
            src["layer"],
            src["nprocs"],
            src["profile"]["total_ops"],
            src["profile"]["total_bytes"],
        ),
        "  replay: timing=%s elapsed=%.6fs ops=%d bytes=%d events=%d"
        % (
            rep["timing"],
            rep["elapsed"],
            rep["profile"]["total_ops"],
            rep["profile"]["total_bytes"],
            rep["events_executed"],
        ),
        "  %-10s %14s %14s %14s %14s" % ("class", "src ops", "replay ops", "src bytes", "replay bytes"),
    ]
    for cls in ("read", "write", "metadata"):
        row = report["per_class"][cls]
        lines.append(
            "  %-10s %14d %14d %14d %14d"
            % (cls, row["source_count"], row["replay_count"],
               row["source_bytes"], row["replay_bytes"])
        )
    unrep = src.get("unreplayable") or {}
    if unrep:
        lines.append(
            "  unreplayable events: "
            + ", ".join("%s=%d" % kv for kv in sorted(unrep.items()))
        )
    skipped = rep["profile"].get("skipped") or {}
    if skipped:
        lines.append(
            "  skipped ops: " + ", ".join("%s=%d" % kv for kv in sorted(skipped.items()))
        )
    if "end_to_end" in report:
        e2e = report["end_to_end"]
        lines.append(
            "  end-to-end: original=%.6fs replay=%.6fs error=%.1f%%"
            % (e2e["original_elapsed"], e2e["replay_elapsed"], e2e["error_percent"])
        )
    lines.append("  exact: %s" % ("yes" if report["exact"] else "NO"))
    return "\n".join(lines) + "\n"
