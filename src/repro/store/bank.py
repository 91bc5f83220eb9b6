"""TraceBank: the sharded, content-addressed on-disk trace archive.

Layout (all files rewritable atomically, safe for concurrent ingest from
sweep worker processes)::

    <root>/
        STORE.json                    # {"schema": "repro/store/v1", ...}
        segments/<sha[:2]>/<sha>.seg  # content-addressed encoded TraceFiles
        manifests/<run_id>.json       # one versioned manifest per run

Segments shard by the first digest byte (256 fan-out) exactly like the
run cache, so directories stay small at archive scale.  Ingest is
idempotent: a segment whose file already exists is *deduped* (counted,
not rewritten), and a run's manifest path is derived from its content so
re-ingesting a sweep adds nothing.  The manifest files are the archive's
only index: a run id is looked up by its file name, a listing parses
``manifests/*.json``, and no read writes into the archive (the manifest
cache file older releases kept at the root is ignored).  ``verify``
re-hashes and re-decodes every referenced segment against its manifest
summary; ``gc`` removes segment files no manifest references (the only
way data leaves the archive — dropping a run means deleting its
manifest, then ``gc``).
"""

from __future__ import annotations

import json
import re
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple, Union

from repro.atomicfile import atomic_write
from repro.errors import StoreCorruptionError, StoreError, StoreNotFound
from repro.fanout import parallel_map
from repro.obs.tracepoints import STATE
from repro.store.manifest import (
    MANIFEST_SCHEMA,
    RunManifest,
    compute_run_id,
    json_safe_meta,
)
from repro.store.segments import (
    SegmentMeta,
    archive_errors,
    check_address,
    content_address,
    decode_segment,
    encode_segment,
    segment_columns,
    summarize_segment,
)
from repro.trace.binary_format import read_records
from repro.trace.events import TraceEvent
from repro.trace.records import TraceBundle, TraceFile

__all__ = [
    "STORE_SCHEMA",
    "DEFAULT_STORE_DIR",
    "IngestResult",
    "TraceBank",
    "render_store_summary",
]

#: Versioned store marker schema.
STORE_SCHEMA = "repro/store/v1"

#: Default archive directory, relative to the working directory (the CLI's
#: ``--store`` with no value lands here).
DEFAULT_STORE_DIR = ".repro-store"

#: The manifest's ``codec`` record for the segments ingest writes (RTBF,
#: compressed and checksummed).  It is part of every run id's hash input,
#: so it never changes.  Runs of the retired columnar format (RTCF)
#: carry ``"format": "v2"``; their segments fail to decode.
SEGMENT_CODEC: Mapping[str, Any] = {"compressed": True, "checksum": True}

#: What a run id (or a prefix of one) may contain: run ids are SHA-256
#: hex digests, so any other character matches no run.
_RUN_ID_PREFIX = re.compile(r"[0-9a-f]{0,64}")


@dataclass(frozen=True)
class IngestResult:
    """Outcome of one ``ingest_bundle`` call.

    ``new_segments + deduped_segments == segments``; a second ingest of
    the same run reports ``new_segments == 0`` and the same ``run_id``.
    """

    run_id: str
    segments: int
    new_segments: int
    deduped_segments: int
    events: int
    manifest_new: bool


class TraceBank:
    """One archive rooted at a directory (see module docstring).

    ``create=True`` (the default) initializes an empty archive on first
    touch; ``create=False`` raises :class:`~repro.errors.StoreNotFound`
    for a directory that is not already an archive — the read-only
    commands (``ls``/``query``/``verify``/``gc``) use that mode so a typo
    never silently materializes an empty store.
    """

    def __init__(self, root: Union[str, Path] = DEFAULT_STORE_DIR, create: bool = True):
        self.root = Path(root)
        self.segments_dir = self.root / "segments"
        self.manifests_dir = self.root / "manifests"
        #: True for tenant namespaces whose ``segments/`` lives in a parent
        #: service store (``segments_root`` in STORE.json); such banks own
        #: their manifests but share segment files with every sibling.
        self.shared_segments = False
        self.tenant: Optional[str] = None
        marker = self.root / "STORE.json"
        if marker.is_file():
            try:
                obj = json.loads(marker.read_text("utf-8"))
            except ValueError:
                raise StoreCorruptionError(
                    "%s exists but is not JSON" % marker
                ) from None
            if not isinstance(obj, dict) or obj.get("schema") != STORE_SCHEMA:
                raise StoreError(
                    "%s is not a %s archive" % (self.root, STORE_SCHEMA)
                )
            seg_root = obj.get("segments_root")
            if seg_root:
                self.segments_dir = (self.root / str(seg_root)).resolve()
                self.shared_segments = True
            if obj.get("tenant") is not None:
                self.tenant = str(obj["tenant"])
        elif create:
            self.root.mkdir(parents=True, exist_ok=True)
            self.segments_dir.mkdir(exist_ok=True)
            self.manifests_dir.mkdir(exist_ok=True)
            atomic_write(
                marker,
                (json.dumps({"schema": STORE_SCHEMA, "version": 1}) + "\n").encode(),
            )
        else:
            raise StoreNotFound(
                "%s is not a TraceBank archive (no STORE.json); run "
                "'repro store ingest' or a sweep with --store first" % self.root
            )

    # -- paths ---------------------------------------------------------------

    def segment_path(self, sha: str) -> Path:
        """On-disk location of one segment blob."""
        return self.segments_dir / sha[:2] / (sha + ".seg")

    def manifest_path(self, run_id: str) -> Path:
        """On-disk location of one run manifest."""
        return self.manifests_dir / (run_id + ".json")

    # -- ingest --------------------------------------------------------------

    def ingest_bundle(
        self,
        bundle: TraceBundle,
        meta: Optional[Mapping[str, Any]] = None,
    ) -> IngestResult:
        """Archive one trace bundle as one run; idempotent.

        Each source file becomes one RTBF segment (keyed by its bundle
        rank); ``meta`` is merged over the bundle's own metadata and
        becomes the manifest's queryable run description.  Returns the
        dedup-aware :class:`IngestResult`; emits ``store.ingest.*``
        telemetry when a collector is active.
        """
        merged_meta: Dict[str, Any] = dict(bundle.metadata)
        merged_meta.update(dict(meta or {}))
        segs: List[SegmentMeta] = []
        new = dedup = events = 0
        for rank in sorted(bundle.files):
            tf = bundle.files[rank]
            blob, sha = encode_segment(tf)
            seg = summarize_segment(tf, int(rank), sha, len(blob))
            path = self.segment_path(sha)
            if path.is_file():
                dedup += 1
            else:
                atomic_write(path, blob)
                new += 1
            segs.append(seg)
            events += seg.n_events
        segs.sort(key=lambda s: (s.rank, s.sha256))
        run_id = compute_run_id(merged_meta, segs, SEGMENT_CODEC)
        manifest = RunManifest(
            run_id=run_id,
            meta=json_safe_meta(merged_meta),
            codec=dict(SEGMENT_CODEC),
            segments=tuple(segs),
            n_events=events,
            n_barriers=len(bundle.barrier_stamps),
        )
        mpath = self.manifest_path(run_id)
        manifest_new = not mpath.is_file()
        if manifest_new:
            atomic_write(mpath, manifest.dumps().encode("utf-8"))
        col = STATE.collector
        if col is not None:
            col.store_ingest(len(segs), new, dedup, events)
        return IngestResult(
            run_id=run_id,
            segments=len(segs),
            new_segments=new,
            deduped_segments=dedup,
            events=events,
            manifest_new=manifest_new,
        )

    def ingest_trace_file(
        self,
        tf: TraceFile,
        meta: Optional[Mapping[str, Any]] = None,
        rank: Optional[int] = None,
    ) -> IngestResult:
        """Archive one standalone trace file as a single-segment run,
        filed under ``rank`` when given (else its own rank, else 0)."""
        bundle = TraceBundle.from_files([tf])
        if rank is not None:
            bundle.files = {int(rank): tf}
        return self.ingest_bundle(bundle, meta=meta)

    # -- reads ---------------------------------------------------------------

    def _manifest_files(self) -> List[Path]:
        """This bank's manifest files, sorted by name (none if the
        directory is missing)."""
        return sorted(self.manifests_dir.glob("*.json"))

    def select_manifests(
        self, runs: Optional[Iterable[str]] = None
    ) -> Tuple[int, List[RunManifest]]:
        """``(manifest files in the archive, manifests of the runs selected)``.

        ``runs=None`` selects every run.  Otherwise ``runs`` are run id
        prefixes, and only the files whose names they start are parsed;
        a prefix that is not lowercase hex names no file (it is never a
        glob or a path).  The selected manifests are sorted by
        ``run_id``.  Unreadable files, and files whose body names
        another run, are counted but never selected — ``verify`` is the
        path that *reports* them.
        """
        paths = self._manifest_files()
        named = paths
        if runs is not None:
            prefixes = tuple(r for r in runs if _RUN_ID_PREFIX.fullmatch(r))
            named = [p for p in paths if p.stem.startswith(prefixes)]
        return len(paths), sorted(_named_manifests(named), key=lambda m: m.run_id)

    def manifests(self) -> List[RunManifest]:
        """Every run manifest, sorted by ``run_id`` (see
        :meth:`select_manifests`)."""
        return self.select_manifests()[1]

    def run_ids(self) -> List[str]:
        """All archived run ids, sorted."""
        return [m.run_id for m in self.manifests()]

    def manifest(self, run_id: str) -> RunManifest:
        """One run's manifest; ``run_id`` may be a unique prefix.

        A full id reads its one file; a prefix lists file names and
        parses only those it starts (:meth:`select_manifests`).
        """
        if len(run_id) == 64 and _RUN_ID_PREFIX.fullmatch(run_id):
            matches = _named_manifests([self.manifest_path(run_id)])
        else:
            matches = self.select_manifests([run_id])[1]
        if not matches:
            raise StoreError("no archived run matches %r" % run_id)
        if len(matches) > 1:
            raise StoreError(
                "run id prefix %r is ambiguous (%d matches)" % (run_id, len(matches))
            )
        return matches[0]

    def read_segment(self, sha: str) -> TraceFile:
        """Load one segment by content address (hashed once, on read)."""
        blob = self.read_segment_blob(sha)
        with archive_errors(sha):
            return decode_segment(blob)

    def read_columns(self, sha: str, fields: Sequence[str]) -> Dict[str, List[Any]]:
        """Project ``fields`` out of one segment without building events.

        Every column covers every event (``obs diagnose`` reads whole
        runs; the query scan uses :meth:`read_records`); see
        :func:`~repro.store.segments.segment_columns`.  Verified like
        :meth:`read_segment`.
        """
        blob = self.read_segment_blob(sha)
        with archive_errors(sha):
            return segment_columns(blob, fields)

    def read_records(self, sha: str) -> List[tuple]:
        """One segment's raw records, walked but not projected, for a scan
        that projects them itself
        (:func:`~repro.trace.binary_format.project`).  Verified like
        :meth:`read_segment`."""
        blob = self.read_segment_blob(sha)
        with archive_errors(sha):
            return read_records(blob)

    def read_segment_blob(self, sha: str) -> bytes:
        """Raw encoded bytes of one segment, content address verified."""
        path = self.segment_path(sha)
        try:
            blob = path.read_bytes()
        except OSError:
            raise StoreCorruptionError(
                "segment %s referenced but missing on disk" % sha[:12]
            ) from None
        check_address(blob, sha)
        return blob

    def iter_run_events(self, manifest: RunManifest) -> Iterator[Tuple[int, TraceEvent]]:
        """Yield ``(rank, event)`` for one run, rank-major, capture order.

        Takes the manifest the caller resolved (:meth:`manifest`), so a
        command resolves its run once however many readers it feeds.
        """
        for seg in manifest.segments:
            tf = self.read_segment(seg.sha256)
            for e in tf.events:
                yield seg.rank, e

    def load_run_bundle(self, manifest: RunManifest) -> TraceBundle:
        """Reassemble one run as a :class:`TraceBundle` (analysis entry),
        from the manifest the caller resolved."""
        files: Dict[int, TraceFile] = {}
        for seg in manifest.segments:
            files[seg.rank] = self.read_segment(seg.sha256)
        return TraceBundle(files=files, metadata=dict(manifest.meta))

    def disk_segments(self) -> List[str]:
        """Every segment digest present on disk (referenced or not).

        Only ``*.seg`` files count: the ``*.tmp`` droppings of an
        in-flight (or crashed) atomic write are invisible here, so
        ``verify``/``gc``/``stats`` stay safe to run while a concurrent
        ingest is mid-write.  Stale tmp files are reclaimed by
        :meth:`gc` once they outlive ``tmp_ttl_seconds``.
        """
        if not self.segments_dir.is_dir():
            return []
        return sorted(p.stem for p in self.segments_dir.glob("*/*.seg"))

    def tmp_files(self) -> List[Path]:
        """In-flight/stale ``*.tmp`` atomic-write droppings, sorted.

        Covers the two directories this bank writes atomically into:
        ``segments/`` shards and ``manifests/``.  A live entry here is a
        concurrent ingest mid-``os.replace``; one that persists is the
        residue of a crashed writer.
        """
        out: List[Path] = []
        if self.segments_dir.is_dir():
            out.extend(self.segments_dir.glob("*/*.tmp"))
        if self.manifests_dir.is_dir():
            out.extend(self.manifests_dir.glob("*.tmp"))
        return sorted(out)

    def _tenant_manifest_paths(self) -> List[Path]:
        """Manifest files of tenant namespaces nested under this root.

        A service store keeps per-tenant manifests in
        ``tenants/<name>/manifests/`` while every tenant shares this
        root's ``segments/``; those manifests pin segments exactly like
        the root's own, so ``verify``'s orphan report and ``gc``'s root
        set must include them.
        """
        tenants_dir = self.root / "tenants"
        if self.shared_segments or not tenants_dir.is_dir():
            return []
        return sorted(tenants_dir.glob("*/manifests/*.json"))

    def stats(self, manifests: Optional[List[RunManifest]] = None) -> Dict[str, Any]:
        """Archive-wide summary: runs, segments, dedup ratio, bytes.

        ``manifests`` is :meth:`manifests`' result when the caller holds
        it already (``store ls`` prints both), so no file is parsed twice.
        """
        if manifests is None:
            manifests = self.manifests()
        referenced: Dict[str, int] = {}
        frameworks: Dict[str, int] = {}
        events = 0
        for m in manifests:
            events += m.n_events
            fw = str(m.meta.get("framework", "?"))
            frameworks[fw] = frameworks.get(fw, 0) + 1
            for seg in m.segments:
                referenced[seg.sha256] = referenced.get(seg.sha256, 0) + 1
        # A tenant namespace shares its segments directory with every
        # sibling tenant: a raw disk listing would count (and report as
        # "orphans") segments belonging to other tenants.  Scope the view
        # to this bank's own referenced set in that case.
        if self.shared_segments:
            on_disk = sorted(
                sha for sha in referenced if self.segment_path(sha).is_file()
            )
        else:
            on_disk = self.disk_segments()
        disk_bytes = 0
        for sha in on_disk:
            try:
                disk_bytes += self.segment_path(sha).stat().st_size
            except OSError:
                pass
        logical = sum(
            seg.encoded_bytes for m in manifests for seg in m.segments
        )
        return {
            "schema": "repro/store/stats/v1",
            "runs": len(manifests),
            "events": events,
            "segments_referenced": sum(referenced.values()),
            "segments_unique": len(referenced),
            "segments_on_disk": len(on_disk),
            "orphan_segments": len(set(on_disk) - set(referenced)),
            "logical_bytes": logical,
            "stored_bytes": disk_bytes,
            "dedup_ratio": (logical / disk_bytes) if disk_bytes else 1.0,
            "runs_by_framework": dict(sorted(frameworks.items())),
        }

    # -- maintenance ---------------------------------------------------------

    def verify(self, jobs: int = 1) -> Dict[str, Any]:
        """Full-archive integrity check; returns a canonical-JSON report.

        Re-reads every manifest from disk, re-hashes and re-decodes every
        referenced segment, and recomputes each segment's summary against
        the manifest's copy.  ``jobs > 1`` fans segment checks over worker
        processes; the report is byte-identical for any job count.  ``ok``
        is True iff no errors.

        Safe to run while a concurrent ingest is mid-atomic-write: the
        writer's ``*.tmp`` files are never opened or reported as errors
        (their count lands in ``in_flight_tmp``), and segments referenced
        by tenant namespaces under ``tenants/`` never show up as orphans.
        A tenant bank itself (shared ``segments/``) skips the orphan scan
        entirely — it cannot distinguish a sibling's segment from a true
        orphan; the service root's verify owns that question.
        """
        errors: List[Dict[str, Any]] = []
        tasks: List[Tuple[TraceBank, str, SegmentMeta]] = []
        referenced: set = set()
        paths = self._manifest_files()
        for path, m in _read_manifests(paths, errors):
            if m.run_id != path.stem:
                errors.append(
                    {"run_id": path.stem, "rank": None, "sha256": None,
                     "error": "manifest run_id %s does not match its "
                              "filename" % m.run_id[:12]}
                )
            for seg in m.segments:
                referenced.add(seg.sha256)
                tasks.append((self, m.run_id, seg))
        for err in parallel_map(_verify_segment_task, tasks, jobs=jobs):
            if err is not None:
                errors.append(err)
        errors.sort(key=lambda e: (str(e["run_id"]), str(e["sha256"]), e["error"]))
        if self.shared_segments:
            orphans: List[str] = []
        else:
            pinned = set(referenced)
            # A tenant's unreadable manifest is its own verify's to report.
            for _path, m in _read_manifests(self._tenant_manifest_paths()):
                pinned.update(m.segment_shas())
            orphans = sorted(set(self.disk_segments()) - pinned)
        return {
            "schema": "repro/store/verify/v1",
            "runs": len(paths),
            "segments_checked": len(tasks),
            "ok": not errors,
            "errors": errors,
            "orphan_segments": orphans,
            "in_flight_tmp": len(self.tmp_files()),
        }

    def gc(self, dry_run: bool = False, tmp_ttl_seconds: float = 3600.0) -> Dict[str, Any]:
        """Remove segment files no manifest references.

        Manifests are the root set: this bank's own plus every tenant
        namespace's under ``tenants/*/manifests/`` — tenant runs pin
        shared segments, and so does a manifest filed under another
        run's name.  Anything under ``segments/`` not reachable from one
        is deleted — or merely listed with ``dry_run``.  Never touches
        manifests themselves: to drop a run, delete its manifest file and
        then ``gc``.

        In-flight ``*.tmp`` atomic-write files are left alone unless
        older than ``tmp_ttl_seconds`` (crashed-writer residue; reclaimed
        into ``removed_tmp_files``).  The same grace protects *fresh*
        unreferenced ``.seg`` files: a concurrent ingest lands segments
        before its manifest, so a segment younger than
        ``tmp_ttl_seconds`` may be live even though no manifest names it
        yet — it is kept (counted as ``kept_fresh_segments``) and
        reclaimed by a later gc if its manifest never arrives.  Together
        these make gc safe to run concurrently with a live ingest; pass
        ``tmp_ttl_seconds=0.0`` to reclaim everything immediately when
        no writer can be alive.  A tenant bank (shared ``segments/``) refuses
        to gc at all: it cannot tell a sibling tenant's live segment from
        garbage; gc the service root instead.
        """
        if self.shared_segments:
            raise StoreError(
                "refusing to gc tenant namespace %r: its segments/ is shared "
                "with sibling tenants; gc the service store root instead"
                % str(self.root)
            )
        referenced: set = set()
        # An unreadable manifest pins nothing: verify reports it.
        roots = self._manifest_files() + self._tenant_manifest_paths()
        for _path, m in _read_manifests(roots):
            referenced.update(m.segment_shas())
        removed: List[str] = []
        freed = 0
        kept_fresh = 0
        now = time.time()
        for sha in self.disk_segments():
            if sha in referenced:
                continue
            path = self.segment_path(sha)
            try:
                st = path.stat()
            except OSError:
                continue  # vanished mid-scan (another gc, or a drop)
            if now - st.st_mtime < tmp_ttl_seconds:
                # Freshly landed: a live ingest writes segments before
                # its manifest, so this may be referenced momentarily.
                kept_fresh += 1
                continue
            if not dry_run:
                try:
                    path.unlink()
                except OSError:
                    continue
            removed.append(sha)
            freed += st.st_size
        removed_tmp: List[str] = []
        for tmp in self.tmp_files():
            try:
                age = now - tmp.stat().st_mtime
            except OSError:
                continue  # completed (os.replace) or cleaned up mid-scan
            if age < tmp_ttl_seconds:
                continue  # plausibly a live writer; never race it
            if not dry_run:
                try:
                    tmp.unlink()
                except OSError:
                    continue
            removed_tmp.append(str(tmp.relative_to(self.root)))
        return {
            "schema": "repro/store/gc/v1",
            "dry_run": bool(dry_run),
            "removed_segments": removed,
            "removed_tmp_files": removed_tmp,
            "bytes_freed": freed,
            "kept_segments": len(referenced),
            "kept_fresh_segments": kept_fresh,
        }


def _read_manifests(
    paths: Iterable[Path], errors: Optional[List[Dict[str, Any]]] = None
) -> Iterator[Tuple[Path, RunManifest]]:
    """Parse manifest files in order, yielding ``(path, manifest)``.

    The one loop every manifest read goes through.  A file that cannot
    be read or parsed is skipped, and recorded in ``errors`` as a
    ``verify`` error record when that list is given.  Whether the body
    names the run its file name does is left to the caller.
    """
    for path in paths:
        try:
            m = RunManifest.loads(path.read_text("utf-8"))
        except (OSError, UnicodeDecodeError, StoreCorruptionError) as exc:
            if errors is not None:
                errors.append(
                    {"run_id": path.stem, "rank": None, "sha256": None,
                     "error": "manifest unreadable: %s" % exc}
                )
            continue
        yield path, m


def _named_manifests(paths: Iterable[Path]) -> List[RunManifest]:
    """The manifests among ``paths`` whose body names the run their file
    name does (unreadable files are skipped)."""
    return [m for path, m in _read_manifests(paths) if m.run_id == path.stem]


def _verify_segment_task(task: Tuple[TraceBank, str, SegmentMeta]) -> Optional[Dict[str, Any]]:
    """Check one referenced segment against its manifest summary.

    Returns ``None`` when the segment is healthy, else an error record.
    The task carries the bank and the :class:`SegmentMeta` its parent
    read, so a worker opens nothing but the segment.  Lives at module
    level so it pickles into worker processes.
    """
    bank, run_id, stored = task
    sha, rank = stored.sha256, stored.rank

    def err(msg: str) -> Dict[str, Any]:
        return {"run_id": run_id, "rank": rank, "sha256": sha, "error": msg}

    try:
        blob = bank.segment_path(sha).read_bytes()
    except OSError:
        return err("segment file missing")
    if content_address(blob) != sha:
        return err("content hash mismatch")
    try:
        tf = decode_segment(blob)
    except Exception as exc:  # decode must never crash verify
        return err("undecodable: %s" % exc)
    if summarize_segment(tf, rank, sha, len(blob)) != stored:
        return err("summary drift: manifest summary does not match events")
    return None


def render_store_summary(stats: Dict[str, Any]) -> str:
    """Human rendering of :meth:`TraceBank.stats` for ``observe``/``ls``."""
    lines = [
        "TraceBank archive: %d run(s), %d event(s)" % (stats["runs"], stats["events"]),
        "segments: %d referenced (%d unique), %d on disk, %d orphan(s)"
        % (
            stats["segments_referenced"],
            stats["segments_unique"],
            stats["segments_on_disk"],
            stats["orphan_segments"],
        ),
        "bytes: %d logical / %d stored (dedup ratio %.2fx)"
        % (stats["logical_bytes"], stats["stored_bytes"], stats["dedup_ratio"]),
    ]
    if stats["runs_by_framework"]:
        lines.append(
            "runs by framework: "
            + ", ".join(
                "%s=%d" % (fw, n) for fw, n in stats["runs_by_framework"].items()
            )
        )
    return "\n".join(lines) + "\n"
