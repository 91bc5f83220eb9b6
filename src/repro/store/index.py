"""The manifest index with its warm on-disk cache.

Every query begins by reading all run manifests; for a large archive that
is the dominant metadata cost, so the index memoizes parsed manifests in
``index.json`` keyed by each manifest file's ``(size, mtime_ns)`` stat
signature.  A warm load re-parses nothing; a manifest that appeared,
changed, or vanished invalidates exactly its own entry.  The cache is
*purely* an accelerator: query results are byte-identical with a cold,
warm, or deleted cache (the determinism contract the acceptance tests
check), and a corrupt cache file is silently discarded and rebuilt.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro.atomicfile import atomic_write
from repro.store.manifest import RunManifest

__all__ = ["INDEX_SCHEMA", "ManifestIndex"]

#: Versioned cache schema; any other tag is treated as a cold cache.
INDEX_SCHEMA = "repro/store/index/v1"


class ManifestIndex:
    """Loads every manifest under ``manifests/``, cache-first.

    ``reused``/``parsed`` count the last :meth:`load`'s cache traffic —
    a warm load of an unchanged archive reports ``parsed == 0``.
    """

    def __init__(self, root: Path):
        self.root = Path(root)
        self.manifests_dir = self.root / "manifests"
        self.cache_path = self.root / "index.json"
        self.reused = 0
        self.parsed = 0

    def _read_cache(self) -> Dict[str, dict]:
        try:
            obj = json.loads(self.cache_path.read_text("utf-8"))
        except (OSError, ValueError):
            return {}
        if not isinstance(obj, dict) or obj.get("schema") != INDEX_SCHEMA:
            return {}
        entries = obj.get("entries")
        return entries if isinstance(entries, dict) else {}

    def load(self, refresh_cache: bool = True) -> List[RunManifest]:
        """Every manifest, sorted by ``run_id``.

        Unchanged files come from the cache; changed/new files are parsed
        and (when ``refresh_cache``) written back.  Files that fail to
        parse are skipped here — ``verify`` is the path that *reports*
        them; the index must stay usable around one bad manifest.
        """
        self.reused = 0
        self.parsed = 0
        cached = self._read_cache()
        fresh: Dict[str, dict] = {}
        out: List[RunManifest] = []
        if self.manifests_dir.is_dir():
            for path in sorted(self.manifests_dir.glob("*.json")):
                try:
                    st = path.stat()
                except OSError:
                    continue
                sig: Tuple[int, int] = (st.st_size, st.st_mtime_ns)
                entry = cached.get(path.name)
                body: Optional[dict] = None
                if (
                    isinstance(entry, dict)
                    and entry.get("size") == sig[0]
                    and entry.get("mtime_ns") == sig[1]
                    and isinstance(entry.get("manifest"), dict)
                ):
                    body = entry["manifest"]
                    self.reused += 1
                else:
                    try:
                        body = json.loads(path.read_text("utf-8"))
                    except (OSError, ValueError):
                        continue
                    if not isinstance(body, dict):
                        continue
                    self.parsed += 1
                try:
                    out.append(RunManifest.from_json(body))
                except Exception:
                    continue
                fresh[path.name] = {
                    "size": sig[0],
                    "mtime_ns": sig[1],
                    "manifest": body,
                }
        if refresh_cache and (self.parsed or set(fresh) != set(cached)):
            body = json.dumps(
                {"schema": INDEX_SCHEMA, "entries": fresh}, sort_keys=True
            )
            try:
                # A rebuildable accelerator: atomic, but never fsynced.
                atomic_write(self.cache_path, body.encode("utf-8"), durable=False)
            except OSError:
                pass  # a read-only archive still queries fine, just cold
        out.sort(key=lambda m: m.run_id)
        return out

    def invalidate(self) -> None:
        """Delete the cache file (next load is cold)."""
        try:
            self.cache_path.unlink()
        except OSError:
            pass
