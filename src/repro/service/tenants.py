"""Per-tenant namespaces over one shared content-addressed segment store.

A service store is a normal TraceBank root with one extra directory::

    <root>/
        STORE.json                      # the service root is itself a bank
        segments/<sha[:2]>/<sha>.seg    # ONE segment pool, shared by all
        manifests/                      # root-level (non-tenant) runs
        tenants/<name>/
            STORE.json                  # {"segments_root": "../../segments",
                                        #  "tenant": "<name>", ...}
            manifests/<run_id>.json     # the tenant's private run index
            index.json                  # per-tenant warm manifest cache

A tenant namespace is a real :class:`~repro.store.bank.TraceBank` — the
query/DFG engine, ``verify``, ``ls`` and the worker processes all operate
on it unchanged — whose ``segments_root`` marker points its segment reads
and writes at the *root's* pool.  Content addressing then makes
cross-tenant dedup free: two tenants ingesting the same trace bytes land
on the same ``<sha>.seg`` file, while each sees only the runs its own
``manifests/`` directory names.  Isolation is structural, not filtered —
a tenant's manifest index simply cannot reach another tenant's runs, even
when every underlying segment is shared and even when two tenants hold
the same (content-derived) run id.

Garbage collection is root-only: a tenant bank refuses to ``gc`` (it
cannot distinguish a sibling's live segment from garbage), and the root
bank's gc treats every tenant manifest as a root — see
:meth:`repro.store.bank.TraceBank.gc`.
"""

from __future__ import annotations

import json
import re
from pathlib import Path
from typing import Any, Dict, List, Union

from repro.errors import StoreNotFound, TenantNameError
from repro.atomicfile import atomic_write
from repro.store.bank import STORE_SCHEMA, TraceBank

__all__ = ["TENANT_NAME_RE", "TenantRegistry", "validate_tenant_name"]

#: Tenant names are DNS-label-ish: lowercase alphanumerics plus ``_.-``,
#: starting with an alphanumeric, at most 64 chars.  Everything else —
#: uppercase, path separators, ``..`` traversal — is rejected before any
#: path is formed from the name.
TENANT_NAME_RE = re.compile(r"^[a-z0-9][a-z0-9_.-]{0,63}$")


def validate_tenant_name(name: str) -> str:
    """Return ``name`` if it is a legal tenant name, else raise.

    Raises :class:`~repro.errors.TenantNameError`; the HTTP layer maps it
    to a 400.  ``..`` never survives the regex (no leading dot) but is
    double-checked anyway — this is the only gate between a URL path
    component and a directory name.
    """
    if not isinstance(name, str) or not TENANT_NAME_RE.match(name) or ".." in name:
        raise TenantNameError(
            "bad tenant name %r (want %s)" % (name, TENANT_NAME_RE.pattern)
        )
    return name


class TenantRegistry:
    """The service's view of one store root and its tenant namespaces."""

    def __init__(self, root: Union[str, Path], create: bool = True):
        self.root_bank = TraceBank(root, create=create)
        self.root = self.root_bank.root
        self.tenants_dir = self.root / "tenants"

    # -- namespaces ----------------------------------------------------------

    def tenant_root(self, name: str) -> Path:
        """The on-disk directory of one (validated) tenant namespace."""
        return self.tenants_dir / validate_tenant_name(name)

    def bank(self, name: str, create: bool = True) -> TraceBank:
        """Open (optionally creating) one tenant's namespace bank."""
        name = validate_tenant_name(name)
        troot = self.tenant_root(name)
        marker = troot / "STORE.json"
        if not marker.is_file():
            if not create:
                raise StoreNotFound(
                    "no tenant %r under %s (no %s)" % (name, self.root, marker)
                )
            (troot / "manifests").mkdir(parents=True, exist_ok=True)
            atomic_write(
                marker,
                (
                    json.dumps(
                        {
                            "schema": STORE_SCHEMA,
                            "version": 1,
                            "segments_root": "../../segments",
                            "tenant": name,
                        },
                        sort_keys=True,
                    )
                    + "\n"
                ).encode(),
            )
        return TraceBank(troot, create=False)

    def list_tenants(self) -> List[str]:
        """Every tenant namespace present on disk, sorted."""
        if not self.tenants_dir.is_dir():
            return []
        return sorted(
            p.name
            for p in self.tenants_dir.iterdir()
            if (p / "STORE.json").is_file()
        )

    # -- service-wide reports ------------------------------------------------

    def stats(self) -> Dict[str, Any]:
        """Global archive stats: all tenants + root over the one pool.

        ``dedup_ratio`` here is the number the per-tenant view cannot
        compute — logical bytes across *every* namespace's manifests over
        the bytes actually stored once in the shared pool.
        """
        tenants = self.list_tenants()
        per_tenant: Dict[str, Dict[str, Any]] = {}
        logical = events = runs = 0
        referenced: set = set()
        banks = [(None, self.root_bank)] + [(t, self.bank(t, create=False)) for t in tenants]
        for label, bank in banks:
            manifests = bank.manifests()
            t_logical = sum(s.encoded_bytes for m in manifests for s in m.segments)
            t_events = sum(m.n_events for m in manifests)
            runs += len(manifests)
            logical += t_logical
            events += t_events
            for m in manifests:
                referenced.update(m.segment_shas())
            if label is not None:
                per_tenant[label] = {
                    "runs": len(manifests),
                    "events": t_events,
                    "logical_bytes": t_logical,
                }
        stored = 0
        for sha in self.root_bank.disk_segments():
            try:
                stored += self.root_bank.segment_path(sha).stat().st_size
            except OSError:
                pass
        return {
            "schema": "repro/service/stats/v1",
            "tenants": len(tenants),
            "runs": runs,
            "events": events,
            "segments_unique": len(referenced),
            "segments_on_disk": len(self.root_bank.disk_segments()),
            "logical_bytes": logical,
            "stored_bytes": stored,
            "dedup_ratio": (logical / stored) if stored else 1.0,
            "per_tenant": per_tenant,
        }

    def verify(self, jobs: int = 1) -> Dict[str, Any]:
        """Whole-service integrity check: root bank + every tenant.

        Each namespace verifies its own manifests/segments; the root's
        report carries the orphan scan (tenant manifests pin shared
        segments there).  ``ok`` is the conjunction.
        """
        reports = {"_root": self.root_bank.verify(jobs=jobs)}
        for name in self.list_tenants():
            reports[name] = self.bank(name, create=False).verify(jobs=jobs)
        return {
            "schema": "repro/service/verify/v1",
            "ok": all(r["ok"] for r in reports.values()),
            "namespaces": reports,
        }

    def gc(self, dry_run: bool = False, tmp_ttl_seconds: float = 3600.0) -> Dict[str, Any]:
        """Service-wide gc: delegates to the (tenant-aware) root bank."""
        return self.root_bank.gc(dry_run=dry_run, tmp_ttl_seconds=tmp_ttl_seconds)
