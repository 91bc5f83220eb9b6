"""Archive-scale anomaly diagnosis over a TraceBank.

DIO-style automated diagnosis (PAPERS.md): instead of eyeballing one
run, fingerprint *every* archived run, find the ones that do not look
like their peers, and explain each with a causal slice
(:mod:`repro.obs.slice`).  The pipeline:

1. **Fingerprint** each run by its DFG shape (the directly-follows edge
   set over per-``(run, rank)`` op sequences) plus its per-layer
   self-time vector, read as column projections of the archived
   segments — runs never re-execute.
2. **Group** runs by their workload identity (framework, workload, args,
   nprocs) — only peers are comparable — and **cluster** them globally
   by fingerprint distance (edge-set Jaccard + normalized layer-vector
   L1), so a sweep over thousands of runs reads as a handful of shapes.
3. **Score** each run against its group with median/MAD scoring
   (:func:`robust_threshold`): elapsed time, per-layer self seconds,
   and the straggler spread all gate with
   ``max(k*1.4826*MAD, rel_floor*|median|, abs_floor)``.  With
   ``--against`` the reference is a single pinned baseline run instead
   of the group median.
4. **Auto-slice** every outlier (straggler anchor) and emit the ranked
   "suspect layer + suspect op + suspect rank" report.

Per-run work fans out over :func:`~repro.fanout.parallel_map`
and merges in sorted-run order, so the ``repro/obs/diagnose/v1`` report
is byte-identical across ``jobs=1``/``jobs=N`` and cold/warm cache.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Optional, Tuple

from repro.errors import StoreCorruptionError, StoreError, TelemetryError
from repro.fanout import parallel_map
from repro.obs.critpath import build_forest, span_rollup, straggler
from repro.obs.metrics import canonical_json
from repro.obs.slice import MAX_CHAIN_ROOTS, slice_from_store

__all__ = [
    "DIAGNOSE_SCHEMA",
    "fingerprint_run",
    "fingerprint_distance",
    "cluster_fingerprints",
    "diagnose_archive",
    "render_diagnose",
]

DIAGNOSE_SCHEMA = "repro/obs/diagnose/v1"

#: Manifest meta keys that define "the same experiment" — runs are only
#: scored against peers sharing all of them.  Scenario / seed / status
#: are deliberately excluded: those are the axes anomalies live on.
GROUP_KEYS = (
    "kind",
    "framework",
    "framework_params",
    "workload",
    "workload_args",
    "nprocs",
)

#: Default robust-scoring knobs.  The simulator is deterministic, so the
#: relative floor is tight — a few percent of the group median is
#: already a real behaviour change; the absolute floor absorbs float
#: noise on near-zero layers.
DEFAULT_K = 4.0
DEFAULT_REL_FLOOR = 0.05
DEFAULT_ABS_FLOOR = 1e-4

#: Default fingerprint-distance radius for clustering.
DEFAULT_EPS = 0.25

#: Groups smaller than this have no meaningful median (unless --against
#: pins an external reference).
MIN_GROUP = 3

#: Normal-consistency constant: sigma ~= 1.4826 * MAD for Gaussian noise.
MAD_CONSISTENCY = 1.4826


def median(values: List[float]) -> float:
    """The sample median (mean of the middle pair for even counts)."""
    ordered = sorted(values)
    n = len(ordered)
    mid = n // 2
    if n % 2:
        return ordered[mid]
    return 0.5 * (ordered[mid - 1] + ordered[mid])


def mad(values: List[float], center: float) -> float:
    """Median absolute deviation around ``center``."""
    return median([abs(v - center) for v in values])


def robust_threshold(
    center: float,
    spread: float,
    k: float,
    rel_floor: float,
    abs_floor: float,
) -> float:
    """The change threshold: ``max(k*1.4826*MAD, floors)``.

    "How far from the median counts as anomalous" has exactly this one
    definition for every series the diagnosis scores.
    """
    return max(k * MAD_CONSISTENCY * spread, rel_floor * abs(center), abs_floor)


# -- fingerprints ------------------------------------------------------------


def _segment_seq(bank, sha: str) -> List[Tuple[str, str, float, float]]:
    """One segment's ``(name, layer, ts, dur)`` sequence, capture order,
    projected from the four columns the fingerprint needs."""
    cols = bank.read_columns(sha, ("name", "layer", "timestamp", "duration"))
    return [
        (name, layer, ts or 0.0, dur or 0.0)
        for name, layer, ts, dur in zip(
            cols["name"], cols["layer"], cols["timestamp"], cols["duration"]
        )
    ]


def fingerprint_run(bank, manifest) -> Dict[str, Any]:
    """One run's diagnosis fingerprint, straight from archived segments.

    ``manifest`` is the run's :class:`~repro.store.manifest.RunManifest`,
    as the caller listed it.  DFG shape (edge set), per-layer and per-op
    self time (span containment recovered per rank, exactly the critpath
    rules, summed node by node across every rank), and per-rank
    completion.  Timestamps are shifted to the run's first event so
    fingerprints from different capture epochs compare.  Raises
    :class:`~repro.errors.StoreCorruptionError` for a segment that is
    missing, mis-hashed or undecodable.
    """
    per_rank: Dict[int, List[Tuple[str, str, float, float]]] = {}
    edges: Dict[str, int] = {}
    for seg in manifest.segments:
        seq = _segment_seq(bank, seg.sha256)
        per_rank.setdefault(seg.rank, []).extend(seq)
        names = [step[0] for step in seq]
        for a, b in zip(names, names[1:]):
            key = "%s->%s" % (a, b)
            edges[key] = edges.get(key, 0) + 1

    origin = min(
        (ts for seq in per_rank.values() for (_n, _l, ts, _d) in seq),
        default=0.0,
    )
    spans = [
        (0, rank, name, layer, ts - origin, dur)
        for rank in sorted(per_rank)
        for (name, layer, ts, dur) in per_rank[rank]
    ]
    forest = build_forest(spans)
    total = span_rollup(root for track in sorted(forest) for root in forest[track])
    ends: Dict[int, float] = {}
    for _pid, rank, _name, _layer, ts, dur in spans:
        ends[rank] = max(ends.get(rank, 0.0), ts + dur)
    ranks = [{"rank": rank, "end": ends[rank]} for rank in sorted(ends)]

    fingerprint = {
        "run_id": manifest.run_id,
        "meta": {
            k: manifest.meta[k]
            for k in ("kind", "scenario", "status", "framework", "workload",
                      "nprocs", "seed")
            if k in manifest.meta
        },
        "group": canonical_json({k: manifest.meta.get(k) for k in GROUP_KEYS}),
        "n_events": manifest.n_events,
        "elapsed": max((r["end"] for r in ranks), default=0.0),
        "layers": {k: v for k, v in sorted(total["layers"].items())},
        "ops": {k: total["names"][k] for k in sorted(total["names"])},
        "edges": {k: edges[k] for k in sorted(edges)},
        "ranks": ranks,
    }
    return json.loads(canonical_json(fingerprint))


def _fingerprint_task(task: Tuple[Any, Any]) -> Dict[str, Any]:
    """Parallel-map worker entry: fingerprint one run of the given bank.

    A run whose segments cannot be read comes back as ``{run_id,
    error}`` instead of stopping the whole diagnosis.
    """
    bank, manifest = task
    try:
        return fingerprint_run(bank, manifest)
    except StoreCorruptionError as exc:
        return {"run_id": manifest.run_id, "error": str(exc)}


def _slice_task(task: Tuple[Any, str, int]) -> Optional[Dict[str, Any]]:
    """Parallel-map worker entry: auto-slice one outlier (straggler)."""
    bank, run_id, max_roots = task
    try:
        return slice_from_store(
            bank, run_id, anchor="straggler", max_roots=max_roots,
        )[0]
    except (TelemetryError, StoreError):
        return None


# -- distance + clustering ---------------------------------------------------


def fingerprint_distance(a: Dict[str, Any], b: Dict[str, Any]) -> float:
    """Distance in ``[0, 1]``: DFG-shape Jaccard + layer-vector L1.

    Half the weight is *which ops follow which* (edge-set Jaccard
    distance), half is *where the time went* (L1 between the normalized
    per-layer self-time vectors).
    """
    ea, eb = set(a["edges"]), set(b["edges"])
    union = ea | eb
    shape = 1.0 - (len(ea & eb) / len(union)) if union else 0.0
    la, lb = a["layers"], b["layers"]
    ta = sum(la.values()) or 1.0
    tb = sum(lb.values()) or 1.0
    l1 = sum(
        abs(la.get(k, 0.0) / ta - lb.get(k, 0.0) / tb) for k in set(la) | set(lb)
    )
    return 0.5 * shape + 0.5 * (l1 / 2.0)


def cluster_fingerprints(
    fingerprints: List[Dict[str, Any]], eps: float = DEFAULT_EPS
) -> List[Dict[str, Any]]:
    """Greedy leader clustering in run-id order (deterministic).

    Each run joins the first cluster whose *leader* (first member) is
    within ``eps``; otherwise it founds a new cluster.  Cheap, stable,
    and good enough to read a thousand-run archive as a few shapes.
    """
    clusters: List[Dict[str, Any]] = []
    leaders: List[Dict[str, Any]] = []
    for fp in sorted(fingerprints, key=lambda f: f["run_id"]):
        placed = False
        for i, leader in enumerate(leaders):
            if fingerprint_distance(leader, fp) <= eps:
                clusters[i]["members"].append(fp["run_id"])
                placed = True
                break
        if not placed:
            leaders.append(fp)
            clusters.append({"leader": fp["run_id"], "members": [fp["run_id"]]})
    for c in clusters:
        c["size"] = len(c["members"])
    return clusters


# -- robust scoring ----------------------------------------------------------


def _run_features(fp: Dict[str, Any]) -> Dict[str, float]:
    """The scalar features a run is scored on (all time-like: larger is
    worse)."""
    features = {"elapsed": fp["elapsed"]}
    for layer, v in fp["layers"].items():
        features["layer:%s" % layer] = v
    ends = [r["end"] for r in fp["ranks"]]
    features["rank_spread"] = (max(ends) - min(ends)) if ends else 0.0
    return features


def _score_features(
    values: Dict[str, List[float]],
    mine: Dict[str, float],
    k: float,
    rel_floor: float,
    abs_floor: float,
    against: Optional[Dict[str, float]] = None,
) -> List[Dict[str, Any]]:
    """Robust z-style scores for one run's features against its peers.

    ``score > 1`` means the value sits beyond the change threshold in
    the *worse* (larger) direction.  With ``against``, the reference is
    that single run's value and MAD collapses to the floors.
    """
    rows = []
    for name in sorted(mine):
        value = mine[name]
        if against is not None:
            center = against.get(name, 0.0)
            spread = 0.0
        else:
            series = values.get(name, [])
            center = median(series) if series else 0.0
            spread = mad(series, center) if series else 0.0
        threshold = robust_threshold(center, spread, k, rel_floor, abs_floor)
        deviation = value - center
        rows.append(
            {
                "feature": name,
                "value": value,
                "median": center,
                "mad": spread,
                "threshold": threshold,
                "score": deviation / threshold,
            }
        )
    return rows


def _suspect_rank(fp: Dict[str, Any]) -> Optional[int]:
    """The run's straggler rank (latest completion, ties to smallest)."""
    if not fp["ranks"]:
        return None
    return straggler({r["rank"]: r["end"] for r in fp["ranks"]})


def _suspect_op(
    fp: Dict[str, Any],
    op_values: Dict[str, List[float]],
    k: float,
    rel_floor: float,
    abs_floor: float,
    against: Optional[Dict[str, Any]] = None,
) -> Optional[Dict[str, Any]]:
    """The op whose total time deviates most from the group median."""
    best = None
    for name in sorted(fp["ops"]):
        value = fp["ops"][name]["total"]
        if against is not None:
            center = against["ops"].get(name, {}).get("total", 0.0)
            spread = 0.0
        else:
            series = op_values.get(name, [])
            center = median(series) if series else 0.0
            spread = mad(series, center) if series else 0.0
        threshold = robust_threshold(center, spread, k, rel_floor, abs_floor)
        score = (value - center) / threshold
        row = {"op": name, "total": value, "median": center, "score": score}
        if best is None or (row["score"], row["op"]) > (best["score"], best["op"]):
            best = row
    return best


# -- the diagnosis pipeline --------------------------------------------------


def diagnose_archive(
    store_root: str,
    run_prefixes: Optional[List[str]] = None,
    against: Optional[str] = None,
    jobs: int = 1,
    k: float = DEFAULT_K,
    eps: float = DEFAULT_EPS,
    rel_floor: float = DEFAULT_REL_FLOOR,
    abs_floor: float = DEFAULT_ABS_FLOOR,
    max_roots: int = MAX_CHAIN_ROOTS,
    slice_outliers: bool = True,
) -> Dict[str, Any]:
    """Diagnose every (selected) archived run; return the ranked report.

    ``run_prefixes`` restricts the candidate set (any-prefix match, by
    manifest file name); ``against`` pins a baseline run (prefix) every
    candidate is scored against instead of its group median.  Fan-out
    over ``jobs`` worker processes changes wall time only — the report
    is byte-identical.

    A run whose segments cannot be read (missing, mis-hashed or
    undecodable) is listed under ``unreadable`` with its error and left
    out of groups, clusters and outliers; the other runs are diagnosed.
    """
    from repro.store.bank import TraceBank

    bank = TraceBank(store_root, create=False)
    _total, manifests = bank.select_manifests(run_prefixes or None)
    if not manifests:
        raise StoreError(
            "no archived runs match%s in %s"
            % (" prefixes %s" % run_prefixes if run_prefixes else "", store_root)
        )
    against_m = bank.manifest(against) if against else None
    against_id = against_m.run_id if against_m else None

    tasks = [(bank, m) for m in manifests]
    if against_m is not None and against_id not in {m.run_id for m in manifests}:
        tasks.append((bank, against_m))
    by_id = {r["run_id"]: r for r in parallel_map(_fingerprint_task, tasks, jobs=jobs)}
    against_fp = by_id[against_id] if against_id else None
    if against_fp is not None and "error" in against_fp:
        raise StoreCorruptionError(
            "baseline run %s is unreadable: %s" % (against_id[:12], against_fp["error"])
        )
    unreadable = [by_id[m.run_id] for m in manifests if "error" in by_id[m.run_id]]
    candidates = [
        by_id[m.run_id] for m in manifests
        if m.run_id != against_id and "error" not in by_id[m.run_id]
    ]

    # Group peers; collect group-wide feature series.
    groups: Dict[str, List[Dict[str, Any]]] = {}
    for fp in candidates:
        groups.setdefault(fp["group"], []).append(fp)

    outliers: List[Dict[str, Any]] = []
    group_rows: List[Dict[str, Any]] = []
    for gi, group_key in enumerate(sorted(groups)):
        members = groups[group_key]
        insufficient = against_fp is None and len(members) < MIN_GROUP
        group_rows.append(
            {
                "key": json.loads(group_key),
                "members": [fp["run_id"] for fp in members],
                "insufficient": insufficient,
            }
        )
        if insufficient:
            continue
        feature_values: Dict[str, List[float]] = {}
        op_values: Dict[str, List[float]] = {}
        op_names = sorted({name for fp in members for name in fp["ops"]})
        for fp in members:
            for name, v in _run_features(fp).items():
                feature_values.setdefault(name, []).append(v)
            for name in op_names:
                op_values.setdefault(name, []).append(
                    fp["ops"].get(name, {}).get("total", 0.0)
                )
        against_features = _run_features(against_fp) if against_fp else None
        for fp in members:
            rows = _score_features(
                feature_values, _run_features(fp), k, rel_floor, abs_floor,
                against=against_features,
            )
            flagged = [r for r in rows if r["score"] > 1.0]
            if not flagged:
                continue
            score = max(r["score"] for r in flagged)
            layer_rows = sorted(
                (r for r in rows if r["feature"].startswith("layer:")),
                key=lambda r: (-r["score"], r["feature"]),
            )
            suspects = [
                dict(r, layer=r["feature"].split(":", 1)[1]) for r in layer_rows
            ]
            outliers.append(
                {
                    "run_id": fp["run_id"],
                    "group": gi,
                    "meta": fp["meta"],
                    "score": score,
                    "flagged": flagged,
                    "suspects": suspects,
                    "suspect_layer": suspects[0]["layer"] if suspects else None,
                    "suspect_op": _suspect_op(
                        fp, op_values, k, rel_floor, abs_floor, against=against_fp
                    ),
                    "suspect_rank": _suspect_rank(fp),
                }
            )

    outliers.sort(key=lambda o: (-o["score"], o["run_id"]))

    if slice_outliers and outliers:
        slice_tasks = [(bank, o["run_id"], max_roots) for o in outliers]
        slices = parallel_map(_slice_task, slice_tasks, jobs=jobs)
        for o, s in zip(outliers, slices):
            o["slice"] = s
            # An overlapping injected fault is the strongest evidence
            # there is — let it lead the suspect ranking.
            if s and s["fault_candidates"]:
                fault_layer = s["fault_candidates"][0]["layer"]
                for suspect in o["suspects"]:
                    if suspect["layer"] == fault_layer:
                        suspect["fault_overlap"] = True
    else:
        for o in outliers:
            o["slice"] = None

    clusters = cluster_fingerprints(candidates, eps=eps)

    report = {
        "schema": DIAGNOSE_SCHEMA,
        "params": {
            "k": k,
            "eps": eps,
            "rel_floor": rel_floor,
            "abs_floor": abs_floor,
            "max_roots": max_roots,
            "run_prefixes": sorted(run_prefixes) if run_prefixes else None,
            "against": against_id,
            "min_group": MIN_GROUP,
        },
        "runs": [
            {
                "run_id": fp["run_id"],
                "meta": fp["meta"],
                "n_events": fp["n_events"],
                "elapsed": fp["elapsed"],
                "layers": fp["layers"],
                "straggler_rank": _suspect_rank(fp),
            }
            for fp in candidates
        ],
        "groups": group_rows,
        "clusters": clusters,
        "outliers": outliers,
        "unreadable": unreadable,
        "summary": {
            "runs": len(candidates),
            "groups": len(group_rows),
            "insufficient_groups": sum(
                1 for g in group_rows if g["insufficient"]
            ),
            "clusters": len(clusters),
            "outliers": len(outliers),
            "unreadable": len(unreadable),
        },
    }
    return json.loads(canonical_json(report))


def render_diagnose(report: Dict[str, Any]) -> str:
    """Human rendering: headline + the ranked suspect table."""
    s = report["summary"]
    lines = [
        "diagnosed %d run(s) in %d group(s) (%d too small to gate), "
        "%d cluster(s): %d outlier(s)"
        % (s["runs"], s["groups"], s["insufficient_groups"], s["clusters"],
           s["outliers"])
    ]
    for u in report["unreadable"]:
        lines.append("unreadable: %s: %s" % (u["run_id"][:12], u["error"]))
    if not report["outliers"]:
        lines.append("no outliers — every run sits inside its group's band")
        return "\n".join(lines) + "\n"
    lines.append(
        "%-14s %-14s %9s  %-10s %-22s %s"
        % ("run", "scenario", "score", "layer", "op", "rank")
    )
    for o in report["outliers"]:
        op = o["suspect_op"]["op"] if o["suspect_op"] else "-"
        lines.append(
            "%-14s %-14s %8.1fx  %-10s %-22s %s"
            % (
                o["run_id"][:12],
                str(o["meta"].get("scenario", o["meta"].get("kind", "?"))),
                o["score"],
                o["suspect_layer"] or "-",
                op,
                "-" if o["suspect_rank"] is None else o["suspect_rank"],
            )
        )
    for o in report["outliers"]:
        sl = o.get("slice")
        if not sl:
            continue
        lines.append(
            "%s: chain crosses %s; window %.6f..%.6f s"
            % (
                o["run_id"][:12],
                " -> ".join(sl["layers_crossed"]) or "(no chain)",
                sl["window_rel"][0],
                sl["window_rel"][1],
            )
        )
    return "\n".join(lines) + "\n"
