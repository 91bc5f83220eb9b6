"""Prometheus text exposition (format 0.0.4) over a metrics snapshot.

The service keeps its request metrics in the repo's own
:class:`~repro.obs.metrics.MetricsRegistry`; this module renders a
registry snapshot as the Prometheus text format so any off-the-shelf
scraper can watch a live TraceBank service (``GET /v1/metrics?format=
prom``).

Instrument names may carry labels inline — ``service.request_seconds
{route=ingest,status=202}`` — which :func:`split_labels` separates into
the family name and a label map.  Instruments sharing a family render
under one ``# HELP``/``# TYPE`` header, label values are escaped per the
spec (``\\``, ``"``, newline), and log2 histograms become *cumulative*
``_bucket{le="..."}`` series (each bucket's ``le`` is its upper bound
``2^(e+1)``; the zero bucket is ``le="0"``; ``+Inf`` always equals
``_count``).

:func:`parse_prometheus` is the matching reader — enough of a parser to
round-trip everything this module emits, which is what the golden-format
tests and the CI live-smoke job assert with.
"""

from __future__ import annotations

import math
import re
from typing import Any, Dict, List, Optional, Tuple

from repro.obs.metrics import time_weighted_mean

__all__ = [
    "escape_label_value",
    "split_labels",
    "prom_name",
    "render_prometheus",
    "parse_prometheus",
]

_NAME_OK = re.compile(r"[^a-zA-Z0-9_:]")
_SAMPLE_LINE = re.compile(
    r'^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)'
    r'(?:\{(?P<labels>.*)\})?'
    r'\s+(?P<value>\S+)\s*$'
)
_LABEL_PAIR = re.compile(r'([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"')


def escape_label_value(value: str) -> str:
    """Escape one label value per the exposition spec."""
    return (
        value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    )


def _unescape_label_value(value: str) -> str:
    out: List[str] = []
    i = 0
    while i < len(value):
        ch = value[i]
        if ch == "\\" and i + 1 < len(value):
            nxt = value[i + 1]
            out.append({"n": "\n", "\\": "\\", '"': '"'}.get(nxt, "\\" + nxt))
            i += 2
        else:
            out.append(ch)
            i += 1
    return "".join(out)


def split_labels(key: str) -> Tuple[str, Dict[str, str]]:
    """Split ``"a.b{k=v,k2=v2}"`` into ``("a.b", {"k": "v", "k2": "v2"})``.

    A key without a ``{...}`` suffix has no labels.  Label values run to
    the next comma or the closing brace — registry keys never embed
    those characters in values (tenant/route names cannot), and the
    renderer escapes whatever does appear.
    """
    base, brace, rest = key.partition("{")
    if not brace or not rest.endswith("}"):
        return key, {}
    labels: Dict[str, str] = {}
    body = rest[:-1]
    for piece in body.split(","):
        if not piece:
            continue
        name, sep, value = piece.partition("=")
        if sep:
            labels[name.strip()] = value
    return base, labels


def prom_name(name: str, namespace: str = "repro") -> str:
    """Sanitize a dotted registry name into a Prometheus metric name."""
    flat = _NAME_OK.sub("_", name)
    return "%s_%s" % (namespace, flat) if namespace else flat


def _fmt(value: float) -> str:
    """Float rendering that round-trips (repr) but keeps ints clean."""
    if isinstance(value, bool):  # pragma: no cover - no bools in snapshots
        return "1" if value else "0"
    if isinstance(value, int) or (isinstance(value, float) and value.is_integer()
                                  and abs(value) < 1e15):
        return str(int(value))
    return repr(float(value))


def _label_str(labels: Dict[str, str]) -> str:
    if not labels:
        return ""
    inner = ",".join(
        '%s="%s"' % (k, escape_label_value(str(v)))
        for k, v in sorted(labels.items())
    )
    return "{%s}" % inner


def render_prometheus(
    snapshot: Dict[str, Any], namespace: str = "repro"
) -> str:
    """Render one registry snapshot as Prometheus exposition text.

    Families render in sorted order; within a family, label sets render
    in sorted order — byte-stable for byte-identical snapshots.
    """
    lines: List[str] = []
    end_time = snapshot.get("end_time")

    # counters -> <name>_total counter families
    families: Dict[str, List[Tuple[Dict[str, str], float]]] = {}
    for key, value in (snapshot.get("counters") or {}).items():
        base, labels = split_labels(key)
        families.setdefault(base, []).append((labels, value))
    for base in sorted(families):
        name = prom_name(base, namespace) + "_total"
        lines.append("# HELP %s repro counter %s" % (name, base))
        lines.append("# TYPE %s counter" % name)
        for labels, value in sorted(families[base], key=lambda lv: sorted(lv[0].items())):
            lines.append("%s%s %s" % (name, _label_str(labels), _fmt(value)))

    # gauges -> gauge families; timelines ride along as last/mean gauges
    gauge_families: Dict[str, List[Tuple[Dict[str, str], float]]] = {}
    for key, value in (snapshot.get("gauges") or {}).items():
        base, labels = split_labels(key)
        gauge_families.setdefault(base, []).append((labels, value))
    for key, tl in (snapshot.get("timelines") or {}).items():
        base, labels = split_labels(key)
        gauge_families.setdefault(base + ".last", []).append(
            (labels, float(tl.get("last_value", 0.0)))
        )
        if end_time is not None:
            gauge_families.setdefault(base + ".mean", []).append(
                (labels, time_weighted_mean(tl.get("samples") or [], float(end_time)))
            )
    if end_time is not None:
        gauge_families.setdefault("end_time_seconds", []).append(
            ({}, float(end_time))
        )
    for base in sorted(gauge_families):
        name = prom_name(base, namespace)
        lines.append("# HELP %s repro gauge %s" % (name, base))
        lines.append("# TYPE %s gauge" % name)
        for labels, value in sorted(gauge_families[base],
                                    key=lambda lv: sorted(lv[0].items())):
            lines.append("%s%s %s" % (name, _label_str(labels), _fmt(value)))

    # histograms -> cumulative bucket families
    hist_families: Dict[str, List[Tuple[Dict[str, str], Dict[str, Any]]]] = {}
    for key, h in (snapshot.get("histograms") or {}).items():
        base, labels = split_labels(key)
        hist_families.setdefault(base, []).append((labels, h))
    for base in sorted(hist_families):
        name = prom_name(base, namespace)
        lines.append("# HELP %s repro log2 histogram %s" % (name, base))
        lines.append("# TYPE %s histogram" % name)
        for labels, h in sorted(hist_families[base],
                                key=lambda lv: sorted(lv[0].items())):
            raw = h.get("buckets") or {}
            # zero bucket (le="0") first, then exponents ascending.
            keyed: List[Tuple[float, str, int]] = []
            for bkey, n in raw.items():
                if bkey == "zero":
                    keyed.append((float("-inf"), "0", int(n)))
                else:
                    e = int(bkey)
                    keyed.append((float(e), _fmt(2.0 ** (e + 1)), int(n)))
            cum = 0
            for _order, le, n in sorted(keyed):
                cum += n
                bucket_labels = dict(labels)
                bucket_labels["le"] = le
                lines.append(
                    "%s_bucket%s %d" % (name, _label_str(bucket_labels), cum)
                )
            inf_labels = dict(labels)
            inf_labels["le"] = "+Inf"
            count = int(h.get("count", 0))
            lines.append("%s_bucket%s %d" % (name, _label_str(inf_labels), count))
            lines.append(
                "%s_sum%s %s" % (name, _label_str(labels), _fmt(h.get("sum", 0.0)))
            )
            lines.append("%s_count%s %d" % (name, _label_str(labels), count))
    return "\n".join(lines) + "\n"


def parse_prometheus(text: str) -> Dict[str, Any]:
    """Parse exposition text back into families + samples.

    Returns ``{"families": {name: {"type", "help"}}, "samples":
    [{"name", "labels", "value"}, ...]}``.  Raises :class:`ValueError`
    on lines that are neither comments, blanks, nor well-formed samples,
    on samples for families with no preceding ``# TYPE``, and on
    non-monotonic histogram buckets — strict enough that "the exposition
    parses" is a meaningful CI assertion.
    """
    families: Dict[str, Dict[str, str]] = {}
    samples: List[Dict[str, Any]] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        if line.startswith("# HELP "):
            rest = line[len("# HELP "):]
            name, _, help_text = rest.partition(" ")
            families.setdefault(name, {})["help"] = help_text
            continue
        if line.startswith("# TYPE "):
            rest = line[len("# TYPE "):]
            name, _, type_text = rest.partition(" ")
            families.setdefault(name, {})["type"] = type_text.strip()
            continue
        if line.startswith("#"):
            continue
        m = _SAMPLE_LINE.match(line)
        if m is None:
            raise ValueError("line %d: malformed sample %r" % (lineno, line))
        labels: Dict[str, str] = {}
        if m.group("labels"):
            consumed = 0
            for lm in _LABEL_PAIR.finditer(m.group("labels")):
                labels[lm.group(1)] = _unescape_label_value(lm.group(2))
                consumed += 1
            if not consumed:
                raise ValueError("line %d: malformed labels %r" % (lineno, line))
        raw_value = m.group("value")
        try:
            value = float(raw_value)
        except ValueError:
            raise ValueError(
                "line %d: non-numeric value %r" % (lineno, raw_value)
            ) from None
        sample_name = m.group("name")
        base = sample_name
        for suffix in ("_bucket", "_sum", "_count", "_total"):
            if sample_name.endswith(suffix) and sample_name[: -len(suffix)] in families:
                base = sample_name[: -len(suffix)]
                break
        if base not in families or "type" not in families[base]:
            raise ValueError(
                "line %d: sample %r has no preceding # TYPE" % (lineno, sample_name)
            )
        samples.append({"name": sample_name, "labels": labels, "value": value})

    # histogram bucket cumulativity: within one (family, non-le labels)
    # series, counts must be non-decreasing as le increases.
    series: Dict[Tuple[str, Tuple[Tuple[str, str], ...]], List[Tuple[float, float]]] = {}
    for s in samples:
        if not s["name"].endswith("_bucket"):
            continue
        le_raw = s["labels"].get("le")
        if le_raw is None:
            raise ValueError("bucket sample without le label: %r" % s)
        le = math.inf if le_raw == "+Inf" else float(le_raw)
        rest = tuple(sorted((k, v) for k, v in s["labels"].items() if k != "le"))
        series.setdefault((s["name"], rest), []).append((le, s["value"]))
    for (name, rest), points in series.items():
        prev: Optional[float] = None
        for _le, count in sorted(points):
            if prev is not None and count < prev:
                raise ValueError(
                    "histogram %s%r buckets not cumulative" % (name, dict(rest))
                )
            prev = count
    return {"families": families, "samples": samples}
