"""Metrics registry: counters, gauges, log2 histograms, step timelines.

Everything here is stamped with *simulated* time and designed so that a
snapshot is (a) plain JSON data — string keys, lists, numbers — and (b)
bit-for-bit reproducible for the same seed: instruments are updated in
event-dispatch order, snapshots render with sorted keys, and timelines
decimate deterministically when they grow past their sample budget.

The JSON-purity rule matters because snapshots round-trip through the run
cache (:mod:`repro.harness.runcache`): a payload that survives
``json.loads(json.dumps(payload))`` unchanged is what makes warm-cache
hits byte-identical to fresh runs.
"""

from __future__ import annotations

import json
import math
from typing import Any, Dict, List, Optional, Sequence

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "Timeline",
    "MetricsRegistry",
    "canonical_json",
    "quantile_from_buckets",
    "quantile_from_snapshot",
    "time_weighted_mean",
]

#: Bucket key for zero/negative observations (sorts below any exponent).
ZERO_BUCKET = -(10**6)


def canonical_json(obj: Any) -> str:
    """The one true rendering: sorted keys, no whitespace, strict floats.

    Used for snapshot byte-identity comparisons and artifact files.
    """
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=False)


class Counter:
    """A monotonically increasing integer."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        """Add ``amount`` (default 1) to the running total."""
        self.value += amount


class Gauge:
    """A point-in-time value (last write wins)."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value: float = 0.0

    def set(self, value: float) -> None:
        """Overwrite the current value."""
        self.value = value


class Histogram:
    """Log2-bucketed distribution of non-negative observations.

    An observation ``v > 0`` lands in bucket ``floor(log2(v))`` (so bucket
    ``e`` covers ``[2^e, 2^(e+1))``); zero and negative values land in the
    dedicated ``"zero"`` bucket.  Works for byte sizes (positive
    exponents) and sub-second durations (negative exponents) alike.
    """

    __slots__ = ("count", "total", "buckets")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self.buckets: Dict[int, int] = {}

    def observe(self, value: float) -> None:
        """Record one observation into its log2 bucket."""
        self.count += 1
        self.total += value
        if value > 0:
            e = math.floor(math.log2(value))
        else:
            e = None
        if e is None:
            self.buckets[ZERO_BUCKET] = self.buckets.get(ZERO_BUCKET, 0) + 1
        else:
            self.buckets[e] = self.buckets.get(e, 0) + 1

    @property
    def mean(self) -> float:
        """Arithmetic mean of all observations (0 when empty)."""
        return self.total / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Estimate the ``q``-quantile from the log2 buckets.

        Nearest-rank walk over the buckets in ascending value order, with
        linear interpolation inside the winning bucket ``[2^e, 2^(e+1))``;
        observations in the zero bucket contribute 0.  ``quantile(1.0)``
        returns the top bucket's upper bound — the tightest value the
        bucketing can still prove is an upper bound.
        """
        return quantile_from_buckets(self.buckets, self.count, q)

    def snapshot(self) -> Dict[str, Any]:
        """Plain-JSON rendering: count, sum, and string-keyed buckets."""
        buckets = {
            ("zero" if e == ZERO_BUCKET else str(e)): n
            for e, n in self.buckets.items()
        }
        return {"count": self.count, "sum": self.total, "buckets": buckets}


def quantile_from_buckets(
    buckets: Dict[int, int], count: int, q: float
) -> float:
    """The shared log2-bucket quantile estimator (see :meth:`Histogram.quantile`).

    ``buckets`` maps exponents to counts (:data:`ZERO_BUCKET` for the
    zero bucket); ``count`` is the total observation count.
    """
    if count <= 0:
        return 0.0
    q = min(1.0, max(0.0, q))
    rank = max(1, math.ceil(q * count))
    cum = 0
    for e in sorted(buckets):
        n = buckets[e]
        if n <= 0:
            continue
        cum += n
        if cum >= rank:
            if e == ZERO_BUCKET:
                return 0.0
            lo, hi = 2.0 ** e, 2.0 ** (e + 1)
            frac = (rank - (cum - n)) / n
            return lo + frac * (hi - lo)
    return 0.0  # pragma: no cover - cum always reaches count >= rank


def quantile_from_snapshot(snapshot: Dict[str, Any], q: float) -> float:
    """:func:`quantile_from_buckets` over a histogram's plain-JSON snapshot
    (the ``{"count", "sum", "buckets"}`` dict :meth:`Histogram.snapshot`
    renders), so reports can quote quantiles without the live instrument.
    """
    raw = snapshot.get("buckets") or {}
    buckets = {
        (ZERO_BUCKET if key == "zero" else int(key)): int(n)
        for key, n in raw.items()
    }
    return quantile_from_buckets(buckets, int(snapshot.get("count", 0)), q)


def time_weighted_mean(samples: Sequence[Sequence[float]], end_time: float) -> float:
    """Mean of step samples ``(t, value)`` over [first sample, end_time]
    (0 if there are none): a :class:`Timeline`'s, or its snapshot's."""
    if not samples:
        return 0.0
    area = 0.0
    for (t0, v0), (t1, _v1) in zip(samples, samples[1:]):
        area += v0 * (t1 - t0)
    last_t, last_v = samples[-1]
    if end_time > last_t:
        area += last_v * (end_time - last_t)
    span = max(end_time, last_t) - samples[0][0]
    return area / span if span > 0 else samples[0][1]


class Timeline:
    """Step samples ``(t, value)`` of one quantity over simulated time.

    Used for per-resource utilization: disk busy slots, network link and
    fabric occupancy, CPU-per-node.  Growth is bounded by deterministic
    decimation: when the sample budget fills, every other retained sample
    is dropped and the acceptance stride doubles, so the same run always
    keeps exactly the same samples regardless of budget pressure history.
    """

    __slots__ = ("samples", "stride", "_offered", "max_samples", "last_value")

    def __init__(self, max_samples: int = 8192) -> None:
        self.samples: List[List[float]] = []
        self.stride = 1
        self._offered = 0
        self.max_samples = max_samples
        self.last_value: float = 0.0

    def add(self, t: float, value: float) -> None:
        """Offer one sample; kept only when it lands on the current stride."""
        self.last_value = value
        if self._offered % self.stride == 0:
            if len(self.samples) >= self.max_samples:
                self.samples = self.samples[::2]
                self.stride *= 2
                if self._offered % self.stride != 0:
                    self._offered += 1
                    return
            self.samples.append([t, value])
        self._offered += 1

    def snapshot(self) -> Dict[str, Any]:
        """Plain-JSON rendering: stride, offered count, retained samples."""
        return {
            "stride": self.stride,
            "n_offered": self._offered,
            "last_value": self.last_value,
            "samples": [list(s) for s in self.samples],
        }


class MetricsRegistry:
    """Named instruments, created on first use.

    One registry per telemetry session; nothing here touches host wall
    time, so a registry's snapshot is a pure function of the simulated
    history that fed it.
    """

    __slots__ = ("_counters", "_gauges", "_histograms", "_timelines")

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}
        self._timelines: Dict[str, Timeline] = {}

    # -- instrument accessors (create on first use) -------------------------

    def counter(self, name: str) -> Counter:
        """The named :class:`Counter`, created on first use."""
        c = self._counters.get(name)
        if c is None:
            c = self._counters[name] = Counter()
        return c

    def gauge(self, name: str) -> Gauge:
        """The named :class:`Gauge`, created on first use."""
        g = self._gauges.get(name)
        if g is None:
            g = self._gauges[name] = Gauge()
        return g

    def histogram(self, name: str) -> Histogram:
        """The named :class:`Histogram`, created on first use."""
        h = self._histograms.get(name)
        if h is None:
            h = self._histograms[name] = Histogram()
        return h

    def timeline(self, name: str, max_samples: int = 8192) -> Timeline:
        """The named :class:`Timeline`, created on first use."""
        t = self._timelines.get(name)
        if t is None:
            t = self._timelines[name] = Timeline(max_samples=max_samples)
        return t

    # -- shorthands used by tracepoint sites --------------------------------

    def inc(self, name: str, amount: int = 1) -> None:
        """Increment the named counter."""
        self.counter(name).inc(amount)

    def observe(self, name: str, value: float) -> None:
        """Record one observation into the named histogram."""
        self.histogram(name).observe(value)

    def sample(self, name: str, t: float, value: float) -> None:
        """Offer one ``(t, value)`` sample to the named timeline."""
        self.timeline(name).add(t, value)

    # -- export -------------------------------------------------------------

    def snapshot(self, end_time: Optional[float] = None) -> Dict[str, Any]:
        """Plain-JSON rendering of every instrument (deterministic).

        ``end_time`` (the simulation's final instant) is recorded so
        reports can compute time-weighted utilizations without the live
        simulator.
        """
        snap: Dict[str, Any] = {
            "counters": {k: c.value for k, c in sorted(self._counters.items())},
            "gauges": {k: g.value for k, g in sorted(self._gauges.items())},
            "histograms": {
                k: h.snapshot() for k, h in sorted(self._histograms.items())
            },
            "timelines": {
                k: t.snapshot() for k, t in sorted(self._timelines.items())
            },
        }
        if end_time is not None:
            snap["end_time"] = end_time
        return snap
