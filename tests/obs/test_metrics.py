"""Metrics instruments: bucketing, decimation, snapshot purity."""

import json
import math

import pytest

from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    Timeline,
    canonical_json,
    quantile_from_snapshot,
    time_weighted_mean,
)


class TestCounterGauge:
    def test_counter_accumulates(self):
        c = Counter()
        c.inc()
        c.inc(41)
        assert c.value == 42

    def test_gauge_last_write_wins(self):
        g = Gauge()
        g.set(3.5)
        g.set(-1.0)
        assert g.value == -1.0


class TestHistogram:
    def test_log2_buckets_positive(self):
        h = Histogram()
        for v in (1, 2, 3, 4, 1024):
            h.observe(v)
        snap = h.snapshot()
        # 1 -> bucket 0; 2,3 -> bucket 1; 4 -> 2; 1024 -> 10
        assert snap["buckets"] == {"0": 1, "1": 2, "2": 1, "10": 1}
        assert snap["count"] == 5
        assert snap["sum"] == 1034

    def test_negative_exponents_for_subsecond_durations(self):
        h = Histogram()
        h.observe(0.25)  # 2^-2
        h.observe(0.0005)  # in [2^-11, 2^-10)
        buckets = h.snapshot()["buckets"]
        assert buckets["-2"] == 1
        assert buckets[str(math.floor(math.log2(0.0005)))] == 1

    def test_zero_and_negative_get_the_zero_bucket(self):
        h = Histogram()
        h.observe(0.0)
        h.observe(-3.0)
        assert h.snapshot()["buckets"] == {"zero": 2}

    def test_mean(self):
        h = Histogram()
        assert h.mean == 0.0
        h.observe(2.0)
        h.observe(4.0)
        assert h.mean == 3.0


class TestHistogramQuantile:
    """quantile(q) against exact log2 bucket bounds.

    The estimator is nearest-rank over the buckets with linear
    interpolation inside the winning bucket [2^e, 2^(e+1)) — every
    assertion here is derivable by hand from those bounds.
    """

    def test_empty_histogram_is_zero(self):
        assert Histogram().quantile(0.5) == 0.0

    def test_single_bucket_interpolates_linearly(self):
        h = Histogram()
        for _ in range(4):
            h.observe(5.0)  # all in bucket e=2 -> [4, 8)
        # ranks 1..4 of 4 -> frac 1/4 .. 4/4 across the 4-wide bucket
        assert h.quantile(0.25) == pytest.approx(4 + 0.25 * 4)
        assert h.quantile(0.50) == pytest.approx(4 + 0.50 * 4)
        assert h.quantile(1.00) == pytest.approx(8.0)

    def test_quantile_walks_buckets_in_value_order(self):
        h = Histogram()
        for v in (1.5, 1.5, 6.0, 20.0):  # buckets e=0 (x2), e=2, e=4
            h.observe(v)
        # rank(0.5 * 4) = 2 -> second obs of bucket [1,2) -> 1 + (2/2)*1
        assert h.quantile(0.5) == pytest.approx(2.0)
        # rank(0.75 * 4) = 3 -> sole obs of bucket [4,8)
        assert h.quantile(0.75) == pytest.approx(8.0)

    def test_quantile_one_is_top_bucket_upper_bound(self):
        h = Histogram()
        h.observe(0.004)  # e=-8 -> [2^-8, 2^-7)
        h.observe(0.020)  # e=-6 -> [2^-6, 2^-5)
        assert h.quantile(1.0) == pytest.approx(2.0 ** -5)

    def test_zero_bucket_quantiles_are_zero(self):
        h = Histogram()
        h.observe(0.0)
        h.observe(0.0)
        h.observe(4.0)
        assert h.quantile(0.5) == 0.0  # rank 2 of 3 still in zero bucket
        assert h.quantile(0.9) == pytest.approx(8.0)

    def test_q_is_clamped(self):
        h = Histogram()
        h.observe(1.0)
        assert h.quantile(-3.0) == h.quantile(0.0)
        assert h.quantile(7.0) == h.quantile(1.0) == pytest.approx(2.0)

    def test_quantile_from_snapshot_matches_live_histogram(self):
        h = Histogram()
        for v in (0.0, 0.3, 0.3, 1.7, 40.0):
            h.observe(v)
        snap = h.snapshot()
        for q in (0.0, 0.25, 0.5, 0.9, 0.99, 1.0):
            assert quantile_from_snapshot(snap, q) == pytest.approx(h.quantile(q))

    def test_quantile_from_snapshot_empty(self):
        assert quantile_from_snapshot({}, 0.5) == 0.0
        assert quantile_from_snapshot({"count": 0, "buckets": {}}, 0.5) == 0.0


class TestTimeline:
    def test_records_steps(self):
        tl = Timeline()
        tl.add(0.0, 1)
        tl.add(2.0, 3)
        assert tl.snapshot()["samples"] == [[0.0, 1], [2.0, 3]]
        assert tl.last_value == 3

    def test_decimation_is_deterministic_and_bounded(self):
        tl = Timeline(max_samples=8)
        for i in range(1000):
            tl.add(float(i), i)
        assert len(tl.samples) <= 8
        assert tl.stride > 1
        # Replaying the identical sequence gives the identical retained set.
        tl2 = Timeline(max_samples=8)
        for i in range(1000):
            tl2.add(float(i), i)
        assert tl.snapshot() == tl2.snapshot()

    def test_time_weighted_mean(self):
        tl = Timeline()
        tl.add(0.0, 0)
        tl.add(1.0, 2)  # value 0 over [0,1), value 2 over [1,2)
        assert time_weighted_mean(tl.samples, 2.0) == pytest.approx(1.0)

    def test_time_weighted_mean_empty(self):
        assert time_weighted_mean(Timeline().samples, 5.0) == 0.0


class TestRegistry:
    def test_instruments_created_on_first_use(self):
        m = MetricsRegistry()
        assert m.counter("x") is m.counter("x")
        assert m.gauge("g") is m.gauge("g")
        assert m.histogram("h") is m.histogram("h")
        assert m.timeline("t") is m.timeline("t")

    def test_shorthands(self):
        m = MetricsRegistry()
        m.inc("ops", 3)
        m.observe("lat", 0.5)
        m.sample("depth", 1.0, 7)
        snap = m.snapshot(end_time=2.0)
        assert snap["counters"]["ops"] == 3
        assert snap["histograms"]["lat"]["count"] == 1
        assert snap["timelines"]["depth"]["samples"] == [[1.0, 7]]
        assert snap["end_time"] == 2.0

    def test_snapshot_is_json_pure(self):
        m = MetricsRegistry()
        m.inc("a")
        m.observe("b", 3.0)
        m.sample("c", 0.0, 1)
        m.gauge("d").set(2.5)
        snap = m.snapshot(end_time=1.0)
        # A JSON round trip must be the identity (the cache byte-identity
        # contract rests on this).
        assert json.loads(canonical_json(snap)) == snap

    def test_canonical_json_is_byte_stable(self):
        a = canonical_json({"b": 1, "a": [1, 2]})
        b = canonical_json({"a": [1, 2], "b": 1})
        assert a == b == '{"a":[1,2],"b":1}'

    def test_canonical_json_rejects_nan(self):
        with pytest.raises(ValueError):
            canonical_json({"x": float("nan")})
