"""Tests for the statistics collectors and report rendering."""

from hypothesis import given, strategies as st

import pytest

from repro.stats.collectors import (
    BinnedHistogram,
    Counter,
    ExactHistogram,
    Histogram,
    LatencyStat,
    StatsRegistry,
)
from repro.stats.report import (
    format_percentile_table,
    format_table,
    normalize,
    percentile_summary,
)


class TestCounter:
    def test_add_and_reset(self):
        counter = Counter("x")
        counter.add()
        counter.add(4)
        assert counter.value == 5
        counter.reset()
        assert counter.value == 0

    def test_merge(self):
        a, b = Counter("a"), Counter("b")
        a.add(3)
        b.add(4)
        a.merge(b)
        assert a.value == 7
        assert b.value == 4  # merge never mutates the source


class TestLatencyStat:
    def test_accumulation(self):
        stat = LatencyStat("lat")
        for value in (10, 20, 30):
            stat.record(value)
        assert stat.count == 3
        assert stat.total == 60
        assert stat.mean == 20
        assert stat.min == 10
        assert stat.max == 30

    def test_empty_mean_is_zero(self):
        assert LatencyStat("lat").mean == 0.0

    def test_merge(self):
        a, b = LatencyStat("a"), LatencyStat("b")
        a.record(5)
        b.record(15)
        a.merge(b)
        assert a.count == 2
        assert a.total == 20
        assert a.min == 5
        assert a.max == 15

    @given(st.lists(st.integers(0, 10**6), min_size=1, max_size=50))
    def test_property_bounds(self, values):
        stat = LatencyStat("lat")
        for value in values:
            stat.record(value)
        assert stat.min == min(values)
        assert stat.max == max(values)
        assert stat.total == sum(values)

    @given(
        st.lists(st.integers(0, 10**6), max_size=20),
        st.integers(0, 10**6),
        st.integers(0, 50),
    )
    def test_property_record_many_equals_repeated_record(self, values, value, count):
        bulk, single = LatencyStat("bulk"), LatencyStat("single")
        for earlier in values:
            bulk.record(earlier)
            single.record(earlier)
        bulk.record_many(value, count)
        for _ in range(count):
            single.record(value)
        assert (bulk.count, bulk.total, bulk.min, bulk.max) == (
            single.count, single.total, single.min, single.max
        )


class TestBinnedHistogram:
    BINS = ((0, 5), (6, 10), (11, 25), (26, 49), (50, None))

    def test_paper_bins(self):
        hist = BinnedHistogram("sharers", self.BINS)
        for value in (0, 5, 6, 25, 49, 50, 1000):
            hist.record(value)
        assert hist.counts == [2, 1, 1, 1, 2]
        assert hist.total == 7

    def test_fractions_sum_to_one(self):
        hist = BinnedHistogram("sharers", self.BINS)
        for value in range(100):
            hist.record(value)
        assert abs(sum(hist.fractions()) - 1.0) < 1e-9

    def test_labels(self):
        hist = BinnedHistogram("sharers", self.BINS)
        assert hist.labels() == ["0-5", "6-10", "11-25", "26-49", "50+"]

    def test_empty_fractions(self):
        hist = BinnedHistogram("sharers", self.BINS)
        assert hist.fractions() == [0.0] * 5

    @given(st.lists(st.integers(0, 200), max_size=100))
    def test_property_total_conservation(self, values):
        hist = BinnedHistogram("h", self.BINS)
        for value in values:
            hist.record(value)
        assert hist.total == len(values)

    def test_merge(self):
        a = BinnedHistogram("a", self.BINS)
        b = BinnedHistogram("b", self.BINS)
        a.record(3)
        b.record(7)
        b.record(60)
        a.merge(b)
        assert a.counts == [1, 1, 0, 0, 1]
        assert a.total == 3

    def test_merge_rejects_mismatched_bins(self):
        a = BinnedHistogram("a", self.BINS)
        b = BinnedHistogram("b", ((0, 1), (2, None)))
        with pytest.raises(ValueError):
            a.merge(b)


class TestHistogram:
    def test_empty(self):
        hist = Histogram("h")
        assert hist.count == 0
        assert hist.mean == 0.0
        assert hist.percentile(50) == 0.0

    def test_single_value(self):
        hist = Histogram("h")
        hist.record(37)
        for p in (0, 50, 99, 100):
            assert hist.percentile(p) == 37.0

    def test_percentiles_clamped_to_observed_range(self):
        hist = Histogram("h")
        for value in (10, 11, 12, 13, 200):
            hist.record(value)
        assert hist.percentile(0) == 10.0
        assert hist.percentile(100) == 200.0
        assert 10.0 <= hist.percentile(50) <= 200.0

    def test_mean_exact(self):
        hist = Histogram("h")
        for value in (4, 8, 12):
            hist.record(value)
        assert hist.mean == 8.0
        assert hist.min == 4
        assert hist.max == 12

    def test_merge(self):
        a, b = Histogram("a"), Histogram("b")
        a.record(5)
        b.record(500)
        a.merge(b)
        assert a.count == 2
        assert a.min == 5
        assert a.max == 500
        assert a.total == 505

    def test_merge_empty_is_noop(self):
        a = Histogram("a")
        a.record(9)
        a.merge(Histogram("b"))
        assert a.count == 1
        assert a.percentile(50) == 9.0

    def test_roundtrip(self):
        hist = Histogram("h")
        for value in (1, 2, 3, 1000, 1_000_000):
            hist.record(value)
        clone = Histogram.from_dict(hist.to_dict())
        assert clone.count == hist.count
        assert clone.total == hist.total
        assert clone.min == hist.min
        assert clone.max == hist.max
        for p in (50, 95, 99):
            assert clone.percentile(p) == hist.percentile(p)

    @given(st.lists(st.integers(0, 2**40), min_size=1, max_size=200))
    def test_property_percentile_bounds(self, values):
        hist = Histogram("h")
        for value in values:
            hist.record(value)
        assert hist.count == len(values)
        assert hist.total == sum(values)
        previous = hist.percentile(0)
        for p in (25, 50, 75, 90, 95, 99, 100):
            current = hist.percentile(p)
            # monotone and within the observed range
            assert previous <= current <= max(values)
            assert current >= min(values)
            previous = current

    @given(st.lists(st.integers(0, 10**6), min_size=1, max_size=100))
    def test_property_bucket_error_bound(self, values):
        """A percentile estimate lands within its power-of-two bucket, so
        the relative error against the exact order statistic is < 2x."""
        hist = Histogram("h")
        for value in values:
            hist.record(value)
        exact = sorted(values)[(len(values) - 1) // 2]
        estimate = hist.percentile(50)
        if exact > 0:
            assert estimate <= 2 * exact + 1
            assert estimate >= exact / 2 - 1

    @given(
        st.lists(st.integers(-5, 10**6), max_size=20),
        st.integers(-5, 10**6),
        st.integers(0, 50),
    )
    def test_property_record_many_equals_repeated_record(self, values, value, count):
        bulk, single = Histogram("h"), Histogram("h")
        for earlier in values:
            bulk.record(earlier)
            single.record(earlier)
        bulk.record_many(value, count)
        for _ in range(count):
            single.record(value)
        assert bulk.to_dict() == single.to_dict()


class TestExactHistogram:
    def test_mean(self):
        hist = ExactHistogram("h")
        hist.record(2, weight=3)
        hist.record(8)
        assert hist.total == 4
        assert hist.mean() == (2 * 3 + 8) / 4

    def test_items_sorted(self):
        hist = ExactHistogram("h")
        for value in (5, 1, 9, 1):
            hist.record(value)
        assert list(hist.items()) == [(1, 2), (5, 1), (9, 1)]

    def test_merge(self):
        a, b = ExactHistogram("a"), ExactHistogram("b")
        a.record(1, weight=2)
        b.record(1)
        b.record(4)
        a.merge(b)
        assert list(a.items()) == [(1, 3), (4, 1)]
        assert a.total == 4


class TestStatsRegistry:
    def test_same_name_returns_same_collector(self):
        registry = StatsRegistry()
        assert registry.counter("a") is registry.counter("a")
        assert registry.latency("l") is registry.latency("l")

    def test_get_counter_default_zero(self):
        registry = StatsRegistry()
        assert registry.get_counter("missing") == 0

    def test_counters_snapshot(self):
        registry = StatsRegistry()
        registry.counter("a").add(3)
        registry.counter("b").add(1)
        assert registry.counters() == {"a": 3, "b": 1}


class TestReport:
    def test_normalize(self):
        out = normalize({"x": 50, "y": 10}, {"x": 100, "y": 0})
        assert out == {"x": 0.5, "y": 0.0}

    def test_format_table_alignment(self):
        text = format_table(
            ["app", "value"], [["radiosity", 0.78], ["fft", 1.0]], title="T"
        )
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "radiosity" in text
        assert "0.780" in text

    def test_format_table_mixed_types(self):
        text = format_table(["a"], [[1], [2.5], ["x"]])
        assert "2.500" in text
        assert "x" in text

    def test_percentile_summary(self):
        hist = Histogram("lat")
        for value in range(1, 101):
            hist.record(value)
        summary = percentile_summary(hist)
        assert summary["count"] == 100
        assert summary["min"] == 1
        assert summary["max"] == 100
        assert summary["p50"] <= summary["p95"] <= summary["p99"]
        assert set(summary) == {
            "count", "mean", "min", "max", "p50", "p95", "p99",
        }

    def test_percentile_summary_empty(self):
        assert percentile_summary(Histogram("lat")) == {}

    def test_format_percentile_table(self):
        hist = Histogram("lat")
        for value in (10, 20, 40):
            hist.record(value)
        text = format_percentile_table({"loads": hist}, title="latency")
        assert "latency" in text
        assert "loads" in text
        assert "p99" in text
