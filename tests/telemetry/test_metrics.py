"""Counter / histogram / registry semantics.

The histogram bucket-edge behaviour and the counter saturation model
are load-bearing (the run manifest embeds them), so their edge cases
are pinned here exactly.
"""

import pytest

from repro.telemetry.metrics import Counter, Histogram, MetricsRegistry


class TestCounter:
    def test_starts_at_zero_and_accumulates(self):
        counter = Counter("acts")
        assert counter.value == 0
        counter.add()
        counter.add(41)
        assert counter.value == 42

    def test_rejects_negative_amounts(self):
        counter = Counter("acts")
        with pytest.raises(ValueError):
            counter.add(-1)

    def test_saturates_at_limit(self):
        counter = Counter("hw", limit=10)
        counter.add(7)
        assert not counter.saturated
        counter.add(7)
        assert counter.value == 10
        assert counter.saturated

    def test_exactly_reaching_limit_does_not_saturate(self):
        counter = Counter("hw", limit=10)
        counter.add(10)
        assert counter.value == 10
        assert not counter.saturated

    def test_saturated_counter_stays_clamped(self):
        counter = Counter("hw", limit=5)
        counter.add(100)
        counter.add(100)
        assert counter.value == 5
        assert counter.saturated

    def test_negative_limit_rejected(self):
        with pytest.raises(ValueError):
            Counter("hw", limit=-1)

    def test_as_dict_includes_limit_only_when_set(self):
        assert Counter("a").as_dict() == {"value": 0}
        limited = Counter("b", limit=3)
        limited.add(4)
        assert limited.as_dict() == {"value": 3, "limit": 3, "saturated": True}


class TestHistogram:
    def test_bounds_must_be_non_empty_and_increasing(self):
        with pytest.raises(ValueError):
            Histogram("h", ())
        with pytest.raises(ValueError):
            Histogram("h", (4, 2, 1))

    def test_value_on_edge_lands_in_closing_bucket(self):
        # bucket i counts bounds[i-1] < v <= bounds[i]: the upper edge
        # is inclusive, so 2 lands in the bucket that 2 closes
        histogram = Histogram("h", (1, 2, 4))
        histogram.record(2)
        assert histogram.counts == [0, 1, 0, 0]

    def test_value_above_last_bound_lands_in_overflow(self):
        histogram = Histogram("h", (1, 2, 4))
        histogram.record(5)
        assert histogram.counts == [0, 0, 0, 1]

    def test_value_below_first_bound_lands_in_first_bucket(self):
        histogram = Histogram("h", (1, 2, 4))
        histogram.record(0)
        assert histogram.counts == [1, 0, 0, 0]

    def test_record_many_is_equivalent_to_repeated_record(self):
        many = Histogram("h", (0, 1, 2, 4))
        loop = Histogram("h", (0, 1, 2, 4))
        many.record_many(0, 1000)
        many.record_many(3, 2)
        for _ in range(1000):
            loop.record(0)
        loop.record(3)
        loop.record(3)
        assert many.counts == loop.counts
        assert many.count == loop.count
        assert many.total == loop.total
        assert (many.min, many.max) == (loop.min, loop.max)

    def test_record_many_non_positive_times_is_a_no_op(self):
        histogram = Histogram("h", (1,))
        histogram.record_many(1, 0)
        histogram.record_many(1, -3)
        assert histogram.count == 0
        assert histogram.min is None

    def test_summary_statistics(self):
        histogram = Histogram("h", (10, 100))
        for value in (2, 8, 50):
            histogram.record(value)
        assert histogram.count == 3
        assert histogram.total == 60.0
        assert histogram.mean == 20.0
        assert histogram.min == 2
        assert histogram.max == 50

    def test_empty_histogram_mean_is_zero(self):
        assert Histogram("h", (1,)).mean == 0.0


class TestMetricsRegistry:
    def test_counter_is_get_or_create(self):
        registry = MetricsRegistry()
        assert registry.counter("a") is registry.counter("a")

    def test_histogram_bounds_mismatch_raises(self):
        registry = MetricsRegistry()
        registry.histogram("h", (1, 2))
        with pytest.raises(ValueError):
            registry.histogram("h", (1, 2, 3))

    def test_merge_folds_counters_and_histograms(self):
        a = MetricsRegistry()
        b = MetricsRegistry()
        a.counter("n").add(2)
        b.counter("n").add(3)
        b.counter("only_b").add(1)
        a.histogram("h", (1, 2)).record(1)
        b.histogram("h", (1, 2)).record(5)
        a.merge(b)
        assert a.counters["n"].value == 5
        assert a.counters["only_b"].value == 1
        assert a.histograms["h"].counts == [1, 0, 1]
        assert a.histograms["h"].min == 1
        assert a.histograms["h"].max == 5

    def test_from_dict_ignores_older_timers(self):
        """Checkpoints written while the registry still kept phase
        timers restore without them."""
        snapshot = {
            "counters": {"n": {"value": 2}},
            "histograms": {},
            "timers": {"phase": {"seconds": 1.0, "calls": 1}},
        }
        registry = MetricsRegistry.from_dict(snapshot)
        assert registry.as_dict() == {
            "counters": {"n": {"value": 2}}, "histograms": {},
        }

    def test_merge_into_empty_registry(self):
        a = MetricsRegistry()
        b = MetricsRegistry()
        b.histogram("h", (1,)).record(0)
        a.merge(b)
        assert a.histograms["h"].count == 1
        assert a.histograms["h"].min == 0

    def test_as_dict_is_json_ready_and_sorted(self):
        import json

        registry = MetricsRegistry()
        registry.counter("z").add(1)
        registry.counter("a").add(2)
        registry.histogram("h", (1,)).record(1)
        snapshot = registry.as_dict()
        assert list(snapshot["counters"]) == ["a", "z"]
        json.dumps(snapshot)  # must not raise
