"""Tests for trace records, validation, and merging."""

import pytest

from repro.traces.record import (
    Trace,
    TraceMeta,
    TraceRecord,
    merge_sorted,
    validate_trace,
)


def make_trace(records, intervals=4, interval_ns=7800, banks=2):
    meta = TraceMeta(
        total_intervals=intervals, interval_ns=interval_ns, num_banks=banks
    )
    return Trace(meta=meta, records=records)


class TestTrace:
    def test_meta_duration(self):
        meta = TraceMeta(total_intervals=4, interval_ns=7800, num_banks=1)
        assert meta.duration_ns == 31_200

    def test_materialize_from_generator(self):
        trace = make_trace(TraceRecord(i * 100, 0, i) for i in range(5))
        assert trace.count() == 5
        # second count re-reads the materialised list
        assert trace.count() == 5

    def test_aggressor_rows_grouped_by_bank(self):
        trace = make_trace(
            [
                TraceRecord(0, 0, 5, True),
                TraceRecord(100, 1, 7, True),
                TraceRecord(200, 0, 9, False),
            ]
        )
        rows = trace.aggressor_rows()
        assert rows == {0: {5}, 1: {7}}

    def test_iteration(self):
        records = [TraceRecord(0, 0, 1), TraceRecord(50, 1, 2)]
        trace = make_trace(records)
        assert list(trace) == records
        assert list(trace) == records  # a list source re-reads

    def test_spent_one_shot_source_raises(self):
        """A second read of a one-shot source fails loudly instead of
        replaying an empty trace -- also after a partial first read."""
        trace = make_trace(TraceRecord(i * 100, 0, i) for i in range(5))
        next(iter(trace))
        with pytest.raises(RuntimeError, match="already consumed"):
            iter(trace)
        with pytest.raises(RuntimeError, match="already consumed"):
            trace.materialize()


class TestValidateTrace:
    def test_clean_trace_passes(self):
        trace = make_trace(
            [TraceRecord(0, 0, 1), TraceRecord(50, 1, 2), TraceRecord(100, 0, 3)]
        )
        assert validate_trace(trace) == []

    def test_detects_time_reversal(self):
        trace = make_trace([TraceRecord(100, 0, 1), TraceRecord(50, 0, 2)])
        problems = validate_trace(trace)
        assert any("backwards" in problem for problem in problems)

    def test_detects_act_to_act_violation(self):
        trace = make_trace([TraceRecord(0, 0, 1), TraceRecord(10, 0, 2)])
        problems = validate_trace(trace)
        assert any("act-to-act" in problem for problem in problems)

    def test_cross_bank_spacing_allowed(self):
        trace = make_trace([TraceRecord(0, 0, 1), TraceRecord(10, 1, 2)])
        assert validate_trace(trace) == []

    def test_detects_time_outside_span(self):
        trace = make_trace([TraceRecord(10 ** 9, 0, 1)])
        problems = validate_trace(trace)
        assert any("outside trace span" in problem for problem in problems)

    def test_detects_bad_bank(self):
        trace = make_trace([TraceRecord(0, 5, 1)])
        problems = validate_trace(trace)
        assert any("bank out of range" in problem for problem in problems)


class TestMergeSorted:
    def test_merges_by_time(self):
        a = [TraceRecord(0, 0, 1), TraceRecord(200, 0, 2)]
        b = [TraceRecord(100, 1, 3)]
        merged = list(merge_sorted([a, b]))
        assert [record.time_ns for record in merged] == [0, 100, 200]

    def test_empty_streams(self):
        assert list(merge_sorted([[], []])) == []
