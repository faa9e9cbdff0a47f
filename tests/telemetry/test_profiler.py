"""The ``--profile`` timing report: span-tree rows and the null fast path."""

from contextlib import nullcontext

from repro.analysis.report import render_timing
from repro.telemetry.spans import SpanTracer, span_of


def _row(tracer, label):
    return next(row for row in tracer.timing_report() if row["label"] == label)


class TestProfiler:
    def test_sections_accumulate_seconds_and_calls(self):
        tracer = SpanTracer()
        for _ in range(2):
            with tracer.span("replay"):
                pass
        with tracer.span("setup"):
            pass
        replay = _row(tracer, "replay")
        assert replay["count"] == 2
        assert replay["wall_seconds"] == sum(
            span.wall_seconds for span in tracer.spans if span.name == "replay"
        )
        shares = [row["share_pct"] for row in tracer.timing_report()]
        assert abs(sum(shares) - 100.0) < 1e-9

    def test_section_context_manager_times_the_block(self):
        tracer = SpanTracer()
        with tracer.span("work") as span:
            pass
        entry = _row(tracer, "work")
        assert entry["count"] == 1
        assert entry["wall_seconds"] == span.wall_seconds >= 0.0

    def test_report_lists_every_section(self):
        tracer = SpanTracer()
        with tracer.span("compare"):
            with tracer.span("decide", technique="PARA"):
                pass
            with tracer.span("decide", technique="TWiCe"):
                pass
        lines = render_timing(tracer.timing_report()).splitlines()
        assert lines[0].split() == ["span", "seconds", "calls", "share"]
        assert lines[2].startswith("compare ")
        # one indented row per technique lane
        assert lines[3].startswith("  decide[PARA] ")
        assert lines[4].startswith("  decide[TWiCe] ")
        assert lines[5].startswith("total ")

    def test_as_dict_copies(self):
        tracer = SpanTracer()
        with tracer.span("a"):
            pass
        report = tracer.timing_report()
        report[0]["wall_seconds"] = 99.0
        assert _row(tracer, "a")["wall_seconds"] != 99.0


class TestSectionOf:
    def test_none_profiler_yields_nullcontext(self):
        assert isinstance(span_of(None, "x"), nullcontext)
        assert isinstance(span_of(SpanTracer(enabled=False), "x"), nullcontext)

    def test_real_profiler_records(self):
        tracer = SpanTracer()
        with span_of(tracer, "x"):
            pass
        assert _row(tracer, "x")["count"] == 1
