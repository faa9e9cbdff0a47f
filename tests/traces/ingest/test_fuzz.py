"""Fuzzing the streaming ingest path: bytes in, records or TraceFormatError out.

Whatever arrives -- arbitrary bytes, a gzip stream cut anywhere or
corrupted, one line far longer than any record, records with absurd
numbers -- the chunk decoder and the line parsers either produce lines
and records or raise :class:`TraceFormatError`; nothing else escapes.
In ``skip`` mode the parsers never raise at all.
"""

import gzip
import json

from hypothesis import HealthCheck, example, given, settings, strategies as st

from repro.config import ddr4_paper_config
from repro.traces.ingest import (
    ParseErrorPolicy,
    dramsim_records,
    iter_chunk_lines,
    native_records,
    resolve_mapper,
)
from repro.traces.trace_io import TraceFormatError, parse_trace_header

CONFIG = ddr4_paper_config()
MAPPER = resolve_mapper("layout", CONFIG.geometry)

FUZZ = settings(
    max_examples=150, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def _chunks(data: bytes, cuts):
    """*data* split at the (sorted, clipped) positions *cuts*."""
    bounds = sorted({0, len(data), *(min(cut, len(data)) for cut in cuts)})
    return [data[lo:hi] for lo, hi in zip(bounds, bounds[1:])]


def _decode(chunks):
    """The decoded lines, or ``None`` for a TraceFormatError."""
    try:
        return list(iter_chunk_lines(chunks))
    except TraceFormatError:
        return None


numbers = st.one_of(
    st.integers(min_value=-10, max_value=10 ** 6).map(str),
    st.integers(min_value=10 ** 300, max_value=10 ** 400).map(str),
    st.sampled_from(["0x1f", "0x", "-0", "1e9", "inf", "nan", "", " ", "٣"]),
)
#: dramsim-shaped lines with hostile fields, plus arbitrary text
dramsim_lines = st.lists(
    st.one_of(
        st.tuples(numbers, st.sampled_from(["ACT", "act", "RD", ""]), numbers)
        .map(",".join),
        st.text(max_size=40),
    ),
    max_size=20,
)
native_lines = st.lists(
    st.one_of(
        st.tuples(numbers, numbers, numbers, numbers).map(",".join),
        st.text(max_size=40),
    ),
    max_size=20,
)


@FUZZ
@given(data=st.binary(max_size=2048), cuts=st.lists(st.integers(0, 2048), max_size=8))
@example(data=b"\x1f\x8b" + bytes(64), cuts=[1])
@example(data=b"\xff\xfe\n\x80", cuts=[])
def test_chunk_decoder_on_arbitrary_bytes(data, cuts):
    lines = _decode(_chunks(data, cuts))
    assert lines is None or all(isinstance(line, str) for line in lines)


@FUZZ
@given(
    text=st.text(max_size=400), cut=st.integers(0, 10 ** 6),
    cuts=st.lists(st.integers(0, 600), max_size=6),
)
def test_cut_gzip_stream_decodes_whole_or_fails_loudly(text, cut, cuts):
    """A gzip upload cut short raises; delivered whole it decodes to
    the text's lines at any chunking."""
    whole = gzip.compress(text.encode("utf-8"))
    data = whole[:cut % (len(whole) + 1)]
    lines = _decode(_chunks(data, cuts))
    if len(data) == len(whole):
        expected = text.replace("\r\n", "\n").split("\n")
        if expected[-1] == "":
            expected.pop()
        assert lines == [line.rstrip("\r") for line in expected]
    elif len(data) >= 2:
        assert lines is None


@FUZZ
@given(
    text=st.text(max_size=200), at=st.integers(0, 10 ** 6),
    flip=st.integers(1, 255),
)
def test_corrupt_gzip_stream(text, at, flip):
    data = bytearray(gzip.compress(text.encode("utf-8")))
    data[at % len(data)] ^= flip
    _decode([bytes(data)])


def test_oversize_line():
    """One 4 MiB line, no newline, in 64 KiB chunks: a single line,
    which the record parsers reject as one bad record."""
    data = b"1," * (2 * 1024 * 1024)
    lines = _decode(_chunks(data, range(0, len(data), 64 * 1024)))
    assert lines is not None and len(lines) == 1
    policy = ParseErrorPolicy("skip")
    assert list(native_records(lines, "<fuzz>", policy)) == []
    assert policy.skipped == 1


@FUZZ
@given(lines=dramsim_lines, clock_ns=st.sampled_from([1.0, 45.0, 1e300]))
@example(lines=["9" * 400 + ",ACT,0x10"], clock_ns=1.0)
def test_dramsim_records_parse_or_raise(lines, clock_ns):
    try:
        list(dramsim_records(
            lines, "<fuzz>", MAPPER, CONFIG, ParseErrorPolicy(),
            clock_ns=clock_ns,
        ))
    except TraceFormatError:
        pass
    skip = ParseErrorPolicy("skip")
    records = list(dramsim_records(
        lines, "<fuzz>", MAPPER, CONFIG, skip, clock_ns=clock_ns,
    ))
    assert all(record.time_ns >= 0 for record in records)


@FUZZ
@given(lines=native_lines)
def test_native_records_parse_or_raise(lines):
    try:
        list(native_records(lines, "<fuzz>", ParseErrorPolicy()))
    except TraceFormatError:
        pass
    list(native_records(lines, "<fuzz>", ParseErrorPolicy("skip")))


@FUZZ
@given(header=st.one_of(
    st.text(max_size=80),
    st.dictionaries(
        st.sampled_from(["interval_ns", "total_intervals", "num_banks", "x"]),
        st.one_of(
            st.integers(-5, 10 ** 30), st.floats(allow_nan=True),
            st.text(max_size=5), st.none(),
        ),
        max_size=4,
    ).map(lambda fields: "#repro-trace:" + json.dumps(fields)),
    st.integers(1, 3000).map(lambda depth: "#repro-trace:" + "[" * depth),
))
@example(header='#repro-trace:{"interval_ns": Infinity, "total_intervals": 1}')
def test_trace_header_parse_or_raise(header):
    try:
        parse_trace_header(header, "<fuzz>")
    except TraceFormatError:
        pass
