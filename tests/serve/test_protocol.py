"""Tests for the NDJSON wire protocol helpers."""

import asyncio
import io
import json

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from repro.serve.protocol import (
    ERROR_CODES,
    MAX_FRAME_BYTES,
    ProtocolError,
    decode_chunk,
    decode_frame,
    encode_chunk,
    encode_frame,
    error_frame,
)


class TestFrames:
    def test_round_trip(self):
        frame = {"type": "open", "techniques": ["PARA"], "clock_ns": 45.0}
        assert decode_frame(encode_frame(frame)) == frame

    def test_encoding_is_canonical_one_line(self):
        data = encode_frame({"b": 1, "a": 2, "type": "x"})
        assert data.endswith(b"\n")
        assert data.count(b"\n") == 1
        assert json.loads(data) == {"a": 2, "b": 1, "type": "x"}
        # sorted keys: byte-stable across dict insertion orders
        assert data == encode_frame({"type": "x", "a": 2, "b": 1})

    def test_oversized_frame_rejected(self):
        with pytest.raises(ProtocolError, match="exceeds"):
            encode_frame({"type": "chunk", "data": "x" * MAX_FRAME_BYTES})

    @pytest.mark.parametrize("line", [
        b"not json\n",
        b"[1, 2]\n",
        b'{"no-type": 1}\n',
        b'{"type": 7}\n',
    ])
    def test_malformed_lines_rejected(self, line):
        with pytest.raises(ProtocolError):
            decode_frame(line)


class TestChunks:
    @pytest.mark.parametrize("payload", [b"", b"abc", bytes(range(256))])
    def test_round_trip(self, payload):
        assert decode_chunk(encode_chunk(payload)) == payload

    def test_non_base64_payload_rejected(self):
        with pytest.raises(ProtocolError, match="base64"):
            decode_chunk({"type": "chunk", "data": "!!not-base64!!"})

    def test_missing_payload_rejected(self):
        with pytest.raises(ProtocolError, match="data"):
            decode_chunk({"type": "chunk"})


class TestErrorFrames:
    def test_known_codes_build(self):
        for code in ERROR_CODES:
            frame = error_frame(code, "boom")
            assert frame == {"type": "error", "code": code, "message": "boom"}

    def test_unknown_code_rejected(self):
        with pytest.raises(ValueError, match="unknown error code"):
            error_frame("nonsense", "boom")


FUZZ = settings(
    max_examples=150, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def _valid(frame):
    return isinstance(frame, dict) and isinstance(frame["type"], str)


def _server_frames(chunks):
    """The frames the server's reader takes from *chunks* until EOF
    (``ProtocolError`` propagates)."""
    from repro.serve.server import ServeServer

    async def read():
        reader = asyncio.StreamReader(limit=MAX_FRAME_BYTES)
        for chunk in chunks:
            reader.feed_data(chunk)
        reader.feed_eof()
        frames = []
        while True:
            frame = await ServeServer()._read_frame(reader)
            if frame is None:
                return frames
            frames.append(frame)

    return asyncio.run(read())


def _client_frames(data):
    """The frames the client's reader takes from *data* until EOF."""
    from repro.serve.client import ServeClient

    reader = io.BytesIO(data)
    frames = []
    while True:
        frame = ServeClient()._read(reader)
        if frame is None:
            return frames
        frames.append(frame)


#: streams of frames: valid ones, arbitrary bytes, cut anywhere
streams = st.lists(
    st.one_of(
        st.dictionaries(st.text(max_size=5), st.integers(), max_size=3).map(
            lambda fields: encode_frame({**fields, "type": "chunk"})
        ),
        st.binary(max_size=64),
        st.integers(1, 3000).map(lambda depth: b"[" * depth + b"\n"),
    ),
    max_size=8,
).map(b"".join)


class TestFuzz:
    """Whatever arrives, the decoder and both stream readers return
    frames (a JSON object with a string ``type``) or raise
    ``ProtocolError``; nothing else escapes."""

    @FUZZ
    @given(line=st.binary(max_size=512))
    @example(line=b"\xff\xfe{}\n")
    @example(line=b'{"type": "x", "deep": ' + b"[" * 5000 + b"\n")
    def test_decode_frame_on_arbitrary_bytes(self, line):
        try:
            assert _valid(decode_frame(line))
        except ProtocolError:
            pass

    @FUZZ
    @given(data=streams, cut=st.integers(0, 10 ** 6), size=st.integers(1, 97))
    def test_stream_readers_on_arbitrary_streams(self, data, cut, size):
        data = data[:cut % (len(data) + 1)]
        chunks = [data[i:i + size] for i in range(0, len(data), size)]
        for read in (lambda: _server_frames(chunks), lambda: _client_frames(data)):
            try:
                assert all(_valid(frame) for frame in read())
            except ProtocolError:
                pass

    def test_oversize_frame_rejected_by_every_reader(self):
        line = b'{"type":"chunk","data":"' + b"A" * MAX_FRAME_BYTES + b'"}\n'
        with pytest.raises(ProtocolError, match="exceeds"):
            decode_frame(line)
        with pytest.raises(ProtocolError, match="oversized"):
            _server_frames([line])
        with pytest.raises(ProtocolError, match="exceeds"):
            _client_frames(line)
