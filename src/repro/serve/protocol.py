"""The ``repro serve`` wire protocol: newline-delimited JSON frames.

One TCP connection carries one evaluation *session*.  Every frame is a
single JSON object terminated by ``\\n`` -- no length prefixes, no
binary framing -- so the protocol is debuggable with ``nc`` and
composable with line-oriented tools.  Trace bytes ride in ``chunk``
frames as base64 (raw file bytes, gzip container included, so the
server's content digest equals the offline ingest digest and the
shared ingest cache hits across transports).

Client -> server::

    {"type": "open", "protocol": 1, "format": "auto", "techniques":
     ["PARA"], "seeds": [0], "mapper": "layout", "clock_ns": 45.0,
     "mark_attacks": null, "on_parse_error": "raise", "session": "s1"}
    {"type": "chunk", "data": "<base64>"}
    ...
    {"type": "end"}

Server -> client::

    {"type": "hello", "protocol": 1, "server": "repro-serve", ...}
    {"type": "accepted", "session": "...", "shard": 0, "cells": 2}
    {"type": "progress", "bytes": ..., "lines": ...}       (periodic)
    {"type": "ingest", "provenance": {...}}                (once)
    {"type": "verdict", "technique": "PARA", "seed": 0,
     "index": 0, "result": {...SimResult.as_dict()...}}    (per cell)
    {"type": "metrics", "session": {...}}                  (once)
    {"type": "done", "session": "...", "cells": 2}
    {"type": "error", "code": "...", "message": "..."}     (terminal)

The full field-by-field specification lives in ``docs/serve.md``.
"""

from __future__ import annotations

import base64
import binascii
import json
from typing import Any, Dict

#: bump on incompatible frame-layout changes; ``open`` frames carrying
#: a different major version are rejected with ``code="protocol"``
PROTOCOL_VERSION = 1

#: frame types a client may send
CLIENT_FRAME_TYPES = ("open", "chunk", "end")
#: frame types a server may send
SERVER_FRAME_TYPES = (
    "hello", "accepted", "progress", "ingest", "verdict", "metrics",
    "done", "error",
)

#: ``error`` frame codes
ERROR_CODES = (
    "protocol",      # malformed frame / bad handshake
    "bad-request",   # open frame validation failed
    "ingest",        # trace failed to parse
    "evaluate",      # engine raised
    "overloaded",    # session rejected or shed under load
    "shutdown",      # server is stopping
)

#: upper bound on one encoded frame (guards the reader's line buffer)
MAX_FRAME_BYTES = 4 * 1024 * 1024

#: default raw-byte payload per ``chunk`` frame (b64 expands by 4/3)
DEFAULT_CHUNK_BYTES = 64 * 1024


class ProtocolError(ValueError):
    """A frame violated the wire protocol."""


def encode_frame(frame: Dict[str, Any]) -> bytes:
    """Serialise *frame* to one NDJSON line (canonical key order)."""
    line = json.dumps(frame, sort_keys=True, separators=(",", ":"))
    data = line.encode("utf-8") + b"\n"
    if len(data) > MAX_FRAME_BYTES:
        raise ProtocolError(
            f"frame of {len(data)} bytes exceeds MAX_FRAME_BYTES"
        )
    return data


def decode_frame(line: bytes) -> Dict[str, Any]:
    """Parse one received line into a frame dict.

    Raises :class:`ProtocolError` on anything that is not a JSON
    object with a string ``type``, or longer than ``MAX_FRAME_BYTES``.
    """
    if len(line) > MAX_FRAME_BYTES:
        raise ProtocolError(
            f"frame of {len(line)} bytes exceeds MAX_FRAME_BYTES"
        )
    try:
        frame = json.loads(line)
    except (ValueError, RecursionError) as exc:
        # ValueError covers JSONDecodeError and undecodable UTF-8
        raise ProtocolError(f"malformed frame: {exc}") from exc
    if not isinstance(frame, dict) or not isinstance(frame.get("type"), str):
        raise ProtocolError("frame must be a JSON object with a 'type'")
    return frame


def encode_chunk(data: bytes) -> Dict[str, Any]:
    """Wrap raw trace bytes into a ``chunk`` frame."""
    return {
        "type": "chunk",
        "data": base64.b64encode(data).decode("ascii"),
    }


def decode_chunk(frame: Dict[str, Any]) -> bytes:
    """Extract the raw bytes of a ``chunk`` frame."""
    data = frame.get("data")
    if not isinstance(data, str):
        raise ProtocolError("chunk frame missing base64 'data'")
    try:
        return base64.b64decode(data.encode("ascii"), validate=True)
    except (binascii.Error, UnicodeEncodeError) as exc:
        raise ProtocolError(f"chunk payload is not base64: {exc}") from exc


def error_frame(code: str, message: str) -> Dict[str, Any]:
    if code not in ERROR_CODES:
        raise ValueError(f"unknown error code {code!r}")
    return {"type": "error", "code": code, "message": message}
