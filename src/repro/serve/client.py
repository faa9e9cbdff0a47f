"""Blocking client for the ``repro serve`` evaluation service.

:class:`ServeClient` opens one session per :meth:`ServeClient.submit`
call: it streams a trace file to the server in ``chunk`` frames and
iterates the server's reply frames until ``done`` or ``error``.  The
client is deliberately synchronous (plain sockets, no asyncio): it is
what the ``repro submit`` CLI, the docs quickstart and the CI smoke
job use, and those callers want a simple loop, not an event loop.

    from repro.serve.client import ServeClient

    client = ServeClient("127.0.0.1", 7777)
    outcome = client.submit(
        "trace.gz", techniques=["PARA"], seeds=[0], clock_ns=45.0,
    )
    for verdict in outcome.verdicts:
        print(verdict["result"]["bit_flips"])

Streaming consumers pass ``on_frame`` to observe every frame as it
arrives (progress bars, live verdict printing) while ``submit`` still
collects the session outcome.

Failure taxonomy:

* :class:`ServeError` -- the server answered with an ``error`` frame;
  carries the protocol ``code``.
* :class:`ServeDisconnected` -- the connection died without a
  terminal frame (server killed, network gone, or the client was shed
  for falling behind).
"""

from __future__ import annotations

import socket
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence

from repro.serve.protocol import (
    DEFAULT_CHUNK_BYTES,
    MAX_FRAME_BYTES,
    PROTOCOL_VERSION,
    ProtocolError,
    decode_frame,
    encode_chunk,
    encode_frame,
)


class ServeError(RuntimeError):
    """The server reported a session-terminating ``error`` frame."""

    def __init__(self, code: str, message: str):
        super().__init__(f"[{code}] {message}")
        self.code = code
        self.server_message = message


class ServeDisconnected(ConnectionError):
    """The connection closed without a terminal ``done``/``error`` frame.

    Raised when the server process dies mid-session (the CI smoke job
    SIGKILLs a server to pin this), when the network drops, or when the
    server shed this client for not reading fast enough.
    """


@dataclass
class SessionOutcome:
    """Everything a completed session streamed back."""

    session: str = ""
    hello: Dict[str, Any] = field(default_factory=dict)
    accepted: Dict[str, Any] = field(default_factory=dict)
    provenance: Dict[str, Any] = field(default_factory=dict)
    verdicts: List[Dict[str, Any]] = field(default_factory=list)
    session_metrics: Dict[str, Any] = field(default_factory=dict)
    done: Dict[str, Any] = field(default_factory=dict)

    @property
    def cache_hit(self) -> bool:
        """Did the server satisfy ingest from the shared cache?"""
        return bool(self.provenance.get("cache", {}).get("hit"))

    def results(self) -> List[Dict[str, Any]]:
        """The per-cell ``SimResult.as_dict()`` payloads, in cell order."""
        return [v["result"] for v in self.verdicts]


class ServeClient:
    """One server endpoint; each :meth:`submit` is one fresh session."""

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        timeout: Optional[float] = 60.0,
        chunk_bytes: int = DEFAULT_CHUNK_BYTES,
    ):
        if chunk_bytes < 1:
            raise ValueError(f"chunk_bytes must be >= 1: {chunk_bytes}")
        self.host = host
        self.port = port
        self.timeout = timeout
        self.chunk_bytes = chunk_bytes

    # -- public API ----------------------------------------------------

    def submit(
        self,
        trace_path,
        techniques: Sequence[str] = ("PARA",),
        seeds: Sequence[int] = (0,),
        format: str = "auto",
        mapper: str = "layout",
        clock_ns: float = 1.0,
        mark_attacks: Optional[bool] = None,
        on_parse_error: str = "raise",
        session: str = "",
        on_frame: Optional[Callable[[Dict[str, Any]], None]] = None,
    ) -> SessionOutcome:
        """Stream *trace_path* for evaluation; block until the verdicts.

        Raises :class:`ServeError` on a server-reported failure,
        :class:`ServeDisconnected` when the connection dies first, and
        ``FileNotFoundError`` before connecting if the trace is absent.
        """
        path = Path(trace_path)
        if not path.is_file():
            raise FileNotFoundError(f"trace file not found: {path}")
        open_frame = {
            "type": "open",
            "protocol": PROTOCOL_VERSION,
            "format": format,
            "techniques": list(techniques),
            "seeds": [int(seed) for seed in seeds],
            "mapper": mapper,
            "clock_ns": float(clock_ns),
            "mark_attacks": mark_attacks,
            "on_parse_error": on_parse_error,
            "session": session,
        }
        outcome = SessionOutcome(session=session)
        with socket.create_connection(
            (self.host, self.port), timeout=self.timeout
        ) as sock:
            reader = sock.makefile("rb")
            try:
                outcome.hello = self._expect(reader, "hello")
                self._send(sock, open_frame)
                outcome.accepted = self._expect(reader, "accepted")
                outcome.session = outcome.accepted.get("session", session)
                if on_frame is not None:
                    on_frame(outcome.accepted)
                with path.open("rb") as trace:
                    while True:
                        chunk = trace.read(self.chunk_bytes)
                        if not chunk:
                            break
                        self._send(sock, encode_chunk(chunk))
                self._send(sock, {"type": "end"})
                for frame in self._frames(reader):
                    if on_frame is not None:
                        on_frame(frame)
                    kind = frame["type"]
                    if kind == "ingest":
                        outcome.provenance = frame.get("provenance", {})
                    elif kind == "verdict":
                        outcome.verdicts.append(frame)
                    elif kind == "metrics":
                        outcome.session_metrics = frame.get("session", {})
                    elif kind == "done":
                        outcome.done = frame
                        return outcome
                    elif kind == "error":
                        raise ServeError(
                            frame.get("code", "protocol"),
                            frame.get("message", "unspecified server error"),
                        )
                    # progress and future frame types: observed via
                    # on_frame, otherwise ignored
                raise ServeDisconnected(
                    f"server {self.host}:{self.port} closed the connection "
                    "before a done/error frame"
                )
            finally:
                reader.close()

    # -- wire helpers --------------------------------------------------

    def _send(self, sock: socket.socket, frame: Dict[str, Any]) -> None:
        try:
            sock.sendall(encode_frame(frame))
        except (ConnectionError, OSError) as exc:
            raise ServeDisconnected(
                f"connection to {self.host}:{self.port} lost mid-upload: "
                f"{exc}"
            ) from exc

    def _frames(self, reader) -> Iterator[Dict[str, Any]]:
        while True:
            frame = self._read(reader)
            if frame is None:
                return
            yield frame

    def _read(self, reader) -> Optional[Dict[str, Any]]:
        try:
            line = reader.readline(MAX_FRAME_BYTES + 1)
        except (ConnectionError, OSError, socket.timeout) as exc:
            raise ServeDisconnected(
                f"connection to {self.host}:{self.port} lost: {exc}"
            ) from exc
        if len(line) > MAX_FRAME_BYTES:
            raise ProtocolError(
                f"frame from {self.host}:{self.port} exceeds MAX_FRAME_BYTES"
            )
        if not line or not line.endswith(b"\n"):
            return None
        return decode_frame(line)

    def _expect(self, reader, kind: str) -> Dict[str, Any]:
        frame = self._read(reader)
        if frame is None:
            raise ServeDisconnected(
                f"server {self.host}:{self.port} closed the connection "
                f"while awaiting {kind!r}"
            )
        if frame["type"] == "error":
            raise ServeError(
                frame.get("code", "protocol"),
                frame.get("message", "unspecified server error"),
            )
        if frame["type"] != kind:
            raise ProtocolError(
                f"expected {kind!r} frame, got {frame['type']!r}"
            )
        return frame
