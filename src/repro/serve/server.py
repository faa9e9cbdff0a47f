"""The ``repro serve`` evaluation service.

A long-running asyncio TCP server that accepts trace uploads over the
NDJSON protocol of :mod:`repro.serve.protocol`, evaluates each session
against a ``technique x seed`` cell grid, and streams verdict frames
back incrementally.  The design mirrors the campaign stack one layer
up:

* **Session-sharded workers.**  Accepted sessions are assigned
  round-robin to one of ``shards`` worker lanes; each lane owns a
  single-thread executor, so one session's cells evaluate in order on
  one shard while the event loop keeps every other connection live.
  The evaluation is :func:`~repro.sim.engine.run_cells`, the cell-list
  evaluator campaign units use too: on the fused engine (the default)
  one trace decode serves the whole cell grid; on ``reference`` each
  cell runs on its own and its verdict streams as it finishes.
* **Shared ingest cache.**  Uploads are spooled byte-for-byte, so the
  content digest (and therefore the PR5
  :class:`~repro.traces.ingest.cache.IngestCache` key) is identical to
  an offline ``repro run --trace-file`` of the same file.  All
  sessions share one cache root: the second upload of a trace is a
  cache hit no matter which client sent it first.
* **Backpressure, not buffers.**  Every session owns a bounded
  outbound frame queue drained by a writer task that honours TCP flow
  control.  When the queue is full the shard worker *throttles* --
  large grids never overflow just because the engine outruns the
  client's parser -- burning a per-session grace budget
  (``shed_grace_s``); a client that stays stuck past the budget is
  *shed* -- connection aborted, ``serve.sessions_shed`` incremented --
  so one genuinely dead consumer cannot hold its shard lane or memory
  hostage.  Queue depths are sampled into the ``serve.queue_depth``
  histogram on every enqueue.
* **Observability plane.**  Each session records a
  :class:`~repro.telemetry.spans.SpanTracer` tree and its own
  :class:`~repro.telemetry.metrics.MetricsRegistry`; when the session
  ends its registry merges into the service-level one and its span
  tree folds into the service's per-path span summary (counts and
  attribute keys, no clocks), so neither grows with uptime.  With
  ``--status-dir`` the server publishes per-session
  :class:`~repro.telemetry.statusbus.WorkerHeartbeat` records and a
  rolling :class:`~repro.telemetry.statusbus.CampaignSnapshot` under
  ``<status_dir>/status``, so ``repro campaign-status <status_dir>
  --follow`` works unchanged against a live server; with
  ``--metrics-out`` the merged registry (plus span summary) is
  re-exported after every session, so the file on disk is always a
  consistent snapshot even if the server is later SIGKILLed.

The protocol spec and a runnable client/server quickstart live in
``docs/serve.md``.
"""

from __future__ import annotations

import asyncio
import contextlib
import os
import signal
import socket
import tempfile
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from repro.config import SimConfig
from repro.mitigations.registry import resolve_technique
from repro.serve.protocol import (
    MAX_FRAME_BYTES,
    PROTOCOL_VERSION,
    ProtocolError,
    decode_chunk,
    decode_frame,
    encode_frame,
    error_frame,
)
from repro.sim.engine import ENGINE_NAMES, run_cells
from repro.sim.fused_engine import GridCell
from repro.telemetry.export import write_metrics_export
from repro.telemetry.metrics import MetricsRegistry
from repro.telemetry.spans import SpanTracer
from repro.telemetry.statusbus import CampaignSnapshot, StatusBus
from repro.traces.ingest.cache import IngestCache, default_cache_dir
from repro.traces.ingest.pipeline import ingest_trace
from repro.traces.ingest.readers import FORMAT_NAMES
from repro.traces.ingest.streaming import ChunkDecoder
from repro.traces.trace_io import TraceFormatError

#: queue sentinel asking a session's writer task to exit cleanly
_CLOSE = object()

#: ``serve.queue_depth`` histogram bucket bounds (frames)
_QUEUE_DEPTH_BOUNDS = (0, 1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024)


@dataclass
class ServeSettings:
    """Tunables of one :class:`ServeServer` (CLI flags map 1:1)."""

    host: str = "127.0.0.1"
    port: int = 0  # 0 = pick a free port; read it back via server.port
    shards: int = 2
    engine: str = "fused"
    #: outbound frames buffered per session before the client is shed
    session_queue: int = 256
    #: chunk frames between ``progress`` frames during an upload
    progress_every: int = 16
    #: transport write-buffer high-water mark (small values surface
    #: slow clients quickly; the shed tests rely on this being small)
    write_buffer_bytes: int = 256 * 1024
    #: cells a single session may request
    max_cells: int = 4096
    #: ``campaign-status``-compatible status directory (None = off)
    status_dir: Optional[str] = None
    #: metrics/span export rewritten after every session (None = off)
    metrics_out: Optional[str] = None
    #: shared ingest-cache root (None = $REPRO_INGEST_CACHE default)
    ingest_cache: Optional[str] = None
    #: kernel SO_SNDBUF per connection (None = OS default).  Shrinking
    #: it bounds how many frames the kernel absorbs for a non-reading
    #: client, which is how the shed tests make backpressure prompt.
    so_sndbuf: Optional[int] = None
    #: cumulative seconds a session's worker may stall on a full
    #: outbound queue before the client is shed.  The throttle lets a
    #: compliant-but-slower client absorb grids far larger than
    #: ``session_queue``; only a client that stays stuck this long in
    #: total is dropped.
    shed_grace_s: float = 20.0

    def __post_init__(self) -> None:
        if self.shards < 1:
            raise ValueError(f"shards must be >= 1: {self.shards}")
        if self.session_queue < 1:
            raise ValueError(
                f"session_queue must be >= 1: {self.session_queue}"
            )
        if self.shed_grace_s < 0:
            raise ValueError(
                f"shed_grace_s must be >= 0: {self.shed_grace_s}"
            )
        if self.engine not in ENGINE_NAMES:
            raise ValueError(
                f"unknown engine {self.engine!r} (expected one of "
                f"{', '.join(ENGINE_NAMES)})"
            )


class _SessionError(RuntimeError):
    """A session-terminating failure with a protocol error code."""

    def __init__(self, code: str, message: str):
        super().__init__(message)
        self.code = code


class _Session:
    """Book-keeping for one connected evaluation session."""

    def __init__(
        self,
        session_id: str,
        shard: int,
        writer: asyncio.StreamWriter,
        spec: Dict[str, Any],
        cells: List[GridCell],
        queue_size: int,
    ):
        self.id = session_id
        self.shard = shard
        self.writer = writer
        self.spec = spec
        self.cells = cells
        self.queue: "asyncio.Queue" = asyncio.Queue(maxsize=queue_size)
        self.decoder = ChunkDecoder(source=f"session:{session_id}")
        self.spans = SpanTracer(id_seed=f"serve:{session_id}")
        self.registry = MetricsRegistry()
        self.spool_path: Optional[str] = None
        self.drain_task: Optional["asyncio.Task"] = None
        self.finished = asyncio.Event()
        self.shed = False
        self.outcome: Optional[str] = None
        self.cells_done = 0
        # worker-side frame accounting for the producer throttle: each
        # field has exactly one writer thread (worker bumps scheduled,
        # event loop bumps landed), so the difference -- frames posted
        # but not yet enqueued -- is race-free without a lock
        self.frames_scheduled = 0
        self.frames_landed = 0


class ServeServer:
    """The evaluation service (see module docstring).

    Thread-friendly lifecycle: :meth:`run` blocks (own event loop);
    :meth:`wait_started` lets another thread wait for the bound port;
    :meth:`shutdown` is safe to call from any thread and triggers a
    graceful stop (final snapshot + metrics export).
    """

    def __init__(
        self,
        config: Optional[SimConfig] = None,
        settings: Optional[ServeSettings] = None,
    ):
        self.config = config if config is not None else SimConfig()
        self.settings = settings if settings is not None else ServeSettings()
        self.port: Optional[int] = None
        self.metrics = MetricsRegistry()
        #: the service's own spans: its root only, so it stays bounded
        self.spans = SpanTracer(id_seed="repro-serve")
        #: per-path span count and attribute keys of every finished
        #: session, folded from its clock-free summary
        self._session_paths: Dict[str, Tuple[int, set]] = {}
        self.bus: Optional[StatusBus] = (
            StatusBus.for_checkpoint(self.settings.status_dir)
            if self.settings.status_dir
            else None
        )
        self.cache_root = (
            Path(self.settings.ingest_cache)
            if self.settings.ingest_cache
            else default_cache_dir()
        )
        # backpressure metrics exist (at zero) from the first export on
        self.metrics.counter("serve.sessions_shed")
        self.metrics.counter("serve.sessions_opened")
        self.metrics.counter("serve.sessions_completed")
        self.metrics.counter("serve.sessions_failed")
        self.metrics.counter("serve.sessions_aborted")
        self._queue_depth = self.metrics.histogram(
            "serve.queue_depth", _QUEUE_DEPTH_BOUNDS
        )
        self._started = threading.Event()
        self._startup_error: Optional[BaseException] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._stop: Optional[asyncio.Event] = None
        self._root_span = None
        self._started_mono = 0.0
        self._sessions_opened = 0
        self._sessions_done = 0
        self._shard_queues: List["asyncio.Queue"] = []
        self._executors: List[ThreadPoolExecutor] = []

    # -- lifecycle -----------------------------------------------------

    def run(self) -> None:
        """Run the server until :meth:`shutdown` (blocking)."""
        try:
            asyncio.run(self.serve())
        except KeyboardInterrupt:  # pragma: no cover - interactive stop
            pass
        except BaseException as exc:
            self._startup_error = exc
            raise
        finally:
            self._started.set()  # never leave wait_started() hanging

    def wait_started(self, timeout: Optional[float] = None) -> bool:
        """Block until the port is bound (True) or *timeout* (False)."""
        ok = self._started.wait(timeout)
        if self._startup_error is not None:
            raise RuntimeError(
                f"server failed to start: {self._startup_error}"
            ) from self._startup_error
        return ok and self.port is not None

    def shutdown(self) -> None:
        """Request a graceful stop; safe from any thread."""
        loop, stop = self._loop, self._stop
        if loop is not None and stop is not None:
            loop.call_soon_threadsafe(stop.set)

    async def serve(self) -> None:
        """Bind, accept sessions, and block until shutdown."""
        self._loop = asyncio.get_running_loop()
        self._stop = asyncio.Event()
        self._started_mono = time.monotonic()
        with contextlib.suppress(NotImplementedError, RuntimeError, ValueError):
            # CLI runs in the main thread; embedded/test servers do not
            self._loop.add_signal_handler(signal.SIGTERM, self._stop.set)
        self._shard_queues = [
            asyncio.Queue() for _ in range(self.settings.shards)
        ]
        self._executors = [
            ThreadPoolExecutor(
                max_workers=1, thread_name_prefix=f"serve-shard-{index}"
            )
            for index in range(self.settings.shards)
        ]
        workers = [
            asyncio.ensure_future(self._shard_worker(index))
            for index in range(self.settings.shards)
        ]
        server = await asyncio.start_server(
            self._handle,
            host=self.settings.host,
            port=self.settings.port,
            limit=MAX_FRAME_BYTES,
        )
        self.port = server.sockets[0].getsockname()[1]
        self._root_span = self.spans.start(
            "serve", shards=self.settings.shards, engine=self.settings.engine
        )
        self._publish_snapshot(complete=False)
        self._export_metrics()
        self._started.set()
        try:
            await self._stop.wait()
        finally:
            server.close()
            await server.wait_closed()
            for queue in self._shard_queues:
                queue.put_nowait(None)
            await asyncio.gather(*workers, return_exceptions=True)
            for executor in self._executors:
                executor.shutdown(wait=False)
            if self._root_span is not None:
                self.spans.finish()
            self._publish_snapshot(complete=True)
            self._export_metrics()

    # -- connection handling -------------------------------------------

    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        transport = writer.transport
        with contextlib.suppress(AttributeError, NotImplementedError):
            transport.set_write_buffer_limits(
                high=self.settings.write_buffer_bytes
            )
        if self.settings.so_sndbuf:
            sock = writer.get_extra_info("socket")
            if sock is not None:
                with contextlib.suppress(OSError):
                    sock.setsockopt(
                        socket.SOL_SOCKET, socket.SO_SNDBUF,
                        self.settings.so_sndbuf,
                    )
        session: Optional[_Session] = None
        try:
            writer.write(encode_frame(self._hello()))
            await writer.drain()
            frame = await self._read_frame(reader)
            if frame is None:
                return
            if frame.get("type") != "open":
                raise _SessionError(
                    "protocol",
                    f"expected an 'open' frame, got {frame.get('type')!r}",
                )
            session = self._open_session(frame, writer)
            session.drain_task = asyncio.ensure_future(self._drain(session))
            self._emit(session, {
                "type": "accepted",
                "session": session.id,
                "shard": session.shard,
                "cells": len(session.cells),
                "engine": self.settings.engine,
            })
            self._beat(session)
            uploaded = await self._receive(session, reader)
            if not uploaded:
                self._finish(session, "aborted")
                session.finished.set()
            else:
                self._shard_queues[session.shard].put_nowait(session)
                await session.finished.wait()
        except _SessionError as exc:
            if session is not None:
                self._emit(session, error_frame(exc.code, str(exc)))
                self._finish(session, "error")
                session.finished.set()
            else:
                with contextlib.suppress(ConnectionError, OSError):
                    writer.write(encode_frame(error_frame(exc.code, str(exc))))
                    await writer.drain()
        except ProtocolError as exc:
            with contextlib.suppress(ConnectionError, OSError):
                writer.write(
                    encode_frame(error_frame("protocol", str(exc)))
                )
                await writer.drain()
            if session is not None:
                self._finish(session, "error")
                session.finished.set()
        except (ConnectionError, OSError, asyncio.IncompleteReadError):
            if session is not None:
                self._finish(session, "aborted")
                session.finished.set()
        finally:
            if session is not None:
                await self._close_session(session)
            else:
                with contextlib.suppress(ConnectionError, OSError):
                    writer.close()
                    await writer.wait_closed()

    def _hello(self) -> Dict[str, Any]:
        return {
            "type": "hello",
            "protocol": PROTOCOL_VERSION,
            "server": "repro-serve",
            "engine": self.settings.engine,
            "shards": self.settings.shards,
            "formats": ["auto", *FORMAT_NAMES],
        }

    async def _read_frame(
        self, reader: asyncio.StreamReader
    ) -> Optional[Dict[str, Any]]:
        try:
            line = await reader.readline()
        except (asyncio.LimitOverrunError, ValueError) as exc:
            raise ProtocolError(f"oversized frame: {exc}") from exc
        if not line or not line.endswith(b"\n"):
            return None  # EOF (possibly mid-line): peer went away
        return decode_frame(line)

    def _open_session(
        self, frame: Dict[str, Any], writer: asyncio.StreamWriter
    ) -> _Session:
        protocol = frame.get("protocol", PROTOCOL_VERSION)
        if protocol != PROTOCOL_VERSION:
            raise _SessionError(
                "protocol",
                f"protocol version {protocol!r} unsupported "
                f"(server speaks {PROTOCOL_VERSION})",
            )
        fmt = str(frame.get("format", "auto")).lower()
        if fmt not in ("auto", *FORMAT_NAMES):
            raise _SessionError("bad-request", f"unknown format {fmt!r}")
        on_parse_error = str(frame.get("on_parse_error", "raise"))
        if on_parse_error not in ("raise", "skip"):
            raise _SessionError(
                "bad-request",
                f"on_parse_error must be raise|skip, got {on_parse_error!r}",
            )
        mark_attacks = frame.get("mark_attacks")
        if mark_attacks is not None and not isinstance(mark_attacks, bool):
            raise _SessionError(
                "bad-request", "mark_attacks must be true, false or null"
            )
        try:
            clock_ns = float(frame.get("clock_ns", 1.0))
        except (TypeError, ValueError):
            raise _SessionError("bad-request", "clock_ns must be a number")
        if clock_ns <= 0:
            raise _SessionError("bad-request", "clock_ns must be positive")
        raw_techniques = frame.get("techniques", ["PARA"])
        raw_seeds = frame.get("seeds", [0])
        if not isinstance(raw_techniques, list) or not raw_techniques:
            raise _SessionError(
                "bad-request", "techniques must be a non-empty list"
            )
        if not isinstance(raw_seeds, list) or not raw_seeds:
            raise _SessionError("bad-request", "seeds must be a non-empty list")
        techniques: List[Optional[str]] = []
        for name in raw_techniques:
            if name is None or str(name).lower() == "none":
                techniques.append(None)
                continue
            try:
                techniques.append(resolve_technique(str(name)))
            except ValueError as exc:
                raise _SessionError("bad-request", str(exc)) from exc
        try:
            seeds = [int(seed) for seed in raw_seeds]
        except (TypeError, ValueError):
            raise _SessionError("bad-request", "seeds must be integers")
        cells = [
            GridCell(technique=technique, seed=seed)
            for technique in techniques
            for seed in seeds
        ]
        if len(cells) > self.settings.max_cells:
            raise _SessionError(
                "overloaded",
                f"{len(cells)} cells exceed the per-session limit of "
                f"{self.settings.max_cells}",
            )
        self._sessions_opened += 1
        self.metrics.counter("serve.sessions_opened").add()
        label = "".join(
            ch for ch in str(frame.get("session") or "")
            if ch.isalnum() or ch in "._-"
        )[:32]
        session_id = (
            f"{label}-{self._sessions_opened:04d}"
            if label
            else f"{self._sessions_opened:04d}"
        )
        shard = (self._sessions_opened - 1) % self.settings.shards
        spec = {
            "format": fmt,
            "mapper": str(frame.get("mapper", "layout")),
            "clock_ns": clock_ns,
            "mark_attacks": mark_attacks,
            "on_parse_error": on_parse_error,
        }
        return _Session(
            session_id, shard, writer, spec, cells,
            queue_size=self.settings.session_queue,
        )

    async def _receive(
        self, session: _Session, reader: asyncio.StreamReader
    ) -> bool:
        """Spool chunk frames until ``end``; False when the peer vanishes."""
        handle, spool = tempfile.mkstemp(
            prefix=f"repro-serve-{session.id}-", suffix=".trace"
        )
        session.spool_path = spool
        chunks = 0
        session.spans.start("session", session=session.id)
        session.spans.start("receive")
        try:
            with os.fdopen(handle, "wb") as out:
                while True:
                    frame = await self._read_frame(reader)
                    if frame is None:
                        return False
                    kind = frame.get("type")
                    if kind == "chunk":
                        data = decode_chunk(frame)
                        out.write(data)
                        try:
                            session.decoder.feed(data)
                        except TraceFormatError as exc:
                            raise _SessionError("ingest", str(exc)) from exc
                        chunks += 1
                        self.metrics.counter("serve.chunks_received").add()
                        if chunks % self.settings.progress_every == 0:
                            self._emit(session, {
                                "type": "progress",
                                "bytes": session.decoder.bytes_seen,
                                "lines": session.decoder.lines_seen,
                            })
                            self._beat(session)
                    elif kind == "end":
                        try:
                            session.decoder.flush()
                        except TraceFormatError as exc:
                            raise _SessionError("ingest", str(exc)) from exc
                        return True
                    else:
                        raise _SessionError(
                            "protocol",
                            f"unexpected frame type {kind!r} during upload",
                        )
        finally:
            session.spans.finish()  # receive (the session span stays open
            # until the evaluation job closes it; on error paths
            # _close_session finishes any remainder)

    # -- evaluation ----------------------------------------------------

    async def _shard_worker(self, index: int) -> None:
        queue = self._shard_queues[index]
        executor = self._executors[index]
        while True:
            session = await queue.get()
            if session is None:
                return
            if session.shed or session.outcome is not None:
                continue
            failure = await self._loop.run_in_executor(
                executor, self._run_job, session
            )
            if failure is not None:
                code, message = failure
                self._emit(session, error_frame(code, message))
                self._finish(session, "error")
            else:
                self._emit(session, {
                    "type": "done",
                    "session": session.id,
                    "cells": len(session.cells),
                })
                self._finish(session, "done")
            session.finished.set()

    def _run_job(
        self, session: _Session
    ) -> Optional[Tuple[str, str]]:
        """Ingest + evaluate one session (runs on its shard's thread).

        Frames are handed back to the event loop with
        ``call_soon_threadsafe``; the return value is ``None`` on
        success or ``(error_code, message)``.
        """

        queue_size = self.settings.session_queue
        grace = [self.settings.shed_grace_s]

        def emit(frame: Dict[str, Any]) -> None:
            # Producer throttle: while every queue slot is either
            # occupied or spoken for by an in-flight callback, stall
            # here (the shard thread's time is this session's own lane)
            # instead of overflowing the queue.  The stall draws down a
            # cumulative grace budget; once it is spent the frame is
            # posted anyway and the QueueFull path in _emit sheds the
            # client -- distinguishing "parses slower than the engine"
            # (fine) from "stopped reading" (dropped).
            while not session.shed:
                pending = session.frames_scheduled - session.frames_landed
                if pending + session.queue.qsize() < queue_size:
                    break
                if grace[0] <= 0:
                    break
                time.sleep(0.002)
                grace[0] -= 0.002
            if session.shed:
                return
            session.frames_scheduled += 1
            self._loop.call_soon_threadsafe(self._emit_verdictish, session, frame)

        spans = session.spans
        try:
            result = ingest_trace(
                session.spool_path,
                self.config,
                format=session.spec["format"],
                mapper=session.spec["mapper"],
                clock_ns=session.spec["clock_ns"],
                mark_attacks=session.spec["mark_attacks"],
                on_parse_error=session.spec["on_parse_error"],
                cache=IngestCache(
                    root=self.cache_root, metrics=session.registry
                ),
                metrics=session.registry,
                spans=spans,
            )
            provenance = dict(result.provenance)
            provenance["source"] = f"session:{session.id}"  # spool path is
            # server-private; the digests identify the upload
            emit({"type": "ingest", "provenance": provenance})
            trace = result.trace.materialize()
            engine = self.settings.engine
            with spans.span("evaluate", engine=engine, cells=len(session.cells)):
                results = run_cells(
                    self.config, trace, session.cells, engine,
                    metrics=session.registry, spans=spans,
                )
                for index, sim in enumerate(results):
                    if session.shed:
                        break
                    emit(self._verdict_frame(session, index, sim))
            emit({
                "type": "metrics",
                "session": {
                    "records": result.trace.count(),
                    "cache_hit": result.cache_hit,
                    "cells": len(session.cells),
                    "skipped_records": provenance.get("skipped", 0),
                },
            })
            return None
        except TraceFormatError as exc:
            return ("ingest", str(exc))
        except Exception as exc:  # engine/internal failure: report, survive
            return ("evaluate", f"{type(exc).__name__}: {exc}")
        finally:
            # close the session span opened by _receive (plus any span
            # a mid-flight exception left open)
            while spans.current is not None:
                spans.finish()

    def _verdict_frame(
        self, session: _Session, index: int, sim
    ) -> Dict[str, Any]:
        cell = session.cells[index]
        return {
            "type": "verdict",
            "index": index,
            "technique": cell.technique or "none",
            "seed": cell.seed,
            "result": sim.as_dict(),
        }

    def _emit_verdictish(self, session: _Session, frame: Dict[str, Any]) -> None:
        """Loop-thread landing pad for worker-thread frames."""
        session.frames_landed += 1
        if self._emit(session, frame) and frame.get("type") == "verdict":
            session.cells_done += 1
            self._beat(session)

    # -- outbound queue / backpressure ---------------------------------

    def _emit(self, session: _Session, frame: Dict[str, Any]) -> bool:
        if session.shed or session.drain_task is None:
            return False
        self._queue_depth.record(session.queue.qsize())
        try:
            session.queue.put_nowait(frame)
        except asyncio.QueueFull:
            self._shed(session)
            return False
        self.metrics.counter("serve.frames_sent").add()
        return True

    def _shed(self, session: _Session) -> None:
        """Drop a client that stopped reading its frames."""
        if session.shed:
            return
        session.shed = True
        self.metrics.counter("serve.sessions_shed").add()
        self._finish(session, "shed")
        if session.drain_task is not None:
            session.drain_task.cancel()
        with contextlib.suppress(Exception):
            session.writer.transport.abort()
        session.finished.set()

    async def _drain(self, session: _Session) -> None:
        """Writer task: bounded queue -> transport, honouring drain()."""
        writer = session.writer
        try:
            while True:
                frame = await session.queue.get()
                if frame is _CLOSE:
                    return
                writer.write(encode_frame(frame))
                await writer.drain()
        except (ConnectionError, OSError):
            pass  # receiver went away; _handle notices on its next read

    async def _close_session(self, session: _Session) -> None:
        if session.drain_task is not None and not session.drain_task.done():
            if session.shed:
                session.drain_task.cancel()
            else:
                with contextlib.suppress(asyncio.QueueFull):
                    session.queue.put_nowait(_CLOSE)
            with contextlib.suppress(asyncio.CancelledError):
                await session.drain_task
        with contextlib.suppress(ConnectionError, OSError):
            session.writer.close()
            await session.writer.wait_closed()
        if session.spool_path is not None:
            with contextlib.suppress(OSError):
                os.unlink(session.spool_path)

    # -- accounting / observability ------------------------------------

    def _finish(self, session: _Session, outcome: str) -> None:
        """Fold a finished session into the service plane (idempotent)."""
        if session.outcome is not None:
            return
        session.outcome = outcome
        self._sessions_done += 1
        counter = {
            "done": "serve.sessions_completed",
            "error": "serve.sessions_failed",
            "aborted": "serve.sessions_aborted",
        }.get(outcome)
        if counter is not None:
            self.metrics.counter(counter).add()
        # close any span the session left open before adopting the tree
        while session.spans.current is not None:
            session.spans.finish()
        self.metrics.merge(session.registry)
        prefix = f"{self._root_span.path}/" if self._root_span is not None else ""
        for path, entry in session.spans.summary()["paths"].items():
            count, keys = self._session_paths.get(prefix + path, (0, set()))
            keys.update(entry["attribute_keys"])
            self._session_paths[prefix + path] = (count + entry["count"], keys)
        self._beat(
            session, phase="done" if outcome == "done" else "failed"
        )
        self._publish_snapshot(complete=False)
        self._export_metrics()

    def _beat(self, session: _Session, phase: str = "running") -> None:
        if self.bus is None:
            return
        self.bus.beat(
            f"session-{session.id}",
            cells_done=session.cells_done,
            cells_total=len(session.cells),
            degraded=session.shed,
            phase=phase,
            bytes=session.decoder.bytes_seen,
            lines=session.decoder.lines_seen,
            outcome=session.outcome or "running",
        )

    def _publish_snapshot(self, complete: bool) -> None:
        if self.bus is None:
            return
        self.bus.publish_snapshot(CampaignSnapshot(
            done=self._sessions_done,
            total=self._sessions_opened,
            degraded=self.metrics.counters["serve.sessions_shed"].value,
            started_mono=self._started_mono,
            mono=time.monotonic(),
            complete=complete,
            attrs={"service": "repro-serve", "port": self.port},
        ))

    def _export_metrics(self) -> None:
        if not self.settings.metrics_out:
            return
        summary = self.spans.summary()
        paths = dict(summary["paths"])
        for path, (count, keys) in self._session_paths.items():
            paths[path] = {"count": count, "attribute_keys": sorted(keys)}
        summary["paths"] = dict(sorted(paths.items()))
        write_metrics_export(self.settings.metrics_out, self.metrics, summary)
