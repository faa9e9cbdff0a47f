"""Integration tests for the streaming evaluation service.

Every test runs a real :class:`ServeServer` on an ephemeral loopback
port with the server thread owning its own event loop -- the same
deployment shape as ``repro serve`` -- and drives it with the blocking
:class:`ServeClient` (or a raw socket where the test needs a client
that misbehaves on purpose).
"""

import gzip
import json
import socket
import threading
import time
from contextlib import contextmanager

import pytest

from repro.config import SimConfig
from repro.serve import (
    ServeClient,
    ServeDisconnected,
    ServeError,
    ServeServer,
    ServeSettings,
    encode_chunk,
    encode_frame,
)
from repro.sim.fused_engine import GridCell, run_simulation_grid
from repro.traces.ingest import ingest_trace

from tests.traces.ingest.test_streaming import FIXTURES

TRACE = FIXTURES / "mini_dramsim.trace.gz"
CLOCK_NS = 45.0


@contextmanager
def serving(tmp_path, **overrides):
    """A live server on a free port; kwargs override ServeSettings."""
    settings = ServeSettings(
        port=0,
        shards=2,
        ingest_cache=str(tmp_path / "ingest-cache"),
        **overrides,
    )
    server = ServeServer(settings=settings)
    thread = threading.Thread(target=server.run, daemon=True)
    thread.start()
    assert server.wait_started(30), "server did not start"
    try:
        yield server
    finally:
        server.shutdown()
        thread.join(30)
        assert not thread.is_alive(), "server did not shut down"


def client_for(server, **kwargs):
    return ServeClient("127.0.0.1", server.port, timeout=60.0, **kwargs)


def offline_results(techniques, seeds, cache_root):
    """What an offline run of the same grid produces (ground truth)."""
    from repro.traces.ingest import IngestCache

    config = SimConfig()
    ingested = ingest_trace(
        TRACE, config, clock_ns=CLOCK_NS,
        cache=IngestCache(root=cache_root),
    )
    trace = ingested.trace.materialize()
    cells = [
        GridCell(technique=None if t == "none" else t, seed=s)
        for t in techniques
        for s in seeds
    ]
    return ingested, run_simulation_grid(config, trace, cells)


class TestRoundTrip:
    def test_verdicts_bit_identical_to_offline(self, tmp_path):
        techniques, seeds = ["PARA", "none", "LoLiPRoMi"], [0, 1]
        with serving(tmp_path) as server:
            outcome = client_for(server).submit(
                TRACE, techniques=techniques, seeds=seeds,
                clock_ns=CLOCK_NS, session="roundtrip",
            )
        ingested, expected = offline_results(
            techniques, seeds, tmp_path / "offline-cache"
        )
        assert [v["result"] for v in outcome.verdicts] == [
            r.as_dict() for r in expected
        ]
        # provenance digests match the offline ingest of the same file:
        # the server hashed exactly the bytes that travelled the wire
        assert (outcome.provenance["source_digest"]
                == ingested.provenance["source_digest"])
        assert (outcome.provenance["spec_digest"]
                == ingested.provenance["spec_digest"])

    def test_reference_engine_verdicts_match_fused(self, tmp_path):
        """The per-cell engine streams the same verdict frames, in the
        same order, as the grid engine."""
        grid = dict(
            techniques=["none", "PARA", "TWiCe"], seeds=[0, 1],
            clock_ns=CLOCK_NS,
        )
        verdicts = {}
        for engine in ("fused", "reference"):
            with serving(tmp_path / engine, engine=engine) as server:
                verdicts[engine] = client_for(server).submit(
                    TRACE, session=engine, **grid
                ).verdicts
        assert [v["index"] for v in verdicts["reference"]] == list(range(6))
        assert verdicts["reference"] == verdicts["fused"]

    def test_verdict_frames_carry_cell_identity(self, tmp_path):
        with serving(tmp_path) as server:
            outcome = client_for(server).submit(
                TRACE, techniques=["para"], seeds=[3], clock_ns=CLOCK_NS,
            )
        (verdict,) = outcome.verdicts
        assert verdict["technique"] == "PARA"  # canonicalised
        assert verdict["seed"] == 3
        assert verdict["index"] == 0
        assert outcome.done["cells"] == 1

    def test_second_session_hits_shared_ingest_cache(self, tmp_path):
        with serving(tmp_path) as server:
            client = client_for(server)
            first = client.submit(TRACE, clock_ns=CLOCK_NS)
            second = client.submit(TRACE, clock_ns=CLOCK_NS)
        assert not first.cache_hit
        assert second.cache_hit
        # hit or miss, the verdicts are value-identical
        assert first.results() == second.results()

    def test_concurrent_sessions_identical_verdicts(self, tmp_path):
        outcomes = {}
        errors = []

        def worker(label):
            try:
                outcomes[label] = client_for(server).submit(
                    TRACE, techniques=["PARA", "none"], seeds=[0],
                    clock_ns=CLOCK_NS, session=label,
                )
            except Exception as exc:  # surfaces in the main thread
                errors.append((label, exc))

        with serving(tmp_path) as server:
            threads = [
                threading.Thread(target=worker, args=(f"c{i}",))
                for i in range(3)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(60)
        assert not errors
        assert len(outcomes) == 3
        results = [outcomes[f"c{i}"].results() for i in range(3)]
        assert results[0] == results[1] == results[2]
        # sessions were spread across both shards round-robin
        shards = {o.accepted["shard"] for o in outcomes.values()}
        assert shards == {0, 1}


class TestValidation:
    def test_unknown_technique_rejected(self, tmp_path):
        with serving(tmp_path) as server:
            with pytest.raises(ServeError, match="bad-request") as excinfo:
                client_for(server).submit(TRACE, techniques=["NotATech"])
        assert excinfo.value.code == "bad-request"

    def test_unknown_format_rejected(self, tmp_path):
        with serving(tmp_path) as server:
            with pytest.raises(ServeError, match="format"):
                client_for(server).submit(TRACE, format="pcap")

    def test_truncated_gzip_upload_is_an_ingest_error(self, tmp_path):
        cut = tmp_path / "cut.trace.gz"
        cut.write_bytes(TRACE.read_bytes()[:100])
        with serving(tmp_path) as server:
            with pytest.raises(ServeError, match="truncated") as excinfo:
                client_for(server).submit(cut, clock_ns=CLOCK_NS)
        assert excinfo.value.code == "ingest"

    def test_server_survives_a_failed_session(self, tmp_path):
        with serving(tmp_path) as server:
            client = client_for(server)
            with pytest.raises(ServeError):
                client.submit(TRACE, techniques=["NotATech"])
            outcome = client.submit(TRACE, clock_ns=CLOCK_NS)
        assert len(outcome.verdicts) == 1


class TestDisconnect:
    def test_client_raises_serve_disconnected_on_dead_server(self):
        """A server that dies mid-handshake surfaces cleanly."""
        listener = socket.socket()
        listener.bind(("127.0.0.1", 0))
        listener.listen(1)
        port = listener.getsockname()[1]

        def accept_and_hang_up():
            conn, _ = listener.accept()
            conn.close()

        thread = threading.Thread(target=accept_and_hang_up, daemon=True)
        thread.start()
        try:
            with pytest.raises(ServeDisconnected):
                ServeClient("127.0.0.1", port, timeout=10).submit(TRACE)
        finally:
            thread.join(10)
            listener.close()


class TestBackpressure:
    def test_large_grid_with_reading_client_is_not_shed(self, tmp_path):
        """A grid bigger than the outbound queue must *throttle* the
        worker, not shed a client that is reading as fast as it can:
        shedding is for clients that stopped, not clients that parse
        slower than the engine produces."""
        with serving(tmp_path, session_queue=8) as server:
            outcome = client_for(server).submit(
                TRACE, techniques=["PARA"], seeds=list(range(64)),
                clock_ns=CLOCK_NS, session="biggrid",
            )
            assert server.metrics.counters["serve.sessions_shed"].value == 0
        assert len(outcome.verdicts) == 64
        assert outcome.done["cells"] == 64

    def test_non_reading_client_is_shed(self, tmp_path):
        """A client that uploads but never reads fills its bounded
        queue, exhausts the stall grace, and is dropped -- not buffered
        without limit."""
        metrics_out = tmp_path / "serve.prom"
        with serving(
            tmp_path,
            session_queue=2,
            write_buffer_bytes=1024,
            so_sndbuf=4096,
            shed_grace_s=0.5,
            metrics_out=str(metrics_out),
        ) as server:
            sock = socket.socket()
            # tiny receive window: the kernel cannot absorb the verdict
            # stream on the client's behalf
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
            sock.connect(("127.0.0.1", server.port))
            try:
                sock.sendall(encode_frame({
                    "type": "open",
                    "techniques": ["PARA"],
                    "seeds": list(range(512)),
                    "clock_ns": CLOCK_NS,
                    "session": "deadbeat",
                }))
                sock.sendall(encode_frame(encode_chunk(TRACE.read_bytes())))
                sock.sendall(encode_frame({"type": "end"}))
                deadline = time.monotonic() + 60
                while time.monotonic() < deadline:
                    if server.metrics.counters["serve.sessions_shed"].value:
                        break
                    time.sleep(0.05)
                shed = server.metrics.counters["serve.sessions_shed"].value
            finally:
                sock.close()
        assert shed == 1
        # the export (rewritten when the session finished) shows both
        # the shed counter and the queue-depth histogram
        text = metrics_out.read_text()
        assert 'repro_counter_total{name="serve.sessions_shed"} 1' in text
        assert 'name="serve.queue_depth"' in text

    def test_shed_metric_exported_at_zero(self, tmp_path):
        """The counter exists from the first export, not only after a
        shed -- dashboards must see an explicit zero."""
        metrics_out = tmp_path / "serve.prom"
        with serving(tmp_path, metrics_out=str(metrics_out)):
            pass
        text = metrics_out.read_text()
        assert 'repro_counter_total{name="serve.sessions_shed"} 0' in text


class TestObservability:
    def test_status_bus_and_metrics_export(self, tmp_path):
        status_dir = tmp_path / "service"
        metrics_out = tmp_path / "serve.prom"
        with serving(
            tmp_path,
            status_dir=str(status_dir),
            metrics_out=str(metrics_out),
        ) as server:
            client_for(server).submit(
                TRACE, clock_ns=CLOCK_NS, session="watched"
            )
            heartbeats = list((status_dir / "status" / "workers").glob("*.json"))
            assert len(heartbeats) == 1
            beat = json.loads(heartbeats[0].read_text())
            assert beat["phase"] == "done"
            assert beat["cells_done"] == beat["cells_total"] == 1
            live = json.loads(
                (status_dir / "status" / "campaign.json").read_text()
            )
            assert (live["done"], live["total"]) == (1, 1)
            assert live["complete"] is False  # server still running
        final = json.loads(
            (status_dir / "status" / "campaign.json").read_text()
        )
        assert final["complete"] is True
        text = metrics_out.read_text()
        assert 'name="serve.sessions_completed"} 1' in text
        # per-session engine metrics merged into the service registry
        assert "ingest." in text

    def test_service_span_tree_stays_bounded(self, tmp_path):
        """Finished sessions fold into a per-path summary: the service
        tracer keeps only its root span, and the export still counts
        every session's spans."""
        from repro.telemetry.export import parse_prometheus

        metrics_out = tmp_path / "serve.prom"
        with serving(tmp_path, metrics_out=str(metrics_out)) as server:
            for index in range(3):
                client_for(server).submit(
                    TRACE, techniques=["PARA", "TWiCe"], seeds=[0, 1],
                    clock_ns=CLOCK_NS, session=f"s{index}",
                )
        assert [span.path for span in server.spans.spans] == ["serve"]
        assert parse_prometheus(metrics_out.read_text())["span_paths"] == {
            "serve": 1,
            "serve/session": 3,
            "serve/session/receive": 3,
            "serve/session/ingest": 3,
            "serve/session/ingest/cache": 4,
            "serve/session/ingest/parse": 1,
            "serve/session/evaluate": 3,
            "serve/session/evaluate/decode": 3,
            "serve/session/evaluate/device": 3,
            "serve/session/evaluate/index": 3,
            "serve/session/evaluate/decide": 9,
            "serve/session/evaluate/resolve": 9,
        }

    def test_campaign_status_follow_reads_a_live_server(self, tmp_path, capsys):
        from repro.cli import main

        status_dir = tmp_path / "service"
        with serving(tmp_path, status_dir=str(status_dir)) as server:
            client_for(server).submit(TRACE, clock_ns=CLOCK_NS, session="s")
            code = main([
                "campaign-status", str(status_dir), "--once", "--json",
            ])
        assert code == 0
        frame = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert frame["store"] is None  # no checkpoint store: bus only
        assert frame["snapshot"]["total"] == 1
        assert [w["worker"] for w in frame["workers"]] == ["session-s-0001"]
