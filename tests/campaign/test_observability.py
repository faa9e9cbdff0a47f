"""Observability-plane integration: crash consistency and zero drift.

Three contracts from the live-observability PR:

* the status bus is **never torn**: every ``*.json`` under
  ``<ckpt>/status`` parses, even after the publishing campaign is
  SIGKILLed mid-run (the writers go through ``write_json_atomic``);
* span summaries are **resume-safe**: a killed-and-resumed campaign
  rebuilds a span summary bit-identical to an uninterrupted run's,
  because shard span trees are checkpointed with the shards and
  re-adopted in canonical order;
* observability is **pure observation**: enabling spans + status
  produces aggregates bit-identical to a run with both disabled, and
  toggling them never invalidates ``--resume``.
"""

import json
import signal
import time

from repro.campaign import CampaignStore, run_durable_campaign
from repro.config import small_test_config
from repro.sim.parallel import run_campaign
from repro.telemetry import (
    MetricsRegistry,
    SpanTracer,
    StatusBus,
    WorkerHeartbeat,
    registry_from_prometheus,
    to_prometheus,
)

from tests.campaign.test_kill_resume import (
    SEEDS,
    TECHNIQUES,
    canonical,
    start_doomed_campaign,
    wait_for_checkpointed_shard,
)


def durable(ckpt, resume=False, spans=None, engine="fast", **kwargs):
    return run_durable_campaign(
        small_test_config(num_banks=2),
        total_intervals=8,
        checkpoint_dir=ckpt,
        resume=resume,
        techniques=TECHNIQUES,
        seeds=SEEDS,
        workers=0,
        engine=engine,
        spans=spans,
        **kwargs,
    )


class TestCrashConsistency:
    def test_status_bus_never_torn_and_span_summary_resumes_identical(
        self, tmp_path
    ):
        ckpt = tmp_path / "ckpt"
        store = CampaignStore(ckpt)
        proc = start_doomed_campaign(ckpt)
        try:
            wait_for_checkpointed_shard(store, proc)
        finally:
            if proc.poll() is None:
                proc.send_signal(signal.SIGKILL)
            proc.wait(timeout=30)

        # every surviving status record parses -- atomic writes cannot
        # leave a half-written JSON file behind, only ignorable *.tmp
        status_dir = ckpt / "status"
        status_files = list(status_dir.rglob("*.json"))
        assert status_files, "the doomed campaign never published status"
        for path in status_files:
            json.loads(path.read_text(encoding="utf-8"))
        bus = StatusBus.for_checkpoint(ckpt)
        assert bus.read_snapshot() is not None
        assert bus.read_heartbeats()  # parsed, not skipped as torn

        # resume with spans the original invocation never asked for:
        # shard trees were checkpointed anyway, so the summary is the
        # uninterrupted run's, bit for bit
        resumed_spans = SpanTracer(id_seed="caller")
        resumed = durable(ckpt, resume=True, spans=resumed_spans)
        reference_spans = SpanTracer(id_seed="caller")
        reference = durable(tmp_path / "reference", spans=reference_spans)
        assert canonical(resumed) == canonical(reference)
        assert resumed_spans.summary() == reference_spans.summary()
        assert "campaign/shard/simulate" in \
            resumed_spans.summary()["paths"]

        # the resume refreshed the snapshot to the store's truth
        final = bus.read_snapshot()
        assert final.complete
        assert final.done == final.total == len(TECHNIQUES) * len(SEEDS)


class TestZeroDrift:
    def test_fused_aggregates_identical_with_and_without_observability(
        self, tmp_path
    ):
        spans = SpanTracer(id_seed="cfg")
        enabled = durable(tmp_path / "on", engine="fused", spans=spans)
        # no checkpoint, no status bus, no spans
        disabled = run_campaign(
            small_test_config(num_banks=2), total_intervals=8,
            techniques=TECHNIQUES, seeds=SEEDS, workers=0, engine="fused",
        )
        assert canonical(enabled) == canonical(disabled)
        assert "campaign/shard" in spans.summary()["paths"]
        assert (tmp_path / "on" / "status" / "campaign.json").is_file()

    def test_inline_campaign_identical_with_and_without_observability(
        self, tmp_path
    ):
        config = small_test_config(num_banks=2)
        kwargs = dict(
            total_intervals=8, techniques=TECHNIQUES, seeds=SEEDS,
            workers=0,
        )
        plain = run_campaign(config, **kwargs)
        spans = SpanTracer(id_seed="cfg")
        bus = StatusBus(tmp_path / "status")
        observed = run_campaign(config, spans=spans, status=bus, **kwargs)
        assert canonical(plain) == canonical(observed)
        assert bus.read_snapshot().complete
        assert len(bus.read_heartbeats()) == len(TECHNIQUES) * len(SEEDS)
        assert all(b.phase == "done" for b in bus.read_heartbeats())

    def test_observability_toggle_never_invalidates_resume(self, tmp_path):
        ckpt = tmp_path / "ckpt"
        durable(ckpt)  # no spans
        # re-running with full observability is a valid resume, not a
        # CheckpointMismatchError: nothing observable enters the spec
        spans = SpanTracer(id_seed="cfg")
        resumed = durable(ckpt, resume=True, spans=spans)
        assert not resumed.failures
        assert spans.summary()["paths"]["campaign"]["count"] == 1


class TestStaleDetection:
    def test_stale_heartbeat_surfaces_in_campaign_metric(self, tmp_path):
        bus = StatusBus(tmp_path / "status", stale_after=0.001)
        bus.publish_heartbeat(WorkerHeartbeat(
            worker="ghost__s9", cells_done=0, cells_total=1,
            mono=time.monotonic() - 60.0,
        ))
        metrics = MetricsRegistry()
        run_campaign(
            small_test_config(num_banks=2),
            total_intervals=8,
            techniques=("PARA",),
            seeds=(0, 1),
            workers=0,
            status=bus,
            metrics=metrics,
        )
        stale = metrics.counters["campaign.workers_stale"].value
        assert stale >= 1
        assert bus.read_snapshot().stale >= 0


class TestExportAcceptance:
    def test_campaign_metrics_round_trip_through_prometheus(self, tmp_path):
        metrics = MetricsRegistry()
        durable(tmp_path / "ckpt", metrics=metrics)
        back = registry_from_prometheus(to_prometheus(metrics))
        assert back.as_dict() == metrics.as_dict()
        assert back.counters["campaign.shards_completed"].value == \
            len(TECHNIQUES) * len(SEEDS)
