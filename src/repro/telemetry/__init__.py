"""Observability layer: event tracing, run metrics, manifests, span timing.

Zero-cost when disabled: every entry point of the simulation stack
accepts ``tracer=None`` / ``metrics=None`` / ``spans=None`` and the
engines skip the event and metric hooks behind a single ``None`` check
(pinned by the overhead guard in ``benchmarks/bench_fused_engine.py``).
Timing has one mechanism: :class:`SpanTracer` trees.  The engines time
their phases and lanes with spans (into a private tracer when the
caller passes none, which is where ``SimResult.wall_seconds`` comes
from) and ``--profile`` prints :meth:`SpanTracer.timing_report`.  Enabling
it never changes simulation results -- the differential harness proves
both engines produce bit-identical :class:`~repro.sim.metrics.SimResult`
objects with telemetry on and off.

See ``docs/observability.md`` for the event schema, manifest fields
and workflow recipes.
"""

from repro.telemetry.events import EVENT_KINDS
from repro.telemetry.export import (
    registry_from_prometheus,
    to_jsonl,
    to_prometheus,
    write_metrics_export,
)
from repro.telemetry.hooks import EngineTelemetry
from repro.telemetry.manifest import (
    RunManifest,
    build_manifest,
    config_digest,
    diff_manifests,
)
from repro.telemetry.metrics import Counter, Histogram, MetricsRegistry
from repro.telemetry.spans import Span, SpanTracer, span_id_for, span_of
from repro.telemetry.statusbus import (
    CampaignSnapshot,
    Heartbeater,
    StatusBus,
    WorkerHeartbeat,
    write_json_atomic,
)
from repro.telemetry.tracer import (
    JsonlTracer,
    NullTracer,
    RecordingTracer,
    Tracer,
    read_jsonl_events,
)

__all__ = [
    "EVENT_KINDS",
    "EngineTelemetry",
    "RunManifest",
    "build_manifest",
    "config_digest",
    "diff_manifests",
    "Counter",
    "Histogram",
    "MetricsRegistry",
    "Span",
    "SpanTracer",
    "span_id_for",
    "span_of",
    "CampaignSnapshot",
    "Heartbeater",
    "StatusBus",
    "WorkerHeartbeat",
    "write_json_atomic",
    "registry_from_prometheus",
    "to_jsonl",
    "to_prometheus",
    "write_metrics_export",
    "JsonlTracer",
    "NullTracer",
    "RecordingTracer",
    "Tracer",
    "read_jsonl_events",
]
