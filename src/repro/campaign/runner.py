"""Durable, crash-safe campaign orchestration.

:func:`run_durable_campaign` wraps :func:`repro.sim.parallel.
run_campaign` with a :class:`~repro.campaign.store.CampaignStore`:
every completed (technique, seed) shard is checkpointed the moment it
lands, and a killed campaign restarted with ``resume=True`` validates
the stored spec (config hash, engine, grid) and hands the stored
shards to ``run_campaign`` as ``completed``, which dispatches only the
remainder and folds stored and fresh shards once, in canonical order.
Because each shard is a pure function of (config, technique, seed,
engine), a killed-and-resumed campaign returns aggregates and a span
summary **bit-identical** to an uninterrupted one's
(``tests/campaign/test_kill_resume.py`` SIGKILLs a live campaign to
prove it), and merges shard metrics in the same canonical order.
"""

from __future__ import annotations

import time
from typing import Callable, List, Optional, Sequence

from repro.config import SimConfig
from repro.mitigations.registry import technique_names
from repro.sim.parallel import (
    CampaignResult,
    ProgressCallback,
    RetryPolicy,
    run_campaign,
)
from repro.telemetry.metrics import MetricsRegistry
from repro.telemetry.spans import SpanTracer
from repro.telemetry.statusbus import DEFAULT_STALE_AFTER_S, StatusBus

from repro.campaign.store import CampaignSpec, CampaignStateError, CampaignStore


def run_durable_campaign(
    config: SimConfig,
    total_intervals: int,
    checkpoint_dir,
    resume: bool = False,
    techniques: Optional[Sequence[str]] = None,
    seeds: Sequence[int] = (0, 1, 2),
    include_unmitigated: bool = False,
    workers: Optional[int] = None,
    engine: str = "reference",
    progress: Optional[ProgressCallback] = None,
    tracer=None,
    metrics: Optional[MetricsRegistry] = None,
    spans: Optional[SpanTracer] = None,
    retry: Optional[RetryPolicy] = None,
    fault_injector=None,
    sleep: Callable[[float], None] = time.sleep,
    trace_path=None,
    trace_digest: Optional[str] = None,
    executor=None,
    **workload_kwargs,
) -> CampaignResult:
    """Run (or resume) a campaign with per-shard checkpointing.

    Same contract as :func:`repro.sim.parallel.run_campaign` plus:

    * ``checkpoint_dir`` -- directory holding the campaign spec and one
      JSON file per completed shard (see :mod:`repro.campaign.store`).
    * ``resume`` -- continue a checkpoint that already exists.  The
      stored spec must match the requested campaign exactly (config
      hash, engine, grid, workload knobs); any mismatch raises
      :class:`~repro.campaign.store.CheckpointMismatchError` before any
      work is dispatched.  Without ``resume``, an existing checkpoint
      is refused rather than silently overwritten.
    * ``retry`` / ``fault_injector`` -- worker-level fault tolerance
      and its deterministic test hook (see
      :class:`~repro.sim.parallel.RetryPolicy` and
      :mod:`repro.campaign.faults`).

    Shards degraded under ``retry.on_failure == "skip"`` are *not*
    checkpointed as complete: a later ``resume`` retries exactly those
    shards, so a degraded campaign heals incrementally.

    Observability: a :class:`~repro.telemetry.statusbus.StatusBus` is
    always published under ``<checkpoint_dir>/status`` (what
    ``campaign-status --follow`` reads); its ``stale_after`` is just
    under ``retry.shard_timeout`` when one is set, so staleness
    surfaces before the kill.  Shards always checkpoint their metrics
    and span trees, so a resume that asks for a manifest or span
    summary still covers shards run before an interruption.  Nothing
    observable enters the campaign spec or its config hash -- toggling
    observability can never invalidate ``--resume``.

    ``trace_path`` replays one pre-serialised npz trace for every shard
    (see :func:`repro.sim.parallel.run_campaign`); pass the trace's
    content digest as ``trace_digest`` so ``resume`` can refuse a
    checkpoint taken against different trace bytes -- the digest is
    folded into the stored spec, never into the worker jobs.

    ``executor`` selects the execution lane (an executor name or a
    configured :class:`~repro.sim.executors.Executor` instance, e.g. a
    :class:`~repro.campaign.queue.QueueExecutor` for a multi-host
    campaign over a shared queue directory).  Every durability
    guarantee above -- per-shard checkpointing, config-hash-validated
    resume, bit-identical aggregates, degraded-shard accounting --
    holds identically for every executor: the shared contract suite
    (``tests/campaign/test_executors.py``) asserts them per lane.
    """
    names: List[Optional[str]] = (
        list(techniques) if techniques is not None else technique_names()
    )
    if include_unmitigated:
        names = [None] + names
    spec_kwargs = dict(workload_kwargs)
    if trace_digest is not None:
        spec_kwargs["trace_digest"] = trace_digest
    spec = CampaignSpec.build(
        config,
        engine=engine,
        total_intervals=total_intervals,
        techniques=names,
        seeds=seeds,
        workload_kwargs=spec_kwargs,
    )
    store = CampaignStore(checkpoint_dir)
    if store.exists:
        if not resume:
            raise CampaignStateError(
                f"checkpoint directory {store.root} already holds a "
                "campaign; pass resume=True (--resume) to continue it or "
                "choose a fresh directory"
            )
        store.ensure_matches(spec)
    else:
        store.initialize(spec)
    completed = store.load_shards()
    status = StatusBus.for_checkpoint(
        store.root,
        # surface staleness before the hung-shard kill would fire
        stale_after=(
            max(1.0, retry.shard_timeout * 0.75)
            if retry is not None and retry.shard_timeout is not None
            else DEFAULT_STALE_AFTER_S
        ),
    )
    # heartbeats of a previous (killed) run must not read as live
    status.clear_workers()
    # shards always checkpoint metrics and span trees, which a later
    # resume may ask for; span ids are seeded by the config hash, so
    # they are stable across runs and resumes
    scratch_spans = SpanTracer(id_seed=spec.config_hash)
    aggregates = run_campaign(
        config,
        total_intervals,
        techniques=techniques,
        seeds=seeds,
        include_unmitigated=include_unmitigated,
        workers=workers,
        engine=engine,
        progress=progress,
        tracer=tracer,
        metrics=metrics if metrics is not None else MetricsRegistry(),
        spans=scratch_spans,
        status=status,
        completed=completed,
        retry=retry,
        fault_injector=fault_injector,
        shard_callback=store.write_shard,
        sleep=sleep,
        trace_path=trace_path,
        executor=executor,
        **workload_kwargs,
    )
    store.write_failures(aggregates.failures)
    if spans is not None:
        spans.adopt(scratch_spans.as_dict())
    return aggregates
