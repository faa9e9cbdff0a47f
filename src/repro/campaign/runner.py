"""Durable, crash-safe campaign orchestration.

:func:`run_durable_campaign` wraps :func:`repro.sim.parallel.
run_campaign` with a :class:`~repro.campaign.store.CampaignStore`:
every completed (technique, seed) shard is checkpointed the moment it
lands, and a killed campaign restarted with ``resume=True`` validates
the stored spec (config hash, engine, grid), skips the completed
shards, and re-dispatches only the remainder.

Determinism contract: because each shard is a pure function of
(config, technique, seed, engine) and the final aggregates are rebuilt
from the store in the campaign's canonical shard order, an interrupted
+ resumed campaign returns aggregates **bit-identical** to an
uninterrupted one (``tests/campaign/test_kill_resume.py`` proves this
by SIGKILLing a live campaign).  Metrics keep the same contract: shard
registries are restored from the checkpoints and re-merged, so a
resumed run's manifest matches the uninterrupted run's up to the
documented volatile fields.
"""

from __future__ import annotations

import time
from typing import Callable, List, Optional, Sequence, Tuple

from repro.config import SimConfig
from repro.mitigations.registry import technique_names
from repro.sim.parallel import (
    CampaignResult,
    ProgressCallback,
    RetryPolicy,
    ShardFailure,
    run_campaign,
)
from repro.telemetry.metrics import MetricsRegistry
from repro.telemetry.spans import SpanTracer
from repro.telemetry.statusbus import (
    DEFAULT_STALE_AFTER_S,
    CampaignSnapshot,
    StatusBus,
)

from repro.campaign.store import CampaignSpec, CampaignStateError, CampaignStore

#: orchestration counters recomputed store-wide after every run, so a
#: resumed campaign reports whole-campaign totals, not this process's
_RECOMPUTED_COUNTERS = ("campaign.shards_completed", "campaign.shards_degraded")


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
    status: Optional[StatusBus] = None,
    publish_status: bool = True,
    stale_after: Optional[float] = None,
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

    Observability: unless ``publish_status=False``, a
    :class:`~repro.telemetry.statusbus.StatusBus` is created under
    ``<checkpoint_dir>/status`` (or pass ``status`` explicitly) --
    workers publish per-shard heartbeats there and the runner a rolling
    snapshot, which is what ``campaign-status --follow`` reads.
    ``stale_after`` tunes hung-shard detection (defaults to just under
    ``retry.shard_timeout`` when one is set, so staleness surfaces
    before the kill).  ``spans`` receives the campaign span tree: this
    invocation's ``campaign`` span with its ``dispatch`` phase (empty
    when nothing is pending) and the shard spans, which are
    checkpointed with each shard and re-adopted from the store in
    canonical order -- so a resumed campaign's span
    *summary* is bit-identical to an uninterrupted one's.  Neither the
    status directory nor any span/heartbeat state enters the campaign
    spec or its config hash -- toggling observability can never
    invalidate ``--resume``.

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
    resume, bit-identical rebuilt aggregates, degraded-shard
    accounting -- holds identically for every executor: the shared
    contract suite (``tests/campaign/test_executors.py``) asserts them
    per lane.
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
    shards = store.load_shards()
    pending: List[Tuple[Optional[str], int]] = [
        (name, seed)
        for name in names
        for seed in seeds
        if (name or "none", seed) not in shards
    ]
    if status is None and publish_status:
        if stale_after is None:
            # surface staleness before the hung-shard kill would fire
            stale_after = (
                max(1.0, retry.shard_timeout * 0.75)
                if retry is not None and retry.shard_timeout is not None
                else DEFAULT_STALE_AFTER_S
            )
        status = StatusBus.for_checkpoint(store.root, stale_after=stale_after)
    if status is not None:
        # heartbeats of a previous (killed) run must not read as live
        status.clear_workers()
    failures: List[ShardFailure] = []
    if pending:
        # jobs collect into a scratch registry; the caller's registry is
        # rebuilt from the store below so that resumed and uninterrupted
        # campaigns report identical whole-campaign metrics.  The scratch
        # registry is unconditional: shard metrics must land in the
        # checkpoint even when this invocation didn't ask for metrics,
        # or a later resume with a manifest would be missing the
        # counters of every shard completed before the interruption.
        scratch = MetricsRegistry()
        # same reasoning for spans: workers always record and the shard
        # records carry the trees, so a later resume that wants a span
        # summary still covers pre-interruption shards.  The id seed is
        # the config hash: span ids are stable across runs and resumes.
        scratch_spans = SpanTracer(id_seed=spec.config_hash)
        result = run_campaign(
            config,
            total_intervals,
            seeds=seeds,
            workers=workers,
            engine=engine,
            progress=progress,
            tracer=tracer,
            metrics=scratch,
            spans=scratch_spans,
            status=status,
            # already-checkpointed shards count toward the live view:
            # a resumed campaign reports whole-campaign progress
            status_done_base=len(spec.shard_keys()) - len(pending),
            pairs=pending,
            retry=retry,
            fault_injector=fault_injector,
            shard_callback=store.write_shard,
            sleep=sleep,
            trace_path=trace_path,
            executor=executor,
            **workload_kwargs,
        )
        failures = result.failures
        store.write_failures(failures)
        if metrics is not None:
            for name, counter in scratch.counters.items():
                if (
                    name.startswith("campaign.")
                    and name not in _RECOMPUTED_COUNTERS
                ):
                    metrics.counter(name, limit=counter.limit).add(counter.value)
        shards = store.load_shards()
    # canonical rebuild: technique-major, seed-minor, straight from the
    # store -- the order (and therefore every float accumulation) is
    # identical whether or not the campaign was ever interrupted, and
    # which executor ran the shards.  Every pending shard was
    # dispatched, so degrade_missing is correct here: a still-missing
    # shard exhausted its attempts under on_failure="skip".
    aggregates = store.partial_aggregates(degrade_missing=True)
    aggregates.failures = failures
    if metrics is not None:
        for key in spec.shard_keys():
            record = shards.get(key)
            if record is not None and record.metrics:
                metrics.merge(MetricsRegistry.from_dict(record.metrics))
        completed = sum(1 for key in spec.shard_keys() if key in shards)
        degraded = len(spec.shard_keys()) - completed
        metrics.counter("campaign.shards_completed").add(completed)
        if degraded:
            metrics.counter("campaign.shards_degraded").add(degraded)
    if spans is not None and spans.enabled:
        # same canonical rebuild as metrics: this invocation's campaign
        # span and its phases, then the shard trees re-adopted straight
        # from the store in shard-key order, so the summary is a pure
        # function of the stored shards -- identical whether or not this
        # campaign was ever interrupted.  Shards an earlier invocation
        # ran keep their structure but not their clock readings, which
        # belong to that invocation's timing.
        ran = {(name or "none", seed) for name, seed in pending}
        mark = len(spans)
        if pending:
            own = {"campaign", "campaign/dispatch"}
            spans.adopt({"spans": [
                span.as_dict() for span in scratch_spans.spans if span.path in own
            ]})
        else:
            with spans.span("campaign", engine=engine, shards=len(spec.shard_keys())):
                with spans.span("dispatch"):
                    pass
        for key in spec.shard_keys():
            record = shards.get(key)
            if record is not None and record.spans:
                tree = record.spans if key in ran else {"spans": [
                    dict(entry, started_mono=None, ended_mono=None, cpu_seconds=None)
                    for entry in record.spans["spans"]
                ]}
                spans.adopt(tree, parent=spans.spans[mark])
    if status is not None and not pending:
        # resume of an already-complete campaign: refresh the snapshot
        # so a follower sees the store's truth, not a stale mid-run view
        total = len(spec.shard_keys())
        done = sum(1 for key in spec.shard_keys() if key in shards)
        now = time.monotonic()
        status.publish_snapshot(CampaignSnapshot(
            done=done, total=total, degraded=total - done,
            started_mono=now, mono=now, complete=True,
        ))
    return aggregates


def campaign_status(checkpoint_dir):
    """Convenience wrapper: :meth:`CampaignStore.status` for a path."""
    return CampaignStore(checkpoint_dir).status()
