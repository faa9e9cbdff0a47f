"""Parallel experiment execution with worker-level fault tolerance.

The paper's campaign (9 techniques x a 1.56 M-interval trace) is
embarrassingly parallel across seeds and techniques.  This module turns
the grid into :class:`CampaignJob` work units -- one seed and the
techniques that share its trace -- and hands them to a pluggable
:class:`~repro.sim.executors.Executor` (see ``docs/distributed.md``
for the contract): the local process pool by default, the in-process
serial lane for ``workers=0``, or the filesystem work-queue executor
(:class:`repro.campaign.queue.QueueExecutor`) for campaigns spread
over independent worker processes and hosts.  On the fused engine a
unit is a whole seed, evaluated in one grid replay; otherwise, and
under retry, fault injection or a tracer, a unit is one (technique,
seed) shard.  Workers must receive picklable unit descriptions, so a
unit carries the workload knobs and the worker regenerates the seed's
trace deterministically where it runs, streaming it into the replay;
every unit of a seed, and so every technique, sees the same trace.
Only a caller's trace file is shared between units, by path.

In pool mode, each unit is one pool task, and an optional
``progress(done, total)`` callback is invoked as units complete.

Passing a :class:`RetryPolicy` turns on fault tolerance: a crashed or
hung shard is retried with exponential backoff up to ``max_retries``
extra attempts, after which the campaign either fails
(``on_failure="raise"``) or records the shard as *degraded*
(``on_failure="skip"``) and carries on.  Retry, timeout and crash
counts surface through the ``metrics`` registry under ``campaign.*``
names.  Hour-scale campaigns should combine this with the durable
checkpointing in :mod:`repro.campaign`, which persists every completed
shard and can resume an interrupted campaign.
"""

from __future__ import annotations

import math
import os
import time
from concurrent.futures import ProcessPoolExecutor, as_completed
from dataclasses import replace
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.config import SimConfig
from repro.mitigations.registry import technique_names
from repro.sim.engine import is_grid_engine
from repro.sim.executors import (
    CampaignJob,
    ExecutionContext,
    ProgressCallback,
    RetryPolicy,
    ShardCallback,
    ShardFailure,
    ShardRecord,
    _count,
    get_executor,
)
from repro.sim.experiment import TechniqueAggregate
from repro.telemetry.metrics import MetricsRegistry
from repro.telemetry.spans import Span, SpanTracer, span_of
from repro.telemetry.statusbus import CampaignSnapshot, StatusBus


class CampaignResult(Dict[str, TechniqueAggregate]):
    """``{technique: TechniqueAggregate}`` plus degraded-shard records.

    Behaves exactly like the plain dict :func:`run_campaign` has always
    returned; ``failures`` lists the shards that were skipped under
    ``on_failure="skip"`` (empty for a fully healthy campaign).
    """

    def __init__(self, *args, failures=None, **kwargs):
        super().__init__(*args, **kwargs)
        self.failures: List[ShardFailure] = list(failures or [])

    @property
    def degraded(self) -> bool:
        return bool(self.failures)


def _map_chunk(
    fn: Callable[[Any], Any],
    chunk: List[Any],
    span_seed: Optional[str] = None,
    chunk_id: int = 0,
) -> Tuple[List[Any], Optional[Dict[str, Any]]]:
    spans = (
        SpanTracer(id_seed=f"{span_seed}|chunk{chunk_id}")
        if span_seed is not None else None
    )
    results = []
    with span_of(spans, "chunk", items=len(chunk)):
        for item in chunk:
            with span_of(spans, "item"):
                results.append(fn(item))
    return results, (spans.as_dict() if spans is not None else None)


def parallel_map(
    fn: Callable[[Any], Any],
    items: Sequence[Any],
    workers: Optional[int] = None,
    spans: Optional[SpanTracer] = None,
) -> List[Any]:
    """Order-preserving map over a process pool.

    The generic fan-out behind the adversary search loop: results come
    back in input order regardless of completion order, so a caller
    that only depends on ``fn`` being pure is bit-identical across
    ``workers`` settings.  ``workers=0`` maps inline (debuggers,
    coverage, tracers); otherwise *fn* and every item must be picklable
    and items are dispatched in chunks, about four per worker, to
    amortise pickling.

    ``spans`` records a ``parallel_map`` span with ``chunk``/``item``
    children; pool workers record their chunk's spans locally and the
    tree is re-parented on merge.
    """
    items = list(items)
    total = len(items)
    collect_spans = spans is not None and spans.enabled
    with span_of(spans, "parallel_map", items=total):
        if workers == 0 or total == 0:
            results: List[Any] = []
            # one logical chunk, so inline and pool runs share paths
            with span_of(spans, "chunk", items=total):
                for item in items:
                    with span_of(spans, "item"):
                        results.append(fn(item))
            return results
        pool_width = workers or os.cpu_count() or 1
        per_chunk = max(1, math.ceil(total / (4 * pool_width)))
        results = [None] * total
        span_seed = spans.id_seed if collect_spans else None
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = {
                pool.submit(
                    _map_chunk, fn, items[start : start + per_chunk],
                    span_seed, start,
                ): start
                for start in range(0, total, per_chunk)
            }
            for future in as_completed(futures):
                start = futures[future]
                chunk_results, chunk_spans = future.result()
                results[start : start + len(chunk_results)] = chunk_results
                if collect_spans:
                    spans.adopt(chunk_spans)
    return results


def _untimed(record: ShardRecord) -> ShardRecord:
    """*record* with its span tree's clock readings dropped: they timed
    the invocation that ran the shard, not the one folding it now."""
    if record.spans is None:
        return record
    return replace(record, spans={"spans": [
        dict(entry, started_mono=None, ended_mono=None, cpu_seconds=None)
        for entry in record.spans["spans"]
    ]})


def fold_shards(
    techniques: Sequence[str],
    seeds: Sequence[int],
    records: Mapping[Tuple[str, int], ShardRecord],
    failures: Sequence[ShardFailure] = (),
    degrade_missing: bool = True,
    metrics: Optional[MetricsRegistry] = None,
    spans: Optional[SpanTracer] = None,
    parent: Optional[Span] = None,
) -> CampaignResult:
    """The campaign fold: every (technique, seed) key of the grid once,
    technique-major and seed-minor.

    A key's record adds its result to the technique's aggregate, merges
    its metrics into ``metrics`` and has its span tree adopted under
    ``parent``; a key without one becomes a degraded seed if
    ``degrade_missing`` (a finished campaign's view) and is left out
    otherwise (a mid-run view).  The fixed order makes the result --
    histogram float sums included -- a pure function of the *set* of
    records, whatever executor, arrival order or resumes produced it.
    """
    aggregates = CampaignResult(failures=failures)
    for name in techniques:
        aggregate = aggregates[name] = TechniqueAggregate(technique=name)
        for seed in seeds:
            record = records.get((name, seed))
            if record is None:
                if degrade_missing:
                    aggregate.degraded_seeds.append(seed)
                continue
            aggregate.results.append(record.result)
            if metrics is not None and record.metrics is not None:
                metrics.merge(MetricsRegistry.from_dict(record.metrics))
            if spans is not None and record.spans is not None:
                spans.adopt(record.spans, parent=parent)
    return aggregates


def run_campaign(
    config: SimConfig,
    total_intervals: int,
    techniques: Optional[Sequence[str]] = None,
    seeds: Sequence[int] = (0, 1, 2),
    include_unmitigated: bool = False,
    workers: Optional[int] = None,
    engine: str = "reference",
    progress: Optional[ProgressCallback] = None,
    tracer=None,
    metrics=None,
    spans: Optional[SpanTracer] = None,
    status: Optional[StatusBus] = None,
    completed: Optional[Mapping[Tuple[str, int], ShardRecord]] = None,
    retry: Optional[RetryPolicy] = None,
    fault_injector=None,
    shard_callback: Optional[ShardCallback] = None,
    sleep: Callable[[float], None] = time.sleep,
    trace_path: Optional[str] = None,
    executor: Any = None,
    **workload_kwargs,
) -> CampaignResult:
    """Run the full comparison campaign over a pluggable executor.

    Semantically equivalent to
    :func:`repro.sim.experiment.compare_techniques` with the default
    paper workload, but each (technique, seed) runs as a shard of the
    selected :class:`~repro.sim.executors.Executor`.  ``executor``
    accepts an instance, a name (``"auto"``/``"serial"``/``"pool"``),
    or ``None`` for the historical behaviour: ``workers=None`` uses the
    pool default, ``workers=0`` runs inline (useful under debuggers and
    coverage).  Any executor yields bit-identical per-shard results --
    the executor contract (``docs/distributed.md``) and its shared test
    suite pin this.

    A seed's trace is generated where its unit runs and streamed into
    the replay, once per unit.  ``engine`` selects the simulation
    engine (see :data:`repro.sim.engine.ENGINE_NAMES`);
    ``progress(done, total)``, counting this invocation's shards, is
    called after each completed unit, and an exception it raises is
    swallowed: observing never stops the work.

    ``completed`` maps (technique, seed) keys (``"none"`` for the
    unmitigated baseline) to the :class:`~repro.sim.executors.
    ShardRecord` of shards already checkpointed -- the durable runner
    passes its store's shards.  Only the other keys are dispatched (with
    none left, no executor runs), then :func:`fold_shards` folds every
    key of the grid once, in canonical order, into the aggregates,
    ``metrics`` and ``spans`` -- the same bytes whichever invocation ran
    a shard.  A completed shard's span tree keeps its structure but not
    its clock readings, which timed an earlier invocation.

    ``metrics`` and ``spans`` work in every mode: workers collect a
    registry and a ``shard -> trace/simulate`` span tree per shard (in
    a whole-seed unit, every member's records span the shared replay
    window), folded under the campaign root span, which holds one
    ``dispatch`` span (the executor run).  ``tracer`` streams cannot
    cross a process boundary, so an *enabled* tracer requires
    ``workers=0``.

    ``status`` turns on the live status bus: workers publish per-shard
    heartbeats into its directory, the runner publishes a rolling
    :class:`~repro.telemetry.statusbus.CampaignSnapshot` of the whole
    grid (``completed`` shards included) at every progress tick, and
    shards whose heartbeat goes quiet for longer than the bus's
    ``stale_after`` surface through the ``campaign.workers_stale``
    metric -- *before* any ``shard_timeout`` kill fires.  All of these
    are pure observation: results are bit-identical with them on or
    off.

    ``trace_path`` replays one pre-serialised ``.npz`` trace (e.g. an
    ingested external capture, see :mod:`repro.traces.ingest`) for
    **every** (technique, seed) job instead of generating the paper
    workload -- seeds then only vary the mitigations' RNG, which is the
    right comparison for a fixed captured access stream.

    ``retry`` enables worker-level fault tolerance (see
    :class:`RetryPolicy`): units become single shards, so failures are
    attributed to single shards.  ``shard_callback(record)`` fires with
    each shard's :class:`~repro.sim.executors.ShardRecord` as it
    completes (checkpointing hook), ``fault_injector`` plants
    deterministic test faults in the workers, and ``sleep`` is the
    backoff clock (injectable for tests).

    Returns a :class:`CampaignResult` -- a ``{technique:
    TechniqueAggregate}`` dict whose ``failures`` attribute lists any
    shards degraded under ``on_failure="skip"``.
    """
    # validates the name before spawning anything
    grid_engine = is_grid_engine(engine)
    runner = get_executor(executor, workers=workers)
    tracer_enabled = tracer is not None and getattr(tracer, "enabled", True)
    if tracer_enabled and not runner.supports_tracer:
        raise ValueError(
            "event tracing requires workers=0: tracer streams cannot "
            "cross a process-pool boundary"
        )
    names: List[Optional[str]] = (
        list(techniques) if techniques is not None else technique_names()
    )
    if include_unmitigated:
        names = [None] + names
    completed = completed or {}
    pending = [
        (name, seed) for name in names for seed in seeds
        if (name or "none", seed) not in completed
    ]
    grid_size = len(names) * len(seeds)
    # shards checkpointed before this invocation count toward the live
    # view: a resumed campaign reports whole-campaign progress
    done_before = grid_size - len(pending)
    frozen_kwargs = tuple(sorted(workload_kwargs.items()))
    failures: List[ShardFailure] = []
    collect_spans = spans is not None and spans.enabled
    span_seed = spans.id_seed if collect_spans else ""
    status_dir = str(status.root) if status is not None else None
    started_mono = time.monotonic()
    stale_seen: set = set()

    def snapshot(done: int, complete: bool = False, stale: int = 0) -> None:
        """Publish the whole-campaign snapshot: *done* of the grid."""
        retries = (
            metrics.counters.get("campaign.shard_retries")
            if metrics is not None else None
        )
        status.publish_snapshot(CampaignSnapshot(
            done=done, total=grid_size, degraded=len(failures),
            retries=retries.value if retries else 0, stale=stale,
            started_mono=started_mono, mono=time.monotonic(),
            complete=complete,
        ))

    def observe(done: int, total: int) -> None:
        """Report a tick to the caller's ``progress``, then publish the
        status-bus snapshot; an observer's failure never stops the
        campaign."""
        if progress is not None:
            try:
                progress(done, total)
            except Exception:  # noqa: BLE001 - observers must not kill work
                pass
        if status is None:
            return
        try:
            stale = status.stale_workers()
            for heartbeat in stale:
                if heartbeat.worker not in stale_seen:
                    stale_seen.add(heartbeat.worker)
                    _count(metrics, "campaign.workers_stale")
            snapshot(done_before + done, done >= total, len(stale))
        except OSError:
            pass  # a missed snapshot is superseded by the next tick's

    if status is not None:
        snapshot(done_before)
    root_span = (
        spans.start("campaign", engine=engine, shards=len(pending))
        if collect_spans else None
    )
    # The unit composition rule: one unit per seed on the grid engine,
    # whose one replay covers the seed's whole technique axis; one per
    # (technique, seed) otherwise, and whenever retry or fault injection
    # needs per-shard attribution or a tracer (single-cell by contract)
    # is on.
    if grid_engine and retry is None and fault_injector is None \
            and not tracer_enabled:
        seed_names: Dict[int, List[Optional[str]]] = {}
        for name, seed in pending:
            seed_names.setdefault(seed, []).append(name)
        units = [(tuple(members), seed) for seed, members in seed_names.items()]
    else:
        units = [((name,), seed) for name, seed in pending]
    try:
        # Every unit generates its seed's trace where it runs (the
        # generator is deterministic in the seed, so all units of a seed
        # read the same trace).
        jobs = [
            CampaignJob(
                config=config,
                techniques=unit_names,
                seed=seed,
                total_intervals=total_intervals,
                workload_kwargs=frozen_kwargs,
                trace_path=None if trace_path is None else str(trace_path),
                engine=engine,
                collect_metrics=metrics is not None,
                fault_injector=fault_injector,
                collect_spans=collect_spans,
                span_seed=span_seed,
                status_dir=status_dir,
            )
            for unit_names, seed in units
        ]
        ctx = ExecutionContext(
            retry=retry,
            metrics=metrics,
            progress=observe,
            shard_callback=shard_callback,
            failures=failures,
            sleep=sleep,
            tracer=tracer if tracer_enabled else None,
            status=status,
        )
        with span_of(spans, "dispatch"):
            # nothing pending (a finished campaign's resume): no
            # executor runs, so no pool or queue worker is started
            slots = runner.execute(jobs, ctx) if jobs else []
    finally:
        if collect_spans:
            spans.finish()  # close the campaign root span
    records = {
        key: _untimed(record) if collect_spans else record
        for key, record in completed.items()
    }
    for members in slots:
        for record in members or ():
            records[(record.technique, record.seed)] = record
    aggregates = fold_shards(
        [name or "none" for name in names], seeds, records,
        failures=failures, metrics=metrics,
        spans=spans if collect_spans else None, parent=root_span,
    )
    landed = sum(len(aggregate.results) for aggregate in aggregates.values())
    _count(metrics, "campaign.shards_completed", landed)
    if status is not None:
        snapshot(landed, landed + len(failures) >= grid_size)
    return aggregates
