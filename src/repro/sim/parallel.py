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
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

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
from repro.telemetry.spans import SpanTracer, span_of
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


def _retries(metrics: Optional[MetricsRegistry]) -> int:
    """The ``campaign.shard_retries`` count so far (0 without metrics)."""
    counter = (
        metrics.counters.get("campaign.shard_retries")
        if metrics is not None else None
    )
    return counter.value if counter else 0


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
    status_done_base: int = 0,
    pairs: Optional[Sequence[Tuple[Optional[str], int]]] = None,
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
    the replay, once per unit: a seed split into per-shard units is
    generated once per shard.  ``engine`` selects the simulation engine (see
    :data:`repro.sim.engine.ENGINE_NAMES`); ``progress(done, total)``,
    counting shards, is called after each completed unit, and an
    exception it raises is swallowed: observing never stops the work.

    ``metrics`` works in every mode: pool workers collect their own
    registry and the shards are merged into the caller's on return.
    ``tracer`` streams cannot cross a process boundary, so an *enabled*
    tracer requires ``workers=0``.

    ``spans`` works in every mode like ``metrics``: the campaign root
    span holds one ``dispatch`` span (the executor run), and each
    shard records a local ``shard -> trace/simulate`` span tree
    (in a whole-seed unit, every member's records span the shared
    replay window) and ships it back for re-parenting under the
    campaign root span.

    ``status`` turns on the live status bus: workers publish
    per-shard heartbeats into its directory, the runner publishes a
    rolling :class:`~repro.telemetry.statusbus.CampaignSnapshot` at
    every progress tick, and shards whose heartbeat goes quiet for
    longer than the bus's ``stale_after`` surface through the
    ``campaign.workers_stale`` metric -- *before* any
    ``shard_timeout`` kill fires.  ``status_done_base`` offsets every
    published snapshot by shards completed *before* this invocation,
    so a resumed durable campaign reports whole-campaign totals
    instead of remainder-only ones.  All of these are pure
    observation: results are bit-identical with them on or off.

    ``trace_path`` replays one pre-serialised ``.npz`` trace (e.g. an
    ingested external capture, see :mod:`repro.traces.ingest`) for
    **every** (technique, seed) job instead of generating the paper
    workload -- seeds then only vary the mitigations' RNG, which is the
    right comparison for a fixed captured access stream.

    ``pairs`` overrides the ``techniques x seeds`` grid with an explicit
    (technique, seed) work list -- the durable campaign runner passes
    the not-yet-completed remainder here on resume.  ``retry`` enables
    worker-level fault tolerance (see :class:`RetryPolicy`): units become
    single shards, so failures are attributed to single shards.
    ``shard_callback(record)`` fires with each shard's
    :class:`~repro.sim.executors.ShardRecord` as it completes
    (checkpointing hook), and ``fault_injector`` plants
    deterministic test faults in the workers.
    ``sleep`` is the backoff clock (injectable for tests).

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
    if pairs is not None:
        pair_list: List[Tuple[Optional[str], int]] = list(pairs)
    else:
        names: List[Optional[str]] = (
            list(techniques) if techniques is not None else technique_names()
        )
        if include_unmitigated:
            names = [None] + names
        pair_list = [(name, seed) for name in names for seed in seeds]
    ordered_names = list(dict.fromkeys(name or "none" for name, _ in pair_list))
    frozen_kwargs = tuple(sorted(workload_kwargs.items()))
    failures: List[ShardFailure] = []
    collect_spans = spans is not None and spans.enabled
    span_seed = spans.id_seed if collect_spans else ""
    status_dir = str(status.root) if status is not None else None
    started_mono = time.monotonic()
    stale_seen: set = set()

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
            status.publish_snapshot(CampaignSnapshot(
                done=status_done_base + done,
                total=status_done_base + total,
                degraded=len(failures),
                retries=_retries(metrics),
                stale=len(stale),
                started_mono=started_mono,
                mono=time.monotonic(),
                complete=done >= total,
            ))
        except OSError:
            pass  # a missed snapshot is superseded by the next tick's

    if status is not None:
        status.publish_snapshot(CampaignSnapshot(
            done=status_done_base,
            total=status_done_base + len(pair_list),
            started_mono=started_mono, mono=started_mono,
        ))
    root_span = (
        spans.start("campaign", engine=engine, shards=len(pair_list))
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
        for name, seed in pair_list:
            seed_names.setdefault(seed, []).append(name)
        units = [(tuple(names), seed) for seed, names in seed_names.items()]
    else:
        units = [((name,), seed) for name, seed in pair_list]
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
            progress=(
                observe if progress is not None or status is not None
                else None
            ),
            shard_callback=shard_callback,
            failures=failures,
            sleep=sleep,
            tracer=tracer if tracer_enabled else None,
            status=status,
        )
        with span_of(spans, "dispatch"):
            slots = runner.execute(jobs, ctx)
        index_of = {
            (name or "none", seed): index
            for index, (name, seed) in enumerate(pair_list)
        }
        records: List[Optional[ShardRecord]] = [None] * len(pair_list)
        for members in slots:
            for record in members or ():
                records[index_of[(record.technique, record.seed)]] = record
    finally:
        if collect_spans:
            spans.finish()  # close the campaign root span
    # records is ordered by job index (technique-major, seed-minor)
    # regardless of completion order; degraded shards stay None
    aggregates = CampaignResult(failures=failures)
    for name in ordered_names:
        aggregates[name] = TechniqueAggregate(technique=name)
    completed = 0
    for record in records:
        if record is None:
            continue
        aggregates[record.technique].results.append(record.result)
        completed += 1
        if metrics is not None and record.metrics is not None:
            metrics.merge(MetricsRegistry.from_dict(record.metrics))
        if collect_spans and record.spans is not None:
            spans.adopt(record.spans, parent=root_span)
    for failure in failures:
        aggregates[failure.technique].degraded_seeds.append(failure.seed)
    _count(metrics, "campaign.shards_completed", completed)
    if status is not None:
        status.publish_snapshot(CampaignSnapshot(
            done=status_done_base + completed,
            total=status_done_base + len(pair_list),
            degraded=len(failures),
            retries=_retries(metrics),
            started_mono=started_mono,
            mono=time.monotonic(),
            complete=completed + len(failures) >= len(pair_list),
        ))
    return aggregates
