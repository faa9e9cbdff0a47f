"""Parallel experiment execution with worker-level fault tolerance.

The paper's campaign (9 techniques x a 1.56 M-interval trace) is
embarrassingly parallel across (technique, seed) pairs.  This module
turns the grid into :class:`CampaignJob` shards and hands them to a
pluggable :class:`~repro.sim.executors.Executor` (see
``docs/distributed.md`` for the contract): the local process pool by
default, the in-process serial lane for ``workers=0``, or the
filesystem work-queue executor
(:class:`repro.campaign.queue.QueueExecutor`) for campaigns spread
over independent worker processes and hosts.  Workers must receive
picklable job descriptions, so a job carries either the workload knobs
(each worker regenerates its trace deterministically from the seed) or
-- the default -- the path of a trace that was generated **once** per
seed and serialised to a temporary ``.npz`` file: all nine technique
jobs of a seed then share one trace generation instead of repeating it,
which also keeps the comparison paired across techniques.

In pool mode, jobs are dispatched in chunks (one pool task runs a
whole chunk) to amortise pickling overhead, and an optional
``progress`` callback is invoked as chunks complete.

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
import shutil
import tempfile
import time
from concurrent.futures import ProcessPoolExecutor, as_completed
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.config import SimConfig
from repro.mitigations.registry import technique_names
from repro.rng import derive_seed
from repro.sim.engine import is_grid_engine
from repro.sim.executors import (
    CampaignJob,
    ExecutionContext,
    JobOutcome,
    ProgressCallback,
    RetryPolicy,
    ShardCallback,
    ShardFailure,
    _count,
    _FusedBlock,
    get_executor,
)
from repro.sim.experiment import TechniqueAggregate
from repro.telemetry.progress import ProgressDispatcher, ProgressListener
from repro.telemetry.spans import SpanTracer, span_of
from repro.telemetry.statusbus import CampaignSnapshot, StatusBus
from repro.traces.mixer import paper_mixed_workload
from repro.traces.trace_io import save_trace_npz


#: the phase spans :func:`run_campaign` opens under its root, once each
CAMPAIGN_PHASES = ("traces", "dispatch")


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
    chunk_size: Optional[int] = None,
    progress: Optional[ProgressCallback] = None,
    on_event: Optional[ProgressListener] = None,
    spans: Optional[SpanTracer] = None,
) -> List[Any]:
    """Order-preserving map over a process pool.

    The generic fan-out behind the adversary search loop: results come
    back in input order regardless of completion order, so a caller
    that only depends on ``fn`` being pure is bit-identical across
    ``workers`` settings.  ``workers=0`` maps inline (debuggers,
    coverage, tracers); otherwise *fn* and every item must be picklable
    and items are dispatched in chunks like :func:`run_campaign`.

    Progress is reported both ways: the legacy ``progress(done,
    total)`` callable and an ``on_event`` listener receiving
    :class:`~repro.telemetry.progress.ProgressEvent` records
    (``kind="parallel_map"``, ``unit="items"``) fire together as
    chunks complete.  ``spans`` records a ``parallel_map`` span with
    ``chunk``/``item`` children; pool workers record their chunk's
    spans locally and the tree is re-parented on merge.
    """
    items = list(items)
    total = len(items)
    dispatcher = ProgressDispatcher("parallel_map", unit="items")
    dispatcher.add_legacy(progress)
    dispatcher.add_listener(on_event)
    collect_spans = spans is not None and spans.enabled
    with span_of(spans, "parallel_map", items=total):
        if workers == 0 or total == 0:
            results: List[Any] = []
            # one logical chunk, so inline and pool runs share paths
            with span_of(spans, "chunk", items=total):
                for index, item in enumerate(items):
                    with span_of(spans, "item"):
                        results.append(fn(item))
                    if dispatcher:
                        dispatcher.emit(index + 1, total)
            return results
        if chunk_size is None:
            pool_width = workers or os.cpu_count() or 1
            chunk_size = max(1, math.ceil(total / (4 * pool_width)))
        results = [None] * total
        done = 0
        span_seed = spans.id_seed if collect_spans else None
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = {
                pool.submit(
                    _map_chunk, fn, items[start : start + chunk_size],
                    span_seed, start,
                ): start
                for start in range(0, total, chunk_size)
            }
            for future in as_completed(futures):
                start = futures[future]
                chunk_results, chunk_spans = future.result()
                results[start : start + len(chunk_results)] = chunk_results
                done += len(chunk_results)
                if collect_spans:
                    spans.adopt(chunk_spans)
                if dispatcher:
                    dispatcher.emit(done, total)
    return results


def run_campaign(
    config: SimConfig,
    total_intervals: int,
    techniques: Optional[Sequence[str]] = None,
    seeds: Sequence[int] = (0, 1, 2),
    include_unmitigated: bool = False,
    workers: Optional[int] = None,
    engine: str = "reference",
    memoize_traces: bool = True,
    chunk_size: Optional[int] = None,
    progress: Optional[ProgressCallback] = None,
    on_event: Optional[ProgressListener] = None,
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

    ``memoize_traces`` generates each seed's trace once and shares the
    serialised file across that seed's technique jobs; ``engine``
    selects the simulation engine (see
    :data:`repro.sim.engine.ENGINE_NAMES`); ``chunk_size`` jobs are
    grouped into one pool task (default: about four chunks per worker);
    ``progress(done, total)`` is called after each completed chunk.

    ``metrics`` works in every mode: pool workers collect their own
    registry and the shards are merged into the caller's on return.
    ``tracer`` streams cannot cross a process boundary, so an *enabled*
    tracer requires ``workers=0``.

    ``spans`` works in every mode like ``metrics``: the campaign root
    span holds one ``traces`` span (trace generation, opened even when
    there is none) and one ``dispatch`` span (the executor run), and
    each shard records a local ``shard -> trace/simulate`` span tree
    (also under fused block dispatch, where every cell's records span
    the shared replay window) and ships it back for re-parenting under
    the campaign root span.

    ``status`` turns on the live status bus: workers publish
    per-shard heartbeats into its directory, the runner publishes a
    rolling :class:`~repro.telemetry.statusbus.CampaignSnapshot` at
    every progress tick, and shards whose heartbeat goes quiet for
    longer than the bus's ``stale_after`` surface through the
    ``campaign.workers_stale`` metric -- *before* any
    ``shard_timeout`` kill fires.  ``status_done_base`` offsets every
    published snapshot by shards completed *before* this invocation,
    so a resumed durable campaign reports whole-campaign totals
    instead of remainder-only ones.  ``on_event`` receives unified
    :class:`~repro.telemetry.progress.ProgressEvent` records
    alongside the legacy ``progress`` callable.  All three are pure
    observation: results are bit-identical with them on or off.

    ``trace_path`` replays one pre-serialised ``.npz`` trace (e.g. an
    ingested external capture, see :mod:`repro.traces.ingest`) for
    **every** (technique, seed) job instead of generating the paper
    workload -- seeds then only vary the mitigations' RNG, which is the
    right comparison for a fixed captured access stream.

    ``pairs`` overrides the ``techniques x seeds`` grid with an explicit
    (technique, seed) work list -- the durable campaign runner passes
    the not-yet-completed remainder here on resume.  ``retry`` enables
    worker-level fault tolerance (see :class:`RetryPolicy`); in pool
    mode it switches dispatch from chunks to one job per pool task so
    failures are attributed to single shards.  ``shard_callback(outcome,
    attempts)`` fires as each shard completes (checkpointing hook), and
    ``fault_injector`` plants deterministic test faults in the workers.
    ``sleep`` is the backoff clock (injectable for tests).

    Returns a :class:`CampaignResult` -- a ``{technique:
    TechniqueAggregate}`` dict whose ``failures`` attribute lists any
    shards degraded under ``on_failure="skip"``.
    """
    # validates the name before spawning anything
    grid_engine = is_grid_engine(engine)
    runner = get_executor(executor, workers=workers, chunk_size=chunk_size)
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
    dispatcher = ProgressDispatcher("campaign", unit="shards")
    dispatcher.add_legacy(progress)
    dispatcher.add_listener(on_event)
    started_mono = time.monotonic()
    if status is not None:
        stale_seen: set = set()

        def _publish_status(event) -> None:
            stale = status.stale_workers()
            for heartbeat in stale:
                if heartbeat.worker not in stale_seen:
                    stale_seen.add(heartbeat.worker)
                    _count(metrics, "campaign.workers_stale")
            retries = 0
            if metrics is not None:
                retry_counter = metrics.counters.get("campaign.shard_retries")
                retries = retry_counter.value if retry_counter else 0
            status.publish_snapshot(CampaignSnapshot(
                done=status_done_base + event.done,
                total=status_done_base + event.total,
                degraded=len(failures),
                retries=retries,
                stale=len(stale),
                started_mono=started_mono,
                mono=time.monotonic(),
                complete=event.done >= event.total,
            ))

        dispatcher.add_listener(_publish_status)
        status.publish_snapshot(CampaignSnapshot(
            done=status_done_base,
            total=status_done_base + len(pair_list),
            started_mono=started_mono, mono=started_mono,
        ))
    progress_cb: Optional[ProgressCallback] = (
        dispatcher.emit if dispatcher else None
    )
    root_span = (
        spans.start("campaign", engine=engine, shards=len(pair_list))
        if collect_spans else None
    )
    tmpdir: Optional[str] = None
    try:
        trace_paths: Dict[int, str] = {}
        with span_of(spans, "traces"):
            if trace_path is not None:
                trace_paths = {
                    seed: str(trace_path)
                    for seed in dict.fromkeys(seed for _, seed in pair_list)
                }
            elif memoize_traces:
                tmpdir = tempfile.mkdtemp(prefix="repro-campaign-")
                for seed in dict.fromkeys(seed for _, seed in pair_list):
                    trace = paper_mixed_workload(
                        config,
                        total_intervals=total_intervals,
                        seed=derive_seed(seed, "trace"),
                        **workload_kwargs,
                    )
                    path = os.path.join(tmpdir, f"trace-{seed}.npz")
                    save_trace_npz(trace, path)
                    trace_paths[seed] = path
        jobs = [
            CampaignJob(
                config=config,
                technique=name,
                seed=seed,
                total_intervals=total_intervals,
                workload_kwargs=frozen_kwargs,
                trace_path=trace_paths.get(seed),
                engine=engine,
                collect_metrics=metrics is not None,
                fault_injector=fault_injector,
                collect_spans=collect_spans,
                span_seed=span_seed,
                status_dir=status_dir,
            )
            for name, seed in pair_list
        ]
        total = len(jobs)
        outcomes: List[Optional[JobOutcome]] = [None] * total
        done = 0
        ctx = ExecutionContext(
            retry=retry,
            metrics=metrics,
            progress=progress_cb,
            shard_callback=shard_callback,
            failures=failures,
            sleep=sleep,
            tracer=tracer if tracer_enabled else None,
            status=status,
        )
        # Fused cell-blocks: one replay per seed covers that seed's whole
        # technique axis.  Retry / fault-injection need per-shard
        # attribution and a tracer is single-cell by contract, so those
        # modes keep the per-cell jobs below (the fused single-cell
        # wrapper still runs there via ``get_engine``).
        use_blocks = (
            grid_engine
            and retry is None
            and fault_injector is None
            and not tracer_enabled
            and runner.supports_blocks
        )
        if use_blocks:
            index_of = {
                (name or "none", seed): index
                for index, (name, seed) in enumerate(pair_list)
            }
            seed_names: Dict[int, List[Optional[str]]] = {}
            for name, seed in pair_list:
                seed_names.setdefault(seed, []).append(name)
            blocks = [
                _FusedBlock(
                    config=config,
                    techniques=tuple(block_names),
                    seed=seed,
                    total_intervals=total_intervals,
                    workload_kwargs=frozen_kwargs,
                    trace_path=trace_paths.get(seed),
                    engine=engine,
                    collect_metrics=metrics is not None,
                    collect_spans=collect_spans,
                    span_seed=span_seed,
                    status_dir=status_dir,
                )
                for seed, block_names in seed_names.items()
            ]

            def place(block_outcomes: List[JobOutcome]) -> None:
                nonlocal done
                for outcome in block_outcomes:
                    outcomes[index_of[(outcome[0], outcome[1])]] = outcome
                    if shard_callback is not None:
                        shard_callback(outcome, 1)
                done += len(block_outcomes)
                if progress_cb is not None:
                    progress_cb(done, total)

            with span_of(spans, "dispatch"):
                runner.execute_blocks(blocks, place, ctx)
        else:
            with span_of(spans, "dispatch"):
                outcomes = runner.execute(jobs, ctx)
    finally:
        if tmpdir is not None:
            shutil.rmtree(tmpdir, ignore_errors=True)
        if collect_spans:
            spans.finish()  # close the campaign root span
    # outcomes is ordered by job index (technique-major, seed-minor)
    # regardless of completion order; degraded shards stay None
    aggregates = CampaignResult(failures=failures)
    for name in ordered_names:
        aggregates[name] = TechniqueAggregate(technique=name)
    completed = 0
    for outcome in outcomes:
        if outcome is None:
            continue
        name, _seed, result, job_metrics, job_spans = outcome
        aggregates[name].results.append(result)
        completed += 1
        if metrics is not None and job_metrics is not None:
            metrics.merge(job_metrics)
        if collect_spans and job_spans is not None:
            spans.adopt(job_spans, parent=root_span)
    for failure in failures:
        aggregates[failure.technique].degraded_seeds.append(failure.seed)
    _count(metrics, "campaign.shards_completed", completed)
    if status is not None:
        final_retries = 0
        if metrics is not None:
            retry_counter = metrics.counters.get("campaign.shard_retries")
            final_retries = retry_counter.value if retry_counter else 0
        status.publish_snapshot(CampaignSnapshot(
            done=status_done_base + completed,
            total=status_done_base + len(pair_list),
            degraded=len(failures),
            retries=final_retries,
            started_mono=started_mono,
            mono=time.monotonic(),
            complete=completed + len(failures) >= len(pair_list),
        ))
    return aggregates
