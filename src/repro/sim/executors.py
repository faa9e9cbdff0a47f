"""The pluggable executor contract behind :func:`run_campaign`.

A campaign is a list of :class:`CampaignJob` shards -- pure
(technique, seed) work units -- and an :class:`Executor` is *how* they
run: inline in this process, over a local process pool, or leased from
a shared filesystem work queue by workers on other hosts (see
:class:`repro.campaign.queue.QueueExecutor`).  The contract every
implementation owes its caller:

* **Ordering** -- :meth:`Executor.execute` returns one slot per input
  job, in input order, regardless of completion order.  A slot is a
  :data:`JobOutcome` for a completed shard or ``None`` for a shard
  degraded under ``on_failure="skip"``.
* **Streaming** -- ``ctx.shard_callback(outcome, attempts)`` fires as
  each shard lands (the durable runner checkpoints from it) and
  ``ctx.progress(done, total)`` after every resolved shard, so
  completion order is observable even though the return value is
  canonical.
* **Retry / timeout / degradation** -- ``ctx.retry`` (a
  :class:`RetryPolicy`) governs every implementation alike: each
  failed attempt is counted under the ``campaign.*`` metrics, retried
  with backoff up to ``max_retries`` extra attempts, and exhaustion
  either re-raises (``on_failure="raise"``) or appends a
  :class:`ShardFailure` to ``ctx.failures`` and leaves the slot
  ``None`` (``"skip"``).  Hung shards must be bounded where the
  implementation can observe them (pool round timeouts, queue lease
  expiry); the serial executor is exempt by construction and documents
  it.
* **Determinism** -- executors transport results, they never compute
  differently: for any fault-free campaign, every implementation
  yields byte-identical results for every shard.  The shared contract
  suite (``tests/campaign/test_executors.py``) asserts all of the
  above for every registered executor.

:func:`get_executor` resolves the CLI names (``auto``/``serial``/
``pool``/``queue``); the spec lives in ``docs/distributed.md``.
"""

from __future__ import annotations

import math
import os
from abc import ABC, abstractmethod
from concurrent.futures import ProcessPoolExecutor, as_completed
from concurrent.futures import TimeoutError as FuturesTimeout
from concurrent.futures.process import BrokenProcessPool
from contextlib import ExitStack
from dataclasses import dataclass, field, replace
from typing import (
    Any,
    Callable,
    ClassVar,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.config import SimConfig
from repro.mitigations.registry import make_factory
from repro.rng import derive_seed
from repro.sim.engine import get_engine
from repro.sim.metrics import SimResult
from repro.telemetry.metrics import MetricsRegistry
from repro.telemetry.spans import SpanTracer, span_of
from repro.telemetry.statusbus import StatusBus
from repro.traces.mixer import paper_mixed_workload
from repro.traces.trace_io import load_trace_npz

#: called as ``progress(completed_jobs, total_jobs)`` after each chunk
ProgressCallback = Callable[[int, int], None]

#: shard failure policies accepted by :class:`RetryPolicy`
ON_FAILURE_MODES = ("raise", "skip")

#: executor names accepted by :func:`get_executor` (and ``--executor``)
EXECUTOR_NAMES = ("auto", "serial", "pool", "queue")


class ShardTimeout(RuntimeError):
    """A shard attempt exceeded the retry policy's ``shard_timeout``."""

    shard_fault_kind = "timeout"


@dataclass(frozen=True)
class RetryPolicy:
    """Worker-level fault handling for a campaign.

    ``max_retries`` extra attempts are granted per shard beyond the
    first; retry *n* (1-based) is preceded by a backoff delay of
    ``min(backoff_cap, backoff_base * backoff_factor ** (n - 1))``
    seconds.  ``shard_timeout`` bounds one pool dispatch round: a round
    of *n* pending shards on a *w*-wide pool may take
    ``shard_timeout * ceil(n / w)`` seconds before every unfinished
    shard in it is declared hung (each then consumes one retry
    attempt), so set it comfortably above a single shard's expected
    duration.  Timeouts require pool mode; inline execution
    (``workers=0``) is single-threaded and cannot interrupt a shard.
    The queue executor bounds hangs with its *lease timeout* instead
    (a vanished or hung worker's lease expires and the shard is
    re-ticketed), and ``shard_timeout`` is not used there.

    ``on_failure`` decides what happens when a shard exhausts its
    attempts: ``"raise"`` re-raises the shard's final exception,
    ``"skip"`` records a :class:`ShardFailure` and degrades the
    campaign summary instead.
    """

    max_retries: int = 0
    backoff_base: float = 0.5
    backoff_factor: float = 2.0
    backoff_cap: float = 30.0
    shard_timeout: Optional[float] = None
    on_failure: str = "raise"

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ValueError(f"max_retries must be >= 0: {self.max_retries}")
        if self.on_failure not in ON_FAILURE_MODES:
            raise ValueError(
                f"on_failure must be one of {ON_FAILURE_MODES}: "
                f"{self.on_failure!r}"
            )
        if self.shard_timeout is not None and self.shard_timeout <= 0:
            raise ValueError(
                f"shard_timeout must be positive: {self.shard_timeout}"
            )
        if self.backoff_base < 0 or self.backoff_factor < 0:
            raise ValueError("backoff parameters must be non-negative")

    def delay(self, retry: int) -> float:
        """Backoff before 1-based retry number *retry* (0 for retry 0)."""
        if retry <= 0 or self.backoff_base == 0:
            return 0.0
        return min(
            self.backoff_cap,
            self.backoff_base * self.backoff_factor ** (retry - 1),
        )


@dataclass
class ShardFailure:
    """One shard that exhausted its attempts under ``on_failure="skip"``."""

    technique: str
    seed: int
    attempts: int
    kind: str  # "error" | "crash" | "timeout"
    error: str

    def as_dict(self) -> Dict[str, Any]:
        return {
            "technique": self.technique,
            "seed": self.seed,
            "attempts": self.attempts,
            "kind": self.kind,
            "error": self.error,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "ShardFailure":
        return cls(
            technique=data["technique"],
            seed=int(data["seed"]),
            attempts=int(data["attempts"]),
            kind=data["kind"],
            error=data.get("error", ""),
        )


@dataclass(frozen=True)
class CampaignJob:
    """One (technique, seed) unit of work; fully picklable."""

    config: SimConfig
    technique: Optional[str]
    seed: int
    total_intervals: int
    workload_kwargs: tuple = ()  # sorted (key, value) pairs
    #: pre-serialised trace shared by every technique of this seed;
    #: ``None`` regenerates the trace from the workload knobs instead
    trace_path: Optional[str] = None
    engine: str = "reference"
    #: collect a per-job :class:`MetricsRegistry` in the worker and ship
    #: it back for merging (tracers cannot cross process boundaries, but
    #: metric counters merge exactly)
    collect_metrics: bool = False
    #: retry attempt number (0 = first try); informs fault injection
    attempt: int = 0
    #: test-only deterministic fault hook (see :mod:`repro.campaign.faults`)
    fault_injector: Optional[Any] = None
    #: record a worker-local span tree (shard -> trace/simulate) and ship
    #: it back serialised for re-parenting, like the metrics registry
    collect_spans: bool = False
    #: deterministic id seed shared by the campaign's tracers
    span_seed: str = ""
    #: status-bus directory for worker heartbeats (None = no bus)
    status_dir: Optional[str] = None


#: (technique, seed, result, per-job metrics or None, serialised spans or None)
JobOutcome = Tuple[
    str, int, SimResult, Optional[MetricsRegistry], Optional[Dict[str, Any]]
]

#: called with each completed shard outcome and its attempt count; the
#: durable campaign runner uses this to checkpoint shards as they land
ShardCallback = Callable[[JobOutcome, int], None]


@dataclass
class ShardOutcome:
    """One completed shard, as a named record instead of a bare tuple.

    The typed face of :data:`JobOutcome`: executors that transport
    results out of process (the filesystem queue) serialise and
    rehydrate shards through :meth:`as_dict`/:meth:`from_dict`, and
    the round trip reuses the exact serialisation the checkpoint store
    uses (``SimResult.as_dict(include_wall=True)``), so a shard that
    travelled through a queue directory is byte-identical to one that
    never left the process.
    """

    #: technique name; ``"none"`` stands for the unmitigated baseline
    technique: str
    seed: int
    result: SimResult
    metrics: Optional[MetricsRegistry] = None
    #: serialised worker span tree (:meth:`SpanTracer.as_dict`)
    spans: Optional[Dict[str, Any]] = None
    #: attempts consumed to produce this result (1 = first try worked)
    attempts: int = 1

    @classmethod
    def from_outcome(
        cls, outcome: JobOutcome, attempts: int = 1
    ) -> "ShardOutcome":
        technique, seed, result, metrics, spans = outcome
        return cls(
            technique=technique,
            seed=seed,
            result=result,
            metrics=metrics,
            spans=spans,
            attempts=attempts,
        )

    def as_tuple(self) -> JobOutcome:
        """The legacy positional view dispatch paths consume."""
        return (
            self.technique, self.seed, self.result, self.metrics, self.spans,
        )

    def as_dict(self) -> Dict[str, Any]:
        return {
            "technique": self.technique,
            "seed": self.seed,
            "attempts": self.attempts,
            "result": self.result.as_dict(include_wall=True),
            "metrics": (
                self.metrics.as_dict() if self.metrics is not None else None
            ),
            "spans": self.spans,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "ShardOutcome":
        metrics = data.get("metrics")
        return cls(
            technique=data["technique"],
            seed=int(data["seed"]),
            result=SimResult.from_dict(data["result"]),
            metrics=(
                MetricsRegistry.from_dict(metrics)
                if metrics is not None else None
            ),
            spans=data.get("spans"),
            attempts=int(data.get("attempts", 1)),
        )


def _shard_id(technique: Optional[str], seed: int) -> str:
    """The shard's identity on the status bus and in span id seeds."""
    return f"{technique or 'none'}__s{seed}"


def _run_job(job: CampaignJob, tracer=None, in_worker: bool = True) -> JobOutcome:
    if job.fault_injector is not None:
        job.fault_injector.fire(
            job.technique or "none", job.seed, job.attempt, in_worker=in_worker
        )
    shard = _shard_id(job.technique, job.seed)
    bus = StatusBus(job.status_dir) if job.status_dir else None
    if bus is not None:
        bus.beat(shard, 0, 1, retries=job.attempt)
    spans = (
        SpanTracer(id_seed=f"{job.span_seed}|{shard}")
        if job.collect_spans else None
    )
    with span_of(
        spans, "shard",
        technique=job.technique or "none", seed=job.seed, engine=job.engine,
    ):
        with span_of(spans, "trace"):
            if job.trace_path is not None:
                trace = load_trace_npz(job.trace_path)
            else:
                trace = paper_mixed_workload(
                    job.config,
                    total_intervals=job.total_intervals,
                    seed=derive_seed(job.seed, "trace"),
                    **dict(job.workload_kwargs),
                )
        factory = make_factory(job.technique) if job.technique else None
        run = get_engine(job.engine)
        metrics = MetricsRegistry() if job.collect_metrics else None
        with span_of(spans, "simulate"):
            result = run(
                job.config, trace, factory, seed=job.seed, tracer=tracer,
                metrics=metrics,
            )
    if bus is not None:
        bus.beat(shard, 1, 1, retries=job.attempt, phase="done")
    return (
        job.technique or "none", job.seed, result, metrics,
        spans.as_dict() if spans is not None else None,
    )


def _run_chunk(chunk: List[CampaignJob]) -> List[JobOutcome]:
    return [_run_job(job) for job in chunk]


@dataclass(frozen=True)
class _FusedBlock:
    """One fused cell-block: every technique of one seed, one replay.

    The fused engine's sharding unit -- the trace axis stays per seed
    (each seed has its own trace), while the whole technique axis of
    that seed rides a single decode+replay.  Picklable for the pool.
    """

    config: SimConfig
    techniques: Tuple[Optional[str], ...]
    seed: int
    total_intervals: int
    workload_kwargs: tuple = ()
    trace_path: Optional[str] = None
    #: requested engine name, recorded in span attributes only: every
    #: name :func:`~repro.sim.engine.is_grid_engine` accepts runs the grid
    engine: str = "fused"
    collect_metrics: bool = False
    collect_spans: bool = False
    span_seed: str = ""
    status_dir: Optional[str] = None


def _run_block(block: _FusedBlock) -> List[JobOutcome]:
    from repro.sim.fused_engine import GridCell, run_simulation_grid

    shards = [_shard_id(name, block.seed) for name in block.techniques]
    bus = StatusBus(block.status_dir) if block.status_dir else None
    if bus is not None:
        for shard in shards:
            bus.beat(shard, 0, 1)
    # One tracer per cell, all spanning the shared decode+replay window:
    # the per-shard span records a fused block ships are structurally
    # identical to per-cell dispatch (same paths, same attribute keys),
    # so block composition -- which changes on --resume -- can never
    # leak into a span summary.
    tracers: List[Optional[SpanTracer]] = [
        SpanTracer(id_seed=f"{block.span_seed}|{shard}")
        if block.collect_spans else None
        for shard in shards
    ]
    with ExitStack() as shard_stack:
        for name, tracer in zip(block.techniques, tracers):
            shard_stack.enter_context(span_of(
                tracer, "shard",
                technique=name or "none", seed=block.seed, engine=block.engine,
            ))
        with ExitStack() as trace_stack:
            for tracer in tracers:
                trace_stack.enter_context(span_of(tracer, "trace"))
            if block.trace_path is not None:
                trace = load_trace_npz(block.trace_path)
            else:
                trace = paper_mixed_workload(
                    block.config,
                    total_intervals=block.total_intervals,
                    seed=derive_seed(block.seed, "trace"),
                    **dict(block.workload_kwargs),
                )
        metrics = MetricsRegistry() if block.collect_metrics else None
        cells = [
            GridCell(technique=name, seed=block.seed)
            for name in block.techniques
        ]
        with ExitStack() as simulate_stack:
            for tracer in tracers:
                simulate_stack.enter_context(span_of(tracer, "simulate"))
            results = run_simulation_grid(
                block.config, trace, cells, metrics=metrics
            )
    if bus is not None:
        for shard in shards:
            bus.beat(shard, 1, 1, phase="done")
    outcomes: List[JobOutcome] = []
    for cell, result, tracer in zip(cells, results, tracers):
        outcomes.append((
            cell.technique or "none", block.seed, result, metrics,
            tracer.as_dict() if tracer is not None else None,
        ))
        # the block shares one engine replay, so its registry ships on
        # the first outcome only -- merging it once, not per cell
        metrics = None
    return outcomes


def _count(metrics: Optional[MetricsRegistry], name: str, amount: int = 1) -> None:
    if metrics is not None and amount:
        metrics.counter(name).add(amount)


#: metrics counter name per failure kind
FAULT_COUNTERS = {
    "error": "campaign.shard_errors",
    "crash": "campaign.shard_crashes",
    "timeout": "campaign.shard_timeouts",
}


def _fault_kind(exc: BaseException) -> str:
    if isinstance(exc, BrokenProcessPool):
        return "crash"
    return getattr(exc, "shard_fault_kind", "error")


def _kill_workers(pool: ProcessPoolExecutor) -> None:
    """Tear a pool down without waiting for hung workers.

    ``shutdown(cancel_futures=True)`` drops queued work; killing the
    worker processes directly (private but stable CPython attribute)
    keeps a truly hung shard from blocking the campaign or interpreter
    exit.
    """
    processes = list((getattr(pool, "_processes", None) or {}).values())
    pool.shutdown(wait=False, cancel_futures=True)
    for process in processes:
        try:
            process.kill()
        except Exception:  # pragma: no cover - racing process exit
            pass


def _exhaust(
    technique: Optional[str],
    seed: int,
    attempts: int,
    exc: BaseException,
    policy: RetryPolicy,
    failures: List[ShardFailure],
    metrics: Optional[MetricsRegistry],
) -> None:
    """Handle a shard that used up every attempt: raise or degrade."""
    if policy.on_failure == "raise":
        raise exc
    failure = ShardFailure(
        technique=technique or "none",
        seed=seed,
        attempts=attempts,
        kind=_fault_kind(exc),
        error=f"{type(exc).__name__}: {exc}",
    )
    failures.append(failure)
    _count(metrics, "campaign.shards_degraded")


@dataclass
class ExecutionContext:
    """Everything an :class:`Executor` needs besides the jobs.

    Built by :func:`repro.sim.parallel.run_campaign` once per dispatch:
    the retry policy, the caller's metrics registry, the merged
    progress callback, the per-shard checkpoint hook, the shared
    failure list, the injectable backoff clock, the inline tracer (only
    honoured by executors advertising ``supports_tracer``), and the
    campaign's status bus (executors with remote workers relay their
    heartbeats into it).
    """

    retry: Optional[RetryPolicy] = None
    metrics: Optional[MetricsRegistry] = None
    progress: Optional[ProgressCallback] = None
    shard_callback: Optional[ShardCallback] = None
    failures: List[ShardFailure] = field(default_factory=list)
    sleep: Callable[[float], None] = None  # type: ignore[assignment]
    tracer: Any = None
    status: Optional[StatusBus] = None

    @property
    def policy(self) -> RetryPolicy:
        """The effective policy (no-retry default when none was set)."""
        return self.retry if self.retry is not None else RetryPolicy()


class Executor(ABC):
    """How a campaign's shards run; see the module docstring for the
    obligations every implementation owes (ordering, streaming, retry,
    timeout bounding, degradation accounting, determinism).

    Implementations declare:

    * ``name`` -- the :func:`get_executor` / ``--executor`` spelling;
    * ``supports_tracer`` -- whether an *enabled* event tracer can be
      threaded into shards (only in-process execution can);
    * ``supports_blocks`` -- whether :meth:`execute_blocks` accepts
      fused cell-blocks (the one-replay-per-seed fast path);
    * ``profile_section`` -- the profiler label for the dispatch phase.
    """

    name: ClassVar[str] = "abstract"
    supports_tracer: ClassVar[bool] = False
    supports_blocks: ClassVar[bool] = False
    profile_section: ClassVar[str] = "campaign:dispatch"

    @abstractmethod
    def execute(
        self, jobs: Sequence[CampaignJob], ctx: ExecutionContext
    ) -> List[Optional[JobOutcome]]:
        """Run every job; return outcomes in input order.

        Slot *i* holds job *i*'s :data:`JobOutcome`, or ``None`` if the
        shard exhausted its attempts under ``on_failure="skip"`` (the
        matching :class:`ShardFailure` is appended to ``ctx.failures``
        and counted by :func:`_exhaust`).
        """

    def execute_blocks(
        self,
        blocks: Sequence[_FusedBlock],
        place: Callable[[List[JobOutcome]], None],
        ctx: ExecutionContext,
    ) -> None:
        """Run fused cell-blocks, feeding each block's outcomes to *place*.

        Only called when ``supports_blocks`` is true, which
        :func:`~repro.sim.parallel.run_campaign` only does without a
        retry policy, fault injector or tracer.  *place* handles
        canonical placement, checkpointing and progress; *ctx* carries
        the metrics registry and status bus for lanes that need them.
        """
        raise NotImplementedError(
            f"{self.name} executor does not support fused block dispatch"
        )


class SerialExecutor(Executor):
    """In-process, single-threaded execution (the ``workers=0`` lane).

    The debug/no-fork executor: shards run inline in dispatch order,
    which is the only mode that can thread an *enabled* event tracer
    through the engines and the only one usable under pdb or coverage.
    Retries and degradation follow the shared contract; ``shard_timeout``
    cannot be enforced here (a single thread cannot interrupt itself),
    which is the documented serial-lane exemption.
    """

    name: ClassVar[str] = "serial"
    supports_tracer: ClassVar[bool] = True
    supports_blocks: ClassVar[bool] = True
    profile_section: ClassVar[str] = "campaign:inline"

    def execute(
        self, jobs: Sequence[CampaignJob], ctx: ExecutionContext
    ) -> List[Optional[JobOutcome]]:
        policy = ctx.policy
        total = len(jobs)
        outcomes: List[Optional[JobOutcome]] = [None] * total
        done = 0
        for index, job in enumerate(jobs):
            attempt = 0
            while True:
                try:
                    outcome = _run_job(
                        replace(job, attempt=attempt), tracer=ctx.tracer,
                        in_worker=False,
                    )
                except Exception as exc:
                    attempt += 1
                    _count(ctx.metrics, FAULT_COUNTERS[_fault_kind(exc)])
                    if attempt > policy.max_retries:
                        _exhaust(
                            job.technique, job.seed, attempt, exc, policy,
                            ctx.failures, ctx.metrics,
                        )
                        break
                    _count(ctx.metrics, "campaign.shard_retries")
                    delay = policy.delay(attempt)
                    if delay > 0:
                        ctx.sleep(delay)
                else:
                    outcomes[index] = outcome
                    if ctx.shard_callback is not None:
                        ctx.shard_callback(outcome, attempt + 1)
                    break
            done += 1
            if ctx.progress is not None:
                ctx.progress(done, total)
        return outcomes

    def execute_blocks(self, blocks, place, ctx) -> None:
        for block in blocks:
            place(_run_block(block))


class PoolExecutor(Executor):
    """Local process-pool execution (the historical default).

    Without a retry policy, jobs are dispatched in chunks (one pool
    task runs a whole chunk) to amortise pickling.  With one, dispatch
    switches to one job per pool task in retry *rounds*: every pending
    shard is submitted to a fresh pool, failures are retried next round
    after the policy's backoff (one sleep per round, the largest delay
    owed), and a round past ``shard_timeout * ceil(pending / width)``
    declares its unfinished shards hung and kills the pool under them.
    A worker *crash* breaks the whole pool, so crashes and timeouts
    also fail every shard in flight -- innocents are retried alongside
    the guilty and each such event consumes one attempt from all of
    them; size ``max_retries`` accordingly when crashes repeat.
    """

    name: ClassVar[str] = "pool"
    supports_blocks: ClassVar[bool] = True
    profile_section: ClassVar[str] = "campaign:pool"

    def __init__(
        self,
        workers: Optional[int] = None,
        chunk_size: Optional[int] = None,
    ) -> None:
        if workers is not None and workers <= 0:
            raise ValueError(
                f"pool executor needs a positive worker count: {workers} "
                "(use the serial executor for inline execution)"
            )
        self.workers = workers
        self.chunk_size = chunk_size

    def execute(
        self, jobs: Sequence[CampaignJob], ctx: ExecutionContext
    ) -> List[Optional[JobOutcome]]:
        if ctx.retry is not None:
            return self._execute_rounds(jobs, ctx)
        return self._execute_chunked(jobs, ctx)

    def _execute_chunked(
        self, jobs: Sequence[CampaignJob], ctx: ExecutionContext
    ) -> List[Optional[JobOutcome]]:
        total = len(jobs)
        outcomes: List[Optional[JobOutcome]] = [None] * total
        chunk_size = self.chunk_size
        if chunk_size is None:
            pool_width = self.workers or os.cpu_count() or 1
            chunk_size = max(1, math.ceil(total / (4 * pool_width)))
        chunks = [
            (start, list(jobs[start : start + chunk_size]))
            for start in range(0, total, chunk_size)
        ]
        done = 0
        with ProcessPoolExecutor(max_workers=self.workers) as pool:
            futures = {
                pool.submit(_run_chunk, chunk): start
                for start, chunk in chunks
            }
            for future in as_completed(futures):
                start = futures[future]
                chunk_outcomes = future.result()
                outcomes[start : start + len(chunk_outcomes)] = chunk_outcomes
                if ctx.shard_callback is not None:
                    for outcome in chunk_outcomes:
                        ctx.shard_callback(outcome, 1)
                done += len(chunk_outcomes)
                if ctx.progress is not None:
                    ctx.progress(done, total)
        return outcomes

    def _execute_rounds(
        self, jobs: Sequence[CampaignJob], ctx: ExecutionContext
    ) -> List[Optional[JobOutcome]]:
        policy = ctx.policy
        total = len(jobs)
        outcomes: List[Optional[JobOutcome]] = [None] * total
        attempts = [0] * total
        pending = list(range(total))
        width = self.workers or os.cpu_count() or 1
        done = 0
        while pending:
            failed: Dict[int, BaseException] = {}
            with ProcessPoolExecutor(max_workers=self.workers) as pool:
                futures = {
                    pool.submit(
                        _run_job, replace(jobs[index], attempt=attempts[index])
                    ): index
                    for index in pending
                }
                deadline = None
                if policy.shard_timeout is not None:
                    deadline = policy.shard_timeout * max(
                        1, math.ceil(len(pending) / width)
                    )
                try:
                    for future in as_completed(futures, timeout=deadline):
                        index = futures[future]
                        try:
                            outcome = future.result()
                        except Exception as exc:
                            failed[index] = exc
                            continue
                        outcomes[index] = outcome
                        done += 1
                        if ctx.shard_callback is not None:
                            ctx.shard_callback(outcome, attempts[index] + 1)
                        if ctx.progress is not None:
                            ctx.progress(done + len(ctx.failures), total)
                except FuturesTimeout:
                    for future, index in futures.items():
                        if outcomes[index] is None and index not in failed:
                            job = jobs[index]
                            failed[index] = ShardTimeout(
                                f"shard {job.technique or 'none'}/seed="
                                f"{job.seed} exceeded shard_timeout="
                                f"{policy.shard_timeout}s on attempt "
                                f"{attempts[index]}"
                            )
                    _kill_workers(pool)
            retry_next: List[int] = []
            for index in sorted(failed):
                exc = failed[index]
                attempts[index] += 1
                _count(ctx.metrics, FAULT_COUNTERS[_fault_kind(exc)])
                if attempts[index] > policy.max_retries:
                    _exhaust(
                        jobs[index].technique, jobs[index].seed,
                        attempts[index], exc, policy, ctx.failures,
                        ctx.metrics,
                    )
                    if ctx.progress is not None:
                        ctx.progress(done + len(ctx.failures), total)
                else:
                    _count(ctx.metrics, "campaign.shard_retries")
                    retry_next.append(index)
            if retry_next:
                delay = max(
                    policy.delay(attempts[index]) for index in retry_next
                )
                if delay > 0:
                    ctx.sleep(delay)
            pending = retry_next
        return outcomes

    def execute_blocks(self, blocks, place, ctx) -> None:
        with ProcessPoolExecutor(max_workers=self.workers) as pool:
            block_futures = [
                pool.submit(_run_block, block) for block in blocks
            ]
            for future in as_completed(block_futures):
                place(future.result())


def get_executor(
    spec: Any = None,
    workers: Optional[int] = None,
    chunk_size: Optional[int] = None,
) -> Executor:
    """Resolve an executor spec (name, instance, or None) to an instance.

    ``None``/``"auto"`` keep the historical ``workers`` semantics:
    ``workers=0`` runs inline (:class:`SerialExecutor`), anything else
    uses the local :class:`PoolExecutor`.  ``"serial"`` and ``"pool"``
    force a lane; ``"queue"`` cannot be resolved from a bare name
    because it needs a queue directory -- construct
    :class:`repro.campaign.queue.QueueExecutor` (or pass
    ``--queue-dir`` on the CLI) instead.  An :class:`Executor` instance
    passes through untouched.
    """
    if isinstance(spec, Executor):
        return spec
    if spec is None or spec == "auto":
        if workers == 0:
            return SerialExecutor()
        return PoolExecutor(workers=workers, chunk_size=chunk_size)
    if spec == "serial":
        return SerialExecutor()
    if spec == "pool":
        return PoolExecutor(workers=workers, chunk_size=chunk_size)
    if spec == "queue":
        raise ValueError(
            "the queue executor needs a queue directory: construct "
            "repro.campaign.queue.QueueExecutor(queue_dir) and pass the "
            "instance (the CLI does this for --executor queue --queue-dir)"
        )
    raise ValueError(
        f"unknown executor {spec!r}; expected one of {EXECUTOR_NAMES} "
        "or an Executor instance"
    )
