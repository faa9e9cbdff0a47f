"""The pluggable executor contract behind :func:`run_campaign`.

A campaign is a list of :class:`CampaignJob` work units -- one seed and
the techniques that share its trace -- and an :class:`Executor` is
*how* they run: inline in this process, over a local process pool, or
leased from a shared filesystem work queue by workers on other hosts
(see :class:`repro.campaign.queue.QueueExecutor`).  Every lane runs a
unit with the same :func:`_run_job`, and every technique of a unit is a
*member* shard with a record of its own.  The contract every
implementation owes its caller:

* **Ordering** -- :meth:`Executor.execute` returns one slot per input
  unit, in input order, regardless of completion order.  A slot is the
  list of the unit's member :class:`ShardRecord` records, or ``None``
  for a unit degraded under ``on_failure="skip"``.
* **Streaming** -- ``ctx.shard_callback(record)`` fires for each member
  as its unit lands, with the attempts it took in ``record.attempts``
  (the durable runner checkpoints from it), and
  ``ctx.progress(done, total)``, counting shards, after every
  resolved unit, so completion order is observable even though the
  return value is canonical.
* **Retry / timeout / degradation** -- ``ctx.retry`` (a
  :class:`RetryPolicy`) governs every implementation alike, per unit:
  each failed attempt is counted under the ``campaign.*`` metrics,
  retried with backoff up to ``max_retries`` extra attempts, and
  exhaustion either re-raises (``on_failure="raise"``) or appends one
  :class:`ShardFailure` per member to ``ctx.failures`` and leaves the
  slot ``None`` (``"skip"``).  Hung units must be bounded where the
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
from concurrent.futures import Future, ProcessPoolExecutor, as_completed
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
from repro.rng import derive_seed
from repro.sim.engine import run_cells
from repro.sim.fused_engine import GridCell
from repro.sim.metrics import SimResult
from repro.telemetry.metrics import MetricsRegistry
from repro.telemetry.spans import SpanTracer, span_of
from repro.telemetry.statusbus import StatusBus
from repro.traces.mixer import paper_mixed_workload
from repro.traces.trace_io import load_trace_npz

#: called as ``progress(completed_shards, total_shards)`` as units resolve
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
    """One campaign work unit: a seed's technique list; fully picklable.

    The paper evaluates every technique on the same trace for each seed,
    so a unit is one seed and a list of techniques that share its trace:
    a single (technique, seed) shard, or a whole seed when the engine has
    a grid form (:func:`repro.sim.parallel.run_campaign` decides).  Each
    technique of the list is a *member* shard with a record of its own.
    """

    config: SimConfig
    techniques: Tuple[Optional[str], ...]
    seed: int
    total_intervals: int
    workload_kwargs: tuple = ()  # sorted (key, value) pairs
    #: a caller's pre-serialised trace, replayed by every unit; ``None``
    #: regenerates the seed's trace from the workload knobs where the
    #: unit runs
    trace_path: Optional[str] = None
    engine: str = "reference"
    #: collect a per-unit :class:`MetricsRegistry` in the worker and ship
    #: it back for merging (tracers cannot cross process boundaries, but
    #: metric counters merge exactly)
    collect_metrics: bool = False
    #: retry attempt number (0 = first try); informs fault injection
    attempt: int = 0
    #: test-only deterministic fault hook (see :mod:`repro.campaign.faults`)
    fault_injector: Optional[Any] = None
    #: record a worker-local span tree (shard -> trace/simulate) per
    #: member and ship it back serialised for re-parenting, like the
    #: metrics registry
    collect_spans: bool = False
    #: deterministic id seed shared by the campaign's tracers
    span_seed: str = ""
    #: status-bus directory for worker heartbeats (None = no bus)
    status_dir: Optional[str] = None


@dataclass
class ShardRecord:
    """One completed (technique, seed) shard.

    The one shard result every layer passes around: :func:`_run_job`
    returns one per member, executors stream them to the shard
    callback, the queue ships them through ``results/`` and the
    checkpoint store persists them, all through :meth:`as_dict` /
    :meth:`from_dict` (``SimResult.as_dict(include_wall=True)``), so a
    shard that crossed a process, a queue directory or a resume is
    byte-identical to one that never left the process.  ``metrics``
    and ``spans`` are serialised already, which keeps a record
    JSON-ready wherever it travels.
    """

    #: technique name; ``"none"`` stands for the unmitigated baseline
    technique: str
    seed: int
    result: SimResult
    #: attempts consumed to produce this result (1 = first try worked)
    attempts: int = 1
    #: the unit's :meth:`MetricsRegistry.as_dict` (on its first member)
    metrics: Optional[Dict[str, Any]] = None
    #: serialised worker span tree (:meth:`SpanTracer.as_dict`); the
    #: campaign fold adopts checkpointed ones too, so span summaries of
    #: resumed runs match uninterrupted ones
    spans: Optional[Dict[str, Any]] = None

    def as_dict(self) -> Dict[str, Any]:
        return {
            "technique": self.technique,
            "seed": self.seed,
            "attempts": self.attempts,
            "result": self.result.as_dict(include_wall=True),
            "metrics": self.metrics,
            "spans": self.spans,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "ShardRecord":
        return cls(
            technique=data["technique"],
            seed=int(data["seed"]),
            result=SimResult.from_dict(data["result"]),
            attempts=int(data.get("attempts", 1)),
            metrics=data.get("metrics"),
            spans=data.get("spans"),
        )


#: called with each completed shard's record as it lands; the durable
#: campaign runner checkpoints shards through it
ShardCallback = Callable[[ShardRecord], None]


def _shard_id(technique: Optional[str], seed: int) -> str:
    """The shard's identity on the status bus and in span id seeds."""
    return f"{technique or 'none'}__s{seed}"


def _unit_id(techniques: Sequence[Optional[str]], seed: int) -> str:
    """A unit's identity (its queue ticket id): the shard id of a
    one-member unit, ``block__s<seed>`` otherwise (no technique is named
    ``block``)."""
    if len(techniques) == 1:
        return _shard_id(techniques[0], seed)
    return f"block__s{seed}"


def _describe(techniques: Sequence[Optional[str]], seed: int) -> str:
    """A unit as failure messages name it."""
    if len(techniques) == 1:
        return f"shard {_shard_id(techniques[0], seed)}"
    shards = ", ".join(_shard_id(name, seed) for name in techniques)
    return f"block {_unit_id(techniques, seed)} (shards {shards})"


def _each(tracers: Sequence[Optional[SpanTracer]], name: str) -> ExitStack:
    """A *name* span open in every member's tracer."""
    stack = ExitStack()
    for spans in tracers:
        stack.enter_context(span_of(spans, name))
    return stack


def _run_job(
    job: CampaignJob, tracer=None, in_worker: bool = True
) -> List[ShardRecord]:
    """Run one unit: evaluate every member on the seed's trace with
    :func:`~repro.sim.engine.run_cells`, and return the members'
    records in technique order, stamped with the job's attempt.

    The trace is the job's ``trace_path`` file when it has one, else
    the lazy paper workload regenerated from the seed and streamed into
    the replay, so its generation time falls in the ``simulate`` span.

    Each member gets its fault-injection check, its heartbeats and its
    own ``shard -> trace/simulate`` span tree spanning the shared
    window, so a span summary is the same however members are grouped
    into units (the grouping changes on ``--resume``).  The unit's
    metrics registry ships on the first record only, so it merges once.
    """
    names = [name or "none" for name in job.techniques]
    if job.fault_injector is not None:
        for name in names:
            job.fault_injector.fire(
                name, job.seed, job.attempt, in_worker=in_worker
            )
    shards = [_shard_id(name, job.seed) for name in names]
    bus = StatusBus(job.status_dir) if job.status_dir else None
    if bus is not None:
        for shard in shards:
            bus.beat(shard, 0, 1, retries=job.attempt)
    tracers = [
        SpanTracer(id_seed=f"{job.span_seed}|{shard}")
        if job.collect_spans else None
        for shard in shards
    ]
    metrics = MetricsRegistry() if job.collect_metrics else None
    with ExitStack() as shard_spans:
        for name, spans in zip(names, tracers):
            shard_spans.enter_context(span_of(
                spans, "shard", technique=name, seed=job.seed,
                engine=job.engine,
            ))
        with _each(tracers, "trace"):
            if job.trace_path is not None:
                trace = load_trace_npz(job.trace_path)
            else:
                trace = paper_mixed_workload(
                    job.config,
                    total_intervals=job.total_intervals,
                    seed=derive_seed(job.seed, "trace"),
                    **dict(job.workload_kwargs),
                )
        cells = [GridCell(technique=name, seed=job.seed) for name in job.techniques]
        with _each(tracers, "simulate"):
            results = list(run_cells(
                job.config, trace, cells, job.engine, tracer=tracer,
                metrics=metrics,
            ))
    if bus is not None:
        for shard in shards:
            bus.beat(shard, 1, 1, retries=job.attempt, phase="done")
    records = []
    for name, result, spans in zip(names, results, tracers):
        records.append(ShardRecord(
            technique=name, seed=job.seed, result=result,
            attempts=job.attempt + 1,
            metrics=metrics.as_dict() if metrics is not None else None,
            spans=spans.as_dict() if spans is not None else None,
        ))
        metrics = None
    return records


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


def _submit(pool: ProcessPoolExecutor, fn: Callable, arg: Any) -> Future:
    """``pool.submit(fn, arg)``, or -- when a crash broke the pool while
    work was still being submitted -- a future already failed with that
    :class:`BrokenProcessPool`, so the item fails like the ones in
    flight instead of aborting the whole dispatch."""
    try:
        return pool.submit(fn, arg)
    except BrokenProcessPool as exc:
        future: Future = Future()
        future.set_exception(exc)
        return future


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


def _charge(
    ctx: "ExecutionContext",
    techniques: Sequence[Optional[str]],
    seed: int,
    attempts: int,
    exc: BaseException,
) -> bool:
    """Count a unit's failed attempt number *attempts*; return whether
    it may retry.  A unit out of attempts re-raises under
    ``on_failure="raise"`` and otherwise degrades every member: one
    :class:`ShardFailure` each in ``ctx.failures``."""
    policy = ctx.policy
    kind = _fault_kind(exc)
    _count(ctx.metrics, FAULT_COUNTERS.get(kind, FAULT_COUNTERS["error"]))
    if attempts <= policy.max_retries:
        _count(ctx.metrics, "campaign.shard_retries")
        return True
    if policy.on_failure == "raise":
        raise exc
    for technique in techniques:
        ctx.failures.append(ShardFailure(
            technique=technique or "none",
            seed=seed,
            attempts=attempts,
            kind=kind,
            error=f"{type(exc).__name__}: {exc}",
        ))
        _count(ctx.metrics, "campaign.shards_degraded")
    return False


def _land(ctx: "ExecutionContext", records: List[ShardRecord]) -> int:
    """Stream a finished unit's member records to the shard callback;
    return how many shards landed."""
    if ctx.shard_callback is not None:
        for record in records:
            ctx.shard_callback(record)
    return len(records)


def _shards(jobs: Sequence[CampaignJob]) -> int:
    return sum(len(job.techniques) for job in jobs)


@dataclass
class ExecutionContext:
    """Everything an :class:`Executor` needs besides the jobs.

    Built by :func:`repro.sim.parallel.run_campaign` once per dispatch:
    the retry policy, the caller's metrics registry, the progress
    callback, the per-shard checkpoint hook, the shared
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
    """How a campaign's units run; see the module docstring for the
    obligations every implementation owes (ordering, streaming, retry,
    timeout bounding, degradation accounting, determinism).

    Implementations declare:

    * ``name`` -- the :func:`get_executor` / ``--executor`` spelling;
    * ``supports_tracer`` -- whether an *enabled* event tracer can be
      threaded into shards (only in-process execution can).
    """

    name: ClassVar[str] = "abstract"
    supports_tracer: ClassVar[bool] = False

    @abstractmethod
    def execute(
        self, jobs: Sequence[CampaignJob], ctx: ExecutionContext
    ) -> List[Optional[List[ShardRecord]]]:
        """Run every unit; return each unit's member records, in input
        order.

        Slot *i* holds job *i*'s records (one per technique, in
        technique order), or ``None`` if the unit exhausted its attempts
        under ``on_failure="skip"`` (one :class:`ShardFailure` per
        member is then in ``ctx.failures``).
        """


class SerialExecutor(Executor):
    """In-process, single-threaded execution (the ``workers=0`` lane).

    The debug/no-fork executor: units run inline in dispatch order,
    which is the only mode that can thread an *enabled* event tracer
    through the engines and the only one usable under pdb or coverage.
    Retries and degradation follow the shared contract; ``shard_timeout``
    cannot be enforced here (a single thread cannot interrupt itself),
    which is the documented serial-lane exemption.
    """

    name: ClassVar[str] = "serial"
    supports_tracer: ClassVar[bool] = True

    def execute(
        self, jobs: Sequence[CampaignJob], ctx: ExecutionContext
    ) -> List[Optional[List[ShardRecord]]]:
        total = _shards(jobs)
        slots: List[Optional[List[ShardRecord]]] = [None] * len(jobs)
        done = 0
        for index, job in enumerate(jobs):
            attempt = 0
            while True:
                try:
                    records = _run_job(
                        replace(job, attempt=attempt), tracer=ctx.tracer,
                        in_worker=False,
                    )
                except Exception as exc:
                    attempt += 1
                    if not _charge(ctx, job.techniques, job.seed, attempt, exc):
                        break
                    delay = ctx.policy.delay(attempt)
                    if delay > 0:
                        ctx.sleep(delay)
                else:
                    slots[index] = records
                    _land(ctx, records)
                    break
            done += len(job.techniques)
            if ctx.progress is not None:
                ctx.progress(done, total)
        return slots


class PoolExecutor(Executor):
    """Local process-pool execution (the historical default).

    Units are dispatched one per pool task in retry *rounds*: every
    pending unit is submitted to a fresh pool, failures are retried
    next round after the policy's backoff (one sleep per round, the
    largest delay owed), and a round past ``shard_timeout * ceil(pending
    / width)`` declares its unfinished units hung and kills the pool
    under them.  Without a retry policy the default
    :class:`RetryPolicy` applies: no retries, and the first failure is
    re-raised once its round has landed every other unit.  A worker
    *crash* breaks the whole pool, so crashes and timeouts also fail
    every unit in flight -- innocents are retried alongside the guilty
    and each such event consumes one attempt from all of them; size
    ``max_retries`` accordingly when crashes repeat.
    """

    name: ClassVar[str] = "pool"

    def __init__(self, workers: Optional[int] = None) -> None:
        if workers is not None and workers <= 0:
            raise ValueError(
                f"pool executor needs a positive worker count: {workers} "
                "(use the serial executor for inline execution)"
            )
        self.workers = workers

    def execute(
        self, jobs: Sequence[CampaignJob], ctx: ExecutionContext
    ) -> List[Optional[List[ShardRecord]]]:
        policy = ctx.policy
        total = _shards(jobs)
        slots: List[Optional[List[ShardRecord]]] = [None] * len(jobs)
        attempts = [0] * len(jobs)
        pending = list(range(len(jobs)))
        width = self.workers or os.cpu_count() or 1
        done = 0
        while pending:
            failed: Dict[int, BaseException] = {}
            with ProcessPoolExecutor(max_workers=self.workers) as pool:
                futures = {
                    _submit(
                        pool, _run_job,
                        replace(jobs[index], attempt=attempts[index]),
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
                            records = future.result()
                        except Exception as exc:
                            failed[index] = exc
                            continue
                        slots[index] = records
                        done += _land(ctx, records)
                        if ctx.progress is not None:
                            ctx.progress(done + len(ctx.failures), total)
                except FuturesTimeout:
                    for future, index in futures.items():
                        if slots[index] is None and index not in failed:
                            job = jobs[index]
                            failed[index] = ShardTimeout(
                                f"{_describe(job.techniques, job.seed)} "
                                f"exceeded shard_timeout="
                                f"{policy.shard_timeout}s on attempt "
                                f"{attempts[index]}"
                            )
                    _kill_workers(pool)
            retry_next: List[int] = []
            for index in sorted(failed):
                attempts[index] += 1
                job = jobs[index]
                if _charge(ctx, job.techniques, job.seed, attempts[index],
                           failed[index]):
                    retry_next.append(index)
                elif ctx.progress is not None:
                    ctx.progress(done + len(ctx.failures), total)
            if retry_next:
                delay = max(
                    policy.delay(attempts[index]) for index in retry_next
                )
                if delay > 0:
                    ctx.sleep(delay)
            pending = retry_next
        return slots


def get_executor(spec: Any = None, workers: Optional[int] = None) -> Executor:
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
        return PoolExecutor(workers=workers)
    if spec == "serial":
        return SerialExecutor()
    if spec == "pool":
        return PoolExecutor(workers=workers)
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
