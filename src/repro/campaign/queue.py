"""Filesystem work-queue executor: multi-host campaigns, no wire protocol.

The distributed lane of the executor contract
(:mod:`repro.sim.executors`; spec in ``docs/distributed.md``).  The
runner turns the campaign's work into JSON *tickets* in a shared
queue directory; independent worker processes -- started anywhere the
directory is mounted via ``repro campaign-worker <queue-dir>`` --
*lease* tickets by atomic ``os.rename``, run them with the exact same
shard functions the pool uses, and push one JSON result record per
shard back for the runner to fold into the campaign.  Every
coordination primitive is a filesystem operation with POSIX atomicity
semantics, so the only infrastructure a multi-host campaign needs is a
shared directory::

    <queue_dir>/
        queue.json        # banner: campaign identity, written by the runner
        tickets/
            <ticket>.json # pending work, one ShardTicket per attempt
        leases/
            <ticket>.json # in flight: renamed from tickets/, mtime = liveness
        results/
            <shard>.json  # one completed ShardRecord each (atomic writes)
        failed/
            <ticket>.json # per-attempt failure reports from workers
        traces/
            trace-<n>.npz # a caller's trace file, staged for every worker
        status/           # a plain StatusBus: worker heartbeats + snapshot
        stop              # sentinel: workers drain and exit when it appears

A ticket is one campaign work unit (:class:`~repro.sim.executors.CampaignJob`):
a seed and its technique list, run by the same
:func:`~repro.sim.executors._run_job` every lane uses.  A fused-engine
campaign without a retry policy, fault injector or tracer publishes one
ticket per seed (``block__s<seed>``): the worker loads the seed's trace
once and runs every technique of it in one grid replay.  Every other
campaign publishes one ticket per shard (``<technique>__s<seed>``).
Either way the worker writes one result per shard, so checkpointing and
progress stay per shard.  The lease, its expiry and self-heal cover a
whole ticket: a worker killed mid-block loses the whole block, and
since block tickets only run without a retry policy, the campaign then
raises :class:`~repro.sim.executors.ShardTimeout` naming the block's
shards.  Tickets carry :data:`QUEUE_SCHEMA_VERSION`; a worker refuses a
ticket of another version with a failure report naming both versions.

Lease protocol: claiming is ``os.rename(tickets/X, leases/X)`` --
atomic on POSIX, so exactly one worker wins a ticket and a ticket is
always in exactly one stage.  While a ticket runs, the worker's
:class:`~repro.telemetry.statusbus.Heartbeater` refreshes the lease
file's mtime alongside its status-bus heartbeat; a SIGKILLed, crashed
or hung worker stops refreshing, the lease ages past the runner's
``lease_timeout``, and the runner *reclaims* it -- re-ticketing the
work with the next attempt number, charged to the campaign's
:class:`~repro.sim.executors.RetryPolicy` as a ``timeout``.  Results
and failure reports are written atomically (temp file +
``os.replace``), so no reader ever observes a torn record; foreign or
torn files are quarantined/swept, and the runner re-publishes any
unresolved ticket that is absent from every stage, which makes the
queue self-healing against lost files.

Determinism: a shard is a pure function of its ticket (config, seed,
engine, trace), results travel as the same
:class:`~repro.sim.executors.ShardRecord` JSON the checkpoint store
writes, and the runner returns records in
canonical input order -- so a queue campaign's aggregates are
bit-identical to a serial or pool run of the same grid, no matter how
many workers raced, died, or were SIGKILLed along the way
(``tests/campaign/test_executors.py`` asserts this).
"""

from __future__ import annotations

import json
import os
import shutil
import socket
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import (
    Any,
    Callable,
    ClassVar,
    Container,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.campaign.faults import FaultInjector
from repro.sim.executors import (
    CampaignJob,
    ExecutionContext,
    Executor,
    ShardRecord,
    ShardTimeout,
    _charge,
    _count,
    _describe,
    _land,
    _run_job,
    _shard_id,
    _shards,
    _unit_id,
)
from repro.telemetry.manifest import config_as_dict, config_from_dict
from repro.telemetry.statusbus import (
    DEFAULT_STALE_AFTER_S,
    Heartbeater,
    StatusBus,
    write_json_atomic,
)

#: bump when the on-disk queue layout changes incompatibly
#: (2: block tickets, which carry a fused block's technique list;
#: 3: one ticket kind, every ticket carries its technique list)
QUEUE_SCHEMA_VERSION = 3

BANNER_FILENAME = "queue.json"
TICKETS_DIRNAME = "tickets"
LEASES_DIRNAME = "leases"
RESULTS_DIRNAME = "results"
FAILED_DIRNAME = "failed"
TRACES_DIRNAME = "traces"
STATUS_DIRNAME = "status"
STOP_FILENAME = "stop"

#: a lease whose mtime is older than this is presumed dead and reclaimed
DEFAULT_LEASE_TIMEOUT_S = 60.0


class RemoteShardError(RuntimeError):
    """A worker-reported shard failure, rehydrated on the runner side."""

    def __init__(self, message: str, kind: str = "error") -> None:
        super().__init__(message)
        self.shard_fault_kind = kind


class TicketSchemaError(ValueError):
    """A ticket written for a queue schema version this code does not run."""


@dataclass
class ShardTicket:
    """One work-unit attempt as a self-contained JSON work order.

    Everything a worker on another host needs to run the unit: the
    full simulation config (as the nested plain dict
    :func:`~repro.telemetry.manifest.config_as_dict` produces), the
    seed and its technique list, the engine, the workload knobs or the
    queue-local trace filename, and the serialised fault-injection spec
    for tests.  Status-bus paths deliberately do **not** travel in
    tickets: workers heartbeat into the queue's own ``status/``
    directory (the only path guaranteed shared), and the runner relays
    those records into the campaign's bus.

    ``shard`` is the ticket id: the shard id of a one-technique unit,
    ``block__s<seed>`` for a seed's whole technique list.
    """

    shard: str
    techniques: List[Optional[str]]
    seed: int
    #: retry attempt this ticket represents (0 = first try); stamped by
    #: the runner on publish and re-publish, consumed by fault matching
    attempt: int
    engine: str
    total_intervals: int
    config: Dict[str, Any]
    #: sorted (key, value) workload knob pairs, JSON-friendly
    workload_kwargs: List[List[Any]]
    #: filename under ``traces/``; None regenerates from the knobs
    trace: Optional[str] = None
    collect_metrics: bool = False
    collect_spans: bool = False
    span_seed: str = ""
    #: :meth:`FaultInjector.spec` JSON, or None (production campaigns)
    fault_spec: Optional[str] = None
    schema_version: int = QUEUE_SCHEMA_VERSION

    @property
    def shards(self) -> List[str]:
        """The shard ids this ticket produces results for."""
        return [_shard_id(name, self.seed) for name in self.techniques]

    @classmethod
    def from_job(
        cls,
        job: CampaignJob,
        trace: Optional[str] = None,
        attempt: Optional[int] = None,
    ) -> "ShardTicket":
        return cls(
            shard=_unit_id(job.techniques, job.seed),
            techniques=list(job.techniques),
            seed=job.seed,
            attempt=job.attempt if attempt is None else attempt,
            engine=job.engine,
            total_intervals=job.total_intervals,
            config=config_as_dict(job.config),
            workload_kwargs=[list(pair) for pair in job.workload_kwargs],
            trace=trace,
            collect_metrics=job.collect_metrics,
            collect_spans=job.collect_spans,
            span_seed=job.span_seed,
            fault_spec=(
                job.fault_injector.spec()
                if job.fault_injector is not None else None
            ),
        )

    def to_job(self, queue_root) -> CampaignJob:
        """Rehydrate the runnable unit on the worker side."""
        return CampaignJob(
            config=config_from_dict(self.config),
            techniques=tuple(self.techniques),
            seed=self.seed,
            total_intervals=self.total_intervals,
            workload_kwargs=tuple(
                (key, value) for key, value in self.workload_kwargs
            ),
            trace_path=(
                str(Path(queue_root) / TRACES_DIRNAME / self.trace)
                if self.trace else None
            ),
            engine=self.engine,
            collect_metrics=self.collect_metrics,
            attempt=self.attempt,
            fault_injector=(
                FaultInjector.from_spec(self.fault_spec)
                if self.fault_spec else None
            ),
            collect_spans=self.collect_spans,
            span_seed=self.span_seed,
            # the worker's Heartbeater keeps every member shard's
            # heartbeat fresh on the queue bus
            status_dir=None,
        )

    def as_dict(self) -> Dict[str, Any]:
        return {
            "schema_version": self.schema_version,
            "shard": self.shard,
            "techniques": self.techniques,
            "seed": self.seed,
            "attempt": self.attempt,
            "engine": self.engine,
            "total_intervals": self.total_intervals,
            "config": self.config,
            "workload_kwargs": self.workload_kwargs,
            "trace": self.trace,
            "collect_metrics": self.collect_metrics,
            "collect_spans": self.collect_spans,
            "span_seed": self.span_seed,
            "fault_spec": self.fault_spec,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "ShardTicket":
        """Parse a ticket; raises :class:`TicketSchemaError` for a ticket
        of another queue schema version rather than misreading it."""
        version = int(data.get("schema_version", QUEUE_SCHEMA_VERSION))
        if version != QUEUE_SCHEMA_VERSION:
            raise TicketSchemaError(
                f"ticket {data.get('shard')!r} has queue schema version "
                f"{version}, but this code runs schema version "
                f"{QUEUE_SCHEMA_VERSION}; run campaign-worker from the "
                "same release as the campaign"
            )
        return cls(
            shard=data["shard"],
            techniques=list(data["techniques"]),
            seed=int(data["seed"]),
            attempt=int(data.get("attempt", 0)),
            engine=data["engine"],
            total_intervals=int(data["total_intervals"]),
            config=dict(data["config"]),
            workload_kwargs=[
                list(pair) for pair in data.get("workload_kwargs", [])
            ],
            trace=data.get("trace"),
            collect_metrics=bool(data.get("collect_metrics", False)),
            collect_spans=bool(data.get("collect_spans", False)),
            span_seed=data.get("span_seed", ""),
            fault_spec=data.get("fault_spec"),
            schema_version=version,
        )


class WorkQueue:
    """Layout helper for one queue directory (see the module docstring).

    Runner and workers share this class; every mutation is either an
    atomic write (:func:`~repro.telemetry.statusbus.write_json_atomic`)
    or an atomic rename, so the queue is crash-consistent on both
    sides: no observer ever reads a torn ticket, lease, or result that
    this code wrote.
    """

    def __init__(self, root) -> None:
        self.root = Path(root)
        self.tickets_dir = self.root / TICKETS_DIRNAME
        self.leases_dir = self.root / LEASES_DIRNAME
        self.results_dir = self.root / RESULTS_DIRNAME
        self.failed_dir = self.root / FAILED_DIRNAME
        self.traces_dir = self.root / TRACES_DIRNAME
        self.banner_path = self.root / BANNER_FILENAME
        self.stop_path = self.root / STOP_FILENAME

    def ensure_layout(self) -> None:
        """Create every queue subdirectory (idempotent, racing-safe)."""
        for path in (
            self.tickets_dir, self.leases_dir, self.results_dir,
            self.failed_dir, self.traces_dir,
        ):
            path.mkdir(parents=True, exist_ok=True)

    def reset(self) -> None:
        """Clear work files from a previous campaign (runner, at start).

        One queue directory serves one campaign at a time; stale
        results from an earlier run must not be ingested as this run's.
        The banner and status directory are overwritten separately.
        """
        self.ensure_layout()
        self.clear_stop()
        for directory in (
            self.tickets_dir, self.leases_dir, self.results_dir,
            self.failed_dir, self.traces_dir,
        ):
            for path in directory.iterdir():
                try:
                    path.unlink()
                except OSError:  # pragma: no cover - racing a straggler
                    pass

    def status_bus(
        self, stale_after: float = DEFAULT_STALE_AFTER_S
    ) -> StatusBus:
        """The queue's own status bus (``<queue>/status``) -- the one
        directory runner and remote workers are guaranteed to share."""
        return StatusBus(self.root / STATUS_DIRNAME, stale_after=stale_after)

    # -- banner / stop sentinel ---------------------------------------

    def write_banner(self, banner: Dict[str, Any]) -> None:
        payload = {"schema_version": QUEUE_SCHEMA_VERSION}
        payload.update(banner)
        write_json_atomic(self.banner_path, payload)

    def request_stop(self) -> None:
        """Raise the drain sentinel: workers exit at their next poll."""
        write_json_atomic(self.stop_path, {"stop": True})

    def clear_stop(self) -> None:
        try:
            self.stop_path.unlink()
        except OSError:
            pass

    @property
    def stop_requested(self) -> bool:
        return self.stop_path.exists()

    # -- tickets and leases (worker side) -----------------------------

    def ticket_path(self, shard: str) -> Path:
        return self.tickets_dir / f"{shard}.json"

    def lease_path(self, shard: str) -> Path:
        return self.leases_dir / f"{shard}.json"

    def publish_ticket(self, ticket: ShardTicket) -> Path:
        path = self.ticket_path(ticket.shard)
        write_json_atomic(path, ticket.as_dict())
        return path

    def claim_ticket(self) -> Optional[Tuple[ShardTicket, Path]]:
        """Lease the first available ticket via atomic rename.

        Exactly one claimant wins each ticket: ``os.rename`` either
        moves the file into ``leases/`` or raises because another
        worker (or a runner reclaim) got there first, in which case the
        next ticket is tried.  A won lease is immediately ``touch``ed
        so its liveness clock starts at claim time, not publish time.
        A ticket that cannot be parsed (torn by a non-atomic foreign
        writer, or corrupted on disk) is quarantined into
        ``failed/<name>.corrupt`` rather than retried forever; the
        runner's self-heal pass re-publishes the shard from its
        in-memory job list.  A ticket of another queue schema version is
        not run: a failure report naming both versions takes its place,
        which the runner surfaces as a :class:`RemoteShardError`.
        """
        if not self.tickets_dir.is_dir():
            return None
        for path in sorted(self.tickets_dir.glob("*.json")):
            lease = self.leases_dir / path.name
            try:
                os.rename(path, lease)
            except OSError:
                continue  # lost the race; try the next ticket
            try:
                data = json.loads(lease.read_text(encoding="utf-8"))
                ticket = ShardTicket.from_dict(data)
            except TicketSchemaError as exc:
                self._write_failure(
                    dict(data, shard=path.stem), "error",
                    f"{type(exc).__name__}: {exc}",
                )
                self.release(lease)
                continue
            except (OSError, json.JSONDecodeError, AttributeError, KeyError,
                    TypeError, ValueError):
                quarantine = self.failed_dir / f"{path.name}.corrupt"
                try:
                    os.replace(lease, quarantine)
                except OSError:  # pragma: no cover - racing reclaim
                    pass
                continue
            self.touch(lease)
            return ticket, lease
        return None

    def touch(self, lease: Path) -> None:
        """Refresh a lease's mtime: the holder is alive."""
        try:
            os.utime(lease)
        except OSError:  # lease reclaimed under us; the run still counts
            pass

    def release(self, lease: Path) -> None:
        try:
            lease.unlink()
        except OSError:
            pass

    # -- leases (runner side) -----------------------------------------

    def expired_leases(
        self, timeout: float, now: Optional[float] = None
    ) -> List[Tuple[str, Path]]:
        """(shard, lease-path) pairs whose holder has gone quiet.

        Liveness is the lease file's mtime -- one clock, the shared
        filesystem's, which is the only clock a multi-host queue can
        agree on.  Size *timeout* generously above the worker's
        refresh interval (and any cross-host clock skew).
        """
        if now is None:
            now = time.time()
        expired: List[Tuple[str, Path]] = []
        if not self.leases_dir.is_dir():
            return expired
        for path in sorted(self.leases_dir.glob("*.json")):
            try:
                age = now - path.stat().st_mtime
            except OSError:
                continue  # released while we looked
            if age > timeout:
                expired.append((path.stem, path))
        return expired

    def reclaim_lease(self, lease: Path) -> Optional[ShardTicket]:
        """Take a dead worker's lease back (runner only).

        Returns the leased ticket, or None if the lease vanished or
        cannot be parsed (the self-heal pass covers the shard either
        way).  The lease file is removed; re-publishing with a bumped
        attempt is the caller's decision, under its retry policy.
        """
        try:
            data = json.loads(lease.read_text(encoding="utf-8"))
            ticket = ShardTicket.from_dict(data)
        except (OSError, json.JSONDecodeError, KeyError, TypeError,
                ValueError):
            ticket = None
        self.release(lease)
        return ticket

    # -- results and failure reports ----------------------------------

    def result_path(self, shard: str) -> Path:
        return self.results_dir / f"{shard}.json"

    def write_result(self, record: Dict[str, Any]) -> Path:
        path = self.result_path(record["shard"])
        write_json_atomic(path, record)
        return path

    def scan_results(
        self, skip: Container[str] = ()
    ) -> Tuple[Dict[str, Dict[str, Any]], List[Path]]:
        """One pass over ``results/``: (parseable records keyed by shard
        id, unparseable files).  Files named after a shard in *skip*
        (already ingested) are not read at all."""
        results: Dict[str, Dict[str, Any]] = {}
        torn: List[Path] = []
        if not self.results_dir.is_dir():
            return results, torn
        for path in sorted(self.results_dir.glob("*.json")):
            if path.stem in skip:
                continue
            try:
                record = json.loads(path.read_text(encoding="utf-8"))
            except (OSError, json.JSONDecodeError):
                torn.append(path)
                continue
            if isinstance(record, dict) and "shard" in record:
                results[record["shard"]] = record
        return results, torn

    def read_results(self) -> Dict[str, Dict[str, Any]]:
        """Every parseable result record, keyed by shard id."""
        return self.scan_results()[0]

    @staticmethod
    def sweep(paths: Sequence[Path]) -> int:
        """Unlink torn result files (foreign writers only -- this
        module's writes are atomic); their shards re-run via self-heal.
        Returns the number swept."""
        swept = 0
        for path in paths:
            try:
                path.unlink()
                swept += 1
            except OSError:  # pragma: no cover - racing rewrite
                pass
        return swept

    def sweep_torn_results(self) -> int:
        """Scan ``results/`` and :meth:`sweep` its unparseable files."""
        return self.sweep(self.scan_results()[1])

    def failure_path(self, shard: str) -> Path:
        return self.failed_dir / f"{shard}.json"

    def write_failure(
        self, ticket: ShardTicket, kind: str, error: str
    ) -> Path:
        return self._write_failure(ticket.as_dict(), kind, error)

    def _write_failure(
        self, ticket: Dict[str, Any], kind: str, error: str
    ) -> Path:
        path = self.failure_path(ticket["shard"])
        write_json_atomic(path, {
            "schema_version": QUEUE_SCHEMA_VERSION,
            "shard": ticket["shard"],
            "techniques": ticket.get("techniques"),
            "seed": ticket.get("seed"),
            "attempt": ticket.get("attempt", 0),
            "kind": kind,
            "error": error,
            "worker": {"pid": os.getpid(), "host": socket.gethostname()},
        })
        return path

    def take_failures(self) -> List[Dict[str, Any]]:
        """Read-and-consume every failure report (runner only)."""
        reports: List[Dict[str, Any]] = []
        if not self.failed_dir.is_dir():
            return reports
        for path in sorted(self.failed_dir.glob("*.json")):
            try:
                record = json.loads(path.read_text(encoding="utf-8"))
            except (OSError, json.JSONDecodeError):
                record = None
            try:
                path.unlink()
            except OSError:  # pragma: no cover - racing writer
                continue
            if isinstance(record, dict) and "shard" in record:
                reports.append(record)
        return reports

    def staged_tickets(self) -> set:
        """Ticket ids in tickets, leases or failure reports right now."""
        staged: set = set()
        for directory in (self.tickets_dir, self.leases_dir,
                          self.failed_dir):
            if directory.is_dir():
                staged.update(
                    path.stem for path in directory.glob("*.json")
                )
        return staged

    def present_shards(self) -> set:
        """Shard ids visible in *any* queue stage right now.

        The self-heal invariant's evidence set: an unresolved shard
        absent from tickets, leases, results *and* failure reports has
        been lost (quarantined corrupt ticket, swept torn result,
        foreign deletion) and must be re-published by the runner.
        Stages are listed before results: a worker writes its results
        before it releases the lease, so work moving between the two
        listings is always seen in one of them.
        """
        return self.staged_tickets() | set(self.read_results())

    def stage_trace(self, source: str, name: str) -> str:
        """Copy a trace file into ``traces/`` (atomically) and return
        *name*; a file already staged under that name is reused."""
        dest = self.traces_dir / name
        if not dest.exists():
            handle, tmp = tempfile.mkstemp(
                dir=str(self.traces_dir), prefix=name + ".", suffix=".tmp"
            )
            os.close(handle)
            try:
                shutil.copyfile(source, tmp)
                os.replace(tmp, dest)
            except BaseException:
                try:
                    os.unlink(tmp)
                except OSError:
                    pass
                raise
        return name


@dataclass
class _Unit:
    """Runner-side state of one ticket (one work unit)."""

    #: the attempt-0 ticket; re-publishing stamps the current attempt
    ticket: ShardTicket
    #: position of the unit in the executor's input
    index: int
    attempts: int = 0
    resolved: bool = False
    #: member records ingested so far, by shard id
    landed: Dict[str, ShardRecord] = field(default_factory=dict)

    def describe(self) -> str:
        return _describe(self.ticket.techniques, self.ticket.seed)


class QueueExecutor(Executor):
    """Campaign execution over a shared filesystem work queue.

    The runner side of the queue protocol: publishes one ticket per
    work unit, optionally spawns ``workers`` local ``campaign-worker`` subprocesses
    against the queue, then polls -- ingesting results as they land
    (checkpointing and progress fire per shard, like every executor),
    consuming worker failure reports and reclaiming expired leases under
    the campaign's retry policy, re-publishing lost tickets, and
    relaying worker heartbeats from the queue's status bus into the
    campaign's.  On completion (or failure) it raises the ``stop``
    sentinel so attached workers drain and exit.  A ticket of several
    shards is one unit, so its lease, retry and self-heal cover all of
    them.

    ``workers=0`` publishes work and waits for *external* workers --
    the multi-host mode: start ``repro campaign-worker <queue-dir>`` on
    any machine sharing the directory, before or after the campaign
    starts.  ``lease_timeout`` is the hung/vanished-worker bound (the
    queue's analogue of ``shard_timeout``); it must comfortably exceed
    the workers' lease-refresh interval plus any cross-host clock skew.
    """

    name: ClassVar[str] = "queue"

    def __init__(
        self,
        queue_dir,
        workers: int = 0,
        lease_timeout: float = DEFAULT_LEASE_TIMEOUT_S,
        poll_interval: float = 0.2,
    ) -> None:
        if workers < 0:
            raise ValueError(f"workers must be >= 0: {workers}")
        if lease_timeout <= 0:
            raise ValueError(
                f"lease_timeout must be positive: {lease_timeout}"
            )
        self.queue_dir = Path(queue_dir)
        self.workers = workers
        self.lease_timeout = lease_timeout
        self.poll_interval = poll_interval

    # -- worker subprocess management ---------------------------------

    def _lease_refresh(self) -> float:
        return max(0.05, min(1.0, self.lease_timeout / 5.0))

    def _spawn_worker(self) -> subprocess.Popen:
        import repro

        env = dict(os.environ)
        src_root = str(Path(repro.__file__).resolve().parents[1])
        existing = env.get("PYTHONPATH")
        env["PYTHONPATH"] = (
            src_root + os.pathsep + existing if existing else src_root
        )
        return subprocess.Popen(
            [
                sys.executable, "-m", "repro", "campaign-worker",
                str(self.queue_dir),
                "--poll-interval", str(min(0.5, max(0.05, self.poll_interval))),
                "--lease-refresh", str(self._lease_refresh()),
            ],
            env=env,
            stdout=subprocess.DEVNULL,
        )

    def _reap_workers(self, procs: List[subprocess.Popen]) -> None:
        for proc in procs:
            if proc.poll() is None:
                try:
                    proc.wait(timeout=10)
                except subprocess.TimeoutExpired:
                    proc.terminate()
                    try:
                        proc.wait(timeout=5)
                    except subprocess.TimeoutExpired:
                        proc.kill()
                        proc.wait()

    # -- the executor contract ----------------------------------------

    def _open(
        self, engine: Optional[str], shards: int, trace_paths: Sequence
    ) -> Tuple[WorkQueue, Dict[Any, str]]:
        """Reset the queue, stage each distinct trace file once (workers
        read it from the queue directory, not the runner's host) and
        write the banner."""
        wq = WorkQueue(self.queue_dir)
        wq.reset()
        wq.status_bus().clear_workers()
        trace_names: Dict[Any, str] = {}
        for path in trace_paths:
            if path and path not in trace_names:
                trace_names[path] = wq.stage_trace(
                    path, f"trace-{len(trace_names)}.npz"
                )
        wq.write_banner({
            "engine": engine,
            "shards": shards,
            "created_unix": time.time(),
        })
        return wq, trace_names

    def execute(
        self, jobs: Sequence[CampaignJob], ctx: ExecutionContext
    ) -> List[Optional[List[ShardRecord]]]:
        """Publish every unit's ticket, then poll until each unit has
        delivered its member records or been exhausted."""
        wq, trace_names = self._open(
            jobs[0].engine if jobs else None, _shards(jobs),
            [job.trace_path for job in jobs],
        )
        units = [
            _Unit(ShardTicket.from_job(
                job, trace=trace_names.get(job.trace_path), attempt=0,
            ), index)
            for index, job in enumerate(jobs)
        ]
        slots: List[Optional[List[ShardRecord]]] = [None] * len(jobs)
        policy = ctx.policy
        total = sum(len(unit.ticket.shards) for unit in units)
        by_ticket = {unit.ticket.shard: unit for unit in units}
        owner = {
            shard: unit for unit in units for shard in unit.ticket.shards
        }
        ingested: set = set()
        # ticket ids published during the current poll
        published: set = set()
        queue_bus = wq.status_bus()
        # last heartbeat relayed per id, and the last snapshot mirrored
        relayed: Dict[str, Any] = {}
        mirrored = None
        done = 0
        open_units = len(units)

        def publish(unit: _Unit) -> None:
            wq.publish_ticket(replace(unit.ticket, attempt=unit.attempts))
            published.add(unit.ticket.shard)

        def resolve(unit: _Unit) -> None:
            nonlocal open_units
            unit.resolved = True
            open_units -= 1
            if ctx.progress is not None:
                ctx.progress(done + len(ctx.failures), total)

        def charge_failure(unit: _Unit, exc: BaseException) -> None:
            """One failed attempt: count, then retry or exhaust."""
            unit.attempts += 1
            ticket = unit.ticket
            if _charge(ctx, ticket.techniques, ticket.seed, unit.attempts, exc):
                delay = policy.delay(unit.attempts)
                if delay > 0:
                    ctx.sleep(delay)
                publish(unit)
            else:
                resolve(unit)

        for unit in units:
            publish(unit)
        procs = [self._spawn_worker() for _ in range(self.workers)]
        respawns = 0
        respawn_budget = max(4, 2 * total)
        try:
            while open_units:
                progressed = False
                published.clear()
                # 1. list the ticket stages before reading results: a
                # worker writes its results before releasing its lease,
                # so work moving between the two listings shows in one
                staged = wq.staged_tickets()

                # 2. fold in landed shards -- one pass over results/,
                # skipping files already ingested
                records, torn = wq.scan_results(skip=ingested)
                for shard, record in records.items():
                    unit = owner.get(shard)
                    if unit is None or unit.resolved:
                        continue
                    try:
                        unit.landed[shard] = ShardRecord.from_dict(record)
                    except (KeyError, TypeError, ValueError):
                        torn.append(wq.result_path(shard))
                        continue
                    ingested.add(shard)
                    members = unit.ticket.shards
                    if len(unit.landed) == len(members):
                        done += len(members)
                        landed = [unit.landed[m] for m in members]
                        slots[unit.index] = landed
                        _land(ctx, landed)
                        resolve(unit)
                        progressed = True
                swept = wq.sweep(torn)
                if swept:
                    _count(ctx.metrics, "campaign.queue_torn_swept", swept)

                # 3. consume worker failure reports
                for report in wq.take_failures():
                    unit = by_ticket.get(report.get("shard"))
                    if unit is None or unit.resolved:
                        continue
                    kind = report.get("kind", "error")
                    charge_failure(unit, RemoteShardError(
                        f"worker {report.get('worker', {})} failed "
                        f"{unit.describe()} on attempt "
                        f"{report.get('attempt', 0)}: "
                        f"{report.get('error', '')}",
                        kind=kind,
                    ))
                    progressed = True

                # 4. reclaim leases whose holder has gone quiet
                for ticket_id, lease in wq.expired_leases(self.lease_timeout):
                    unit = by_ticket.get(ticket_id)
                    wq.reclaim_lease(lease)
                    if unit is None or unit.resolved:
                        continue
                    charge_failure(unit, ShardTimeout(
                        f"queue {unit.describe()} lease expired after "
                        f"{self.lease_timeout}s on attempt {unit.attempts}"
                    ))
                    progressed = True

                # 5. self-heal: re-publish unresolved units lost from
                # every stage (quarantined corrupt tickets, swept torn
                # results, foreign deletions); a unit re-published by
                # steps 3-4 is absent from the older listing, not lost
                for unit in units:
                    if (
                        not unit.resolved
                        and unit.ticket.shard not in staged
                        and unit.ticket.shard not in published
                    ):
                        publish(unit)
                        progressed = True

                # 6. keep the local worker complement alive
                if procs and open_units:
                    for index, proc in enumerate(procs):
                        if proc.poll() is not None:
                            respawns += 1
                            if respawns > respawn_budget:
                                raise RuntimeError(
                                    "queue workers keep dying "
                                    f"({respawns} respawns); aborting the "
                                    "campaign rather than looping"
                                )
                            procs[index] = self._spawn_worker()

                # 7. relay worker heartbeats into the campaign's bus so
                # campaign-status on the checkpoint shows remote workers;
                # only records that changed since the last poll are
                # rewritten (staleness reads the record's own clock)
                if ctx.status is not None and \
                        ctx.status.root != queue_bus.root:
                    for heartbeat in queue_bus.read_heartbeats():
                        if relayed.get(heartbeat.worker) != heartbeat:
                            ctx.status.publish_heartbeat(heartbeat)
                            relayed[heartbeat.worker] = heartbeat
                    snapshot = ctx.status.read_snapshot()
                    if snapshot is not None and snapshot != mirrored:
                        queue_bus.publish_snapshot(snapshot)
                        mirrored = snapshot

                if not progressed and open_units:
                    time.sleep(self.poll_interval)
        finally:
            wq.request_stop()
            self._reap_workers(procs)
        return slots


def run_worker(
    queue_dir,
    poll_interval: float = 0.5,
    idle_exit: Optional[float] = None,
    max_shards: Optional[int] = None,
    lease_refresh: float = 1.0,
    hostname: Optional[str] = None,
    log: Optional[Callable[[str], None]] = None,
) -> int:
    """The ``repro campaign-worker`` loop: lease, run, push, repeat.

    Polls *queue_dir* every ``poll_interval`` seconds for tickets,
    leases one at a time (atomic rename), runs its unit through the
    same :func:`~repro.sim.executors._run_job` every other executor
    uses, and pushes one result per shard (or one failure report per ticket)
    back.  While a ticket runs, a background
    :class:`~repro.telemetry.statusbus.Heartbeater` refreshes the lease
    mtime and publishes a status-bus heartbeat for each of its shards
    every ``lease_refresh`` seconds with this worker's host and pid.

    Exits (returning 0) when the queue's ``stop`` sentinel appears,
    after ``max_shards`` completed shards, or after ``idle_exit``
    seconds without available work; runs forever otherwise.  Safe to
    start before the queue directory exists and safe to run in any
    multiplicity -- the lease protocol serialises claims.
    """
    wq = WorkQueue(queue_dir)
    wq.ensure_layout()
    bus = wq.status_bus()
    host = hostname or socket.gethostname()
    emit = log if log is not None else (lambda message: None)
    completed = 0
    idle_since = time.monotonic()
    emit(f"campaign-worker: polling {wq.root} (pid {os.getpid()})")
    while True:
        if wq.stop_requested:
            emit("campaign-worker: stop sentinel seen; draining")
            break
        claim = wq.claim_ticket()
        if claim is None:
            if (
                idle_exit is not None
                and time.monotonic() - idle_since >= idle_exit
            ):
                emit(f"campaign-worker: idle for {idle_exit}s; exiting")
                break
            time.sleep(poll_interval)
            continue
        idle_since = time.monotonic()
        ticket, lease = claim
        shards = ticket.shards
        beater = Heartbeater(
            bus, shards,
            interval_s=lease_refresh,
            retries=ticket.attempt,
            on_beat=lambda: wq.touch(lease),
            host=host,
        )
        emit(
            f"campaign-worker: leased {ticket.shard} "
            f"({len(shards)} shard{'s' if len(shards) > 1 else ''}, "
            f"attempt {ticket.attempt})"
        )
        try:
            with beater:
                records = _run_job(ticket.to_job(wq.root))
        except Exception as exc:
            kind = getattr(exc, "shard_fault_kind", "error")
            wq.write_failure(
                ticket, kind=kind, error=f"{type(exc).__name__}: {exc}"
            )
            wq.release(lease)
            for shard in shards:
                bus.beat(
                    shard, 0, 1, retries=ticket.attempt, phase="failed",
                    host=host,
                )
            emit(f"campaign-worker: {ticket.shard} failed ({kind}): {exc}")
        else:
            for record in records:
                wq.write_result({
                    **record.as_dict(),
                    "schema_version": QUEUE_SCHEMA_VERSION,
                    "shard": _shard_id(record.technique, record.seed),
                    "worker": {"pid": os.getpid(), "host": host},
                })
            wq.release(lease)
            for shard in shards:
                bus.beat(
                    shard, 1, 1, retries=ticket.attempt, phase="done",
                    host=host,
                )
            completed += len(records)
            emit(f"campaign-worker: {ticket.shard} done")
            if max_shards is not None and completed >= max_shards:
                emit(f"campaign-worker: {completed} shards done; exiting")
                break
    return 0
