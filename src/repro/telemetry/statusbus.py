"""Filesystem status bus: live campaign progress without a server.

A :class:`StatusBus` is a directory where campaign participants
publish small JSON records with the same atomicity discipline as
:class:`~repro.campaign.store.CampaignStore` (temp file +
``os.replace``), so a reader polling the directory -- the
``campaign-status --follow`` view, a Prometheus sidecar, a human with
``cat`` -- **never observes a torn record**, no matter when a writer
is SIGKILLed::

    <status_dir>/
        campaign.json           # rolling CampaignSnapshot from the runner
        workers/
            <shard-id>.json     # one WorkerHeartbeat per active shard

Workers publish :class:`WorkerHeartbeat` records (shard id, cells
done/total, last-event monotonic stamp, retry count, degraded flag);
the runner publishes a rolling :class:`CampaignSnapshot` as shards
complete.  Heartbeat staleness uses ``time.monotonic()`` -- on Linux a
system-wide per-boot clock, so stamps from different worker processes
on one host are directly comparable and wall-clock jumps cannot fake
or mask a hang.  :meth:`StatusBus.stale_workers` is how a hung worker
surfaces *before* the retry policy's ``shard_timeout`` kill fires.

The bus is pure observation: nothing in the simulation stack reads it,
its directory defaults to ``<checkpoint_dir>/status`` but is never
part of the campaign spec or config hash, and deleting it mid-run
costs nothing but the live view -- enabling or disabling observability
can therefore never invalidate a ``--resume``.
"""

from __future__ import annotations

import json
import os
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Union

#: bump when the status record layout changes incompatibly
STATUS_SCHEMA_VERSION = 1

STATUS_DIRNAME = "status"
SNAPSHOT_FILENAME = "campaign.json"
WORKERS_DIRNAME = "workers"

#: a running shard with no heartbeat for this long is considered stale
DEFAULT_STALE_AFTER_S = 15.0


def write_json_atomic(path: Path, payload: Any) -> None:
    """Write *payload* as canonical JSON via temp file + ``os.replace``.

    The durability primitive shared by every persistence layer in the
    repo -- campaign shards and adversary generations import it from
    here (re-exported by :mod:`repro.campaign.store` for
    compatibility), and every status-bus record goes through it: a
    process killed mid-write leaves at worst an ignored ``*.tmp``
    file, never a torn record.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    handle, tmp = tempfile.mkstemp(
        dir=str(path.parent), prefix=path.name + ".", suffix=".tmp"
    )
    try:
        with os.fdopen(handle, "w", encoding="utf-8") as stream:
            json.dump(payload, stream, indent=2, sort_keys=True)
            stream.write("\n")
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


@dataclass
class WorkerHeartbeat:
    """One shard's liveness/progress record (worker-published)."""

    #: shard identity, e.g. ``"PARA__s0"`` or ``"seed-1-block"``
    worker: str
    cells_done: int
    cells_total: int
    #: ``time.monotonic()`` at the last event this worker observed
    mono: float
    pid: int = 0
    #: retry attempt the shard is running as (0 = first try)
    retries: int = 0
    degraded: bool = False
    phase: str = "running"  # "running" | "done" | "failed"
    attrs: Dict[str, Any] = field(default_factory=dict)
    schema_version: int = STATUS_SCHEMA_VERSION

    def age(self, now: Optional[float] = None) -> float:
        """Seconds since the last event (monotonic clock)."""
        return (time.monotonic() if now is None else now) - self.mono

    def as_dict(self) -> Dict[str, Any]:
        return {
            "schema_version": self.schema_version,
            "worker": self.worker,
            "cells_done": self.cells_done,
            "cells_total": self.cells_total,
            "mono": self.mono,
            "pid": self.pid,
            "retries": self.retries,
            "degraded": self.degraded,
            "phase": self.phase,
            "attrs": dict(self.attrs),
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "WorkerHeartbeat":
        return cls(
            worker=data["worker"],
            cells_done=int(data["cells_done"]),
            cells_total=int(data["cells_total"]),
            mono=float(data["mono"]),
            pid=int(data.get("pid", 0)),
            retries=int(data.get("retries", 0)),
            degraded=bool(data.get("degraded", False)),
            phase=data.get("phase", "running"),
            attrs=dict(data.get("attrs") or {}),
            schema_version=int(
                data.get("schema_version", STATUS_SCHEMA_VERSION)
            ),
        )


@dataclass
class CampaignSnapshot:
    """The runner's rolling whole-campaign progress record."""

    done: int
    total: int
    degraded: int = 0
    retries: int = 0
    stale: int = 0
    #: monotonic stamps bounding the observed run (for throughput/ETA)
    started_mono: float = 0.0
    mono: float = 0.0
    complete: bool = False
    attrs: Dict[str, Any] = field(default_factory=dict)
    schema_version: int = STATUS_SCHEMA_VERSION

    @property
    def throughput(self) -> Optional[float]:
        """Completed cells per second over the observed window."""
        elapsed = self.mono - self.started_mono
        if elapsed <= 0 or self.done <= 0:
            return None
        return self.done / elapsed

    @property
    def eta_seconds(self) -> Optional[float]:
        """Naive remaining-work estimate from the observed throughput."""
        rate = self.throughput
        if rate is None or self.complete:
            return None
        return max(0, self.total - self.done) / rate

    def as_dict(self) -> Dict[str, Any]:
        return {
            "schema_version": self.schema_version,
            "done": self.done,
            "total": self.total,
            "degraded": self.degraded,
            "retries": self.retries,
            "stale": self.stale,
            "started_mono": self.started_mono,
            "mono": self.mono,
            "complete": self.complete,
            "attrs": dict(self.attrs),
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "CampaignSnapshot":
        return cls(
            done=int(data["done"]),
            total=int(data["total"]),
            degraded=int(data.get("degraded", 0)),
            retries=int(data.get("retries", 0)),
            stale=int(data.get("stale", 0)),
            started_mono=float(data.get("started_mono", 0.0)),
            mono=float(data.get("mono", 0.0)),
            complete=bool(data.get("complete", False)),
            attrs=dict(data.get("attrs") or {}),
            schema_version=int(
                data.get("schema_version", STATUS_SCHEMA_VERSION)
            ),
        )


class StatusBus:
    """Atomic-write status directory for one campaign."""

    def __init__(self, root, stale_after: float = DEFAULT_STALE_AFTER_S):
        if stale_after <= 0:
            raise ValueError(f"stale_after must be positive: {stale_after}")
        self.root = Path(root)
        self.workers_dir = self.root / WORKERS_DIRNAME
        self.stale_after = stale_after

    @classmethod
    def for_checkpoint(
        cls, checkpoint_dir, stale_after: float = DEFAULT_STALE_AFTER_S
    ) -> "StatusBus":
        """The bus of a durable campaign: ``<checkpoint_dir>/status``."""
        return cls(Path(checkpoint_dir) / STATUS_DIRNAME,
                   stale_after=stale_after)

    @property
    def snapshot_path(self) -> Path:
        return self.root / SNAPSHOT_FILENAME

    @property
    def exists(self) -> bool:
        return self.root.is_dir()

    # -- worker side ---------------------------------------------------

    def heartbeat_path(self, worker: str) -> Path:
        safe = "".join(
            ch if ch.isalnum() or ch in "._-" else "_" for ch in worker
        )
        return self.workers_dir / f"{safe}.json"

    def publish_heartbeat(self, heartbeat: WorkerHeartbeat) -> Path:
        path = self.heartbeat_path(heartbeat.worker)
        write_json_atomic(path, heartbeat.as_dict())
        return path

    def beat(
        self,
        worker: str,
        cells_done: int,
        cells_total: int,
        retries: int = 0,
        degraded: bool = False,
        phase: str = "running",
        **attrs: Any,
    ) -> WorkerHeartbeat:
        """Convenience: stamp and publish a heartbeat in one call."""
        heartbeat = WorkerHeartbeat(
            worker=worker,
            cells_done=cells_done,
            cells_total=cells_total,
            mono=time.monotonic(),
            pid=os.getpid(),
            retries=retries,
            degraded=degraded,
            phase=phase,
            attrs=dict(attrs),
        )
        self.publish_heartbeat(heartbeat)
        return heartbeat

    # -- runner side ---------------------------------------------------

    def publish_snapshot(self, snapshot: CampaignSnapshot) -> Path:
        write_json_atomic(self.snapshot_path, snapshot.as_dict())
        return self.snapshot_path

    # -- reader side ---------------------------------------------------

    def read_heartbeats(self) -> List[WorkerHeartbeat]:
        """Every readable heartbeat, sorted by worker id.

        Torn or foreign files are skipped, not raised: the bus is
        advisory, and an atomic writer can only ever leave ``*.tmp``
        debris behind (ignored by the ``*.json`` glob).
        """
        heartbeats: List[WorkerHeartbeat] = []
        if not self.workers_dir.is_dir():
            return heartbeats
        for path in sorted(self.workers_dir.glob("*.json")):
            try:
                heartbeats.append(WorkerHeartbeat.from_dict(
                    json.loads(path.read_text(encoding="utf-8"))
                ))
            except (json.JSONDecodeError, KeyError, TypeError, ValueError):
                continue
        return heartbeats

    def read_snapshot(self) -> Optional[CampaignSnapshot]:
        if not self.snapshot_path.is_file():
            return None
        try:
            return CampaignSnapshot.from_dict(
                json.loads(self.snapshot_path.read_text(encoding="utf-8"))
            )
        except (json.JSONDecodeError, KeyError, TypeError, ValueError):
            return None

    def stale_workers(
        self, now: Optional[float] = None
    ) -> List[WorkerHeartbeat]:
        """Running shards whose last heartbeat is older than the budget."""
        if now is None:
            now = time.monotonic()
        return [
            heartbeat
            for heartbeat in self.read_heartbeats()
            if heartbeat.phase == "running"
            and heartbeat.age(now) > self.stale_after
        ]

    def clear_workers(self) -> None:
        """Drop every heartbeat record (fresh campaign / resume start)."""
        if not self.workers_dir.is_dir():
            return
        for path in self.workers_dir.glob("*.json"):
            try:
                path.unlink()
            except OSError:  # pragma: no cover - racing a writer
                pass


class Heartbeater:
    """Background thread that republishes one worker's heartbeat.

    The liveness half of the queue-worker protocol
    (``docs/distributed.md``): while a shard runs, a daemon thread
    re-publishes its :class:`WorkerHeartbeat` every ``interval_s``
    seconds and invokes ``on_beat`` alongside each publish -- the
    queue worker passes a lease-``touch`` callback there, so the
    heartbeat that keeps the live view fresh is the same signal that
    keeps the shard's lease from expiring.  SIGKILL the process and
    both stop together: the bus record goes stale *and* the lease
    mtime ages out, which is exactly how the runner learns to re-run
    the shard.

    Publishing is advisory: any exception from the bus or the callback
    is swallowed (a full disk must not fail the shard), and the thread
    is a daemon so a dying worker never blocks on it.  Use as a
    context manager around the shard's execution::

        with Heartbeater(bus, shard, on_beat=touch, host=hostname):
            outcome = run(...)

    *worker* may also be a sequence of ids: one thread then keeps a
    heartbeat per id fresh, as a queue worker does for every member
    shard of a leased work unit.
    """

    def __init__(
        self,
        bus: StatusBus,
        worker: Union[str, Sequence[str]],
        cells_total: int = 1,
        interval_s: float = 1.0,
        retries: int = 0,
        on_beat: Optional[Any] = None,
        **attrs: Any,
    ) -> None:
        if interval_s <= 0:
            raise ValueError(f"interval_s must be positive: {interval_s}")
        self.bus = bus
        self.workers = [worker] if isinstance(worker, str) else list(worker)
        self.cells_total = cells_total
        self.interval_s = interval_s
        self.retries = retries
        self.on_beat = on_beat
        self.attrs = dict(attrs)
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None

    def _publish(self) -> None:
        try:
            for worker in self.workers:
                self.bus.beat(
                    worker, 0, self.cells_total, retries=self.retries,
                    **self.attrs,
                )
            if self.on_beat is not None:
                self.on_beat()
        except Exception:  # advisory: never fail the shard over telemetry
            pass

    def _loop(self) -> None:
        while not self._stop.wait(self.interval_s):
            self._publish()

    def start(self) -> "Heartbeater":
        """Publish immediately, then keep publishing until :meth:`stop`."""
        self._publish()
        self._thread = threading.Thread(
            target=self._loop, name=f"heartbeat-{self.workers[0]}",
            daemon=True,
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None

    def __enter__(self) -> "Heartbeater":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()
