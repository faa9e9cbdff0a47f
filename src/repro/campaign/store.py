"""Durable campaign state: checkpoint directory, spec and shard records.

Layout of a checkpoint directory::

    <checkpoint_dir>/
        campaign.json        # CampaignSpec: config + hash, engine, grid
        failures.json        # degraded shards from the last run (info)
        shards/
            <technique>__s<seed>.json   # one completed shard each

Every write is atomic (temp file + ``os.replace`` in the same
directory), so a campaign killed mid-write leaves at worst an ignored
``*.tmp`` file -- never a torn shard.  A shard file is the unit of
resume: :func:`repro.campaign.runner.run_durable_campaign` reads the
shard files once and re-runs exactly the (technique, seed) pairs that
have none; ``run_campaign`` then folds stored and fresh shards together
in canonical order, which makes a killed-and-resumed campaign
bit-identical to an uninterrupted one.

The spec reuses :func:`repro.telemetry.manifest.config_digest` (the run
manifest's config hashing), so "is this checkpoint the same
experiment?" is the same question as "would these two runs' manifests
hash alike?".
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.config import SimConfig
from repro.sim.executors import ShardFailure, ShardRecord
from repro.sim.parallel import fold_shards
from repro.telemetry.manifest import config_as_dict, config_digest
from repro.telemetry.statusbus import write_json_atomic

#: bump when the checkpoint layout changes incompatibly
STORE_SCHEMA_VERSION = 1

SPEC_FILENAME = "campaign.json"
FAILURES_FILENAME = "failures.json"
SHARD_DIRNAME = "shards"


class CampaignStateError(RuntimeError):
    """Checkpoint directory is unusable for the requested operation."""


class CheckpointMismatchError(CampaignStateError):
    """Resume attempted against a checkpoint of a different campaign."""

    def __init__(self, mismatches: Dict[str, Tuple[Any, Any]]):
        self.mismatches = mismatches
        details = "; ".join(
            f"{key}: checkpoint={stored!r} requested={requested!r}"
            for key, (stored, requested) in sorted(mismatches.items())
        )
        super().__init__(
            "checkpoint belongs to a different campaign -- refusing to "
            f"resume ({details}); use a fresh --checkpoint-dir"
        )


@dataclass
class CampaignSpec:
    """Everything that identifies one campaign's work grid."""

    config: Dict[str, Any]
    config_hash: str
    engine: str
    total_intervals: int
    #: shard order, technique-major ("none" stands for unmitigated)
    techniques: List[str]
    seeds: List[int]
    workload_kwargs: Dict[str, Any] = field(default_factory=dict)
    schema_version: int = STORE_SCHEMA_VERSION

    @classmethod
    def build(
        cls,
        config: SimConfig,
        engine: str,
        total_intervals: int,
        techniques: Sequence[Optional[str]],
        seeds: Sequence[int],
        workload_kwargs: Optional[Dict[str, Any]] = None,
    ) -> "CampaignSpec":
        return cls(
            config=config_as_dict(config),
            config_hash=config_digest(config),
            engine=engine,
            total_intervals=total_intervals,
            techniques=[name or "none" for name in techniques],
            seeds=list(seeds),
            workload_kwargs=dict(workload_kwargs or {}),
        )

    def as_dict(self) -> Dict[str, Any]:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "CampaignSpec":
        return cls(**dict(data))

    def shard_keys(self) -> List[Tuple[str, int]]:
        """Canonical (technique, seed) order of the whole campaign."""
        return [(name, seed) for name in self.techniques for seed in self.seeds]

    def mismatches(self, other: "CampaignSpec") -> Dict[str, Tuple[Any, Any]]:
        """Fields where *other* (the requested run) differs from self."""
        out: Dict[str, Tuple[Any, Any]] = {}
        for key in (
            "schema_version", "config_hash", "engine", "total_intervals",
            "techniques", "seeds", "workload_kwargs",
        ):
            mine, theirs = getattr(self, key), getattr(other, key)
            if mine != theirs:
                out[key] = (mine, theirs)
        return out


@dataclass
class CampaignStatus:
    """Snapshot of a checkpoint directory for reporting."""

    spec: CampaignSpec
    completed: List[Tuple[str, int]]
    missing: List[Tuple[str, int]]
    failures: List[ShardFailure]

    @property
    def total(self) -> int:
        return len(self.completed) + len(self.missing)

    @property
    def complete(self) -> bool:
        return not self.missing


class CampaignStore:
    """Filesystem-backed campaign checkpoint."""

    def __init__(self, root) -> None:
        self.root = Path(root)
        self.shard_dir = self.root / SHARD_DIRNAME

    @property
    def spec_path(self) -> Path:
        return self.root / SPEC_FILENAME

    @property
    def exists(self) -> bool:
        return self.spec_path.is_file()

    def initialize(self, spec: CampaignSpec) -> None:
        """Create the checkpoint layout and persist *spec*."""
        self.shard_dir.mkdir(parents=True, exist_ok=True)
        write_json_atomic(self.spec_path, spec.as_dict())

    def read_spec(self) -> CampaignSpec:
        if not self.exists:
            raise CampaignStateError(
                f"no campaign checkpoint at {self.root} "
                f"(missing {SPEC_FILENAME})"
            )
        data = json.loads(self.spec_path.read_text(encoding="utf-8"))
        return CampaignSpec.from_dict(data)

    def ensure_matches(self, spec: CampaignSpec) -> None:
        """Fail fast if the stored campaign is not *spec*'s campaign."""
        mismatches = self.read_spec().mismatches(spec)
        if mismatches:
            raise CheckpointMismatchError(mismatches)

    # -- shards --------------------------------------------------------

    def shard_path(self, technique: str, seed: int) -> Path:
        return self.shard_dir / f"{technique}__s{seed}.json"

    def write_shard(self, record: ShardRecord) -> Path:
        path = self.shard_path(record.technique, record.seed)
        write_json_atomic(path, record.as_dict())
        return path

    def load_shards(self) -> Dict[Tuple[str, int], ShardRecord]:
        """All readable shard records, keyed by (technique, seed).

        Partial or corrupt files (possible only from pre-atomic-write
        tooling or disk faults) are skipped: an unreadable shard is
        simply recomputed on resume.
        """
        shards: Dict[Tuple[str, int], ShardRecord] = {}
        if not self.shard_dir.is_dir():
            return shards
        for path in sorted(self.shard_dir.glob("*.json")):
            try:
                record = ShardRecord.from_dict(
                    json.loads(path.read_text(encoding="utf-8"))
                )
            except (json.JSONDecodeError, KeyError, TypeError, ValueError):
                continue
            shards[(record.technique, record.seed)] = record
        return shards

    def partial_aggregates(self, degrade_missing: bool = False):
        """Aggregate whatever shards exist right now, in canonical order.

        The incremental-aggregation primitive behind live campaign
        views: the stored shards go through
        :func:`repro.sim.parallel.fold_shards`, the same fold
        ``run_campaign`` applies to a finished campaign, so the returned
        :class:`~repro.sim.parallel.CampaignResult` is a pure function
        of the *set* of stored shards.  Two stores holding the same
        shards produce bit-identical aggregates no matter which
        executor produced them, in what order they landed, or how many
        times the campaign was killed and resumed along the way.

        ``degrade_missing=True`` records absent shards as degraded
        seeds (the completed-campaign view, where a missing shard means
        it exhausted its retries); the default leaves them out (the
        mid-run view, where a missing shard is simply still pending).
        ``failures`` carries the store's persisted degraded-shard
        records.
        """
        spec = self.read_spec()
        return fold_shards(
            spec.techniques, spec.seeds, self.load_shards(),
            failures=self.read_failures(), degrade_missing=degrade_missing,
        )

    # -- failures ------------------------------------------------------

    @property
    def failures_path(self) -> Path:
        return self.root / FAILURES_FILENAME

    def write_failures(self, failures: Sequence[ShardFailure]) -> None:
        write_json_atomic(
            self.failures_path,
            [failure.as_dict() for failure in failures],
        )

    def read_failures(self) -> List[ShardFailure]:
        if not self.failures_path.is_file():
            return []
        try:
            entries = json.loads(self.failures_path.read_text(encoding="utf-8"))
        except json.JSONDecodeError:
            return []
        return [ShardFailure.from_dict(entry) for entry in entries]

    # -- reporting -----------------------------------------------------

    def status(self) -> CampaignStatus:
        spec = self.read_spec()
        shards = self.load_shards()
        keys = spec.shard_keys()
        completed = [key for key in keys if key in shards]
        missing = [key for key in keys if key not in shards]
        return CampaignStatus(
            spec=spec,
            completed=completed,
            missing=missing,
            failures=self.read_failures(),
        )
