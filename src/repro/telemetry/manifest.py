"""Run manifests: every campaign result becomes reproducible and diffable.

A :class:`RunManifest` is a JSON document written next to campaign
output that records *everything needed to reproduce and compare* a
run: the full configuration (plus a stable hash of it), the seeds, the
engine, the git revision of the code, the host's Python/platform, the
per-technique result summaries, the metrics registry snapshot, and the
span tree's timing report.

Two manifests can be compared with :func:`diff_manifests`, which
returns the leaf-level differences (ignoring fields that legitimately
vary between identical runs, such as timestamps and wall-clock
timings) -- so "did this refactor change any result?" is one function
call or one ``python -m repro manifest-diff A B``.
"""

from __future__ import annotations

import hashlib
import json
import platform
import subprocess
import sys
from dataclasses import asdict, dataclass, field
from datetime import datetime, timezone
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.config import SimConfig

#: bump when the manifest layout changes incompatibly
SCHEMA_VERSION = 1

#: fields that legitimately differ between two runs of the same
#: experiment; ignored by :func:`diff_manifests` by default.  Entries
#: match a top-level field, a dotted-path prefix, or a leaf key
#: anywhere in the tree.  Besides timestamps and wall-clock timings,
#: these are the fused engine's work counters: they count how a
#: campaign's shards were grouped into grid passes (a resumed campaign
#: replays a seed's records once per unit that ran it), not what the
#: campaign computed, which its results and result counters pin.
VOLATILE_FIELDS = (
    "created_at", "timings", "host", "wall_seconds",
    "fused.records", "fused.segments",
    "fused.cells_requested", "fused.cells_computed", "fused.cells_deduped",
)


def config_as_dict(config: SimConfig) -> Dict[str, Any]:
    """Nested plain-dict view of a :class:`SimConfig`."""
    return asdict(config)


def config_from_dict(data: Mapping[str, Any]) -> SimConfig:
    """Exact inverse of :func:`config_as_dict`.

    Rebuilds the frozen dataclass tree (geometry and timing included)
    from the nested plain-dict view, so a config that travelled through
    JSON -- a campaign spec, a queue ticket -- hashes identically to
    the original: ``config_digest(config_from_dict(config_as_dict(c)))
    == config_digest(c)`` for every valid config.
    """
    from repro.config import DRAMGeometry, DRAMTiming

    rest = {
        key: value
        for key, value in data.items()
        if key not in ("geometry", "timing")
    }
    return SimConfig(
        geometry=DRAMGeometry(**dict(data["geometry"])),
        timing=DRAMTiming(**dict(data["timing"])),
        **rest,
    )


def config_digest(config: SimConfig) -> str:
    """Stable short hash of the full configuration.

    Canonical JSON (sorted keys, no whitespace) hashed with SHA-256;
    two configs share a digest iff every parameter matches.
    """
    canonical = json.dumps(config_as_dict(config), sort_keys=True,
                           separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]


def git_revision() -> Optional[str]:
    """Current git commit of the source tree, or None outside a checkout."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=Path(__file__).resolve().parent,
            capture_output=True,
            text=True,
            timeout=5,
        )
    except (OSError, subprocess.TimeoutExpired):  # pragma: no cover
        return None
    if out.returncode != 0:
        return None
    return out.stdout.strip() or None


def _host_info() -> Dict[str, str]:
    return {
        "python": sys.version.split()[0],
        "platform": platform.platform(),
    }


@dataclass
class RunManifest:
    """The reproducibility record of one simulation run or campaign."""

    engine: str
    seeds: List[int]
    techniques: List[str]
    config: Dict[str, Any]
    config_hash: str
    schema_version: int = SCHEMA_VERSION
    created_at: str = ""
    git_rev: Optional[str] = None
    host: Dict[str, str] = field(default_factory=dict)
    total_intervals: Optional[int] = None
    #: per-technique result summaries (overhead, FPR, flips, ...)
    results: Dict[str, Dict[str, Any]] = field(default_factory=dict)
    #: :meth:`MetricsRegistry.as_dict` snapshot (may be empty)
    metrics: Dict[str, Any] = field(default_factory=dict)
    #: shards a fault-tolerant campaign skipped after exhausting their
    #: retries (``ShardFailure.as_dict`` entries; empty = healthy run)
    degraded: List[Dict[str, Any]] = field(default_factory=list)
    #: :meth:`SpanTracer.timing_report` rows of the run (may be empty)
    timings: List[Dict[str, Any]] = field(default_factory=list)
    #: caller-supplied context (CLI args, workload knobs, ...)
    extra: Dict[str, Any] = field(default_factory=dict)

    def as_dict(self) -> Dict[str, Any]:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "RunManifest":
        return cls(**dict(data))

    def write(self, path: str) -> str:
        """Write the manifest as indented JSON; returns the path."""
        target = Path(path)
        if target.parent and not target.parent.exists():
            target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(
            json.dumps(self.as_dict(), indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )
        return str(target)

    @classmethod
    def load(cls, path: str) -> "RunManifest":
        return cls.from_dict(json.loads(Path(path).read_text(encoding="utf-8")))


def technique_summary(aggregate) -> Dict[str, Any]:
    """JSON-ready summary of one :class:`TechniqueAggregate`."""
    results = aggregate.results
    return {
        "runs": len(results),
        "seeds": [result.seed for result in results],
        "overhead_mean_pct": aggregate.overhead_mean,
        "overhead_std_pct": aggregate.overhead_std,
        "fpr_mean_pct": aggregate.fpr_mean,
        "total_flips": aggregate.total_flips,
        "mitigation_triggers": sum(r.mitigation_triggers for r in results),
        "extra_activations": sum(r.extra_activations for r in results),
        "normal_activations": sum(r.normal_activations for r in results),
        "table_bytes": aggregate.table_bytes,
        "wall_seconds": sum(r.wall_seconds for r in results),
    }


def build_manifest(
    config: SimConfig,
    engine: str,
    seeds: Sequence[int],
    comparison: Optional[Mapping[str, Any]] = None,
    metrics=None,
    spans=None,
    total_intervals: Optional[int] = None,
    extra: Optional[Mapping[str, Any]] = None,
    failures: Optional[Sequence[Any]] = None,
) -> RunManifest:
    """Assemble a :class:`RunManifest` from a finished run.

    *comparison* is a ``{technique: TechniqueAggregate}`` mapping as
    returned by ``compare_techniques``/``run_campaign``; *metrics* a
    :class:`~repro.telemetry.metrics.MetricsRegistry`; *spans* the
    run's :class:`~repro.telemetry.spans.SpanTracer`, whose
    :meth:`~repro.telemetry.spans.SpanTracer.timing_report` becomes
    ``timings``; *failures* the
    degraded-shard records of a fault-tolerant campaign
    (:class:`~repro.sim.parallel.ShardFailure`).
    """
    comparison = comparison or {}
    return RunManifest(
        engine=engine,
        seeds=list(seeds),
        techniques=list(comparison),
        config=config_as_dict(config),
        config_hash=config_digest(config),
        created_at=datetime.now(timezone.utc).isoformat(),
        git_rev=git_revision(),
        host=_host_info(),
        total_intervals=total_intervals,
        results={
            name: technique_summary(aggregate)
            for name, aggregate in comparison.items()
        },
        metrics=metrics.as_dict() if metrics is not None else {},
        degraded=[failure.as_dict() for failure in failures or []],
        timings=spans.timing_report() if spans is not None else [],
        extra=dict(extra) if extra else {},
    )


def diff_manifests(
    a: RunManifest,
    b: RunManifest,
    ignore: Sequence[str] = VOLATILE_FIELDS,
) -> Dict[str, Tuple[Any, Any]]:
    """Leaf-level differences between two manifests.

    Returns ``{dotted.path: (a_value, b_value)}``; empty means the runs
    are equivalent up to the *ignore* fields.  A path present in only
    one manifest reports the sentinel string ``"<missing>"`` on the
    other side.
    """
    skip = set(ignore)
    differences: Dict[str, Tuple[Any, Any]] = {}

    def skipped(path: str, key: str) -> bool:
        return (
            path in skip
            or key in skip
            or any(path.startswith(entry + ".") for entry in skip)
        )

    def walk(prefix: str, left: Any, right: Any) -> None:
        if isinstance(left, dict) and isinstance(right, dict):
            for key in sorted(set(left) | set(right)):
                path = f"{prefix}.{key}" if prefix else str(key)
                if skipped(path, str(key)):
                    continue
                walk(
                    path,
                    left.get(key, "<missing>"),
                    right.get(key, "<missing>"),
                )
            return
        if left != right:
            differences[prefix] = (left, right)

    walk("", a.as_dict(), b.as_dict())
    return differences
