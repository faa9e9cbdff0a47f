"""Content-digest-keyed npz cache for ingested traces.

Parsing a multi-million-record text trace costs seconds to minutes;
replaying the resulting columnar npz costs milliseconds.  The cache
keys each entry on everything that determines the ingest *output*:

    key = sha256(schema : source-file sha256 : ingest-spec digest)

so editing the source file, the mapper spec, the format options or the
target geometry each produce a different key, while re-running the
identical ingest hits.  Hitting vs missing cannot change results: a
cold ingest round-trips through the very same
:func:`~repro.traces.trace_io.save_trace_npz` /
:func:`~repro.traces.trace_io.load_trace_npz` pair a hit replays, so
cached and uncached loads are byte-for-byte the same arrays.

Each entry is ``<key>.npz`` plus a ``<key>.json`` sidecar holding the
ingest provenance (source path/digest, mapper spec, record counts).
Writes go through a temp file + atomic rename; a corrupted or
half-written entry is detected at load time, deleted, and re-ingested.
Cache traffic is observable through the ``ingest.cache_hits`` /
``ingest.cache_misses`` / ``ingest.cache_evictions`` counters of a
:class:`~repro.telemetry.metrics.MetricsRegistry`.

The default location is ``$REPRO_INGEST_CACHE`` or
``~/.cache/repro/ingest``; pass ``--ingest-cache`` / ``cache_dir`` to
override, or ``--no-ingest-cache`` to bypass entirely.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from pathlib import Path
from typing import Any, Dict, Optional, Tuple, Union

from repro.telemetry.metrics import MetricsRegistry
from repro.traces.record import Trace
from repro.traces.trace_io import load_trace_npz, save_trace_npz

#: bump when the npz entry layout or key derivation changes; old
#: entries simply stop being addressed and age out
CACHE_SCHEMA = 1

_ENV_VAR = "REPRO_INGEST_CACHE"


def default_cache_dir() -> Path:
    env = os.environ.get(_ENV_VAR)
    if env:
        return Path(env)
    return Path.home() / ".cache" / "repro" / "ingest"


def file_digest(path: Union[str, Path]) -> str:
    """sha256 of the raw file bytes (gzip container included), chunked."""
    digest = hashlib.sha256()
    with Path(path).open("rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def cache_key(source_digest: str, spec_digest: str) -> str:
    return hashlib.sha256(
        f"{CACHE_SCHEMA}:{source_digest}:{spec_digest}".encode("utf-8")
    ).hexdigest()


class IngestCache:
    """Filesystem cache of ingested traces (see module docstring)."""

    def __init__(
        self,
        root: Optional[Union[str, Path]] = None,
        metrics: Optional[MetricsRegistry] = None,
    ):
        self.root = Path(root) if root is not None else default_cache_dir()
        self.metrics = metrics

    def _count(self, name: str) -> None:
        if self.metrics is not None:
            self.metrics.counter(f"ingest.{name}").add()

    def _paths(self, key: str) -> Tuple[Path, Path]:
        return self.root / f"{key}.npz", self.root / f"{key}.json"

    def load(self, key: str) -> Optional[Tuple[Trace, Dict[str, Any]]]:
        """Return ``(trace, sidecar)`` for *key*, or ``None`` on a miss.

        A present-but-unreadable entry (truncated npz, mangled sidecar)
        counts as a miss: both files are evicted so the caller's fresh
        ingest can repopulate the slot.
        """
        npz_path, sidecar_path = self._paths(key)
        if not npz_path.exists() or not sidecar_path.exists():
            self._count("cache_misses")
            return None
        try:
            trace = load_trace_npz(npz_path)
            sidecar = json.loads(sidecar_path.read_text(encoding="utf-8"))
            if not isinstance(sidecar, dict):
                raise ValueError("sidecar is not a JSON object")
        except Exception:
            self.evict(key)
            self._count("cache_evictions")
            self._count("cache_misses")
            return None
        self._count("cache_hits")
        return trace, sidecar

    def store(self, key: str, trace: Trace, sidecar: Dict[str, Any]) -> Path:
        """Atomically write *trace* + *sidecar* under *key*.

        Returns the npz path.  The npz lands via temp-file + rename so
        a crash mid-write leaves no addressable half-entry; the sidecar
        is written second because :meth:`load` requires both.  The temp
        names are unique per writer: two concurrent misses of the same
        key (e.g. two serve sessions racing the same upload) each
        complete their own write-and-rename, last one wins, and the
        contents are identical either way because the key fixes them.
        """
        self.root.mkdir(parents=True, exist_ok=True)
        npz_path, sidecar_path = self._paths(key)
        handle, tmp_npz = tempfile.mkstemp(
            dir=str(self.root), prefix=f"{key}.", suffix=".tmp.npz"
        )
        os.close(handle)
        save_trace_npz(trace, tmp_npz)
        os.replace(tmp_npz, npz_path)
        handle, tmp_sidecar = tempfile.mkstemp(
            dir=str(self.root), prefix=f"{key}.", suffix=".json.tmp"
        )
        with os.fdopen(handle, "w", encoding="utf-8") as stream:
            stream.write(json.dumps(sidecar, indent=2, sort_keys=True) + "\n")
        os.replace(tmp_sidecar, sidecar_path)
        return npz_path

    def evict(self, key: str) -> None:
        for path in self._paths(key):
            try:
                path.unlink()
            except FileNotFoundError:
                pass

    def entry_path(self, key: str) -> Path:
        """The npz path an entry for *key* would occupy (may not exist)."""
        return self._paths(key)[0]
