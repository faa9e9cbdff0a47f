"""Hierarchical spans: deterministic, process-portable timing trees.

A :class:`SpanTracer` records a tree of named :class:`Span` sections --
wall-clock (monotonic) and CPU timing plus arbitrary attributes -- with
context-manager ergonomics::

    spans = SpanTracer(id_seed=config_digest(config))
    with spans.span("campaign", techniques=9):
        with spans.span("shard", technique="PARA", seed=0):
            ...

Three properties make spans safe for the campaign stack:

* **Deterministic identity.**  A span's id is a hash of the tracer's
  ``id_seed`` (callers pass the config hash), the span's *path* (names
  from the root, ``/``-joined) and its occurrence ordinal -- never of a
  clock or a pid.  Two runs of the same campaign produce the same span
  ids, so span records can be compared across runs like shard records.
* **Process portability.**  Workers record into their own tracer and
  ship :meth:`SpanTracer.as_dict` back over the pool boundary; the
  runner re-parents the remote tree under a local span with
  :meth:`SpanTracer.adopt`, mirroring how :class:`MetricsRegistry`
  shards merge.  Ids survive adoption unchanged (they were derived
  from the shard's own seed), only parentage and paths are rewritten.
* **Resume-safe summaries.**  :meth:`SpanTracer.summary` aggregates
  counts and attributes per path and **excludes every clock reading**,
  so the summary of a killed-and-resumed campaign (rebuilt from
  checkpointed shard spans) is bit-identical to an uninterrupted run's
  -- monotonic timestamps never leak into resume-compared state.

``spans=None`` (the default everywhere) disables the layer; a tracer
constructed with ``enabled=False`` is a cheap no-op whose cost is
guarded next to the NullTracer guard in
``benchmarks/bench_fused_engine.py``.
"""

from __future__ import annotations

import hashlib
import os
import time
from contextlib import contextmanager, nullcontext
from typing import Any, Dict, Iterator, List, Optional

#: bump when the serialised span layout changes incompatibly
SPAN_SCHEMA_VERSION = 1


def span_id_for(id_seed: str, path: str, ordinal: int) -> str:
    """Deterministic span id: hash of (tracer seed, path, occurrence)."""
    payload = f"{id_seed}|{path}|{ordinal}"
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


class Span:
    """One timed section of a span tree."""

    __slots__ = (
        "name", "span_id", "parent_id", "path", "attributes",
        "started_mono", "ended_mono", "cpu_seconds", "pid", "_started_cpu",
    )

    def __init__(
        self,
        name: str,
        span_id: str,
        parent_id: Optional[str],
        path: str,
        attributes: Dict[str, Any],
    ) -> None:
        self.name = name
        self.span_id = span_id
        self.parent_id = parent_id
        self.path = path
        self.attributes = attributes
        #: monotonic-clock readings -- comparable across processes on
        #: one host, excluded from :meth:`as_summary_key` state
        self.started_mono: Optional[float] = None
        self.ended_mono: Optional[float] = None
        self.cpu_seconds: Optional[float] = None
        self.pid = os.getpid()
        self._started_cpu: Optional[float] = None

    @property
    def wall_seconds(self) -> Optional[float]:
        if self.started_mono is None or self.ended_mono is None:
            return None
        return self.ended_mono - self.started_mono

    @property
    def finished(self) -> bool:
        return self.ended_mono is not None

    def set_attributes(self, **attributes: Any) -> None:
        self.attributes.update(attributes)

    def as_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "path": self.path,
            "attributes": dict(self.attributes),
            "started_mono": self.started_mono,
            "ended_mono": self.ended_mono,
            "cpu_seconds": self.cpu_seconds,
            "pid": self.pid,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "Span":
        span = cls(
            name=data["name"],
            span_id=data["span_id"],
            parent_id=data.get("parent_id"),
            path=data.get("path", data["name"]),
            attributes=dict(data.get("attributes") or {}),
        )
        span.started_mono = data.get("started_mono")
        span.ended_mono = data.get("ended_mono")
        span.cpu_seconds = data.get("cpu_seconds")
        span.pid = int(data.get("pid", 0))
        return span

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        wall = self.wall_seconds
        timing = f" {wall:.4f}s" if wall is not None else " open"
        return f"<Span {self.path}#{self.span_id}{timing}>"


class SpanTracer:
    """Records a tree of spans; serialisable and mergeable across processes."""

    def __init__(self, id_seed: str = "", enabled: bool = True) -> None:
        self.id_seed = id_seed
        self.enabled = enabled
        self.spans: List[Span] = []
        self._stack: List[Span] = []
        self._ordinals: Dict[str, int] = {}

    # -- recording -----------------------------------------------------

    @property
    def current(self) -> Optional[Span]:
        """The innermost open span, or ``None`` at the root."""
        return self._stack[-1] if self._stack else None

    @contextmanager
    def span(self, name: str, **attributes: Any) -> Iterator[Optional[Span]]:
        """Open a child span of the innermost open span (or a root)."""
        if not self.enabled:
            yield None
            return
        span = self.start(name, **attributes)
        try:
            yield span
        finally:
            self.finish()

    def start(self, name: str, **attributes: Any) -> Optional[Span]:
        """Open a span without a ``with`` block; pair with :meth:`finish`.

        For spans whose extent does not fit one lexical scope (e.g. a
        campaign root that must stay open across a try/finally the
        caller cannot re-indent).  Returns ``None`` when disabled.
        """
        if not self.enabled:
            return None
        span = self._open(name, attributes)
        span._started_cpu = time.process_time()
        span.started_mono = time.monotonic()
        self._stack.append(span)
        return span

    def finish(self) -> Optional[Span]:
        """Close the innermost open span (no-op when none is open)."""
        if not self.enabled or not self._stack:
            return None
        span = self._stack.pop()
        span.ended_mono = time.monotonic()
        if span._started_cpu is not None:
            span.cpu_seconds = time.process_time() - span._started_cpu
        return span

    def _open(self, name: str, attributes: Dict[str, Any]) -> Span:
        parent = self.current
        path = f"{parent.path}/{name}" if parent is not None else name
        ordinal = self._ordinals.get(path, 0)
        self._ordinals[path] = ordinal + 1
        span = Span(
            name=name,
            span_id=span_id_for(self.id_seed, path, ordinal),
            parent_id=parent.span_id if parent is not None else None,
            path=path,
            attributes=dict(attributes),
        )
        self.spans.append(span)
        return span

    # -- serialisation and cross-process merge -------------------------

    def as_dict(self) -> Dict[str, Any]:
        return {
            "schema_version": SPAN_SCHEMA_VERSION,
            "id_seed": self.id_seed,
            "spans": [span.as_dict() for span in self.spans],
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "SpanTracer":
        tracer = cls(id_seed=data.get("id_seed", ""))
        for entry in data.get("spans") or []:
            tracer.spans.append(Span.from_dict(entry))
        for span in tracer.spans:
            tracer._ordinals[span.path] = tracer._ordinals.get(span.path, 0) + 1
        return tracer

    def adopt(
        self, data: Optional[Dict[str, Any]], parent: Optional[Span] = None
    ) -> int:
        """Merge a serialised remote tree, re-parenting its roots.

        *parent* defaults to the innermost open span, so a runner can
        adopt worker spans while its own ``campaign`` span is open.
        Remote root spans become children of *parent* and every remote
        path gains the parent's path prefix; remote span ids are kept
        verbatim (they are deterministic in the worker's own seed).
        Returns the number of spans adopted.
        """
        if not self.enabled or not data:
            return 0
        if parent is None:
            parent = self.current
        adopted = 0
        for entry in data.get("spans") or []:
            span = Span.from_dict(entry)
            if span.parent_id is None and parent is not None:
                span.parent_id = parent.span_id
            if parent is not None:
                span.path = f"{parent.path}/{span.path}"
            self.spans.append(span)
            self._ordinals[span.path] = self._ordinals.get(span.path, 0) + 1
            adopted += 1
        return adopted

    # -- reporting -----------------------------------------------------

    def summary(self) -> Dict[str, Any]:
        """Deterministic per-path aggregate with **no clock readings**.

        Keyed by span path in sorted order; each entry carries the
        occurrence count and the sorted union of attribute keys.  The
        output is a pure function of the recorded structure -- never of
        timing, adoption order, or process ids -- which is what lets a
        resumed campaign rebuild a bit-identical span summary from its
        checkpointed shards.
        """
        paths: Dict[str, Dict[str, Any]] = {}
        for span in self.spans:
            entry = paths.setdefault(
                span.path, {"count": 0, "attribute_keys": set()}
            )
            entry["count"] += 1
            entry["attribute_keys"].update(span.attributes)
        return {
            "schema_version": SPAN_SCHEMA_VERSION,
            "paths": {
                path: {
                    "count": entry["count"],
                    "attribute_keys": sorted(entry["attribute_keys"]),
                }
                for path, entry in sorted(paths.items())
            },
        }

    def timing_report(self) -> List[Dict[str, Any]]:
        """Wall/CPU totals per tree row (volatile; for humans, not resume).

        A row aggregates the finished spans of one *label*: the span
        path with each span's ``technique`` attribute appended to its
        name (``grid/decide[PARA]``), so per-technique lanes and shards
        get rows of their own.  Rows come depth-first, siblings in
        order of first appearance; ``share_pct`` is the row's wall as a
        share of the root rows' total wall.
        """
        labels: Dict[Optional[str], str] = {}
        rows: Dict[str, Dict[str, Any]] = {}
        for span in self.spans:
            technique = span.attributes.get("technique")
            name = span.name if technique is None else f"{span.name}[{technique}]"
            parent = labels.get(span.parent_id)
            label = labels[span.span_id] = f"{parent}/{name}" if parent else name
            row = rows.setdefault(label, {
                "path": span.path, "label": label, "depth": label.count("/"),
                "count": 0, "wall_seconds": 0.0, "cpu_seconds": 0.0,
            })
            if span.wall_seconds is not None:
                row["count"] += 1
                row["wall_seconds"] += span.wall_seconds
                row["cpu_seconds"] += span.cpu_seconds or 0.0
        first = {label: index for index, label in enumerate(rows)}

        def tree_order(label: str) -> List[int]:
            parts = label.split("/")
            return [first["/".join(parts[:end])] for end in range(1, len(parts) + 1)]

        root_wall = sum(
            row["wall_seconds"] for row in rows.values() if not row["depth"]
        )
        report = [rows[label] for label in sorted(rows, key=tree_order)]
        for row in report:
            row["share_pct"] = 100.0 * row["wall_seconds"] / root_wall if root_wall else 0.0
        return [row for row in report if row["count"]]

    def __len__(self) -> int:
        return len(self.spans)


def span_of(spans: Optional[SpanTracer], name: str, **attributes: Any):
    """``spans.span(name, ...)`` or a free no-op context, so call
    sites never branch on whether span tracing is enabled."""
    if spans is None or not spans.enabled:
        return nullcontext()
    return spans.span(name, **attributes)
