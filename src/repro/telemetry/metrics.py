"""Cheap run metrics: counters and histograms.

A :class:`MetricsRegistry` is a bag of named instruments the engines
(and the campaign runner) update at interval/trigger granularity --
never per trace record -- so enabling metrics costs a few dict updates
per refresh interval.  ``metrics=None`` (the default everywhere)
disables the whole layer.

The registry serialises to a JSON-ready dict (:meth:`MetricsRegistry.
as_dict`) that is embedded in the run manifest, and two registries can
be merged (:meth:`MetricsRegistry.merge`) to aggregate campaign shards.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Any, Dict, Optional, Sequence, Tuple


class Counter:
    """Monotonic event counter with optional saturation.

    Python integers never overflow, but hardware counters do; passing a
    ``limit`` models a saturating register: the value clamps at
    ``limit`` and :attr:`saturated` records that the clamp happened, so
    reports can flag the count as a lower bound.
    """

    __slots__ = ("name", "value", "limit", "saturated")

    def __init__(self, name: str, limit: Optional[int] = None):
        if limit is not None and limit < 0:
            raise ValueError(f"counter limit must be non-negative: {limit}")
        self.name = name
        self.value = 0
        self.limit = limit
        self.saturated = False

    def add(self, amount: int = 1) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name} cannot decrease: {amount}")
        value = self.value + amount
        if self.limit is not None and value > self.limit:
            value = self.limit
            self.saturated = True
        self.value = value

    def as_dict(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {"value": self.value}
        if self.limit is not None:
            out["limit"] = self.limit
            out["saturated"] = self.saturated
        return out


class Histogram:
    """Fixed-bucket histogram over non-negative observations.

    ``bounds`` are inclusive upper edges in increasing order: bucket
    *i* counts values ``bounds[i-1] < v <= bounds[i]`` (the first
    bucket has no lower edge), and one extra overflow bucket counts
    ``v > bounds[-1]``.  A value exactly equal to an edge lands in the
    bucket that edge closes -- the edge cases are pinned by
    ``tests/telemetry/test_metrics.py``.
    """

    __slots__ = ("name", "bounds", "counts", "count", "total", "min", "max")

    def __init__(self, name: str, bounds: Sequence[float]):
        ordered = tuple(bounds)
        if not ordered:
            raise ValueError("histogram needs at least one bucket bound")
        if any(b > a for b, a in zip(ordered, ordered[1:])):
            raise ValueError(f"histogram bounds must increase: {ordered}")
        self.name = name
        self.bounds: Tuple[float, ...] = ordered
        self.counts = [0] * (len(ordered) + 1)
        self.count = 0
        self.total = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None

    def record(self, value: float) -> None:
        self.record_many(value, 1)

    def record_many(self, value: float, times: int) -> None:
        """Record the same observation *times* times in O(1).

        Used by the optimized engine's interval-span skip: a span of *n*
        empty intervals contributes *n* zero-trigger observations
        without touching the histogram *n* times.
        """
        if times <= 0:
            return
        self.counts[bisect_left(self.bounds, value)] += times
        self.count += times
        self.total += value * times
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def as_dict(self) -> Dict[str, Any]:
        return {
            "bounds": list(self.bounds),
            "counts": list(self.counts),
            "count": self.count,
            "total": self.total,
            "min": self.min,
            "max": self.max,
        }


class MetricsRegistry:
    """Named counters and histograms."""

    def __init__(self) -> None:
        self.counters: Dict[str, Counter] = {}
        self.histograms: Dict[str, Histogram] = {}

    def counter(self, name: str, limit: Optional[int] = None) -> Counter:
        counter = self.counters.get(name)
        if counter is None:
            counter = self.counters[name] = Counter(name, limit=limit)
        elif limit is not None and counter.limit != limit:
            # mirror histogram(): a silently ignored conflicting limit
            # would make export -> import round-trips lossy
            raise ValueError(
                f"counter {name!r} already exists with limit "
                f"{counter.limit}, requested {limit}"
            )
        return counter

    def histogram(self, name: str, bounds: Sequence[float]) -> Histogram:
        histogram = self.histograms.get(name)
        if histogram is None:
            histogram = self.histograms[name] = Histogram(name, bounds)
        elif histogram.bounds != tuple(bounds):
            raise ValueError(
                f"histogram {name!r} already exists with bounds "
                f"{histogram.bounds}, requested {tuple(bounds)}"
            )
        return histogram

    def merge(self, other: "MetricsRegistry") -> None:
        """Fold *other* into this registry (campaign shard aggregation)."""
        for name, counter in other.counters.items():
            mine_c = self.counter(name, limit=counter.limit)
            mine_c.add(counter.value)
            if counter.saturated:
                # the clamp happened in the shard; the merged total is a
                # lower bound even if it sits below the limit here
                mine_c.saturated = True
        for name, histogram in other.histograms.items():
            mine = self.histogram(name, histogram.bounds)
            for index, count in enumerate(histogram.counts):
                mine.counts[index] += count
            mine.count += histogram.count
            mine.total += histogram.total
            for edge in ("min", "max"):
                theirs = getattr(histogram, edge)
                if theirs is None:
                    continue
                ours = getattr(mine, edge)
                if ours is None:
                    setattr(mine, edge, theirs)
                else:
                    pick = min if edge == "min" else max
                    setattr(mine, edge, pick(ours, theirs))

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "MetricsRegistry":
        """Rebuild a registry from an :meth:`as_dict` snapshot.

        The round-trip is exact, so checkpointed campaign shards can
        restore their metrics on resume and merge into the live
        registry as if the shard had just run.
        """
        registry = cls()
        for name, entry in (data.get("counters") or {}).items():
            counter = registry.counter(name, limit=entry.get("limit"))
            # assign, don't add(): the clamp path must not re-run, and
            # the stored saturated flag is authoritative either way
            counter.value = entry.get("value", 0)
            counter.saturated = bool(entry.get("saturated", False))
        for name, entry in (data.get("histograms") or {}).items():
            histogram = registry.histogram(name, entry["bounds"])
            histogram.counts = list(entry.get("counts", histogram.counts))
            histogram.count = entry.get("count", 0)
            histogram.total = entry.get("total", 0.0)
            histogram.min = entry.get("min")
            histogram.max = entry.get("max")
        return registry

    def as_dict(self) -> Dict[str, Any]:
        return {
            "counters": {
                name: counter.as_dict()
                for name, counter in sorted(self.counters.items())
            },
            "histograms": {
                name: histogram.as_dict()
                for name, histogram in sorted(self.histograms.items())
            },
        }
