"""Trace records: the activation stream mitigations observe.

A trace is a time-ordered sequence of row activations, each carrying a
ground-truth ``is_attack`` flag.  Mitigation techniques never see the
flag (the simulation engine strips it); it exists purely so the metrics
layer can classify extra activations as true or false positives.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, List, NamedTuple, Sequence


class TraceRecord(NamedTuple):
    """One row activation command."""

    time_ns: int
    bank: int
    row: int
    is_attack: bool = False


@dataclass(frozen=True)
class TraceMeta:
    """Static facts about a trace needed to drive a simulation."""

    #: number of refresh intervals the trace spans
    total_intervals: int
    #: duration of one refresh interval in nanoseconds
    interval_ns: int
    #: number of banks addressed
    num_banks: int

    @property
    def duration_ns(self) -> int:
        return self.total_intervals * self.interval_ns


@dataclass
class Trace:
    """A trace: metadata plus an iterable of time-ordered records.

    ``records`` may be a materialised list (tests, small runs), any
    re-iterable source, or a one-shot iterator such as the lazy trace
    generators.  A one-shot source can be read once: iterating or
    materializing it a second time raises instead of silently yielding
    nothing.  :meth:`materialize` forces a list.
    """

    meta: TraceMeta
    records: Iterable[TraceRecord]
    _read: bool = field(default=False, init=False, repr=False, compare=False)

    def __iter__(self) -> Iterator[TraceRecord]:
        records = self.records
        iterator = iter(records)
        if iterator is records:  # a one-shot source
            if self._read:
                raise RuntimeError(
                    "trace records already consumed: this trace wraps a "
                    "one-shot iterator, which can be read only once -- "
                    "build a fresh trace per run, or call materialize() "
                    "before the first read"
                )
            self._read = True
        return iterator

    def materialize(self) -> "Trace":
        if not isinstance(self.records, list):
            self.records = list(self)
        return self

    def aggressor_rows(self) -> dict:
        """Ground-truth aggressor rows per bank (requires materialised records)."""
        self.materialize()
        rows: dict = {}
        for record in self.records:
            if record.is_attack:
                rows.setdefault(record.bank, set()).add(record.row)
        return rows

    def count(self) -> int:
        self.materialize()
        return len(self.records)


def validate_trace(trace: Trace, act_to_act_ns: float = 45.0) -> List[str]:
    """Return a list of violations (empty when the trace is well-formed).

    Checks global time ordering, per-bank minimum activate-to-activate
    spacing, and that record times fall inside the declared span.
    """
    problems: List[str] = []
    last_time = -1
    last_bank_time: dict = {}
    trace.materialize()
    for index, record in enumerate(trace.records):
        if record.time_ns < last_time:
            problems.append(f"record {index}: time goes backwards")
        last_time = record.time_ns
        prev = last_bank_time.get(record.bank)
        if prev is not None and record.time_ns - prev < act_to_act_ns:
            problems.append(
                f"record {index}: bank {record.bank} act-to-act "
                f"{record.time_ns - prev} ns < {act_to_act_ns} ns"
            )
        last_bank_time[record.bank] = record.time_ns
        if not 0 <= record.time_ns < trace.meta.duration_ns:
            problems.append(f"record {index}: time outside trace span")
        if not 0 <= record.bank < trace.meta.num_banks:
            problems.append(f"record {index}: bank out of range")
    return problems


def merge_sorted(streams: Sequence[Iterable[TraceRecord]]) -> Iterator[TraceRecord]:
    """Merge independently-sorted record streams into one sorted stream."""
    import heapq

    return heapq.merge(*streams, key=lambda record: record.time_ns)
