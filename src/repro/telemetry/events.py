"""Structured telemetry event schema.

Events are plain dicts (JSON-ready, cheap to build) with a ``kind``
field naming the event type and a ``time_ns`` field carrying the
simulated time at which the event happened.  Within one run the
``time_ns`` values of the emitted stream are non-decreasing, so a
JSONL trace can be replayed or windowed without sorting.

The full field-by-field schema is documented in
``docs/observability.md``; the constants below are the authoritative
list of kinds.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Sequence

#: a contiguous span of trace activations, aggregated per refresh
#: interval (and once more for the tail after the last rollover)
ACTIVATION_BATCH = "activation-batch"
#: a mitigation decided to issue one mitigating action
TRIGGER = "trigger"
#: a mitigating action was applied to the device (its extra
#: activations were spent)
MITIGATING_REFRESH = "mitigating-refresh"
#: a trigger found its row already in the TiVaPRoMi history table
HISTORY_HIT = "history-hit"
#: recording a trigger evicted the oldest history-table entry (FIFO)
HISTORY_EVICT = "history-evict"
#: a ``ref`` command started the next refresh interval
INTERVAL_ROLLOVER = "interval-rollover"
#: the optimized engine pre-drew a block of RNG values
RNG_BLOCK = "rng-block"

EVENT_KINDS = (
    ACTIVATION_BATCH,
    TRIGGER,
    MITIGATING_REFRESH,
    HISTORY_HIT,
    HISTORY_EVICT,
    INTERVAL_ROLLOVER,
    RNG_BLOCK,
)

Event = Dict[str, Any]


def activation_batch(
    time_ns: int, interval: int, count: int, attack_count: int
) -> Event:
    return {
        "kind": ACTIVATION_BATCH,
        "time_ns": time_ns,
        "interval": interval,
        "count": count,
        "attack_count": attack_count,
    }


def trigger(
    time_ns: int, interval: int, bank: int, row: int, action: str
) -> Event:
    return {
        "kind": TRIGGER,
        "time_ns": time_ns,
        "interval": interval,
        "bank": bank,
        "row": row,
        "action": action,
    }


def mitigating_refresh(
    time_ns: int,
    interval: int,
    bank: int,
    row: int,
    cost: int,
    false_positive: bool,
) -> Event:
    return {
        "kind": MITIGATING_REFRESH,
        "time_ns": time_ns,
        "interval": interval,
        "bank": bank,
        "row": row,
        "cost": cost,
        "false_positive": false_positive,
    }


def history_hit(
    time_ns: int, interval: int, bank: int, row: int, weight: int
) -> Event:
    return {
        "kind": HISTORY_HIT,
        "time_ns": time_ns,
        "interval": interval,
        "bank": bank,
        "row": row,
        "weight": weight,
    }


def history_evict(time_ns: int, interval: int, bank: int, row: int) -> Event:
    return {
        "kind": HISTORY_EVICT,
        "time_ns": time_ns,
        "interval": interval,
        "bank": bank,
        "row": row,
    }


def interval_rollover(
    time_ns: int,
    interval: int,
    activations: int,
    triggers: int,
    skipped: int = 0,
    occupancy: Optional[Sequence[int]] = None,
) -> Event:
    event: Event = {
        "kind": INTERVAL_ROLLOVER,
        "time_ns": time_ns,
        "interval": interval,
        "activations": activations,
        "triggers": triggers,
    }
    if skipped:
        event["skipped"] = skipped
    if occupancy:
        event["occupancy"] = list(occupancy)
    return event


def rng_block(time_ns: int, bank: int, count: int) -> Event:
    return {
        "kind": RNG_BLOCK,
        "time_ns": time_ns,
        "bank": bank,
        "count": count,
    }
