"""The optimized simulation engine: one trace pass for a whole cell grid.

The reference engine (:func:`repro.sim.engine.run_simulation`) is the
specification; this module is its one optimized implementation.  It
produces a **field-for-field identical** :class:`SimResult` (everything
except ``wall_seconds``) for every cell, pinned by
``tests/sim/test_differential.py`` (single cells) and
``tests/sim/test_fused_differential.py`` (grids) via
:mod:`tests.harness`.  ``get_engine("fast")`` and ``get_engine("fused")``
both resolve to :func:`run_simulation_fused`.

The paper's headline numbers are *campaigns*: the same activation trace
replayed under nine techniques, several seeds, and a pbase grid.
:func:`run_simulation_grid` decodes the trace once and replays it for
the entire ``(technique, seed, pbase)`` cell grid.

Where the speed comes from
--------------------------

* **Segments** -- :func:`_segments` turns the record stream, in one
  pass, into maximal runs of identical records that never cross a
  refresh-interval boundary.  Segmentation is cell-independent (the
  refresh clock is driven purely by record timestamps), so a grid builds
  the segment list once; a single cell reads straight from the
  generator, holding one segment at a time, so
  ``stop_after_first_trigger`` and ``max_activations`` stop decoding
  early.
* **One device pass per grid** -- the device model (disturbance
  counters, flip threshold, periodic refresh) is the same ground truth
  in every cell; only the mitigations' extra activations differ, and
  deciders never read device state.  :func:`_device_pass` replays the
  unmitigated model once over the segment list -- its result *is* the
  unmitigated cell's -- and keeps the record position of every refresh
  tick and every flip, plus the largest epoch totals (an *epoch* is the
  span between two restorations of a row).
* **Bank-major decider lanes with an action log** -- deciders never
  read device state and each bank's decider sees only its own bank's
  records, so :func:`_decide` runs one computed cell bank by bank: the
  grid splits its segment list once into per-bank run columns
  (:class:`_BankRuns`), and each decider takes the refresh ticks and,
  per interval, one ``decide_chunk`` call for its bank's runs.  The
  banks' actions are then merged into the order the inline lane's
  pending queue applies them, each logged with its position: the
  records and refresh ticks performed before the drain that applies it
  (before record *k*, or at tick *j* before or after that tick's row
  refreshes, or after the last tick).  No disturbance counter runs.
* **Event skipping** -- a draw-driven decider states a probability
  *ceiling* that none of its decisions can reach, and its
  ``decide_chunk`` jumps between the few draws below it, rebuilding its
  state there from the records in between (see
  :mod:`repro.sim.deciders`, which holds the deciders and that
  contract).  A decider without a ceiling steps every run.
* **Per-lane resolution** -- :func:`_resolve` expands a lane's log into
  row restorations and neighbour increments, indexes the activation
  runs of just the rows involved (one scan, typed arrays), and
  recomputes only the base epochs those operations fall in, counting
  base increments between two positions by bisecting the index.
  ``max_disturbance`` is the larger of the recomputed epochs and the
  best epoch the lane left untouched; base flips outside touched epochs
  are kept, merged in the reference's per-bank event order.  If a lane
  touches every epoch the pass kept (:data:`_TOP_EPOCHS`), a second
  pass recounts the best untouched one.

  A grid call shares one device pass among its computed cells unless it
  may stop early (``stop_after_first_trigger``, ``max_activations``),
  carries an enabled tracer, or its geometry's adjacency is not the
  symmetric kind of the built-in geometries; lanes with
  ``distance2_rate > 0`` (float increments) or a flip threshold other
  than the first lane's, and a lone mitigated lane, replay inline.  The
  unmitigated cell -- or, without one, the first sharing lane -- is
  charged the device pass's ``wall_seconds``.
* **Inline lanes** -- :func:`_replay` runs one lane over the segments
  with its decisions *and* its disturbance counters in locals (the
  single-cell entry point, and the grid cells above): the arithmetic
  of the reference controller / bank / disturbance stack without the
  object layering.  Refresh state is resolved once per interval, not
  once per record.
* **Run batching** -- a row's trigger probability is constant between
  triggers within an interval and the draws are a fixed pre-buffered
  sequence, so a segment's no-trigger prefix reduces to one scan over
  buffered draws (plus, inline, a single ``+= n`` per victim counter;
  threshold crossings inside the run are recovered arithmetically with
  the exact per-record timestamp).  The table-based techniques (TWiCe,
  CRA, CaPRoMi) collapse a run into one arithmetic update, ProHit and
  MRLoc detect their steady table state and scan the remaining draws in
  bulk, and the modern families batch through their own
  ``observe_run``.
* **Bulk RNG draws** -- the probabilistic deciders pre-draw their
  Mersenne-Twister ``random()`` values in blocks (the *k*-th draw is the
  same value eagerly or batched) and scan long runs as numpy arrays;
  PARA's interleaved ``randrange`` rewinds the generator first, keeping
  the stream bit-exact with the reference mitigation objects.
* **Empty-interval short-circuit** -- spans of record-free intervals
  are skipped in one step for techniques whose ``on_refresh`` is
  decision-free: the periodic refresh of a whole span reduces to
  popping the disturbance counters whose refresh slot the span covers.
* **Cell dedup** -- mitigation classes declare ``consumes_rng`` /
  ``consumes_pbase`` traits.  TWiCe and CRA consume neither, so their
  seed x pbase plane collapses to one computed cell; PARA, ProHit and
  MRLoc ignore ``pbase``, collapsing that axis.  Results are replicated
  to the requested cells with the ``seed`` field fixed up.

Per-cell RNG streams derive from ``derive_seed(seed, "mitigation",
bank)`` exactly like the reference.  numpy is optional: without it the
deciders' draw scans fall back to scalar loops (identical results,
reduced throughput).
"""

from __future__ import annotations

import time
from array import array
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, replace
from heapq import heappush, heapreplace
from itertools import accumulate, compress
from operator import itemgetter, sub
from typing import Any, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.config import DRAMGeometry, SimConfig
from repro.controller.controller import MitigationFactory
from repro.dram.disturbance import FlipEvent
from repro.dram.refresh import RefreshPolicy, SequentialRefresh
from repro.dram.remap import RemappedGeometry
from repro.mitigations.base import (
    ActivateNeighbors,
    RecoveryRefresh,
    RefreshRow,
)
from repro.mitigations.registry import (
    make_factory,
    resolve_technique,
    technique_class,
)
from repro.rng import derive_seed
from repro.sim.deciders import _BankRuns, _column, _make_decider
from repro.sim.metrics import SimResult
from repro.telemetry.hooks import EngineTelemetry
from repro.telemetry.profiler import section_of
from repro.traces.record import Trace, TraceMeta

#: minimum number of empty intervals before the span short-circuit is
#: cheaper than ticking through them
_SKIP_THRESHOLD = 4
#: base epochs the shared device pass keeps, largest totals first: a
#: lane's ``max_disturbance`` is the largest epoch its mitigations
#: leave untouched, and a lane touching every kept epoch of a longer
#: list has that epoch recounted by a second pass
_TOP_EPOCHS = 1024

#: sentinel pbase used to canonicalise configs of techniques that do not
#: consume ``pbase`` when building dedup keys (any valid value works --
#: it only has to be the *same* value for every such cell)
_PBASE_DONT_CARE = 0.5

#: ``(times, bank, row, is_attack, interval)``: a run of identical
#: records, all in ``interval``, with their timestamps ``times``
Segment = Tuple[List[int], int, int, bool, int]


# ---------------------------------------------------------------------------
# public cell grid specification
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GridCell:
    """One requested cell of the fused campaign grid.

    ``technique`` is a registry name (``None`` = unmitigated baseline);
    ``config`` optionally overrides the base config (typically only
    ``pbase`` differs); ``kwargs`` are extra mitigation-factory keyword
    arguments as a sorted tuple of pairs.
    """

    technique: Optional[str]
    seed: int = 0
    config: Optional[SimConfig] = None
    kwargs: Tuple[Tuple[str, Any], ...] = ()


def grid_cells(
    techniques: Sequence[Optional[str]],
    seeds: Sequence[int],
    pbase_scales: Sequence[float] = (1.0,),
    config: Optional[SimConfig] = None,
) -> List[GridCell]:
    """Build the full ``technique x seed x pbase`` cell grid.

    ``pbase_scales`` multiply ``config.pbase``; duplicate scales (after
    float coercion, so ``"0.1"`` and ``"1e-1"`` collapse) are dropped.
    ``config=None`` leaves per-cell configs unset (the grid call's base
    config applies), which requires ``pbase_scales == (1.0,)``.
    """
    scales: List[float] = []
    for scale in pbase_scales:
        value = float(scale)
        if value not in scales:
            scales.append(value)
    cells = []
    for technique in techniques:
        for seed in seeds:
            for scale in scales:
                if scale == 1.0:
                    cell_config = config
                elif config is None:
                    raise ValueError(
                        "pbase_scales != 1.0 require an explicit config"
                    )
                else:
                    cell_config = config.scaled(pbase=config.pbase * scale)
                cells.append(
                    GridCell(technique=technique, seed=seed, config=cell_config)
                )
    return cells


@dataclass
class _Plan:
    """Internal resolved cell: factory + config + dedup key."""

    factory: Optional[MitigationFactory]
    seed: int
    config: SimConfig
    key: Optional[Tuple]  # None = never deduplicated


def _plan_cell(cell: GridCell, base_config: SimConfig) -> _Plan:
    config = cell.config if cell.config is not None else base_config
    if cell.technique is None:
        # the unmitigated baseline consumes neither RNG nor pbase
        key = (None, cell.kwargs, None, replace(config, pbase=_PBASE_DONT_CARE))
        return _Plan(None, cell.seed, config, key)
    name = resolve_technique(cell.technique)
    cls = technique_class(name)
    factory = make_factory(name, **dict(cell.kwargs))
    consumes_rng = getattr(cls, "consumes_rng", True)
    consumes_pbase = getattr(cls, "consumes_pbase", True)
    eff_seed = cell.seed if consumes_rng else None
    eff_config = (
        config if consumes_pbase else replace(config, pbase=_PBASE_DONT_CARE)
    )
    key = (name, cell.kwargs, eff_seed, eff_config)
    return _Plan(factory, cell.seed, config, key)


# ---------------------------------------------------------------------------
# the segmenter
# ---------------------------------------------------------------------------


def _segments(trace: Trace) -> Iterator[Segment]:
    """Yield the trace's maximal runs of identical records in one pass.

    A run ends where the bank, row or attack flag changes or a record
    reaches the next refresh-interval boundary.  Each run carries its
    own timestamp list, so a consumer that drops a run once replayed
    holds one run at a time, never the trace.  A run is yielded once
    the first record of the next one has been read.
    """
    interval_ns = trace.meta.interval_ns
    times: List[int] = []
    boundary = 0  # first timestamp past the current interval
    bank = row = attack = interval = None
    for time_ns, b, r, a in trace:
        if time_ns >= boundary or r != row or b != bank or a != attack:
            if times:
                yield (times, bank, row, attack, interval)
            times = [time_ns]
            bank, row, attack = b, r, a
            if time_ns >= boundary:
                interval = time_ns // interval_ns
                boundary = (interval + 1) * interval_ns
        else:
            times.append(time_ns)
    if times:
        yield (times, bank, row, attack, interval)


# ---------------------------------------------------------------------------
# the lane: one computed cell replayed over the segments
# ---------------------------------------------------------------------------


def _replay(
    plan: _Plan,
    policy: RefreshPolicy,
    segments: Iterable[Segment],
    meta: TraceMeta,
    caches: Tuple[Dict, Dict, Dict],
    stop_after_first_trigger: bool,
    max_activations: Optional[int],
    tele,
    profiler,
) -> Tuple[SimResult, int]:
    """Replay one lane over *segments*, drain it, return its result.

    Mirrors the reference controller / device arithmetic record by
    record (see the module docstring for the shortcuts).  *caches* are
    the geometry lookups ``(neighbours, second neighbours, refresh rows
    per slot)`` shared by every lane of a grid.  Returns the result,
    whose ``wall_seconds`` is this lane's own time, and the number of
    segments the lane read.
    """
    started = time.perf_counter()
    config = plan.config
    geometry = policy.geometry
    num_banks = geometry.num_banks
    with section_of(profiler, "engine:setup"):
        deciders: List = []
        if plan.factory is not None:
            deciders = [
                _make_decider(plan.factory(
                    config, bank, derive_seed(plan.seed, "mitigation", bank)
                ))
                for bank in range(num_banks)
            ]
        if tele is not None:
            for decider in deciders:
                decider.attach_telemetry(tele)

    neighbors_of, second_of, refresh_rows_of = caches
    refint = geometry.refint
    rows_per_interval = geometry.rows_per_interval
    sequential = type(policy) is SequentialRefresh
    interval_ns = meta.interval_ns
    flip_threshold = config.flip_threshold
    distance2 = config.distance2_rate
    plain_disturbance = distance2 == 0.0
    all_trivial = all(decider.trivial_refresh for decider in deciders)
    has_deciders = bool(deciders)
    # Run batching is legal when every decider can bulk-decide (or there
    # are none, for the unmitigated baseline) and disturbance moves in
    # whole +1 steps.
    can_batch = plain_disturbance and all(
        hasattr(decider, "decide_run") for decider in deciders
    )

    # ground-truth device state, kept flat (per-bank dicts and lists)
    counters: List[Dict[int, float]] = [{} for _ in range(num_banks)]
    bank_flips: List[List[FlipEvent]] = [[] for _ in range(num_banks)]
    aggressors: List[set] = [set() for _ in range(num_banks)]
    max_disturbance = 0
    extra_activations = 0
    fp_extra_activations = 0
    mitigation_triggers = 0
    max_occupancy = 0
    pending: List[Tuple[int, object, bool]] = []
    time_now = 0
    current_interval = -1
    activation_index = 0
    attack_activations = 0
    first_trigger: Optional[int] = None

    def neighbors(row: int) -> Tuple[int, ...]:
        found = neighbors_of.get(row)
        if found is None:
            found = neighbors_of[row] = geometry.neighbors(row)
        return found

    def do_activation(bank: int, row: int) -> None:
        """Mirror of Bank.activate: restore *row*, disturb its neighbours."""
        nonlocal max_disturbance
        c = counters[bank]
        flips = bank_flips[bank]
        c.pop(row, None)
        for victim in neighbors(row):
            before = c.get(victim, 0.0)
            count = before + 1.0
            c[victim] = count
            whole = int(count)
            if whole > max_disturbance:
                max_disturbance = whole
            if before < flip_threshold <= count:
                flips.append(
                    FlipEvent(bank=bank, row=victim, count=whole, time_ns=time_now)
                )
        if distance2 > 0.0:
            seconds = second_of.get(row)
            if seconds is None:
                seconds = second_of[row] = [
                    second
                    for neighbor in neighbors(row)
                    for second in geometry.neighbors(neighbor)
                    if second != row
                ]
            for victim in seconds:
                before = c.get(victim, 0.0)
                count = before + distance2
                c[victim] = count
                whole = int(count)
                if whole > max_disturbance:
                    max_disturbance = whole
                if before < flip_threshold <= count:
                    flips.append(
                        FlipEvent(bank=bank, row=victim, count=whole, time_ns=time_now)
                    )

    def apply_pending() -> None:
        """Mirror of MemoryController._drain_buffer / _apply."""
        nonlocal extra_activations, fp_extra_activations, mitigation_triggers
        for bank, action, was_attack in pending:
            mitigation_triggers += 1
            if isinstance(action, ActivateNeighbors):
                victims = neighbors(action.row)
                for victim in victims:
                    do_activation(bank, victim)
                cost = len(victims)
            elif isinstance(action, RefreshRow):
                do_activation(bank, action.row)
                cost = 1
            elif isinstance(action, RecoveryRefresh):
                cost = 0
                for aggressor in action.rows:
                    victims = neighbors(aggressor)
                    for victim in victims:
                        do_activation(bank, victim)
                    cost += len(victims)
            else:  # pragma: no cover - future action kinds
                raise TypeError(f"unknown mitigation action {action!r}")
            extra_activations += cost
            if not was_attack:
                fp_extra_activations += cost
            if tele is not None:
                tele.on_apply(
                    bank, action.row, current_interval, cost, not was_attack
                )
        pending.clear()

    def enqueue(bank: int, actions) -> None:
        nonlocal max_occupancy
        bank_aggressors = aggressors[bank]
        for action in actions:
            pending.append((bank, action, action.trigger_row in bank_aggressors))
            if tele is not None:
                tele.on_trigger(
                    bank, action.row, current_interval, type(action).__name__
                )
        if len(pending) > max_occupancy:
            max_occupancy = len(pending)

    def refresh_tick() -> None:
        """Mirror of MemoryController.refresh_tick (one ``ref`` command)."""
        nonlocal current_interval
        if pending:
            apply_pending()
        current_interval += 1
        slot = current_interval % refint
        rows = refresh_rows_of.get(slot)
        if rows is None:
            rows = refresh_rows_of[slot] = list(policy.rows_for_interval(slot))
        for c in counters:
            for row in rows:
                c.pop(row, None)
        for bank, decider in enumerate(deciders):
            actions = decider.on_refresh(current_interval)
            if actions:
                enqueue(bank, actions)
        if pending:
            apply_pending()
        if tele is not None:
            tele.on_interval(
                current_interval,
                current_interval * interval_ns,
                activation_index,
                attack_activations,
                [decider.table_occupancy for decider in deciders],
            )

    def advance_to(target: int) -> None:
        """Run the refresh ticks up to interval *target*.

        Spans of record-free intervals are fast-forwarded when every
        decider's ``on_refresh`` is decision-free: the span's ticks then
        reduce to popping the disturbance counters whose refresh slot
        falls inside the span, plus a history clear if a window boundary
        was crossed.
        """
        nonlocal current_interval
        if not all_trivial or target - current_interval <= _SKIP_THRESHOLD:
            while current_interval < target:
                refresh_tick()
            return
        if pending:
            apply_pending()
        first_skipped = current_interval + 1
        if target - current_interval >= refint:
            # at least one full window: every row refreshed at least once
            for c in counters:
                c.clear()
            boundary = True
        else:
            lo = (current_interval + 1) % refint
            hi = target % refint
            wrapped = lo > hi
            boundary = wrapped or lo == 0
            for c in counters:
                if not c:
                    continue
                doomed = []
                for row in c:
                    slot = (
                        row // rows_per_interval
                        if sequential
                        else policy.refresh_slot_of(row)
                    )
                    covered = (
                        (slot >= lo or slot <= hi)
                        if wrapped
                        else lo <= slot <= hi
                    )
                    if covered:
                        doomed.append(row)
                for row in doomed:
                    del c[row]
        if boundary:
            for decider in deciders:
                decider.clear_window()
        current_interval = target
        if tele is not None:
            tele.on_interval_skip(first_skipped, target, target * interval_ns)

    # Hot loop.  Each segment first ticks the refresh clock up to its
    # interval; its records then replay as batched runs or one at a
    # time.  The distance-1 disturbance update is inlined;
    # ``do_activation`` is kept for the rare mitigation-action path.
    replay_started = time.perf_counter()
    neighbors_get = neighbors_of.get
    segment_count = 0
    for segment_count, (times, bank, row, is_attack, interval) in enumerate(
        segments, 1
    ):
        if interval > current_interval:
            advance_to(interval)
        i = 0
        end = len(times)
        while i < end:
            t = times[i]
            time_now = t
            if tele is not None:
                tele.now = t
            if pending:
                apply_pending()

            # Batch the rest of the segment.  The per-act first-trigger
            # check is skipped because it cannot fire mid-batch: no
            # action is *applied* during the run (only enqueued at its
            # very end), so ``mitigation_triggers`` cannot rise from
            # zero -- runs starting in any other state are excluded.
            length = end - i
            if (
                length > 1
                and can_batch
                and (first_trigger is not None or mitigation_triggers == 0)
            ):
                if max_activations is not None:
                    room = max_activations - activation_index
                    if length > room:
                        length = room
            else:
                length = 1
            if length > 1:
                if has_deciders:
                    clean, actions = deciders[bank].decide_run(
                        row, current_interval, length
                    )
                    done = length if clean == length else clean + 1
                else:
                    actions = ()
                    done = length
                if is_attack:
                    aggressors[bank].add(row)
                    attack_activations += done
                c = counters[bank]
                victims = neighbors_get(row)
                if victims is None:
                    victims = neighbors(row)
                c.pop(row, None)
                bump = float(done)
                flips = bank_flips[bank]
                flips_before = len(flips)
                for victim in victims:
                    before = c.get(victim, 0.0)
                    count = before + bump
                    c[victim] = count
                    whole = int(count)
                    if whole > max_disturbance:
                        max_disturbance = whole
                    if before < flip_threshold <= count:
                        # counts move in whole +1 steps, so the act at
                        # which the threshold is crossed is computable
                        crossing = flip_threshold - int(before)
                        flips.append(FlipEvent(
                            bank=bank, row=victim, count=flip_threshold,
                            time_ns=times[i + crossing - 1],
                        ))
                if len(flips) - flips_before > 1:
                    # several victims crossed inside one run: the
                    # reference emits flips in act order, not in victim
                    # order (timestamps break the tie)
                    flips[flips_before:] = sorted(
                        flips[flips_before:], key=lambda f: f.time_ns
                    )
                activation_index += done
                i += done
                time_now = times[i - 1]
                if tele is not None:
                    tele.now = time_now
                if actions:
                    # the acts after the trigger act replay next; the
                    # action applies at the first of them, exactly like
                    # the reference's next-command drain
                    enqueue(bank, actions)
                if max_activations is not None and activation_index >= max_activations:
                    break
                continue

            if is_attack:
                aggressors[bank].add(row)
                attack_activations += 1
            if plain_disturbance:
                c = counters[bank]
                victims = neighbors_get(row)
                if victims is None:
                    victims = neighbors(row)
                c.pop(row, None)
                for victim in victims:
                    before = c.get(victim, 0.0)
                    count = before + 1.0
                    c[victim] = count
                    whole = int(count)
                    if whole > max_disturbance:
                        max_disturbance = whole
                    if before < flip_threshold <= count:
                        bank_flips[bank].append(
                            FlipEvent(bank=bank, row=victim, count=whole, time_ns=t)
                        )
            else:
                do_activation(bank, row)
            if has_deciders:
                actions = deciders[bank].on_activation(row, current_interval)
                if actions:
                    enqueue(bank, actions)
            activation_index += 1
            i += 1
            if first_trigger is None and mitigation_triggers > 0:
                first_trigger = activation_index
                if stop_after_first_trigger:
                    break
            if max_activations is not None and activation_index >= max_activations:
                break
        else:
            continue
        break  # the lane stopped early
    if profiler is not None:
        profiler.add("engine:replay", time.perf_counter() - replay_started)

    with section_of(profiler, "engine:drain"):
        if not (stop_after_first_trigger and first_trigger):
            advance_to(meta.total_intervals - 1)
        if pending:
            apply_pending()
    if tele is not None:
        tele.finish(activation_index, attack_activations)

    flips: List[FlipEvent] = []
    for events in bank_flips:
        flips.extend(events)
    result = SimResult(
        technique=deciders[0].name if deciders else "none",
        seed=plan.seed,
        flip_threshold=flip_threshold,
    )
    result.normal_activations = activation_index
    result.attack_activations = attack_activations
    result.extra_activations = extra_activations
    result.fp_extra_activations = fp_extra_activations
    result.mitigation_triggers = mitigation_triggers
    result.flips = flips
    result.max_disturbance = max_disturbance
    result.intervals_simulated = current_interval + 1
    result.first_trigger_activation = first_trigger
    result.max_rh_buffer_occupancy = max_occupancy
    if deciders:
        result.table_bytes = deciders[0].table_bytes
    result.wall_seconds = time.perf_counter() - started
    return result, segment_count


# ---------------------------------------------------------------------------
# the shared device pass: one disturbance replay for every lane of a grid
# ---------------------------------------------------------------------------
#
# Positions.  A mitigation action is applied at a drain of the pending
# queue: before record *k*, or at refresh tick *j* before or after that
# tick's row refreshes, or after the last tick.  Each drain is logged
# as ``(kb, tb)``: the records and the tick refreshes performed before
# it.  A record *k* of interval *i* sits at ``(k, i + 1)`` after that
# position's drain, and tick *j* refreshes its rows between ``(r_j, j)``
# and ``(r_j, j + 1)``, where ``r_j`` counts the records before tick *j*.
#
# Epochs.  A row's *epoch* is the span between two restorations of it
# (its own activation, or a refresh tick of one of its slots).  It is
# named by the restoration that ends it, as an index into the merged
# stream of records and ticks: ``k + i + 1`` for record *k* of interval
# *i*, ``j + r_j`` for tick *j*, ``records + ticks`` for the end of the
# run.  The counts used by the resolution are record ranges: an epoch
# ``[s, e)`` gets one increment per activation of a neighbour among
# records ``s .. e - 1``.


#: geometries whose adjacency is symmetric: a row is disturbed exactly
#: by activations of its own ``neighbors(row)``, which lets the
#: resolution count its increments from its neighbours' activation runs
_SYMMETRIC_GEOMETRIES = (DRAMGeometry, RemappedGeometry)


class _Device:
    """What the device pass leaves for the lanes: the unmitigated
    outcome, the tick positions and the largest base epochs, plus the
    per-row activation index the resolution builds on demand."""

    __slots__ = (
        "segments", "policy", "neighbors_of", "threshold", "records",
        "attacks", "ticks", "tick_attacks", "flips", "flip_records", "top",
        "truncated", "starts", "activations", "slot_map",
    )

    def __init__(self, segments, policy, neighbors_of, threshold):
        self.segments = segments
        self.policy = policy
        self.neighbors_of = neighbors_of
        self.threshold = threshold
        self.records = 0
        self.attacks = 0
        #: ``ticks[j]`` is ``r_j``, the number of records before tick *j*
        self.ticks = array("q")
        #: the attack records among them
        self.tick_attacks = array("q")
        #: per bank: base flips in event order, and the record of each
        self.flips: List[List[FlipEvent]] = []
        self.flip_records: List[List[int]] = []
        #: ``(total, epoch, key)`` of the largest base epochs, descending
        self.top: List[Tuple[int, int, int]] = []
        #: whether smaller epochs than the last of :attr:`top` were dropped
        self.truncated = False
        #: the segments' first record indices, plus the record count
        self.starts = array("q")
        #: ``key -> (run start records, cumulative run lengths)`` of
        #: indexed rows
        self.activations: Dict[int, Tuple[array, array]] = {}
        #: refresh slots of indexed rows (non-sequential policies only)
        self.slot_map: Dict[int, List[int]] = {}

    def neighbors(self, row: int) -> Tuple[int, ...]:
        found = self.neighbors_of.get(row)
        if found is None:
            found = self.neighbors_of[row] = self.policy.geometry.neighbors(row)
        return found

    @property
    def max_disturbance(self) -> int:
        return self.top[0][0] if self.top else 0

    def result(self, plan: _Plan) -> SimResult:
        """The unmitigated cell's result."""
        result = SimResult(
            technique="none", seed=plan.seed, flip_threshold=self.threshold
        )
        result.normal_activations = self.records
        result.attack_activations = self.attacks
        result.flips = [flip for flips in self.flips for flip in flips]
        result.max_disturbance = self.max_disturbance
        result.intervals_simulated = len(self.ticks)
        return result

    def index(self, keys: set) -> None:
        """Index the activation runs of the rows *keys* (``bank *
        rows_per_bank + row``) in one scan over the segments."""
        rows_per_bank = self.policy.geometry.rows_per_bank
        starts = self.starts
        # typed arrays, not int lists: on a small bank every row may be
        # indexed, and the index then spans the whole trace
        found = {key: array("q") for key in keys}
        by_bank: List[Dict[int, array]] = [
            {} for _ in range(self.policy.geometry.num_banks)
        ]
        for key, runs in found.items():
            by_bank[key // rows_per_bank][key % rows_per_bank] = runs
        for segment, (_times, bank, row, _attack, _interval) in enumerate(
            self.segments
        ):
            runs = by_bank[bank].get(row)
            if runs is not None:
                runs.append(segment)
        # per row: run start records and cumulative run lengths (lists
        # built at C level, then packed)
        get = starts.__getitem__
        self.activations = {}
        while found:
            key, runs = found.popitem()
            first = list(map(get, runs))
            lengths = map(sub, map(get, map((1).__add__, runs)), first)
            self.activations[key] = (
                array("q", first),
                array("q", list(accumulate(lengths, initial=0))),
            )
        policy = self.policy
        if type(policy) is not SequentialRefresh:
            # invert the refresh order for the indexed rows only; a row
            # may have no slot or several
            rows = {key % rows_per_bank for key in keys}
            slot_map: Dict[int, List[int]] = {}
            for slot in range(policy.geometry.refint):
                for row in policy.rows_for_interval(slot):
                    if row in rows:
                        slot_map.setdefault(row, []).append(slot)
            self.slot_map = slot_map

    # -- queries on the index ------------------------------------------

    def _segment_of(self, record: int) -> int:
        return bisect_right(self.starts, record) - 1

    def interval_of(self, record: int) -> int:
        return self.segments[self._segment_of(record)][4]

    def time_of(self, record: int) -> int:
        segment = self._segment_of(record)
        return self.segments[segment][0][record - self.starts[segment]]

    def row_of(self, record: int) -> int:
        return self.segments[self._segment_of(record)][2]

    def activations_before(self, key: int, record: int) -> int:
        """Activations of row *key* among records ``0 .. record - 1``."""
        starts, prefix = self.activations[key]
        run = bisect_left(starts, record)
        if not run:
            return 0
        run -= 1
        return prefix[run] + min(prefix[run + 1] - prefix[run], record - starts[run])

    def increments(self, keys: Sequence[int], lo: int, hi: int) -> int:
        """Base increments of a row whose neighbours are *keys* among
        records ``lo .. hi - 1``."""
        if hi <= lo:
            return 0
        before = self.activations_before
        return sum(before(key, hi) - before(key, lo) for key in keys)

    def nth_increment(self, keys: Sequence[int], lo: int, count: int) -> int:
        """The record holding the *count*-th base increment from *lo*."""
        high = self.records - 1
        low = lo
        while low < high:
            middle = (low + high) // 2
            if self.increments(keys, lo, middle + 1) >= count:
                high = middle
            else:
                low = middle + 1
        return low

    def epoch(self, key: int, kb: int, tb: int) -> Tuple[int, int, int, int, int]:
        """The base epoch of row *key* holding position ``(kb, tb)``.

        Returns ``(s, e, epoch, end_record, end_tick)``: the record range
        ``[s, e)`` counted into it, its name, and the restoration ending
        it -- a record (``end_tick`` = -1), a tick (``end_record`` = -1)
        or the end of the run (both -1).
        """
        geometry = self.policy.geometry
        refint = geometry.refint
        ticks = self.ticks
        row = key % geometry.rows_per_bank
        starts, prefix = self.activations[key]
        run = bisect_left(starts, kb)
        start = 0
        following = -1
        if run:
            stop = starts[run - 1] + prefix[run] - prefix[run - 1]
            if stop > kb:  # position inside one of the row's own runs
                start, following = kb, kb
            else:
                start = stop
        if following < 0 and run < len(starts):
            following = starts[run]
        if type(self.policy) is SequentialRefresh:
            slots: Sequence[int] = (row // geometry.rows_per_interval,)
        else:
            slots = self.slot_map.get(row, ())
        previous = -1
        upcoming = len(ticks)
        for slot in slots:
            if tb > slot:
                previous = max(previous, tb - 1 - (tb - 1 - slot) % refint)
            upcoming = min(upcoming, tb + (slot - tb) % refint)
        if previous >= 0:
            start = max(start, ticks[previous])
        if following >= 0 and (
            upcoming >= len(ticks) or following < ticks[upcoming]
        ):
            return (
                start, following,
                following + self.interval_of(following) + 1, following, -1,
            )
        if upcoming < len(ticks):
            end = ticks[upcoming]
            return start, end, upcoming + end, -1, upcoming
        return start, self.records, self.records + len(ticks), -1, -1


def _device_pass(
    segments: List[Segment],
    policy: RefreshPolicy,
    meta: TraceMeta,
    caches: Tuple[Dict, Dict, Dict],
    threshold: int,
    tele,
    keep: int,
    exclude: Optional[set] = None,
) -> _Device:
    """Replay the unmitigated disturbance model once over *segments*.

    Mirrors the inline lane with no deciders (whole ``+n`` steps only),
    and also records each tick's record position, each flip's record
    and the *keep* largest epoch totals.  An epoch ``(key, epoch)`` in
    *exclude* is left out of that list.
    """
    geometry = policy.geometry
    rows_per_bank = geometry.rows_per_bank
    refint = geometry.refint
    rows_per_interval = geometry.rows_per_interval
    sequential = type(policy) is SequentialRefresh
    interval_ns = meta.interval_ns
    neighbors_of, _second, refresh_rows_of = caches
    device = _Device(segments, policy, neighbors_of, threshold)
    ticks = device.ticks
    tick_attacks = device.tick_attacks
    counters: List[Dict[int, int]] = [{} for _ in range(geometry.num_banks)]
    device.flips = bank_flips = [[] for _ in counters]
    device.flip_records = flip_records = [[] for _ in counters]
    heap: List[Tuple[int, int, int]] = []
    floor = 0  # epochs must beat this to enter the heap
    truncated = False
    records = 0
    attacks = 0
    current_interval = -1

    def close(total: int, epoch: int, key: int) -> None:
        """An epoch ended with *total* > ``floor``: keep the largest."""
        nonlocal floor, truncated
        if exclude is not None and (key, epoch) in exclude:
            return
        if truncated:
            heapreplace(heap, (total, epoch, key))
        else:
            heappush(heap, (total, epoch, key))
            if len(heap) < keep:
                return
            truncated = True
        floor = heap[0][0]

    def tick() -> None:
        nonlocal current_interval
        current_interval += 1
        ticks.append(records)
        tick_attacks.append(attacks)
        slot = current_interval % refint
        rows = refresh_rows_of.get(slot)
        if rows is None:
            rows = refresh_rows_of[slot] = list(policy.rows_for_interval(slot))
        epoch = current_interval + records
        for bank, c in enumerate(counters):
            if c:
                base = bank * rows_per_bank
                for row in rows:
                    total = c.pop(row, None)
                    if total is not None and total > floor:
                        close(total, epoch, base + row)
        if tele is not None:
            tele.on_interval(
                current_interval, current_interval * interval_ns,
                records, attacks, [],
            )

    def advance_to(target: int) -> None:
        """The inline lane's ``advance_to`` with no deciders."""
        nonlocal current_interval
        if target - current_interval <= _SKIP_THRESHOLD:
            while current_interval < target:
                tick()
            return
        first = current_interval + 1
        for _ in range(first, target + 1):
            ticks.append(records)
            tick_attacks.append(attacks)
        whole = target - current_interval >= refint
        lo = first % refint
        hi = target % refint
        wrapped = lo > hi
        for bank, c in enumerate(counters):
            base = bank * rows_per_bank
            doomed = []
            for row, total in c.items():
                slot = (
                    row // rows_per_interval
                    if sequential
                    else policy.refresh_slot_of(row)
                )
                if whole or (
                    (slot >= lo or slot <= hi) if wrapped else lo <= slot <= hi
                ):
                    doomed.append(row)
                    if total > floor:
                        # refreshed at the span's first tick of its slot
                        tick_index = first + (slot - first) % refint
                        close(total, tick_index + records, base + row)
            for row in doomed:
                del c[row]
        current_interval = target
        if tele is not None:
            tele.on_interval_skip(first, target, target * interval_ns)

    neighbors_get = neighbors_of.get
    for times, bank, row, is_attack, interval in segments:
        if interval > current_interval:
            advance_to(interval)
        c = counters[bank]
        total = c.pop(row, None)
        if total is not None and total > floor:
            close(total, records + interval + 1, bank * rows_per_bank + row)
        n = len(times)
        victims = neighbors_get(row)
        if victims is None:
            victims = neighbors_of[row] = geometry.neighbors(row)
        for victim in victims:
            before = c.get(victim, 0)
            count = c[victim] = before + n
            if before < threshold <= count:
                # counts move in whole +1 steps: the crossing act is
                # computable; flips stay in record order (several
                # victims may cross inside one run)
                crossing = threshold - before - 1
                record = records + crossing
                held = flip_records[bank]
                at = len(held)
                while at and held[at - 1] > record:
                    at -= 1
                held.insert(at, record)
                bank_flips[bank].insert(at, FlipEvent(
                    bank=bank, row=victim, count=threshold,
                    time_ns=times[crossing],
                ))
        records += n
        if is_attack:
            attacks += n
    advance_to(meta.total_intervals - 1)
    end = records + len(ticks)
    for bank, c in enumerate(counters):
        base = bank * rows_per_bank
        for row, total in c.items():
            if total > floor:
                close(total, end, base + row)
    if tele is not None:
        tele.finish(records, attacks)
    device.records = records
    device.attacks = attacks
    device.starts = array("q", accumulate(
        map(len, map(itemgetter(0), segments)), initial=0
    ))
    device.top = sorted(heap, reverse=True)
    device.truncated = truncated
    return device


def _bank_runs(
    segments: List[Segment], starts: array, ticks: array, num_banks: int
) -> List[_BankRuns]:
    """Split the segment list into per-bank run columns, once per grid.

    *starts* are the segments' first records, *ticks* the records
    before each refresh tick.
    """
    if num_banks == 1:
        members: List[Optional[List[int]]] = [None]
    else:
        bank_of = list(map(itemgetter(1), segments))
        order = sorted(range(len(segments)), key=bank_of.__getitem__)
        members = []
        for bank in range(num_banks):
            members.append(order[:bank_of.count(bank)])
            del order[:len(members[-1])]
    banks = []
    for indices in members:
        runs = _BankRuns()
        runs.lookups = None
        if indices is None:
            picked: Sequence[Segment] = segments
            runs.starts = starts
        else:
            picked = list(map(segments.__getitem__, indices))
            runs.starts = _column(map(starts.__getitem__, indices))
        count = len(picked)
        runs.rows = _column(map(itemgetter(2), picked))
        runs.ends = _column(accumulate(
            map(len, map(itemgetter(0), picked)), initial=0
        ))
        runs.chunks = {}
        lo = 0
        for interval in range(len(ticks)):
            hi = bisect_left(
                runs.starts, ticks[interval + 1], lo, count
            ) if interval + 1 < len(ticks) else count
            if hi > lo:
                runs.chunks[interval] = (lo, hi)
            lo = hi
        attack = list(compress(range(count), map(itemgetter(3), picked)))
        attack.reverse()  # so that a row's first attack run is kept
        runs.attacks = dict(zip(
            map(runs.rows.__getitem__, attack),
            map(runs.starts.__getitem__, attack),
        ))
        banks.append(runs)
    return banks


#: the steps of a lane's schedule: a refresh tick the lane runs, a span
#: of ticks it skips, an interval's chunk of runs
_TICK, _SKIP, _CHUNK = range(3)


def _schedule(active: List[int], last: int, trivial: bool, refint: int) -> List[Tuple]:
    """The inline lane's refresh ticks and chunks, in order.

    *active* lists the intervals with records, *last* is the final
    tick.  Steps are ``(_TICK, j)``, ``(_SKIP, first, target,
    boundary)`` -- the span is skipped in one step, as the inline
    lane's ``advance_to`` does when every decider's refresh is
    decision-free (*trivial*); *boundary* says a window boundary lies
    inside it -- and ``(_CHUNK, interval)``.
    """
    steps: List[Tuple] = []
    current = -1
    for target, chunk in [(interval, True) for interval in active] + [(last, False)]:
        if not trivial or target - current <= _SKIP_THRESHOLD:
            while current < target:
                current += 1
                steps.append((_TICK, current))
        else:
            first = current + 1
            boundary = target - current >= refint or (
                first % refint > target % refint or first % refint == 0
            )
            steps.append((_SKIP, first, target, boundary))
            current = target
        if chunk:
            steps.append((_CHUNK, target))
    return steps


def _decide(
    plan: _Plan,
    policy: RefreshPolicy,
    banks: List[_BankRuns],
    device: "_Device",
    meta: TraceMeta,
    tele,
) -> Tuple[SimResult, List[Tuple[int, int, int, int, Tuple[int, ...]]]]:
    """Run one lane's deciders bank by bank and log its actions.

    Deciders never read device state, and a bank's decider sees only
    that bank's records and the refresh ticks, so a lane decides one
    bank at a time: each tick with ``on_refresh`` (a skipped span with
    ``clear_window``), each interval's runs with one ``decide_chunk``
    call.  The actions are then merged in the order the inline lane
    (:func:`_replay`) applies them, without applying them: each is
    counted and logged at its drain position as ``(kb, tb, time_ns,
    bank, rows)``, *rows* being the rows it activates.  A record's
    actions drain before the next record, or at the next tick if that
    comes first; a tick's actions right after that tick's refreshes.
    The result's ``flips`` and ``max_disturbance`` are left for
    :func:`_resolve`.
    """
    started = time.perf_counter()
    config = plan.config
    geometry = policy.geometry
    deciders = [
        _make_decider(plan.factory(
            config, bank, derive_seed(plan.seed, "mitigation", bank)
        ))
        for bank in range(geometry.num_banks)
    ]
    if tele is not None:
        for decider in deciders:
            decider.attach_telemetry(tele)
    ticks = device.ticks
    records = device.records
    steps = _schedule(
        sorted(set().union(*(runs.chunks for runs in banks))),
        meta.total_intervals - 1,
        all(decider.trivial_refresh for decider in deciders),
        geometry.refint,
    )
    occupancy: List[List] = [[] for _ in ticks] if tele is not None else []
    #: ``(kb, tb, bank, queued at tick, time_ns, was_attack, action)``
    queued: List[Tuple] = []
    for bank, (decider, runs) in enumerate(zip(deciders, banks)):
        attacks = runs.attacks
        for step in steps:
            kind = step[0]
            if kind == _CHUNK:
                interval = step[1]
                chunk = runs.chunks.get(interval)
                if chunk is None:
                    continue
                following = (
                    ticks[interval + 1] if interval + 1 < len(ticks) else records
                )
                for record, actions in decider.decide_chunk(
                    runs, chunk[0], chunk[1], interval
                ):
                    k = runs.record(record)
                    time_ns = device.time_of(k + 1 if k + 1 < following else k)
                    for action in actions:
                        queued.append((
                            k + 1, interval + 1, bank, interval + 1, time_ns,
                            attacks.get(action.trigger_row, records) <= k, action,
                        ))
            elif kind == _TICK:
                tick = step[1]
                actions = decider.on_refresh(tick)
                if actions:
                    kb = ticks[tick]
                    time_ns = device.time_of(kb - 1) if kb else 0
                    for action in actions:
                        queued.append((
                            kb, tick + 1, bank, tick, time_ns,
                            attacks.get(action.trigger_row, records) < kb, action,
                        ))
                if tele is not None:
                    occupancy[tick].append(decider.table_occupancy)
            elif step[3]:
                decider.clear_window()
    # drains in position order; a tick's drain takes the banks in order
    queued.sort(key=itemgetter(0, 1, 2))

    neighbors = device.neighbors
    log: List[Tuple[int, int, int, int, Tuple[int, ...]]] = []
    extra_activations = 0
    fp_extra_activations = 0
    max_occupancy = 0
    drained = 0
    position = None
    for kb, tb, bank, _tick, time_ns, was_attack, action in queued:
        if isinstance(action, ActivateNeighbors):
            activated: Tuple[int, ...] = neighbors(action.row)
        elif isinstance(action, RefreshRow):
            activated = (action.row,)
        elif isinstance(action, RecoveryRefresh):
            activated = tuple(
                row for aggressor in action.rows for row in neighbors(aggressor)
            )
        else:  # pragma: no cover - future action kinds
            raise TypeError(f"unknown mitigation action {action!r}")
        extra_activations += len(activated)
        if not was_attack:
            fp_extra_activations += len(activated)
        log.append((kb, tb, time_ns, bank, activated))
        # the pending queue's depth: the actions of one drain
        drained = drained + 1 if (kb, tb) == position else 1
        position = (kb, tb)
        max_occupancy = max(max_occupancy, drained)
    if tele is not None:
        # the inline lane's calls: a tick's rollover counts the triggers
        # queued since the previous rollover, and the queue order is
        # also the order of the ticks they were queued at
        at = 0
        for step in steps + [(_TICK, None)]:
            if step[0] != _TICK:
                if step[0] == _SKIP:
                    tele.on_interval_skip(
                        step[1], step[2], step[2] * meta.interval_ns
                    )
                continue
            tick = step[1]
            while at < len(queued) and (tick is None or queued[at][3] <= tick):
                _kb, tb, bank, _tick, _time, was_attack, action = queued[at]
                tele.on_trigger(bank, action.row, tb - 1, type(action).__name__)
                tele.on_apply(
                    bank, action.row, tb - 1, len(log[at][4]), not was_attack
                )
                at += 1
            if tick is not None:
                tele.on_interval(
                    tick, tick * meta.interval_ns, ticks[tick],
                    device.tick_attacks[tick], occupancy[tick],
                )
        tele.finish(records, device.attacks)

    result = SimResult(
        technique=deciders[0].name, seed=plan.seed,
        flip_threshold=config.flip_threshold,
    )
    result.normal_activations = records
    result.attack_activations = device.attacks
    result.extra_activations = extra_activations
    result.fp_extra_activations = fp_extra_activations
    result.mitigation_triggers = len(queued)
    result.intervals_simulated = len(ticks)
    if queued and queued[0][0] < records:
        # the inline lane notes the first trigger after the next record
        result.first_trigger_activation = queued[0][0] + 1
    result.max_rh_buffer_occupancy = max_occupancy
    result.table_bytes = deciders[0].table_bytes
    result.wall_seconds = time.perf_counter() - started
    return result, log


def _lane_ops(log, device: _Device) -> Dict[int, List[Tuple]]:
    """Expand a lane's action log into per-row device operations.

    Returns ``key -> [(kb, tb, time_ns, sequence, restores)]`` in
    application order: each extra activation restores its row
    (``restores``) and then bumps each neighbour, as ``do_activation``.
    """
    rows_per_bank = device.policy.geometry.rows_per_bank
    neighbors = device.neighbors
    ops: Dict[int, List[Tuple]] = {}
    sequence = 0
    for kb, tb, time_ns, bank, activated in log:
        base = bank * rows_per_bank
        for row in activated:
            ops.setdefault(base + row, []).append(
                (kb, tb, time_ns, sequence, True)
            )
            sequence += 1
            for victim in neighbors(row):
                ops.setdefault(base + victim, []).append(
                    (kb, tb, time_ns, sequence, False)
                )
                sequence += 1
    return ops


def _resolve(
    result: SimResult, ops: Dict[int, List[Tuple]], device: _Device
) -> Optional[set]:
    """Fill a decided lane's ``flips`` and ``max_disturbance``.

    Recomputes only the base epochs the lane's operations fall in;
    every other epoch, and its flips, are the device pass's.  Returns
    the touched epochs when the device pass kept too few epochs to
    name the best untouched one (``max_disturbance`` is then left
    for the caller), else ``None``.
    """
    geometry = device.policy.geometry
    rows_per_bank = geometry.rows_per_bank
    neighbors = device.neighbors
    threshold = device.threshold
    touched = set()
    spans: Dict[int, List[Tuple[int, int]]] = {}
    found: Dict[int, List[Tuple[Tuple, FlipEvent]]] = {}
    peak = 0

    for key, row_ops in ops.items():
        bank, row = divmod(key, rows_per_bank)
        sources = [bank * rows_per_bank + u for u in neighbors(row)]

        def crossed(lo: int, count: int) -> None:
            # the base increment from *lo* that reaches the threshold
            record = device.nth_increment(sources, lo, threshold - count)
            source = device.row_of(record)
            found.setdefault(bank, []).append((
                (record, device.interval_of(record) + 1, 1,
                 neighbors(source).index(row)),
                FlipEvent(bank=bank, row=row, count=threshold,
                          time_ns=device.time_of(record)),
            ))

        at = 0
        while at < len(row_ops):
            start, end, epoch, end_record, end_tick = device.epoch(
                key, row_ops[at][0], row_ops[at][1]
            )
            touched.add((key, epoch))
            spans.setdefault(key, []).append((start, end))
            count = 0
            cursor = start
            while at < len(row_ops):
                kb, tb, time_ns, sequence, restores = row_ops[at]
                if (end_record >= 0 and kb > end_record) or (
                    end_tick >= 0 and tb > end_tick
                ):
                    break  # past the restoration ending this epoch
                added = device.increments(sources, cursor, kb)
                if added:
                    if count < threshold <= count + added:
                        crossed(cursor, count)
                    count += added
                cursor = kb
                if restores:
                    peak = max(peak, count)
                    count = 0
                else:
                    count += 1
                    if count == threshold:
                        found.setdefault(bank, []).append((
                            (kb, tb, 0, sequence),
                            FlipEvent(bank=bank, row=row, count=threshold,
                                      time_ns=time_ns),
                        ))
                at += 1
            added = device.increments(sources, cursor, end)
            if count < threshold <= count + added:
                crossed(cursor, count)
            peak = max(peak, count + added)

    flips: List[FlipEvent] = []
    for bank, (base, records) in enumerate(
        zip(device.flips, device.flip_records)
    ):
        kept = [
            (record, flip)
            for record, flip in zip(records, base)
            if not any(
                start <= record < end
                for start, end in spans.get(bank * rows_per_bank + flip.row, ())
            )
        ]
        new = found.get(bank)
        if not new:
            flips.extend(flip for _, flip in kept)
            continue
        for record, flip in kept:
            source = device.row_of(record)
            new.append((
                (record, device.interval_of(record) + 1, 1,
                 neighbors(source).index(flip.row)),
                flip,
            ))
        new.sort(key=lambda item: item[0])
        flips.extend(flip for _, flip in new)
    result.flips = flips

    for total, epoch, key in device.top:
        if (key, epoch) not in touched:
            result.max_disturbance = max(total, peak)
            return None
    result.max_disturbance = peak
    return touched if device.truncated else None


def _shared_lanes(
    plans: List[_Plan],
    computed: List[int],
    policy: RefreshPolicy,
    stop_after_first_trigger: bool,
    max_activations: Optional[int],
    tracer,
) -> List[int]:
    """The computed cells that share one device pass (empty = none do).

    Runs that may stop early, traced runs, float (distance-2)
    disturbance and asymmetric adjacency replay inline; so do lanes
    whose flip threshold differs from the first sharing lane's.  A
    lone mitigated lane has nothing to share and replays inline too.
    """
    if (
        stop_after_first_trigger
        or max_activations is not None
        or (tracer is not None and getattr(tracer, "enabled", True))
        or type(policy.geometry) not in _SYMMETRIC_GEOMETRIES
    ):
        return []
    lanes = [
        index for index in computed
        if plans[index].config.distance2_rate == 0.0
    ]
    if not lanes:
        return []
    threshold = plans[lanes[0]].config.flip_threshold
    lanes = [
        index for index in lanes
        if plans[index].config.flip_threshold == threshold
    ]
    if len(lanes) == 1 and plans[lanes[0]].factory is not None:
        return []
    return lanes


def _run_shared(
    plans: List[_Plan],
    lanes: List[int],
    policy: RefreshPolicy,
    segments: List[Segment],
    meta: TraceMeta,
    caches: Tuple[Dict, Dict, Dict],
    metrics,
) -> Dict[int, SimResult]:
    """One device pass, decider-only lanes, then per-lane resolution.

    Returns the result of every cell in *lanes*.  The unmitigated cell
    (or, without one, the first lane) is charged the device pass and
    the index scan; every other lane its own decisions and resolution.
    """
    started = time.perf_counter()
    baseline = next(
        (index for index in lanes if plans[index].factory is None), None
    )
    device = _device_pass(
        segments, policy, meta, caches,
        plans[lanes[0]].config.flip_threshold,
        EngineTelemetry.create(None, metrics) if baseline is not None else None,
        _TOP_EPOCHS,
    )
    results: Dict[int, SimResult] = {}
    if baseline is not None:
        results[baseline] = device.result(plans[baseline])
    shared_seconds = time.perf_counter() - started

    # keep each lane's compact log, not its expanded operations: only
    # the rows they touch are needed before every lane has decided
    logs: Dict[int, list] = {}
    keys = set()
    rows_per_bank = policy.geometry.rows_per_bank
    decided = [index for index in lanes if plans[index].factory is not None]
    started = time.perf_counter()
    banks = _bank_runs(
        segments, device.starts, device.ticks, policy.geometry.num_banks
    ) if decided else []
    shared_seconds += time.perf_counter() - started
    for index in decided:
        result, logs[index] = _decide(
            plans[index], policy, banks, device, meta,
            EngineTelemetry.create(None, metrics),
        )
        results[index] = result
        started = time.perf_counter()
        for key in _lane_ops(logs[index], device):
            keys.add(key)
            bank, row = divmod(key, rows_per_bank)
            keys.update(bank * rows_per_bank + u for u in device.neighbors(row))
        result.wall_seconds += time.perf_counter() - started
    del banks

    started = time.perf_counter()
    if keys:
        device.index(keys)
    shared_seconds += time.perf_counter() - started

    for index, log in logs.items():
        started = time.perf_counter()
        result = results[index]
        touched = _resolve(result, _lane_ops(log, device), device)
        if touched is not None:
            # every kept epoch was touched: recount the best untouched one
            recount = _device_pass(
                segments, policy, meta, caches, device.threshold, None, 1,
                exclude=touched,
            )
            result.max_disturbance = max(
                result.max_disturbance, recount.max_disturbance
            )
        result.wall_seconds += time.perf_counter() - started
    charged = baseline if baseline is not None else lanes[0]
    results[charged].wall_seconds += shared_seconds
    return results


# ---------------------------------------------------------------------------
# entry points
# ---------------------------------------------------------------------------


def _refresh_policy(
    config: SimConfig,
    plans: List[_Plan],
    refresh_policy: Optional[RefreshPolicy],
    tracer,
) -> RefreshPolicy:
    """Validate a call's plans; return the refresh policy every lane follows."""
    geometry = config.geometry
    policy = (
        refresh_policy if refresh_policy is not None
        else SequentialRefresh(geometry)
    )
    if policy.geometry is not geometry:
        raise ValueError("refresh policy geometry differs from device geometry")
    if tracer is not None and getattr(tracer, "enabled", True) and len(plans) > 1:
        raise ValueError(
            "a tracer records one event stream; attach it to a single-cell "
            "run (use metrics for fused multi-cell aggregation)"
        )
    for plan in plans:
        if plan.config.geometry != geometry:
            raise ValueError(
                "fused cells must share the base geometry "
                f"(cell technique={plan.factory and getattr(plan.factory, 'technique_name', '?')})"
            )
        if plan.config.timing != config.timing:
            raise ValueError("fused cells must share the base timing")
    return policy


def _count_work(
    metrics, requested: int, computed: int, segments: int, records: int
) -> None:
    if metrics is not None:
        metrics.counter("fused.cells_requested").add(requested)
        metrics.counter("fused.cells_computed").add(computed)
        metrics.counter("fused.cells_deduped").add(requested - computed)
        metrics.counter("fused.segments").add(segments)
        metrics.counter("fused.records").add(records)


def run_simulation_grid(
    config: SimConfig,
    trace: Trace,
    cells: Sequence[GridCell],
    refresh_policy: Optional[RefreshPolicy] = None,
    stop_after_first_trigger: bool = False,
    max_activations: Optional[int] = None,
    tracer=None,
    metrics=None,
    profiler=None,
) -> List[SimResult]:
    """Evaluate every grid *cell* in a single decode of *trace*.

    Returns one :class:`SimResult` per cell, in cell order, each
    bit-identical (except ``wall_seconds``) to a solo
    :func:`repro.sim.engine.run_simulation` of that cell.  A computed
    cell's ``wall_seconds`` is its own lane's time (decisions plus
    resolution under a shared device pass; the pass itself is charged
    to the unmitigated cell, or else the first sharing lane) and a
    deduplicated replica's is 0.0, so the cells never sum to more than
    the call.  See the module docstring for when cells share the pass.
    The whole trace is decoded exactly once, even for an empty grid, so
    lazy traces are safe; the *seed* axis only re-seeds the mitigations
    -- callers whose traces vary per seed must issue one grid call per
    trace.
    """
    plans = [_plan_cell(cell, config) for cell in cells]
    policy = _refresh_policy(config, plans, refresh_policy, tracer)
    with section_of(profiler, "engine:decode"):
        segments = list(_segments(trace))
    owners: Dict[Tuple, int] = {}
    for index, plan in enumerate(plans):
        if plan.key is not None:
            owners.setdefault(plan.key, index)
    _count_work(
        metrics, len(plans),
        sum(1 for plan in plans if plan.key is None) + len(owners),
        len(segments), sum(len(segment[0]) for segment in segments),
    )

    caches: Tuple[Dict, Dict, Dict] = ({}, {}, {})
    computed = [
        index for index, plan in enumerate(plans)
        if plan.key is None or owners[plan.key] == index
    ]
    lanes = _shared_lanes(
        plans, computed, policy, stop_after_first_trigger, max_activations,
        tracer,
    )
    solved: Dict[int, SimResult] = {}
    if lanes:
        with section_of(profiler, "engine:replay"):
            solved = _run_shared(
                plans, lanes, policy, segments, trace.meta, caches, metrics
            )
    results: List[SimResult] = []
    for index, plan in enumerate(plans):
        owner = owners[plan.key] if plan.key is not None else index
        if owner != index:
            # deduplicated replica: same simulation outcome, the cell's
            # own seed, a private flips list, and no time of its own
            base = results[owner]
            results.append(replace(
                base, seed=plan.seed, flips=list(base.flips), wall_seconds=0.0
            ))
            continue
        if index in solved:
            results.append(solved[index])
            continue
        tele = EngineTelemetry.create(
            tracer if len(plans) == 1 else None, metrics
        )
        result, _ = _replay(
            plan, policy, segments, trace.meta, caches,
            stop_after_first_trigger, max_activations, tele, profiler,
        )
        results.append(result)
    return results


def run_simulation_fused(
    config: SimConfig,
    trace: Trace,
    mitigation_factory: Optional[MitigationFactory],
    seed: int = 0,
    refresh_policy: Optional[RefreshPolicy] = None,
    stop_after_first_trigger: bool = False,
    max_activations: Optional[int] = None,
    tracer=None,
    metrics=None,
    profiler=None,
) -> SimResult:
    """Single-cell run -- the ``--engine fused`` (and ``fast``) entry point.

    Drop-in compatible with :func:`repro.sim.engine.run_simulation`.
    The lane reads its segments straight from the trace, so an early
    stop (``stop_after_first_trigger``, ``max_activations``) stops
    decoding too, and only the live segment is held in memory.  The
    ``fused.records`` counter counts the records replayed (the whole
    trace unless the run stops early).  Accepts arbitrary mitigation
    factories (unknown
    techniques replay per-record through the real ``Mitigation``
    object).  The telemetry event stream legitimately differs from the
    reference engine's (batched rollovers, rng-block events); only the
    ``SimResult`` is pinned identical.
    """
    plan = _Plan(mitigation_factory, seed, config, None)
    policy = _refresh_policy(config, [plan], refresh_policy, tracer)
    tele = EngineTelemetry.create(tracer, metrics)
    result, segments = _replay(
        plan, policy, _segments(trace), trace.meta,
        ({}, {}, {}), stop_after_first_trigger, max_activations, tele,
        profiler,
    )
    _count_work(metrics, 1, 1, segments, result.normal_activations)
    return result
