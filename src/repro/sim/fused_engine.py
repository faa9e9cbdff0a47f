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

* **Segments** -- :func:`_intervals` turns the record stream, in one
  pass, into maximal runs of identical records that never cross a
  refresh-interval boundary, grouped by interval.  A grid builds the
  segment list once (segmentation is cell-independent); a single cell
  reads straight from the generator, holding one interval at a time,
  so an early stop stops decoding.  ``max_activations`` cuts the
  record stream.
* **Decisions apart from the device** -- the paper's mitigations only
  observe the ``act``/``ref`` command stream and never read
  disturbance state, so a :class:`_Lane` decides first, bank by bank:
  ``on_refresh`` per tick and one ``decide_chunk`` call per interval.
  It merges the banks' actions into the order the reference
  controller applies them, each logged at its drain position.
  Draw-driven deciders jump between the few draws below their
  probability *ceiling* (see :mod:`repro.sim.deciders`).
* **The device pass** -- :func:`_device_pass` replays the disturbance
  model over the segments in whole ``+n`` steps, recovering a
  threshold crossing inside a run arithmetically, and skips spans of
  record-free intervals in one step when the lane's refreshes are
  decision-free.  Without a lane it is the unmitigated cell.
* **The own pass** -- a single cell, or a grid cell that does not
  share, runs the device pass with its lane an interval at a time:
  the lane decides the interval, then its segments replay and each
  logged drain restores its rows and disturbs their neighbours at its
  position.
* **One device pass per grid** -- a grid with two or more computed
  lanes runs the unmitigated device pass once, keeping every tick's and
  flip's record position and the largest epoch totals (an *epoch* is
  the span between two restorations of a row), and decides each lane's
  whole schedule against it.  :func:`_resolve` then recomputes only the
  base epochs a lane's actions fall in, counting base increments from
  an index of just the rows involved; every other epoch, and its
  flips, are the device pass's.  If a lane touches every epoch the
  pass kept (:data:`_TOP_EPOCHS`), a second pass recounts the best
  untouched one.

  Cells take their own pass instead when the call stops at a lane's
  first drain (``stop_after_first_trigger``), carries an enabled
  tracer, or its adjacency is not the symmetric kind of the built-in
  geometries; so do lanes whose flip threshold differs from the first
  lane's, and a lone mitigated lane.  The unmitigated cell -- or,
  without one, the first sharing lane -- is charged the device pass's
  ``wall_seconds``.  Cells with ``distance2_rate > 0`` (float
  increments) run on the reference engine over records rebuilt from
  the segments.
* **Bulk RNG draws** -- the probabilistic deciders pre-draw their
  ``random()`` values in blocks (the *k*-th draw is the same value
  eagerly or batched); PARA's interleaved ``randrange`` rewinds the
  generator first, keeping the stream bit-exact.
* **Cell dedup** -- mitigation classes declare ``consumes_rng`` /
  ``consumes_pbase`` traits.  TWiCe and CRA consume neither, so their
  seed x pbase plane collapses to one computed cell; PARA, ProHit and
  MRLoc ignore ``pbase``, collapsing that axis.  Results are replicated
  to the requested cells with the ``seed`` field fixed up.

Per-cell RNG streams derive from ``derive_seed(seed, "mitigation",
bank)`` exactly like the reference, and the deciders draw them a block
at a time with numpy, bit-identical to as many scalar ``random()``
calls (:func:`repro.sim.deciders._random_block`).
"""

from __future__ import annotations

from array import array
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, replace
from heapq import heappush, heapreplace
from itertools import accumulate, chain, compress, islice
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
from repro.sim.engine import check_max_activations, run_simulation, span_attributes
from repro.sim.metrics import SimResult
from repro.telemetry.hooks import EngineTelemetry
from repro.telemetry.spans import SpanTracer
from repro.traces.record import Trace, TraceMeta, TraceRecord

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

    @property
    def attributes(self) -> Dict[str, Any]:
        """The attributes of this cell's lane spans."""
        return span_attributes(self.factory, self.seed, self.config)


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


def _intervals(trace: Trace, limit: Optional[int] = None) -> Iterator[List[Segment]]:
    """Yield the trace's maximal runs of identical records, an interval
    at a time, in one pass.

    A run ends where the bank, row or attack flag changes or a record
    reaches the next refresh-interval boundary.  Each run carries its
    own timestamp list, so a consumer that drops an interval once
    replayed holds one interval at a time, never the trace.  An
    interval is yielded once the first record of the next one has been
    read.  *limit* cuts the record stream after that many records.
    """
    interval_ns = trace.meta.interval_ns
    records = iter(trace) if limit is None else islice(trace, limit)
    group: List[Segment] = []
    times: List[int] = []
    boundary = 0  # first timestamp past the current interval
    bank = row = attack = interval = None
    for time_ns, b, r, a in records:
        if time_ns >= boundary or r != row or b != bank or a != attack:
            if times:
                group.append((times, bank, row, attack, interval))
            times = [time_ns]
            bank, row, attack = b, r, a
            if time_ns >= boundary:
                if group:
                    yield group
                    group = []
                interval = time_ns // interval_ns
                boundary = (interval + 1) * interval_ns
        else:
            times.append(time_ns)
    if times:
        group.append((times, bank, row, attack, interval))
        yield group


def _segments(trace: Trace, limit: Optional[int] = None) -> Iterator[Segment]:
    """The segments of :func:`_intervals`, one after another."""
    return chain.from_iterable(_intervals(trace, limit))


# ---------------------------------------------------------------------------
# the lane: one mitigated cell's decisions
# ---------------------------------------------------------------------------
#
# Positions.  A mitigation action is applied at a drain of the pending
# queue: before record *k*, or at refresh tick *j* before or after that
# tick's row refreshes, or after the last tick.  Each drain is logged
# as ``(kb, tb)``: the records and the tick refreshes performed before
# it.  A record *k* of interval *i* sits at ``(k, i + 1)`` after that
# position's drain, and tick *j* refreshes its rows between ``(r_j, j)``
# and ``(r_j, j + 1)``, where ``r_j`` counts the records before tick *j*.
# A record's actions drain at ``(k + 1, i + 1)``: before the next
# record, or at the next tick if that comes first; a tick's right after
# that tick's refreshes, at ``(r_j, j + 1)``.

#: the steps of a lane's schedule: a refresh tick the lane runs, a span
#: of ticks it skips, an interval's chunk of runs
_TICK, _SKIP, _CHUNK = range(3)


def _advance(current: int, target: int, trivial: bool, refint: int) -> List[Tuple]:
    """The steps from tick *current* to tick *target*.

    Each tick is a step ``(_TICK, j)``, unless every decider's refresh
    is decision-free (*trivial*) and the span is long: it is then one
    step ``(_SKIP, first, target, boundary)``, *boundary* saying a
    window boundary lies inside it.  The device pass ticks and skips
    the same way.
    """
    if not trivial or target - current <= _SKIP_THRESHOLD:
        return [(_TICK, tick) for tick in range(current + 1, target + 1)]
    first = current + 1
    boundary = target - current >= refint or (
        first % refint > target % refint or first % refint == 0
    )
    return [(_SKIP, first, target, boundary)]


def _bank_runs(
    segments: Sequence[Segment],
    starts: Sequence[int],
    bounds: Iterable[Tuple[int, int]],
    banks: List[_BankRuns],
    column=_column,
) -> List[_BankRuns]:
    """Fill *banks* with the per-bank run columns of *segments*.

    *starts* are the segments' first records; *bounds* pairs each
    interval, in order, with the first record after it.  The segments'
    attack runs are added to each bank's ``attacks``.  *column* builds
    a column: typed arrays for a whole trace, lists for one interval.
    """
    bank_of = list(map(itemgetter(1), segments))
    # None: every segment is the bank's
    members: List[Optional[List[int]]] = [[] for _ in banks]
    if bank_of.count(bank_of[0] if bank_of else 0) == len(bank_of):
        members[bank_of[0] if bank_of else 0] = None
    else:
        order = sorted(range(len(segments)), key=bank_of.__getitem__)
        for bank in range(len(banks)):
            members[bank] = order[:bank_of.count(bank)]
            del order[:len(members[bank])]
    bounds = list(bounds)
    for indices, runs in zip(members, banks):
        runs.lookups = None
        if indices == []:
            runs.rows = runs.starts = column(())
            runs.ends = column((0,))
            runs.chunks = {}
            continue
        if indices is None:
            picked: Sequence[Segment] = segments
            runs.starts = starts
        else:
            picked = list(map(segments.__getitem__, indices))
            runs.starts = column(map(starts.__getitem__, indices))
        count = len(picked)
        runs.rows = column(map(itemgetter(2), picked))
        runs.ends = column(accumulate(
            map(len, map(itemgetter(0), picked)), initial=0
        ))
        runs.chunks = {}
        lo = 0
        for interval, bound in bounds:
            hi = bisect_left(runs.starts, bound, lo, count)
            if hi > lo:
                runs.chunks[interval] = (lo, hi)
            lo = hi
        attack = list(compress(range(count), map(itemgetter(3), picked)))
        attack.reverse()  # so that a row's first attack run is kept
        fresh = dict(zip(
            map(runs.rows.__getitem__, attack),
            map(runs.starts.__getitem__, attack),
        ))
        held = runs.attacks
        for row in fresh.keys() - held.keys():
            held[row] = fresh[row]
    return banks


class _Lane:
    """One mitigated cell's deciders, and the count of the actions they
    drain.

    Deciders never read device state, and a bank's decider sees only
    that bank's records and the refresh ticks, so :meth:`decide` runs a
    stretch of the schedule one bank at a time: each tick with
    ``on_refresh`` (a skipped span with ``clear_window``), each
    interval's runs with one ``decide_chunk`` call.  :meth:`merge` puts
    the banks' actions in the order the reference controller applies
    them and counts them.  The grid decides a lane's whole schedule in
    one call; the own pass one interval at a time, the deciders'
    state carrying over.
    """

    __slots__ = (
        "deciders", "trivial", "tele", "occupancy", "extra", "fp_extra",
        "triggers", "max_occupancy", "first",
    )

    def __init__(self, plan: _Plan, geometry: DRAMGeometry, tele):
        self.deciders = [
            _make_decider(plan.factory(
                plan.config, bank, derive_seed(plan.seed, "mitigation", bank)
            ))
            for bank in range(geometry.num_banks)
        ]
        if tele is not None:
            for decider in self.deciders:
                decider.attach_telemetry(tele)
        self.trivial = all(decider.trivial_refresh for decider in self.deciders)
        self.tele = tele
        #: the deciders' table occupancies at each tick, for telemetry
        self.occupancy: Dict[int, List] = {}
        self.extra = 0
        self.fp_extra = 0
        self.triggers = 0
        self.max_occupancy = 0
        #: the record position of the first drain, once there is one
        self.first: Optional[int] = None

    def decide(
        self,
        banks: List[_BankRuns],
        steps: List[Tuple],
        ticks: Sequence[int],
        end: int,
        time_of,
    ) -> List[Tuple]:
        """Decide *steps* bank by bank; return the actions in drain order.

        *banks* hold the steps' runs, *ticks* the records before each
        of their ticks, *end* the records up to the end of the last
        chunk, and ``time_of(k)`` is record *k*'s timestamp.  Each
        action is queued as ``(kb, tb, bank, queued at tick, time_ns,
        was_attack, action)``, ``time_ns`` being the controller's time
        at its drain: the next record's, or the last record's at a
        tick.
        """
        tele = self.tele
        queued: List[Tuple] = []
        for bank, (decider, runs) in enumerate(zip(self.deciders, banks)):
            attacks = runs.attacks
            for step in steps:
                kind = step[0]
                if kind == _CHUNK:
                    interval = step[1]
                    chunk = runs.chunks.get(interval)
                    if chunk is None:
                        continue
                    following = (
                        ticks[interval + 1] if interval + 1 < len(ticks) else end
                    )
                    for record, actions in decider.decide_chunk(
                        runs, chunk[0], chunk[1], interval
                    ):
                        k = runs.record(record)
                        time_ns = time_of(k + 1 if k + 1 < following else k)
                        for action in actions:
                            queued.append((
                                k + 1, interval + 1, bank, interval + 1, time_ns,
                                attacks.get(action.trigger_row, end) <= k, action,
                            ))
                elif kind == _TICK:
                    tick = step[1]
                    actions = decider.on_refresh(tick)
                    if actions:
                        kb = ticks[tick]
                        time_ns = time_of(kb - 1) if kb else 0
                        for action in actions:
                            queued.append((
                                kb, tick + 1, bank, tick, time_ns,
                                attacks.get(action.trigger_row, end) < kb, action,
                            ))
                    if tele is not None:
                        self.occupancy.setdefault(tick, []).append(
                            decider.table_occupancy
                        )
                elif step[3]:
                    decider.clear_window()
        # drains in position order; a tick's drain takes the banks in order
        queued.sort(key=itemgetter(0, 1, 2))
        return queued

    def merge(self, queued: List[Tuple], neighbors) -> List[Tuple]:
        """Count *queued* (from :meth:`decide`) as applied and log it.

        Returns one ``(kb, tb, time_ns, bank, rows, action,
        was_attack)`` per action, *rows* being the rows it activates.
        """
        log: List[Tuple] = []
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
            self.extra += len(activated)
            if not was_attack:
                self.fp_extra += len(activated)
            log.append((kb, tb, time_ns, bank, activated, action, was_attack))
            # the pending queue's depth: the actions of one drain
            drained = drained + 1 if (kb, tb) == position else 1
            position = (kb, tb)
            self.max_occupancy = max(self.max_occupancy, drained)
        if queued and self.first is None:
            self.first = queued[0][0]
        self.triggers += len(queued)
        return log

    def count(self, result: SimResult) -> None:
        """Fill *result*'s technique and mitigation counts."""
        deciders = self.deciders
        result.technique = deciders[0].name
        result.extra_activations = self.extra
        result.fp_extra_activations = self.fp_extra
        result.mitigation_triggers = self.triggers
        if self.first is not None and self.first < result.normal_activations:
            # the reference notes the first trigger after the next record
            result.first_trigger_activation = self.first + 1
        result.max_rh_buffer_occupancy = self.max_occupancy
        result.table_bytes = deciders[0].table_bytes


def _split(
    group: List[Segment], starts: Sequence[int], points: List[int], limit: int
) -> List[Segment]:
    """*group*'s segments cut before each record of *points*
    (ascending, below *limit*), keeping the records before *limit*."""
    pieces = group[:bisect_left(starts, limit)]
    last = len(pieces) - 1
    if limit - starts[last] < len(pieces[last][0]):
        pieces[last] = (pieces[last][0][:limit - starts[last]],) + pieces[last][1:]
    for point in reversed(points):
        # the later pieces of a segment are cut first, so its first
        # piece still starts at the segment's start
        index = bisect_right(starts, point) - 1
        offset = point - starts[index]
        if offset:
            times, *rest = pieces[index]
            pieces[index:index + 1] = [
                (times[:offset], *rest), (times[offset:], *rest)
            ]
    return pieces


# ---------------------------------------------------------------------------
# the device pass: the disturbance replay, shared by a grid or a cell's own
# ---------------------------------------------------------------------------
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
    """What a device pass leaves: the cell's outcome, the tick
    positions and the largest epochs, plus -- for a shared pass -- the
    segments and the per-row activation index the resolution builds
    on demand."""

    __slots__ = (
        "segments", "policy", "neighbors_of", "threshold", "records",
        "attacks", "ticks", "tick_attacks", "flips", "flip_records", "top",
        "truncated", "starts", "activations", "slot_map",
    )

    def __init__(self, policy, neighbors_of, threshold):
        self.segments: List[Segment] = []
        self.policy = policy
        self.neighbors_of = neighbors_of
        self.threshold = threshold
        self.records = 0
        self.attacks = 0
        #: ``ticks[j]`` is ``r_j``, the number of records before tick *j*
        self.ticks = array("q")
        #: the attack records among them
        self.tick_attacks = array("q")
        #: per bank: flips in event order, and the record of each
        self.flips: List[List[FlipEvent]] = []
        self.flip_records: List[List[int]] = []
        #: ``(total, epoch, key)`` of the largest epochs, descending
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

    def result(self, plan: _Plan, lane: Optional[_Lane] = None) -> SimResult:
        """The cell's result: the unmitigated one, or with *lane*'s
        drained actions counted.  A shared lane's ``flips`` and
        ``max_disturbance`` are the base ones until :func:`_resolve`."""
        result = SimResult(
            technique="none", seed=plan.seed, flip_threshold=self.threshold
        )
        result.normal_activations = self.records
        result.attack_activations = self.attacks
        result.flips = [flip for flips in self.flips for flip in flips]
        result.max_disturbance = self.max_disturbance
        result.intervals_simulated = len(self.ticks)
        if lane is not None:
            lane.count(result)
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
    intervals: Iterable[List[Segment]],
    policy: RefreshPolicy,
    meta: TraceMeta,
    caches: Tuple[Dict, Dict],
    threshold: int,
    tele,
    keep: int,
    exclude: Optional[set] = None,
    lane: Optional[_Lane] = None,
    stop: bool = False,
) -> _Device:
    """Replay the disturbance model once over *intervals* (segment
    groups, as :func:`_intervals` yields them).

    Without a *lane* this is the unmitigated model, in whole ``+n``
    steps per segment; it also records each tick's record position,
    each flip's record and the *keep* largest epoch totals.  An epoch
    ``(key, epoch)`` in *exclude* is left out of that list.

    With a *lane* it is that cell's own pass.  Before an interval
    replays, the lane decides its runs and the ticks before it; each
    logged drain then restores its rows and disturbs their neighbours
    at its position, so segments are cut at the drains inside them.
    *stop* ends the run at the lane's first drain the way the
    reference's ``stop_after_first_trigger`` does: the record after it
    replays, its actions drain, and no further tick runs.
    """
    geometry = policy.geometry
    num_banks = geometry.num_banks
    rows_per_bank = geometry.rows_per_bank
    refint = geometry.refint
    rows_per_interval = geometry.rows_per_interval
    sequential = type(policy) is SequentialRefresh
    interval_ns = meta.interval_ns
    neighbors_of, refresh_rows_of = caches
    device = _Device(policy, neighbors_of, threshold)
    neighbors = device.neighbors
    ticks = device.ticks
    tick_attacks = device.tick_attacks
    counters: List[Dict[int, int]] = [{} for _ in range(num_banks)]
    device.flips = bank_flips = [[] for _ in counters]
    device.flip_records = flip_records = [[] for _ in counters]
    heap: List[Tuple[int, int, int]] = []
    floor = 0  # epochs must beat this to enter the heap
    truncated = False
    records = 0
    attacks = 0
    current_interval = -1
    skippable = lane is None or lane.trivial
    #: the lane's logged drains, position order, from the next one to
    #: apply (``at``); ``next_kb`` is its record position (-1: none)
    drains: List[Tuple] = []
    at = 0
    next_kb = -1
    stopped = False

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

    def drain(kb: int, tb: int) -> None:
        """Apply the logged drains up to position ``(kb, tb)``: each
        activated row is restored and disturbs its neighbours."""
        nonlocal at, next_kb
        while at < len(drains):
            entry = drains[at]
            if entry[0] > kb or (entry[0] == kb and entry[1] > tb):
                break
            position, tick, time_ns, bank, activated, action, was_attack = entry
            c = counters[bank]
            base = bank * rows_per_bank
            for row in activated:
                total = c.pop(row, None)
                if total is not None and total > floor:
                    close(total, position + tick, base + row)
                for victim in neighbors(row):
                    count = c[victim] = c.get(victim, 0) + 1
                    if count == threshold:
                        flip_records[bank].append(position)
                        bank_flips[bank].append(FlipEvent(
                            bank=bank, row=victim, count=threshold, time_ns=time_ns,
                        ))
            if tele is not None:
                if time_ns > tele.now:
                    tele.now = time_ns
                tele.on_trigger(bank, action.row, tick - 1, type(action).__name__)
                tele.on_apply(
                    bank, action.row, tick - 1, len(activated), not was_attack
                )
            at += 1
        next_kb = drains[at][0] if at < len(drains) else -1

    def tick() -> None:
        nonlocal current_interval
        current_interval += 1
        if next_kb == records:
            drain(records, current_interval)
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
        if next_kb == records:
            drain(records, current_interval + 1)
        if tele is not None:
            tele.on_interval(
                current_interval, current_interval * interval_ns,
                records, attacks,
                lane.occupancy.pop(current_interval, ()) if lane is not None else (),
            )

    def advance_to(target: int) -> None:
        """Tick up to interval *target*; a span of record-free
        intervals is skipped in one step (when the lane's refreshes are
        decision-free): its ticks reduce to popping the counters whose
        refresh slot the span covers."""
        nonlocal current_interval
        if not skippable or target - current_interval <= _SKIP_THRESHOLD:
            while current_interval < target:
                tick()
            return
        first = current_interval + 1
        if next_kb == records:
            drain(records, first)
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

    def decided(groups: Iterable[List[Segment]]) -> Iterator[List[Segment]]:
        """*groups* as the lane decides them, an interval at a time,
        cut at the drains inside segments (and, with *stop*, after the
        record following the first drain)."""
        nonlocal stopped
        positions: List[int] = []  # records before each decided tick
        banks = [_BankRuns() for _ in range(num_banks)]
        last_time = 0  # the last replayed record's timestamp

        def install(queued: List[Tuple]) -> None:
            nonlocal drains, at, next_kb
            drains = drains[at:] + lane.merge(queued, neighbors)
            at = 0
            next_kb = drains[0][0] if drains else -1

        for group in groups:
            interval = group[0][4]
            start = records
            starts = list(accumulate(
                map(len, map(itemgetter(0), group)), initial=start
            ))
            end = starts[-1]

            def time_of(k: int) -> int:
                if k < start:
                    return last_time
                segment = bisect_right(starts, k) - 1
                return group[segment][0][k - starts[segment]]

            steps = _advance(len(positions) - 1, interval, lane.trivial, refint)
            steps.append((_CHUNK, interval))
            positions += [start] * (interval + 1 - len(positions))
            queued = lane.decide(
                _bank_runs(group, starts, ((interval, end),), banks, list),
                steps, positions, end, time_of,
            )
            limit = end
            if stop:
                first = lane.first
                if first is None:
                    first = queued[0][0] if queued else end
                if first < end:
                    # the record at the first drain replays; its actions
                    # drain at the end, at that record's time
                    limit = first + 1
                    queued = [
                        entry if entry[0] < limit
                        else entry[:4] + (time_of(first),) + entry[5:]
                        for entry in queued if entry[0] <= limit
                    ]
                    stopped = True
            install(queued)
            points = sorted({
                entry[0] for entry in drains if start < entry[0] < limit
            })
            if points or limit < end:
                group = _split(group, starts, points, limit)
            yield group
            last_time = group[-1][0][-1]
            if stopped:
                return
        steps = _advance(
            len(positions) - 1, meta.total_intervals - 1, lane.trivial, refint
        )
        positions += [records] * (meta.total_intervals - len(positions))
        install(lane.decide(
            _bank_runs([], [records], (), banks, list),
            steps, positions, records, lambda k: last_time,
        ))

    if lane is not None:
        intervals = decided(intervals)
    neighbors_get = neighbors_of.get
    for group in intervals:
        interval = group[0][4]
        if interval > current_interval:
            advance_to(interval)
        for times, bank, row, is_attack, interval in group:
            if next_kb == records:
                drain(records, interval + 1)
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
                    # counts move in whole +1 steps: the crossing act
                    # is computable; flips stay in record order
                    # (several victims may cross inside one run)
                    crossing = threshold - before - 1
                    record = records + crossing
                    held = flip_records[bank]
                    place = len(held)
                    while place and held[place - 1] > record:
                        place -= 1
                    held.insert(place, record)
                    bank_flips[bank].insert(place, FlipEvent(
                        bank=bank, row=victim, count=threshold,
                        time_ns=times[crossing],
                    ))
            records += n
            if is_attack:
                attacks += n
    if not stopped:
        advance_to(meta.total_intervals - 1)
    # the drain the reference's ``controller.finish()`` applies
    drain(records, current_interval + 1)
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
    device.top = sorted(heap, reverse=True)
    device.truncated = truncated
    return device


# ---------------------------------------------------------------------------
# the shared pass: one device pass, decider-only lanes, per-lane resolution
# ---------------------------------------------------------------------------


def _decide(
    plan: _Plan,
    policy: RefreshPolicy,
    banks: List[_BankRuns],
    device: _Device,
    meta: TraceMeta,
    tele,
) -> Tuple[SimResult, List[Tuple]]:
    """Run one sharing lane's whole schedule and log its actions.

    The actions are counted and logged at their drain positions (see
    :meth:`_Lane.merge`) without being applied; the result's ``flips``
    and ``max_disturbance`` are left for :func:`_resolve`.
    """
    refint = policy.geometry.refint
    lane = _Lane(plan, policy.geometry, tele)
    # the ticks up to each interval with records, and its chunk
    steps: List[Tuple] = []
    current = -1
    for interval in sorted(set().union(*(runs.chunks for runs in banks))):
        steps += _advance(current, interval, lane.trivial, refint)
        steps.append((_CHUNK, interval))
        current = interval
    steps += _advance(current, meta.total_intervals - 1, lane.trivial, refint)
    queued = lane.decide(banks, steps, device.ticks, device.records, device.time_of)
    log = lane.merge(queued, device.neighbors)
    if tele is not None:
        # the own pass's calls: a tick's rollover counts the triggers
        # queued since the previous rollover, and the queue order is
        # also the order of the ticks they were queued at
        ticks = device.ticks
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
                    device.tick_attacks[tick], lane.occupancy.pop(tick, ()),
                )
        tele.finish(device.records, device.attacks)
    return device.result(plan, lane), log


def _lane_ops(log, device: _Device) -> Dict[int, List[Tuple]]:
    """Expand a lane's action log into per-row device operations.

    Returns ``key -> [(kb, tb, time_ns, sequence, restores)]`` in
    application order: each extra activation restores its row
    (``restores``) and then bumps each neighbour.
    """
    rows_per_bank = device.policy.geometry.rows_per_bank
    neighbors = device.neighbors
    ops: Dict[int, List[Tuple]] = {}
    sequence = 0
    for kb, tb, time_ns, bank, activated, _action, _attack in log:
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
    tracer,
) -> List[int]:
    """The computed cells that share one device pass (empty = none do).

    Runs that stop at a lane's first drain, traced runs and asymmetric
    adjacency take one own pass per cell; so do lanes whose flip
    threshold differs from the first sharing lane's, and a lone
    mitigated lane, which has nothing to share.  ``distance2_rate > 0``
    cells run on the reference engine.
    """
    if (
        stop_after_first_trigger
        or (tracer is not None and getattr(tracer, "enabled", True))
        or type(policy.geometry) not in _SYMMETRIC_GEOMETRIES
    ):
        return []
    lanes = [
        index for index in computed
        if plans[index].config.distance2_rate == 0.0
    ]
    if lanes:
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
    intervals: List[List[Segment]],
    segments: List[Segment],
    meta: TraceMeta,
    caches: Tuple[Dict, Dict],
    metrics,
    spans: SpanTracer,
) -> Dict[int, SimResult]:
    """One device pass, decider-only lanes, then per-lane resolution.

    Returns the result of every cell in *lanes*, each timed by its
    spans: the unmitigated cell (or, without one, the first lane) is
    charged the ``device`` pass and the ``index`` scan; every other
    lane its own ``decide`` and ``resolve`` spans.
    """
    baseline = next(
        (index for index in lanes if plans[index].factory is None), None
    )
    charged = baseline if baseline is not None else lanes[0]
    geometry = policy.geometry
    decided = [index for index in lanes if plans[index].factory is not None]
    results: Dict[int, SimResult] = {}
    with spans.span("device", **plans[charged].attributes) as shared:
        device = _device_pass(
            intervals, policy, meta, caches,
            plans[lanes[0]].config.flip_threshold,
            EngineTelemetry.create(None, metrics) if baseline is not None else None,
            _TOP_EPOCHS,
        )
        device.segments = segments
        device.starts = array("q", accumulate(
            map(len, map(itemgetter(0), segments)), initial=0
        ))
        if baseline is not None:
            results[baseline] = device.result(plans[baseline])
        ticks = device.ticks
        banks = _bank_runs(
            segments, device.starts,
            zip(range(len(ticks)), chain(islice(ticks, 1, None), (device.records,))),
            [_BankRuns() for _ in range(geometry.num_banks)],
        ) if decided else []
    shared_seconds = shared.wall_seconds

    # keep each lane's compact log, not its expanded operations: only
    # the rows they touch are needed before every lane has decided
    logs: Dict[int, list] = {}
    keys = set()
    rows_per_bank = geometry.rows_per_bank
    for index in decided:
        with spans.span("decide", **plans[index].attributes) as span:
            result, logs[index] = _decide(
                plans[index], policy, banks, device, meta,
                EngineTelemetry.create(None, metrics),
            )
            for key in _lane_ops(logs[index], device):
                keys.add(key)
                bank, row = divmod(key, rows_per_bank)
                keys.update(bank * rows_per_bank + u for u in device.neighbors(row))
        result.wall_seconds = span.wall_seconds
        results[index] = result
    del banks

    if keys:
        with spans.span("index", **plans[charged].attributes) as span:
            device.index(keys)
        shared_seconds += span.wall_seconds

    for index, log in logs.items():
        result = results[index]
        with spans.span("resolve", **plans[index].attributes) as span:
            touched = _resolve(result, _lane_ops(log, device), device)
            if touched is not None:
                # every kept epoch was touched: recount the best untouched one
                recount = _device_pass(
                    intervals, policy, meta, caches, device.threshold, None, 1,
                    exclude=touched,
                )
                result.max_disturbance = max(
                    result.max_disturbance, recount.max_disturbance
                )
        result.wall_seconds += span.wall_seconds
    results[charged].wall_seconds += shared_seconds
    return results


def _run_cell(
    plan: _Plan,
    policy: RefreshPolicy,
    intervals: Iterable[List[Segment]],
    meta: TraceMeta,
    caches: Tuple[Dict, Dict],
    stop_after_first_trigger: bool,
    tracer,
    metrics,
    spans: SpanTracer,
) -> SimResult:
    """One computed cell on its own, timed by its ``device`` span: its
    own pass, or -- for float (``distance2_rate > 0``) disturbance --
    the reference engine, which is the specification, over the records
    rebuilt from *intervals*."""
    with spans.span("device", **plan.attributes) as span:
        if plan.config.distance2_rate > 0.0:
            records = (
                TraceRecord(time_ns, bank, row, attack)
                for group in intervals
                for times, bank, row, attack, _interval in group
                for time_ns in times
            )
            result = run_simulation(
                plan.config, Trace(meta, records), plan.factory, seed=plan.seed,
                refresh_policy=policy,
                stop_after_first_trigger=stop_after_first_trigger,
                tracer=tracer, metrics=metrics, spans=spans,
            )
        else:
            tele = EngineTelemetry.create(tracer, metrics)
            lane = (
                _Lane(plan, policy.geometry, tele)
                if plan.factory is not None else None
            )
            device = _device_pass(
                intervals, policy, meta, caches, plan.config.flip_threshold,
                tele, 1, lane=lane, stop=stop_after_first_trigger,
            )
            result = device.result(plan, lane)
    result.wall_seconds = span.wall_seconds
    return result


# ---------------------------------------------------------------------------
# entry points
# ---------------------------------------------------------------------------


def _refresh_policy(
    config: SimConfig,
    plans: List[_Plan],
    refresh_policy: Optional[RefreshPolicy],
    tracer,
    max_activations: Optional[int],
) -> RefreshPolicy:
    """Validate a call; return the refresh policy every lane follows."""
    check_max_activations(max_activations)
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
    spans: Optional[SpanTracer] = None,
) -> List[SimResult]:
    """Evaluate every grid *cell* in a single decode of *trace*.

    Returns one :class:`SimResult` per cell, in cell order, each
    bit-identical (except ``wall_seconds``) to a solo
    :func:`repro.sim.engine.run_simulation` of that cell.  The call
    records its ``decode`` span and every lane's spans (``device``,
    ``decide``, ``index``, ``resolve``, each carrying the cell's
    ``technique``, ``seed`` and ``pbase``) into *spans*, a private
    tracer when ``None``.  A computed cell's ``wall_seconds`` is the
    sum of its lane spans (decisions plus resolution under a shared
    device pass; the pass itself is charged to the unmitigated cell,
    or else the first sharing lane) and a deduplicated replica's is
    0.0, so the cells never sum to more than the call.  See the module
    docstring for when cells share the pass.  The trace is decoded exactly once -- up to *max_activations*
    records, else whole, even for an empty grid -- so lazy traces are
    safe; the *seed* axis only re-seeds the mitigations -- callers
    whose traces vary per seed must issue one grid call per trace.
    """
    plans = [_plan_cell(cell, config) for cell in cells]
    policy = _refresh_policy(config, plans, refresh_policy, tracer, max_activations)
    if spans is None or not spans.enabled:
        spans = SpanTracer()
    with spans.span("decode"):
        intervals = list(_intervals(trace, max_activations))
        segments = list(chain.from_iterable(intervals))
    owners: Dict[Tuple, int] = {}
    for index, plan in enumerate(plans):
        if plan.key is not None:
            owners.setdefault(plan.key, index)
    _count_work(
        metrics, len(plans),
        sum(1 for plan in plans if plan.key is None) + len(owners),
        len(segments), sum(len(segment[0]) for segment in segments),
    )

    caches: Tuple[Dict, Dict] = ({}, {})
    computed = [
        index for index, plan in enumerate(plans)
        if plan.key is None or owners[plan.key] == index
    ]
    lanes = _shared_lanes(
        plans, computed, policy, stop_after_first_trigger, tracer
    )
    solved: Dict[int, SimResult] = {}
    if lanes:
        solved = _run_shared(
            plans, lanes, policy, intervals, segments, trace.meta,
            caches, metrics, spans,
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
        results.append(_run_cell(
            plan, policy, intervals, trace.meta, caches,
            stop_after_first_trigger, tracer if len(plans) == 1 else None,
            metrics, spans,
        ))
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
    spans: Optional[SpanTracer] = None,
) -> SimResult:
    """Single-cell run -- the ``--engine fused`` (and ``fast``) entry point.

    Drop-in compatible with :func:`repro.sim.engine.run_simulation`.
    The cell's own pass reads the trace an interval at a time, so only
    the live interval is held in memory, and an early stop
    (``stop_after_first_trigger``, ``max_activations``) stops decoding
    too.  The ``fused.records`` counter counts the records replayed
    (the whole trace unless the run stops early).  Accepts arbitrary
    mitigation factories (unknown techniques decide through the real
    ``Mitigation`` object).  The run is one ``device`` span in *spans*
    (a private tracer when ``None``), which is its ``wall_seconds``.
    The telemetry event stream legitimately
    differs from the reference engine's (batched rollovers, rng-block
    events); only the ``SimResult`` is pinned identical.
    """
    plan = _Plan(mitigation_factory, seed, config, None)
    policy = _refresh_policy(config, [plan], refresh_policy, tracer, max_activations)
    intervals = _intervals(trace, max_activations)
    segments = 0
    if metrics is not None:
        def counted(groups):
            nonlocal segments
            for group in groups:
                segments += len(group)
                yield group

        intervals = counted(intervals)
    if spans is None or not spans.enabled:
        spans = SpanTracer()
    result = _run_cell(
        plan, policy, intervals, trace.meta, ({}, {}),
        stop_after_first_trigger, tracer, metrics, spans,
    )
    _count_work(metrics, 1, 1, segments, result.normal_activations)
    return result
