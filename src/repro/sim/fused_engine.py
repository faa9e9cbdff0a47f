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
* **Decider-only lanes with an action log** -- :func:`_decide` runs
  one computed cell's deciders, refresh ticks and pending queue and no
  disturbance counter.  Each applied action is logged with its
  position: the records and refresh ticks performed before the drain
  that applies it (before record *k*, or at tick *j* before or after
  that tick's row refreshes, or after the last tick).
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
bank)`` exactly like the reference.  numpy is optional: without it every
scan falls back to the scalar loop (identical results, reduced
throughput).
"""

from __future__ import annotations

import time
from array import array
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, replace
from heapq import heappush, heapreplace
from itertools import accumulate
from operator import itemgetter, sub
from typing import Any, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

try:  # numpy accelerates the long draw scans; the scalar fallback is exact
    import numpy as _np
except ImportError:  # pragma: no cover - the CI image ships numpy
    _np = None

from repro.config import DRAMGeometry, SimConfig
from repro.controller.controller import MitigationFactory
from repro.core.capromi import CaPRoMi
from repro.core.tivapromi import LiPRoMi, LoLiPRoMi, LoPRoMi, TiVaPRoMiBase
from repro.core.weights import linear_weight, log_weight, trigger_probability
from repro.dram.disturbance import FlipEvent
from repro.dram.refresh import RefreshPolicy, SequentialRefresh
from repro.dram.remap import RemappedGeometry
from repro.mitigations.base import (
    ActivateNeighbors,
    Mitigation,
    RecoveryRefresh,
    RefreshRow,
)
from repro.mitigations.cra import CRA
from repro.mitigations.mrloc import MRLoc
from repro.mitigations.para import PARA
from repro.mitigations.prohit import ProHit
from repro.mitigations.registry import (
    make_factory,
    resolve_technique,
    technique_class,
)
from repro.mitigations.twice import TWiCe, _Entry
from repro.rng import derive_seed
from repro.sim.metrics import SimResult
from repro.telemetry.hooks import EngineTelemetry
from repro.telemetry.profiler import section_of
from repro.traces.record import Trace, TraceMeta

#: block size of the pre-drawn ``random()`` buffers
_BLOCK = 4096
#: PARA's block: a trigger rewinds and replays the block's consumed
#: draws, so a modest block keeps that replay cheap
_PARA_BLOCK = 256
#: draw scans shorter than this stay scalar: numpy's ~2.5 us per-call
#: cost outweighs the vectorised compare on short runs.  Measured on a
#: 2-core x86-64 VM (CPython 3.11, numpy 2.4) for a full scan with no
#: hit, scalar vs numpy: 1.1 vs 2.5 us at 32 draws, 2.3 vs 2.3 us at
#: 64, 6.2 vs 2.5 us at 128
_SCAN_MIN = 64
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
# deciders: the per-bank mitigation state a lane drives
# ---------------------------------------------------------------------------


class _GenericDecider:
    """Adapter driving a real :class:`Mitigation` object.

    Used for techniques without a specialised decider (any user-supplied
    factory): decisions are made by the reference implementation itself,
    so equivalence is by construction; records replay one at a time.
    """

    __slots__ = ("mitigation", "trivial_refresh")

    def __init__(self, mitigation: Mitigation):
        self.mitigation = mitigation
        # a mitigation that inherits the base no-op on_refresh has no
        # refresh-time state at all, so empty intervals can be skipped
        self.trivial_refresh = (
            type(mitigation).on_refresh is Mitigation.on_refresh
        )

    def attach_telemetry(self, telemetry) -> None:
        # the wrapped reference mitigation owns the technique hooks
        self.mitigation.telemetry = telemetry

    @property
    def name(self) -> str:
        return self.mitigation.name

    @property
    def table_bytes(self) -> int:
        return self.mitigation.table_bytes

    @property
    def table_occupancy(self):
        return getattr(self.mitigation, "table_occupancy", None)

    def on_activation(self, row: int, interval: int):
        return self.mitigation.on_activation(row, interval)

    def on_refresh(self, interval: int):
        return self.mitigation.on_refresh(interval)

    def clear_window(self) -> None:
        # only reachable when trivial_refresh, i.e. on_refresh is the
        # stateless base no-op: nothing to clear
        pass


class _RunMethodDecider(_GenericDecider):
    """Run-batching adapter for techniques exposing ``observe_run``.

    A technique that can consume a run of identical activations in one
    step (the modern counter families) implements
    ``observe_run(row, interval, count) -> (clean, actions)`` with the
    same contract as ``decide_run``; this adapter simply forwards,
    keeping the batching arithmetic inside the technique module while
    decisions remain the reference object's own.
    """

    __slots__ = ()

    def decide_run(self, row: int, interval: int, count: int):
        return self.mitigation.observe_run(row, interval, count)


class _NumpyScanMixin:
    """Lazy numpy mirror of a pre-drawn ``random()`` block."""

    __slots__ = ()

    def _mirror(self):
        buf = self._buf
        if self._arr_src is not buf:
            self._arr = _np.asarray(buf)
            self._arr_src = buf
        return self._arr


class _TiVaPRoMiDecider(_NumpyScanMixin):
    """LiPRoMi / LoPRoMi / LoLiPRoMi.

    Mirrors :class:`TiVaPRoMiBase` exactly: one ``random()`` per
    activation (bulk-drawn), the FIFO history table as an
    insertion-ordered dict, and per-interval ``slot -> probability``
    vectors computed with :func:`trigger_probability`.
    """

    __slots__ = (
        "name", "mitigation", "weighting", "pbase", "capacity", "refint",
        "slot_fn", "_rand", "_buf", "_pos", "_arr", "_arr_src", "table",
        "_slots", "_slot_p", "_p_interval", "telemetry",
    )

    trivial_refresh = True

    def __init__(self, mitigation: TiVaPRoMiBase):
        self.mitigation = mitigation
        self.telemetry = None
        self.name = mitigation.name
        self.weighting = type(mitigation).weighting
        self.pbase = mitigation.pbase
        self.capacity = mitigation.history.capacity
        self.refint = mitigation.refint
        self.slot_fn = mitigation.refresh_slot_fn
        # block-buffered random(): the k-th Mersenne-Twister draw is the
        # same value whether taken eagerly or pre-drawn, and this
        # mitigation never interleaves other generator calls
        self._rand = mitigation._rng.random
        self._buf: List[float] = []
        self._pos = 0
        self._arr = None
        self._arr_src = None
        #: FIFO history-table mirror: dict preserves insertion order,
        #: in-place update keeps position, eviction removes the oldest
        self.table: Dict[int, int] = {}
        self._slots: Dict[int, int] = {}
        self._slot_p: Dict[int, float] = {}
        self._p_interval: Optional[int] = None

    def attach_telemetry(self, telemetry) -> None:
        self.telemetry = telemetry

    @property
    def table_bytes(self) -> int:
        return self.mitigation.table_bytes

    @property
    def table_occupancy(self) -> int:
        return len(self.table)

    def _refill(self) -> List[float]:
        rand = self._rand
        buf = self._buf = [rand() for _ in range(_BLOCK)]
        if self.telemetry is not None:
            self.telemetry.on_rng_block(self.mitigation.bank, _BLOCK)
        return buf

    def on_activation(self, row: int, interval: int):
        pos = self._pos
        buf = self._buf
        if pos >= len(buf):
            buf = self._refill()
            pos = 0
        draw = buf[pos]
        self._pos = pos + 1
        p = self._probability(row, interval)
        if draw >= p:
            return ()
        return self._record_trigger(row, interval)

    def _probability(self, row: int, interval: int) -> float:
        """Current trigger probability of *row* (no draw consumed).

        The weight of a row not in the history table depends only on
        its refresh slot, so those probabilities are cached as a
        per-interval ``slot -> p`` vector built lazily from
        :func:`trigger_probability`.  Table hits inline the same Eq. 1 /
        Eq. 2 arithmetic (both the stored and the current interval are
        window-relative by construction, so the reference's range
        validation cannot fire).
        """
        window_now = interval % self.refint
        stored = self.table.get(row)
        if stored is None:
            if interval != self._p_interval:
                self._p_interval = interval
                self._slot_p = {}
            slot = self._slots.get(row)
            if slot is None:
                slot = self._slots[row] = self.slot_fn(row)
            p = self._slot_p.get(slot)
            if p is None:
                p = self._slot_p[slot] = trigger_probability(
                    window_now, slot, self.refint, self.pbase,
                    self.weighting, in_table=False,
                )
            return p
        weight = window_now - stored
        if weight < 0:
            weight += self.refint
        if self.weighting == "log":
            weight = 1 << weight.bit_length()
        p = weight * self.pbase
        return p if p < 1.0 else 1.0

    def _weight_of(self, row: int, interval: int, hit: bool) -> int:
        """Effective (uncapped) weight, telemetry only -- never on the
        decision path, which uses the cached :meth:`_probability`."""
        window_now = interval % self.refint
        if hit:
            weight = window_now - self.table[row]
            if weight < 0:
                weight += self.refint
            # a history hit is weighted linearly except under pure 'log'
            return log_weight(weight) if self.weighting == "log" else weight
        slot = self._slots.get(row)
        if slot is None:
            slot = self._slots[row] = self.slot_fn(row)
        weight = linear_weight(window_now, slot, self.refint)
        # both 'log' and 'loli' quantise rows missing from the table
        return weight if self.weighting == "linear" else log_weight(weight)

    def _record_trigger(self, row: int, interval: int):
        table = self.table
        telemetry = self.telemetry
        if telemetry is not None:
            hit = row in table
            telemetry.on_trigger_weight(
                self.mitigation.bank, row, interval,
                self._weight_of(row, interval, hit), hit,
            )
        if row in table:
            table[row] = interval % self.refint
        else:
            if len(table) >= self.capacity:
                oldest = next(iter(table))
                del table[oldest]
                if telemetry is not None:
                    telemetry.on_history_evict(
                        self.mitigation.bank, oldest, interval
                    )
            table[row] = interval % self.refint
        return (ActivateNeighbors(row=row),)

    def decide_run(self, row: int, interval: int, count: int):
        """Decide *count* consecutive activations of *row* in one go.

        Returns ``(clean, actions)``: ``clean`` is the number of
        non-trigger decisions before the first trigger.  ``clean ==
        count`` means no trigger (exactly *count* draws consumed);
        otherwise ``clean + 1`` draws were consumed and *actions* is the
        trigger's action tuple.  Exact because the probability of a row
        is constant between triggers within one interval and the draws
        are a fixed pre-buffered sequence.
        """
        p = self._probability(row, interval)
        clean = 0
        pos = self._pos
        buf = self._buf
        while clean < count:
            if pos >= len(buf):
                buf = self._refill()
                pos = 0
            end = pos + (count - clean)
            if end > len(buf):
                end = len(buf)
            if p > 0.0:
                if _np is not None and end - pos >= _SCAN_MIN:
                    hits = _np.flatnonzero(self._mirror()[pos:end] < p)
                    hit = pos + int(hits[0]) if hits.size else end
                else:
                    hit = pos
                    while hit < end and buf[hit] >= p:
                        hit += 1
                if hit < end:
                    self._pos = hit + 1
                    return clean + hit - pos, self._record_trigger(row, interval)
            clean += end - pos
            pos = end
        self._pos = pos
        return count, ()

    def on_refresh(self, interval: int):
        if interval % self.refint == 0:
            self.table.clear()
        return ()

    def clear_window(self) -> None:
        self.table.clear()


class _PARADecider:
    """PARA: buffered draws, cached assumed adjacency.

    Implements the same rewind-on-interleave protocol as
    :class:`repro.rng.BufferedRandom` with the buffer inlined as plain
    fields: a trigger's ``randrange`` must consume the generator right
    after the draws handed out so far, so the generator is restored to
    the block's start state and the consumed draws are replayed.
    """

    __slots__ = (
        "name", "mitigation", "probability", "_rng", "_buf", "_pos",
        "_state", "geometry", "_neighbors", "telemetry",
    )

    trivial_refresh = True

    def __init__(self, mitigation: PARA):
        self.mitigation = mitigation
        self.telemetry = None
        self.name = mitigation.name
        self.probability = mitigation.probability
        self._rng = mitigation._rng
        self._buf: List[float] = []
        self._pos = 0
        self._state: object = None
        self.geometry = mitigation.config.geometry
        self._neighbors: Dict[int, Tuple[int, ...]] = {}

    def attach_telemetry(self, telemetry) -> None:
        self.telemetry = telemetry

    @property
    def table_bytes(self) -> int:
        return self.mitigation.table_bytes

    @property
    def table_occupancy(self):
        return None  # PARA is stateless

    def _refill(self) -> List[float]:
        rng = self._rng
        self._state = rng.getstate()
        rand = rng.random
        buf = self._buf = [rand() for _ in range(_PARA_BLOCK)]
        if self.telemetry is not None:
            self.telemetry.on_rng_block(self.mitigation.bank, _PARA_BLOCK)
        return buf

    def _trigger(self, row: int, consumed: int):
        """Rewind to the block start, replay *consumed* draws, then take
        the trigger's ``randrange`` exactly where the reference does."""
        rng = self._rng
        rng.setstate(self._state)
        for _ in range(consumed):
            rng.random()
        self._buf = []
        self._pos = 0
        neighbors = self._neighbors.get(row)
        if neighbors is None:
            neighbors = self._neighbors[row] = self.geometry.assumed_neighbors(row)
        victim = neighbors[rng.randrange(len(neighbors))]
        return (RefreshRow(row=victim, trigger_row=row),)

    def on_activation(self, row: int, interval: int):
        pos = self._pos
        buf = self._buf
        if pos >= len(buf):
            buf = self._refill()
            pos = 0
        draw = buf[pos]
        pos += 1
        self._pos = pos
        if draw >= self.probability:
            return ()
        return self._trigger(row, pos)

    def decide_run(self, row: int, interval: int, count: int):
        """Bulk-decide *count* consecutive activations (see
        :meth:`_TiVaPRoMiDecider.decide_run` for the contract)."""
        p = self.probability
        clean = 0
        pos = self._pos
        buf = self._buf
        while clean < count:
            if pos >= len(buf):
                buf = self._refill()
                pos = 0
            end = pos + (count - clean)
            if end > len(buf):
                end = len(buf)
            base = pos
            while pos < end:
                if buf[pos] < p:
                    return clean + pos - base, self._trigger(row, pos + 1)
                pos += 1
            clean += end - base
        self._pos = pos
        return count, ()

    def on_refresh(self, interval: int):
        return ()

    def clear_window(self) -> None:
        pass


class _BufferedVictimDecider(_NumpyScanMixin):
    """Shared plumbing for the ProHit / MRLoc deciders.

    Owns *every* draw of the wrapped mitigation's RNG stream through a
    pre-filled block buffer (the mitigations only ever call ``random()``,
    so eager block draws preserve the exact sequence), plus the cached
    assumed-neighbour lookups.
    """

    __slots__ = (
        "mitigation", "telemetry", "name", "_rand", "_buf", "_arr",
        "_arr_src", "_pos", "_victims",
    )

    def __init__(self, mitigation: Mitigation):
        self.mitigation = mitigation
        self.telemetry = None
        self.name = mitigation.name
        self._rand = mitigation._rng.random
        self._buf: List[float] = []
        self._arr = None
        self._arr_src = None
        self._pos = 0
        self._victims: Dict[int, Tuple[int, ...]] = {}

    def attach_telemetry(self, telemetry) -> None:
        self.telemetry = telemetry
        self.mitigation.telemetry = telemetry

    @property
    def table_bytes(self) -> int:
        return self.mitigation.table_bytes

    @property
    def table_occupancy(self):
        return getattr(self.mitigation, "table_occupancy", None)

    def _refill(self) -> None:
        rand = self._rand
        self._buf = [rand() for _ in range(_BLOCK)]
        self._pos = 0
        self._arr_src = None
        if self.telemetry is not None:
            self.telemetry.on_rng_block(self.mitigation.bank, _BLOCK)

    def _draw(self) -> float:
        if self._pos >= len(self._buf):
            self._refill()
        value = self._buf[self._pos]
        self._pos += 1
        return value

    def _neighbors(self, row: int) -> Tuple[int, ...]:
        victims = self._victims.get(row)
        if victims is None:
            victims = self._victims[row] = (
                self.mitigation.config.geometry.assumed_neighbors(row)
            )
        return victims

    def clear_window(self) -> None:
        # only reachable for trivial_refresh deciders, whose reference
        # counterpart keeps its state across window boundaries
        pass


class _ProHitDecider(_BufferedVictimDecider):
    """ProHit with run batching.

    ``on_activation`` never issues actions (all ProHit refreshes come
    from ``on_refresh``), so a run always decides clean.  Acts are
    replayed scalar until the hot/cold tables reach a fixed point; the
    remaining acts then consume ``len(missing)`` draws each against the
    constant insert probability and are scanned in bulk for the first
    successful insertion.
    """

    __slots__ = ()

    trivial_refresh = False  # ProHit refreshes its top hot entry per ref

    def _observe(self, victim: int, trigger_row: int) -> None:
        # exact port of ProHit._observe_victim with buffered draws
        m = self.mitigation
        m._trigger[victim] = trigger_row
        hot = m._hot
        if victim in hot:
            index = hot.index(victim)
            if index > 0:
                hot[index - 1], hot[index] = hot[index], hot[index - 1]
            return
        cold = m._cold
        if victim in cold:
            index = cold.index(victim)
            if index == 0:
                m._promote(victim)
            else:
                cold[index - 1], cold[index] = cold[index], cold[index - 1]
            return
        if self._draw() < m.insert_probability:
            if len(cold) >= m.cold_entries:
                dropped = cold.pop()
                m._trigger.pop(dropped, None)
            cold.append(victim)

    def on_activation(self, row: int, interval: int):
        for victim in self._neighbors(row):
            self._observe(victim, row)
        return ()

    def on_refresh(self, interval: int):
        return self.mitigation.on_refresh(interval)  # draw-free

    def decide_run(self, row: int, interval: int, count: int):
        m = self.mitigation
        victims = self._neighbors(row)
        hot = m._hot
        cold = m._cold
        p = m.insert_probability
        i = 0
        while i < count:
            before = (tuple(hot), tuple(cold))
            for victim in victims:
                self._observe(victim, row)
            i += 1
            if i >= count:
                break
            if (tuple(hot), tuple(cold)) != before:
                continue
            # Fixed point: the previous act changed nothing, so every
            # further act is identical until an insertion draw succeeds.
            missing = 0
            for victim in victims:
                if victim not in hot and victim not in cold:
                    missing += 1
            if missing == 0:
                # no draws at all -> pure no-ops (the _trigger writes
                # are idempotent re-assignments of the same value)
                i = count
                break
            if _np is None:
                continue  # scalar path stays exact, just slower
            # consume whole clean acts from the current block; the act
            # containing the first success (or straddling a block
            # boundary) is replayed scalar at the top of the loop
            while i < count:
                if self._pos >= len(self._buf):
                    self._refill()
                avail = (len(self._buf) - self._pos) // missing
                span = min(avail, count - i)
                if span <= 0:
                    break
                start = self._pos
                stop = start + span * missing
                hits = _np.flatnonzero(self._mirror()[start:stop] < p)
                if hits.size:
                    clean_acts = int(hits[0]) // missing
                    self._pos = start + clean_acts * missing
                    i += clean_acts
                    break
                self._pos = stop
                i += span
        return count, ()


class _MRLocDecider(_BufferedVictimDecider):
    """MRLoc with run batching.

    Every victim lookup draws exactly once, so a run consumes a fixed
    number of draws per act.  Once the recency queue reaches its steady
    cycle (one scalar act leaves it unchanged) the per-victim
    probabilities are constant and the draws are scanned in bulk for the
    first refresh trigger.
    """

    __slots__ = ()

    trivial_refresh = True  # MRLoc inherits the no-op on_refresh

    def _probabilities(self, victims: Tuple[int, ...], queue) -> List[float]:
        """Per-victim probabilities of one act, advancing *queue* as the
        reference's recency update does."""
        m = self.mitigation
        base = m.base_probability
        boost = m.max_boost
        pattern = []
        for victim in victims:
            length = len(queue)
            probability = base
            if length:
                try:
                    position = list(queue).index(victim)
                except ValueError:
                    position = -1
                if position >= 0:
                    recency = (position + 1) / length
                    probability = base * (1.0 + (boost - 1.0) * recency)
                    if probability > 1.0:
                        probability = 1.0
            pattern.append(probability)
            if victim in queue:
                queue.remove(victim)
            queue.append(victim)
        return pattern

    def _act(self, row: int, victims: Tuple[int, ...]):
        # exact port of MRLoc.on_activation with buffered draws: no
        # probability depends on a draw, so fixing the act's
        # probabilities (and queue) first leaves every decision unchanged
        actions = None
        for victim, probability in zip(
            victims, self._probabilities(victims, self.mitigation._queue)
        ):
            if self._draw() < probability:
                if actions is None:
                    actions = []
                actions.append(RefreshRow(row=victim, trigger_row=row))
        return tuple(actions) if actions else ()

    def on_activation(self, row: int, interval: int):
        return self._act(row, self._neighbors(row))

    def on_refresh(self, interval: int):
        return ()

    def decide_run(self, row: int, interval: int, count: int):
        victims = self._neighbors(row)
        queue = self.mitigation._queue
        width = len(victims)
        i = 0
        while i < count:
            before = tuple(queue)
            actions = self._act(row, victims)
            i += 1
            if actions:
                return i - 1, actions
            if i >= count:
                break
            if tuple(queue) != before:
                continue
            if _np is None:
                continue
            # steady state: one act leaves the queue as it was
            pattern = _np.asarray(self._probabilities(victims, list(queue)))
            # consume whole clean acts; the act containing the first
            # trigger draw (or straddling a block) replays scalar above
            while i < count:
                if self._pos >= len(self._buf):
                    self._refill()
                avail = (len(self._buf) - self._pos) // width
                span = min(avail, count - i)
                if span <= 0:
                    break
                start = self._pos
                stop = start + span * width
                window = self._mirror()[start:stop].reshape(span, width)
                hits = _np.flatnonzero((window < pattern).ravel())
                if hits.size:
                    clean_acts = int(hits[0]) // width
                    self._pos = start + clean_acts * width
                    i += clean_acts
                    break
                self._pos = stop
                i += span
        return count, ()


class _TableDecider:
    """Shared plumbing for the draw-free table deciders (TWiCe, CRA,
    CaPRoMi): decisions delegate to the real mitigation object, runs
    collapse into one arithmetic update on its tables."""

    __slots__ = ("mitigation", "telemetry", "name")

    trivial_refresh = False  # all three mutate state on every ``ref``

    def __init__(self, mitigation: Mitigation):
        self.mitigation = mitigation
        self.telemetry = None
        self.name = mitigation.name

    def attach_telemetry(self, telemetry) -> None:
        self.telemetry = telemetry
        self.mitigation.telemetry = telemetry

    @property
    def table_bytes(self) -> int:
        return self.mitigation.table_bytes

    @property
    def table_occupancy(self):
        return getattr(self.mitigation, "table_occupancy", None)

    def on_activation(self, row: int, interval: int):
        return self.mitigation.on_activation(row, interval)

    def on_refresh(self, interval: int):
        return self.mitigation.on_refresh(interval)

    def clear_window(self) -> None:  # pragma: no cover - non-trivial refresh
        pass


class _TWiCeDecider(_TableDecider):
    """TWiCe run batching: a counter either stays below the trigger
    threshold for the whole run (one ``+= n``) or crosses it at an
    arithmetically recoverable act."""

    __slots__ = ()

    def decide_run(self, row: int, interval: int, count: int):
        m = self.mitigation
        table = m._table
        entry = table.get(row)
        if entry is None:
            entry = _Entry()
            table[row] = entry
            if len(table) > m.max_occupancy:
                m.max_occupancy = len(table)
        need = m.trigger_threshold - entry.count
        if need > count:
            entry.count += count
            return count, ()
        entry.count = 0
        return need - 1, (ActivateNeighbors(row=row),)


class _CRADecider(_TableDecider):
    """CRA run batching (same arithmetic as TWiCe, sparse counters)."""

    __slots__ = ()

    def decide_run(self, row: int, interval: int, count: int):
        m = self.mitigation
        counters = m._counters
        current = counters.get(row, 0)
        need = m.trigger_threshold - current
        if need > count:
            counters[row] = current + count
            return count, ()
        counters.pop(row, None)
        return need - 1, (ActivateNeighbors(row=row),)


class _CaPRoMiDecider(_TableDecider):
    """CaPRoMi run batching.

    Activations only observe (no draws, no actions): the first
    observation of a run inserts/evicts exactly like the reference, the
    rest collapse into one count update.  The history link is constant
    across the run (the history table only changes at ``ref``) and
    re-assignments are idempotent.
    """

    __slots__ = ()

    def decide_run(self, row: int, interval: int, count: int):
        m = self.mitigation
        link = m.history.lookup_index(row)
        entry = m.counters.observe(row, history_link=link)
        if count > 1:
            if entry is None:
                # table full of locked entries: every further observe of
                # this row drops too (no draws -- nothing is unlocked)
                m.counters.dropped += count - 1
            else:
                entry.count += count - 1
                if entry.count >= m.counters.lock_threshold:
                    entry.locked = True
        return count, ()


#: the specialised decider of each paper technique (exact type match)
_DECIDERS = {
    LiPRoMi: _TiVaPRoMiDecider,
    LoPRoMi: _TiVaPRoMiDecider,
    LoLiPRoMi: _TiVaPRoMiDecider,
    PARA: _PARADecider,
    ProHit: _ProHitDecider,
    MRLoc: _MRLocDecider,
    TWiCe: _TWiCeDecider,
    CRA: _CRADecider,
    CaPRoMi: _CaPRoMiDecider,
}


def _make_decider(mitigation: Mitigation):
    decider = _DECIDERS.get(type(mitigation))
    if decider is not None:
        return decider(mitigation)
    if hasattr(mitigation, "observe_run"):
        # modern counter families batch runs through their own
        # observe_run arithmetic (same contract as decide_run)
        return _RunMethodDecider(mitigation)
    # unknown techniques run as real Mitigation objects: equivalence by
    # construction, per-record replay (no run batching)
    return _GenericDecider(mitigation)


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
        "attacks", "ticks", "flips", "flip_records", "top", "truncated",
        "starts", "activations", "slot_map",
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
        #: per bank: base flips in event order, and the record of each
        self.flips: List[List[FlipEvent]] = []
        self.flip_records: List[List[int]] = []
        #: ``(total, epoch, key)`` of the largest base epochs, descending
        self.top: List[Tuple[int, int, int]] = []
        #: whether smaller epochs than the last of :attr:`top` were dropped
        self.truncated = False
        #: the segments' first record indices, plus the record count
        self.starts: Optional[array] = None
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
        self.starts = starts = array("q", accumulate(
            map(len, map(itemgetter(0), self.segments)), initial=0
        ))
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
    device.top = sorted(heap, reverse=True)
    device.truncated = truncated
    return device


def _decide(
    plan: _Plan,
    policy: RefreshPolicy,
    segments: List[Segment],
    meta: TraceMeta,
    caches: Tuple[Dict, Dict, Dict],
    tele,
) -> Tuple[SimResult, List[Tuple[int, int, int, int, Tuple[int, ...]]]]:
    """Run one lane's deciders, refresh ticks and pending queue only.

    The inline lane (:func:`_replay`) without its disturbance counters:
    every applied action is counted and logged at its position as
    ``(kb, tb, time_ns, bank, rows)``, *rows* being the rows it
    activates, instead of being applied.  The
    result's ``flips`` and ``max_disturbance`` are left for
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
    neighbors_of = caches[0]
    refint = geometry.refint
    interval_ns = meta.interval_ns
    all_trivial = all(decider.trivial_refresh for decider in deciders)
    can_batch = all(hasattr(decider, "decide_run") for decider in deciders)
    aggressors: List[set] = [set() for _ in deciders]
    log: List[Tuple[int, int, int, int, Tuple[int, ...]]] = []
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

    def apply_pending() -> None:
        """Count and log the queued actions (the device is not touched)."""
        nonlocal extra_activations, fp_extra_activations, mitigation_triggers
        position = (activation_index, current_interval + 1, time_now)
        for bank, action, was_attack in pending:
            mitigation_triggers += 1
            if isinstance(action, ActivateNeighbors):
                activated: Tuple[int, ...] = neighbors(action.row)
            elif isinstance(action, RefreshRow):
                activated = (action.row,)
            elif isinstance(action, RecoveryRefresh):
                activated = tuple(
                    row for aggressor in action.rows
                    for row in neighbors(aggressor)
                )
            else:  # pragma: no cover - future action kinds
                raise TypeError(f"unknown mitigation action {action!r}")
            cost = len(activated)
            extra_activations += cost
            if not was_attack:
                fp_extra_activations += cost
            if tele is not None:
                tele.on_apply(
                    bank, action.row, current_interval, cost, not was_attack
                )
            log.append(position + (bank, activated))
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
        nonlocal current_interval
        if pending:
            apply_pending()
        current_interval += 1
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
        """The inline lane's ``advance_to`` without counters."""
        nonlocal current_interval
        if not all_trivial or target - current_interval <= _SKIP_THRESHOLD:
            while current_interval < target:
                refresh_tick()
            return
        if pending:
            apply_pending()
        first_skipped = current_interval + 1
        if target - current_interval >= refint:
            boundary = True
        else:
            lo = first_skipped % refint
            hi = target % refint
            boundary = lo > hi or lo == 0
        if boundary:
            for decider in deciders:
                decider.clear_window()
        current_interval = target
        if tele is not None:
            tele.on_interval_skip(first_skipped, target, target * interval_ns)

    last: List[int] = [0]  # timestamps of the previous segment
    for times, bank, row, is_attack, interval in segments:
        if interval > current_interval:
            time_now = last[-1]
            advance_to(interval)
        last = times
        end = len(times)
        if is_attack:
            # no tick falls inside a segment and queued actions carry
            # their own flag, so the segment's acts count up front
            aggressors[bank].add(row)
            attack_activations += end
        if end == 1:  # the mixed workload's common case
            if pending:
                time_now = times[0]
                apply_pending()
            actions = deciders[bank].on_activation(row, current_interval)
            activation_index += 1
            if actions:
                enqueue(bank, actions)
            if first_trigger is None and mitigation_triggers:
                first_trigger = activation_index
            continue
        decider = deciders[bank]
        i = 0
        while i < end:
            if pending:
                time_now = times[i]
                apply_pending()
            # batch exactly when the inline lane does (see _replay)
            if end - i > 1 and can_batch and (
                first_trigger is not None or mitigation_triggers == 0
            ):
                clean, actions = decider.decide_run(
                    row, current_interval, end - i
                )
                done = end - i if clean == end - i else clean + 1
            else:
                actions = decider.on_activation(row, current_interval)
                done = 1
            activation_index += done
            i += done
            if actions:
                enqueue(bank, actions)
            if first_trigger is None and mitigation_triggers:
                first_trigger = activation_index
    time_now = last[-1]
    advance_to(meta.total_intervals - 1)
    if pending:
        apply_pending()
    if tele is not None:
        tele.finish(activation_index, attack_activations)

    result = SimResult(
        technique=deciders[0].name, seed=plan.seed,
        flip_threshold=config.flip_threshold,
    )
    result.normal_activations = activation_index
    result.attack_activations = attack_activations
    result.extra_activations = extra_activations
    result.fp_extra_activations = fp_extra_activations
    result.mitigation_triggers = mitigation_triggers
    result.intervals_simulated = current_interval + 1
    result.first_trigger_activation = first_trigger
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
    for index in lanes:
        if plans[index].factory is None:
            continue
        result, logs[index] = _decide(
            plans[index], policy, segments, meta, caches,
            EngineTelemetry.create(None, metrics),
        )
        results[index] = result
        started = time.perf_counter()
        for key in _lane_ops(logs[index], device):
            keys.add(key)
            bank, row = divmod(key, rows_per_bank)
            keys.update(bank * rows_per_bank + u for u in device.neighbors(row))
        result.wall_seconds += time.perf_counter() - started

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
