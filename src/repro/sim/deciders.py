"""The fused engine's deciders: the per-bank mitigation state a lane drives.

A *decider* mirrors one bank's mitigation of the reference engine
(:mod:`repro.sim.engine`) with the same decisions, drawn from the same
RNG stream, and none of its object layering.  :func:`_make_decider`
picks each technique's decider; :mod:`repro.sim.fused_engine` drives
it bank by bank: ``on_refresh`` at each refresh tick (``clear_window``
over a span of ticks the lane skips) and ``decide_chunk`` for all of
one bank's runs of one interval in one call, given as a slice of the
bank's :class:`_BankRuns` columns.  ``decide_chunk`` returns the
triggering records with their actions.

The probability-ceiling contract.  A draw-driven decider states a
``ceiling``: a probability no decision of it can reach, whatever its
state, so a draw at or above it never fires.  :class:`_ScreenMixin`
lists the draws of each pre-drawn block that fall below it (the
*candidates*), and ``decide_chunk`` consumes a chunk's draws by jumping
from one candidate to the next, rebuilding there only the state the
decision needs from the records since the previous candidate:

* TiVaPRoMi's ceiling is its largest weight times ``pbase``
  (``refint * pbase``, about 1e-3 at Table I); its history table
  changes only at triggers and window clears;
* MRLoc's is its base probability at full recency boost; the recency
  queue at a lookup is the last 16 distinct victims looked up before
  it;
* PARA's is its constant probability: every candidate fires, and the
  trigger rewinds the generator;
* ProHit's is its insert probability: only lookups that miss both
  tables draw, and the tables' row set changes only at insertions and
  refresh pops, so only table hits and insertions replay in order.

A decider without a ceiling steps every run: TWiCe, CRA and CaPRoMi
with their own arithmetic, any other technique through the reference
object itself (:func:`_step_chunk`).  ``tests/sim/
test_fused_properties.py`` pins every ``decide_chunk`` to stepping the
chunk record by record with the reference mitigation object.

The pre-drawn blocks.  A screened decider owns every draw of its
mitigation's generator and takes them a block at a time with
:func:`_random_block`: one ``getrandbits`` call and one numpy
expression yield exactly the floats the same number of ``random()``
calls would, and leave the generator where those calls would.
"""

from __future__ import annotations

import random
from array import array
from bisect import bisect_left, bisect_right
from itertools import accumulate, chain, compress, islice
from operator import mul, sub
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

import numpy as np

from repro.config import DRAMGeometry
from repro.core.capromi import CaPRoMi
from repro.core.tivapromi import LiPRoMi, LoLiPRoMi, LoPRoMi, TiVaPRoMiBase
from repro.core.weights import linear_weight, log_weight, trigger_probability
from repro.mitigations.base import (
    ActivateNeighbors,
    Mitigation,
    RefreshRow,
)
from repro.mitigations.cra import CRA
from repro.mitigations.mrloc import MRLoc
from repro.mitigations.para import PARA
from repro.mitigations.prohit import ProHit
from repro.mitigations.twice import TWiCe, _Entry

#: block size of the pre-drawn ``random()`` buffers
_BLOCK = 4096
#: PARA's block: a trigger rewinds and replays the block's consumed
#: draws, so a modest block keeps that replay cheap
_PARA_BLOCK = 256
#: a spent (or not yet drawn) block
_NO_DRAWS = np.empty(0)


class _BankRuns:
    """One bank's activation runs, as columns over a slice of the
    trace's segments: a grid's whole segment list, or the own pass's
    current interval (which refills the same object per interval).

    Run *x* activates ``rows[x]``; it holds the bank's records ``ends[x]
    .. ends[x + 1] - 1`` (numbered within the slice), the first of which
    is record ``starts[x]`` of the trace.  ``chunks`` maps each interval
    with records in the bank to its runs ``(lo, hi)``.  ``attacks``
    maps each row with an attack run so far to the first record
    (trace-wide) of the first one, and ``victims`` caches assumed
    neighbours; both carry over when the columns are refilled.
    """

    __slots__ = ("rows", "ends", "starts", "chunks", "attacks", "victims", "lookups")

    def __init__(self):
        self.attacks: Dict[int, int] = {}
        self.victims: Dict[int, Tuple[int, ...]] = {}
        self.lookups = None

    def record(self, record: int) -> int:
        """The trace-wide index of the bank's record *record*."""
        run = bisect_right(self.ends, record) - 1
        return self.starts[run] + record - self.ends[run]

    def victim_lookups(
        self, geometry: DRAMGeometry
    ) -> Tuple[Dict[int, Tuple[int, ...]], array]:
        """The assumed neighbours of the bank's rows, and the victim
        lookups before each run (plus the total) -- an act looks up
        every assumed neighbour of its row once -- built on first use
        and shared by the lanes of a grid."""
        if self.lookups is None:
            victims = self.victims
            assumed = geometry.assumed_neighbors
            for row in set(self.rows).difference(victims):
                victims[row] = assumed(row)
            widths = map(len, map(victims.__getitem__, self.rows))
            counts = map(sub, islice(self.ends, 1, None), self.ends)
            self.lookups = _column(accumulate(map(mul, counts, widths), initial=0))
        return self.victims, self.lookups


def _column(values: Iterable[int]) -> array:
    """A typed column of *values*, converted a block at a time (quicker
    than one value at a time, and the list of one block is all the
    conversion holds)."""
    values = iter(values)
    column = array("q")
    block = list(islice(values, _BLOCK))
    while block:
        column.fromlist(block)
        block = list(islice(values, _BLOCK))
    return column


class _GenericDecider:
    """Adapter driving a real :class:`Mitigation` object.

    Used for techniques without a specialised decider (the modern
    families, any user-supplied factory): decisions are made by the
    reference implementation itself, so equivalence is by construction
    (see :func:`_step_chunk`).
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

    def decide_chunk(self, runs: "_BankRuns", lo: int, hi: int, interval: int):
        return _step_chunk(self.mitigation, runs, lo, hi, interval)

    def on_refresh(self, interval: int):
        return self.mitigation.on_refresh(interval)

    def clear_window(self) -> None:
        # only reachable when trivial_refresh, i.e. on_refresh is the
        # stateless base no-op: nothing to clear
        pass


def _random_block(rng: random.Random, count: int) -> np.ndarray:
    """The next *count* ``rng.random()`` values, drawn in one call.

    CPython's ``random()`` takes two consecutive 32-bit Mersenne-Twister
    outputs ``w0, w1`` and returns ``((w0 >> 5) * 2**26 + (w1 >> 6)) *
    2**-53``.  ``getrandbits(64 * count)`` consumes exactly ``2 * count``
    outputs and stores the first one in its least significant 32 bits,
    so its little-endian bytes are those outputs in draw order.  Every
    step of the float arithmetic is exact (the sum stays below 2**53,
    and the scale is a power of two), so the block equals the scalar
    draws bit for bit, and *rng* ends where ``count`` ``random()``
    calls would leave it.
    """
    words = np.frombuffer(
        rng.getrandbits(64 * count).to_bytes(8 * count, "little"), dtype="<u4"
    )
    return ((words[0::2] >> 5) * 67108864.0 + (words[1::2] >> 6)) * (
        1.0 / 9007199254740992.0
    )


class _ScreenMixin:
    """Event skipping over a decider's pre-drawn ``random()`` blocks.

    A screened decider states a probability ``ceiling``: none of its
    decisions can fire on a draw at or above it.  A chunk's draws are
    then consumed without being looked at, except the *candidates*
    below the ceiling, listed once per block; the decider rebuilds its
    state at a candidate from the records since the previous one.
    :meth:`_refill` draws the next ``block`` draws of ``_rng`` into
    ``_buf`` and resets ``_pos``.
    """

    __slots__ = ()

    #: draws per pre-drawn block
    block = _BLOCK

    def _refill(self) -> None:
        self._buf = _random_block(self._rng, self.block)
        self._pos = 0
        if self.telemetry is not None:
            self.telemetry.on_rng_block(self.mitigation.bank, self.block)

    def _screen(self, count: int) -> Iterator[Tuple[int, float]]:
        """Consume the next *count* draws, yielding ``(offset, draw)``
        for each candidate (*offset* counts from the first draw).

        A yielded draw is already consumed; a caller that stops early
        leaves the draws after it unconsumed, and a caller that
        replaces the block at a candidate (PARA's rewind) continues on
        the new block.
        """
        done = 0
        while done < count:
            pos = self._pos
            buf = self._buf
            if pos >= len(buf):
                self._refill()
                pos = 0
                buf = self._buf
            end = min(len(buf), pos + count - done)
            cands = self._candidates(buf)
            at = bisect_left(cands, pos)
            while at < len(cands) and cands[at] < end:
                hit = cands[at]
                self._pos = hit + 1
                yield done + hit - pos, buf[hit]
                if self._buf is not buf:
                    done += hit + 1 - pos
                    break
                at += 1
            else:
                self._pos = end
                done += end - pos

    def _skip(self, count: int) -> bool:
        """Consume the next *count* draws if they are in the current
        block and none is a candidate; else consume nothing."""
        pos = self._pos
        end = pos + count
        if end > len(self._buf):
            return False
        cands = self._candidates(self._buf)
        at = bisect_left(cands, pos)
        if at < len(cands) and cands[at] < end:
            return False
        self._pos = end
        return True

    def _candidates(self, buf: np.ndarray) -> List[int]:
        """The candidates of block *buf*, listed once per block."""
        if self._cands_src is not buf:
            self._cands = np.flatnonzero(buf < self.ceiling).tolist()
            self._cands_src = buf
        return self._cands


def _step_chunk(mitigation: Mitigation, runs: "_BankRuns", lo: int, hi: int, interval: int):
    """``decide_chunk`` through a reference mitigation object: each run
    is decided with its ``observe_run`` when it has one (the modern
    families' run batching), else record by record with
    ``on_activation``.

    ``observe_run(row, interval, count)`` decides up to *count*
    consecutive activations of *row* and returns ``(clean, actions)``:
    ``clean`` non-trigger decisions, then -- when ``clean < count`` --
    the trigger's *actions*, the ``clean + 1``-th activation's.
    """
    fired: List[Tuple[int, Tuple]] = []
    rows = runs.rows
    ends = runs.ends
    observe_run = getattr(mitigation, "observe_run", None)
    for run in range(lo, hi):
        row = rows[run]
        first = ends[run]
        count = ends[run + 1] - first
        if observe_run is None:
            on_activation = mitigation.on_activation
            for record in range(first, first + count):
                actions = on_activation(row, interval)
                if actions:
                    fired.append((record, actions))
            continue
        while count:
            clean, actions = observe_run(row, interval, count)
            done = count if clean == count else clean + 1
            if actions:
                fired.append((first + done - 1, actions))
            first += done
            count -= done
    return fired


class _TiVaPRoMiDecider(_ScreenMixin):
    """LiPRoMi / LoPRoMi / LoLiPRoMi.

    Mirrors :class:`TiVaPRoMiBase` exactly: one ``random()`` per
    activation (bulk-drawn), the FIFO history table as an
    insertion-ordered dict, and per-interval ``slot -> probability``
    vectors computed with :func:`trigger_probability`.  Its ceiling is
    the largest weight times ``pbase``: ``refint * pbase``, about 1e-3
    at the paper's Table I.
    """

    __slots__ = (
        "name", "mitigation", "weighting", "pbase", "capacity", "refint",
        "slot_fn", "_rng", "_buf", "_pos", "table",
        "_slots", "_slot_p", "_p_interval", "telemetry", "ceiling",
        "_cands", "_cands_src",
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
        self._rng = mitigation._rng
        self._buf = _NO_DRAWS
        self._pos = 0
        #: FIFO history-table mirror: dict preserves insertion order,
        #: in-place update keeps position, eviction removes the oldest
        self.table: Dict[int, int] = {}
        self._slots: Dict[int, int] = {}
        self._slot_p: Dict[int, float] = {}
        self._p_interval: Optional[int] = None
        # a weight never exceeds the largest log weight of a window
        # position (linear weights stay below refint)
        self.ceiling = min(1.0, (1 << (self.refint - 1).bit_length()) * self.pbase)
        self._cands: List[int] = []
        self._cands_src = None

    def attach_telemetry(self, telemetry) -> None:
        self.telemetry = telemetry

    @property
    def table_bytes(self) -> int:
        return self.mitigation.table_bytes

    @property
    def table_occupancy(self) -> int:
        return len(self.table)

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

    def decide_chunk(self, runs: "_BankRuns", lo: int, hi: int, interval: int):
        """Decide runs ``lo .. hi - 1`` of one interval: only a draw
        below the ceiling can fire, and the history table changes only
        at triggers, so each candidate is decided on its own."""
        fired: List[Tuple[int, Tuple]] = []
        ends = runs.ends
        first = ends[lo]
        for offset, draw in self._screen(ends[hi] - first):
            record = first + offset
            row = runs.rows[bisect_right(ends, record, lo, hi) - 1]
            if draw < self._probability(row, interval):
                fired.append((record, self._record_trigger(row, interval)))
        return fired

    def on_refresh(self, interval: int):
        if interval % self.refint == 0:
            self.table.clear()
        return ()

    def clear_window(self) -> None:
        self.table.clear()


class _PARADecider(_ScreenMixin):
    """PARA: buffered draws, cached assumed adjacency.

    A trigger's ``randrange`` must consume the generator right after
    the draws handed out so far, so the generator is restored to the
    block's start state and the consumed draws are replayed (one
    ``getrandbits`` call: each ``random()`` takes 64 bits).  Its ceiling
    is the constant probability itself: every candidate fires.
    """

    __slots__ = (
        "name", "mitigation", "probability", "_rng", "_buf", "_pos",
        "_state", "geometry", "_neighbors", "telemetry", "ceiling",
        "_cands", "_cands_src",
    )

    trivial_refresh = True
    block = _PARA_BLOCK

    def __init__(self, mitigation: PARA):
        self.mitigation = mitigation
        self.telemetry = None
        self.name = mitigation.name
        self.probability = mitigation.probability
        self._rng = mitigation._rng
        self._buf = _NO_DRAWS
        self._pos = 0
        self._state: object = None
        self.geometry = mitigation.config.geometry
        self._neighbors: Dict[int, Tuple[int, ...]] = {}
        self.ceiling = self.probability
        self._cands: List[int] = []
        self._cands_src = None

    def attach_telemetry(self, telemetry) -> None:
        self.telemetry = telemetry

    @property
    def table_bytes(self) -> int:
        return self.mitigation.table_bytes

    @property
    def table_occupancy(self):
        return None  # PARA is stateless

    def _refill(self) -> None:
        self._state = self._rng.getstate()
        super()._refill()

    def _trigger(self, row: int, consumed: int):
        """Rewind to the block start, replay *consumed* draws, then take
        the trigger's ``randrange`` exactly where the reference does."""
        rng = self._rng
        rng.setstate(self._state)
        if consumed:
            rng.getrandbits(64 * consumed)
        self._buf = _NO_DRAWS
        self._pos = 0
        neighbors = self._neighbors.get(row)
        if neighbors is None:
            neighbors = self._neighbors[row] = self.geometry.assumed_neighbors(row)
        victim = neighbors[rng.randrange(len(neighbors))]
        return (RefreshRow(row=victim, trigger_row=row),)

    def decide_chunk(self, runs: "_BankRuns", lo: int, hi: int, interval: int):
        """Decide runs ``lo .. hi - 1``: jump from trigger to trigger,
        each one rewinding the generator as :meth:`_trigger` does."""
        fired: List[Tuple[int, Tuple]] = []
        ends = runs.ends
        first = ends[lo]
        for offset, _draw in self._screen(ends[hi] - first):
            record = first + offset
            row = runs.rows[bisect_right(ends, record, lo, hi) - 1]
            fired.append((record, self._trigger(row, self._pos)))
        return fired

    def on_refresh(self, interval: int):
        return ()

    def clear_window(self) -> None:
        pass


class _BufferedVictimDecider(_ScreenMixin):
    """Shared plumbing for the ProHit / MRLoc deciders.

    Owns *every* draw of the wrapped mitigation's RNG stream through a
    pre-filled block buffer (the mitigations only ever call ``random()``,
    so eager block draws preserve the exact sequence).  Each act looks
    up every assumed neighbour of its row once
    (:meth:`_BankRuns.victim_lookups` numbers those lookups across a
    bank's runs).
    """

    __slots__ = (
        "mitigation", "telemetry", "name", "_rng", "_buf", "_pos",
        "ceiling", "_cands", "_cands_src",
    )

    def __init__(self, mitigation: Mitigation, ceiling: float):
        self.mitigation = mitigation
        self.telemetry = None
        self.name = mitigation.name
        self._rng = mitigation._rng
        self._buf = _NO_DRAWS
        self._pos = 0
        self.ceiling = ceiling
        self._cands: List[int] = []
        self._cands_src = None

    def attach_telemetry(self, telemetry) -> None:
        self.telemetry = telemetry
        self.mitigation.telemetry = telemetry

    @property
    def table_bytes(self) -> int:
        return self.mitigation.table_bytes

    @property
    def table_occupancy(self):
        return getattr(self.mitigation, "table_occupancy", None)

    def clear_window(self) -> None:
        # only reachable for trivial_refresh deciders, whose reference
        # counterpart keeps its state across window boundaries
        pass


class _ProHitDecider(_BufferedVictimDecider):
    """ProHit: activations only observe (all ProHit refreshes come from
    ``on_refresh``), so ``decide_chunk`` fires nothing and only keeps
    the hot/cold tables and the draw position exact.
    """

    __slots__ = ("_inserted", "_victims")

    trivial_refresh = False  # ProHit refreshes its top hot entry per ref

    def __init__(self, mitigation: ProHit):
        # only a lookup that misses both tables draws, and it inserts
        # exactly when the draw is below the insert probability
        super().__init__(mitigation, mitigation.insert_probability)
        #: insertions so far: the tables' row set changes only with them
        #: (and with the refresh pops)
        self._inserted = 0
        self._victims: Dict[int, Tuple[int, ...]] = {}

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
            self._insert(victim)

    def _insert(self, victim: int) -> None:
        """A missing victim's insertion at the cold table's tail."""
        m = self.mitigation
        cold = m._cold
        if len(cold) >= m.cold_entries:
            dropped = cold.pop()
            m._trigger.pop(dropped, None)
        cold.append(victim)
        self._inserted += 1

    def on_refresh(self, interval: int):
        return self.mitigation.on_refresh(interval)  # draw-free

    def _observe_run(self, row: int, count: int) -> None:
        """Replay *count* activations of *row* in order.  Acts replay
        one by one until the tables reach a fixed point; the remaining
        acts then consume ``missing`` draws each against the constant
        insert probability, and are skipped up to the first candidate
        draw (an insertion)."""
        m = self.mitigation
        victims = self._neighbors(row)
        hot = m._hot
        cold = m._cold
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
            # consume whole clean acts from the current block; the act
            # holding its first candidate (or straddling a block
            # boundary) is replayed at the top of the loop
            while i < count:
                if self._pos >= len(self._buf):
                    self._refill()
                start = self._pos
                span = min((len(self._buf) - start) // missing, count - i)
                if span <= 0:
                    break
                cands = self._candidates(self._buf)
                at = bisect_left(cands, start)
                first = cands[at] if at < len(cands) else len(self._buf)
                clean = min(span, (first - start) // missing)
                self._pos = start + clean * missing
                i += clean
                if clean < span:
                    break

    def _hit_runs(self, runs: "_BankRuns", lo: int, hi: int) -> List[int]:
        """The runs among ``lo .. hi - 1`` whose row has an assumed
        neighbour in the tables.  Assumed adjacency is N+-1 (remapping
        never changes it), so those rows are the tables' own assumed
        neighbours."""
        m = self.mitigation
        near = {
            row for victim in set(m._hot).union(m._cold)
            for row in self._neighbors(victim)
            if victim in self._neighbors(row)
        }
        return list(compress(range(lo, hi), map(near.__contains__, runs.rows[lo:hi])))

    def decide_chunk(self, runs: "_BankRuns", lo: int, hi: int, interval: int):
        """Decide runs ``lo .. hi - 1``.

        The tables' row set changes only at insertions (and refresh
        pops, between chunks), so the runs whose victims all miss it
        form stretches whose every lookup draws.  A stretch is skipped
        up to its first draw below the insert probability -- that
        lookup inserts -- and the runs touching the tables, plus the
        rest of an inserting run, replay in order.  Victims looked up
        without a hit or an insertion keep no ``_trigger`` entry: it is
        never read before the victim's next insertion overwrites it.
        """
        victims_of, _lookups = runs.victim_lookups(self.mitigation.config.geometry)
        rows = runs.rows
        ends = runs.ends
        observe = self._observe
        run = lo
        while run < hi:
            inserted = self._inserted
            for hit in chain(self._hit_runs(runs, run, hi), (hi,)):
                if hit > run:
                    run = self._stretch(runs, run, hit)
                    if self._inserted != inserted:
                        break  # the tables changed: find the hits again
                if hit == hi:
                    break
                row = rows[hit]
                count = ends[hit + 1] - ends[hit]
                if count == 1:
                    for victim in victims_of[row]:
                        observe(victim, row)
                else:
                    self._observe_run(row, count)
                run = hit + 1
                if self._inserted != inserted:
                    break
        return ()

    def _stretch(self, runs: "_BankRuns", run: int, stop: int) -> int:
        """Runs ``run .. stop - 1`` miss the tables: consume their
        lookups' draws up to the first one below the insert
        probability, which inserts, and replay the rest of its run.
        Returns the run after the last one decided."""
        lookups = runs.lookups
        start = lookups[run]
        if self._skip(lookups[stop] - start):
            return stop
        for offset, _draw in self._screen(lookups[stop] - start):
            lookup = start + offset
            run = bisect_right(lookups, lookup, run, stop) - 1
            row = runs.rows[run]
            victims = runs.victims[row]
            record, index = divmod(lookup - lookups[run], len(victims))
            self.mitigation._trigger[victims[index]] = row
            self._insert(victims[index])
            for victim in victims[index + 1:]:
                self._observe(victim, row)
            rest = runs.ends[run + 1] - runs.ends[run] - record - 1
            if rest:
                self._observe_run(row, rest)
            return run + 1
        return stop


class _MRLocDecider(_BufferedVictimDecider):
    """MRLoc: every victim lookup draws exactly once, and only a draw
    below the probability at full recency boost can fire."""

    __slots__ = ()

    trivial_refresh = True  # MRLoc inherits the no-op on_refresh

    def __init__(self, mitigation: MRLoc):
        # the boost of the queue's most recent entry (recency 1.0)
        base = mitigation.base_probability
        super().__init__(mitigation, min(
            1.0, base * (1.0 + (mitigation.max_boost - 1.0) * 1.0)
        ))

    def on_refresh(self, interval: int):
        return ()

    def decide_chunk(self, runs: "_BankRuns", lo: int, hi: int, interval: int):
        """Decide runs ``lo .. hi - 1``: only a lookup whose draw is below
        the ceiling can fire, and the recency queue it sees is the last
        ``queue_entries`` distinct victims looked up before it."""
        m = self.mitigation
        victims_of, lookups = runs.victim_lookups(m.config.geometry)
        fired: List[Tuple[int, Tuple]] = []
        mark = start = lookups[lo]
        for offset, draw in self._screen(lookups[hi] - start):
            lookup = start + offset
            run = bisect_right(lookups, lookup, lo, hi) - 1
            row = runs.rows[run]
            victims = victims_of[row]
            record, index = divmod(lookup - lookups[run], len(victims))
            self._recency(runs, mark, lookup)
            mark = lookup
            if draw < m.victim_probability(victims[index]):
                fired.append((runs.ends[run] + record, (
                    RefreshRow(row=victims[index], trigger_row=row),
                )))
        self._recency(runs, mark, lookups[hi])
        return fired

    def _recency(self, runs: "_BankRuns", mark: int, lookup: int) -> None:
        """Advance the recency queue from its state before lookup *mark*
        to its state before lookup *lookup*, walking back from *lookup*
        until the queue is full of distinct victims or *mark* is
        reached (the queue then supplies the older entries)."""
        if lookup == mark:
            return
        queue = self.mitigation._queue
        size = queue.maxlen
        victims_of = runs.victims
        lookups = runs.lookups
        recent: List[int] = []  # most recent first
        seen = set()

        def take(run: int, first: int, stop: int) -> None:
            # lookups first .. stop - 1 of *run*, latest first; a run's
            # last `width` lookups hold each of its victims
            victims = victims_of[runs.rows[run]]
            width = len(victims)
            start = lookups[run]
            for at in range(stop - 1, max(first, stop - width) - 1, -1):
                victim = victims[(at - start) % width]
                if victim not in seen:
                    seen.add(victim)
                    recent.append(victim)

        last = bisect_right(lookups, lookup - 1) - 1
        first = bisect_right(lookups, mark) - 1
        take(last, max(mark, lookups[last]), lookup)
        if first < last:
            # whole runs end on a whole act: their lookups, latest
            # first, are their victims reversed
            done = set()
            for row in reversed(runs.rows[first + 1:last]):
                if len(recent) >= size:
                    break
                if row in done:
                    continue
                done.add(row)
                for victim in reversed(victims_of[row]):
                    if victim not in seen:
                        seen.add(victim)
                        recent.append(victim)
            else:
                if len(recent) < size:
                    take(first, mark, lookups[first + 1])
        if len(recent) < size:
            # *mark* reached: the older entries are the queue's
            recent.extend(victim for victim in reversed(queue) if victim not in seen)
        del recent[size:]
        queue.clear()
        queue.extend(reversed(recent))


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

    def on_refresh(self, interval: int):
        return self.mitigation.on_refresh(interval)

    def clear_window(self) -> None:  # pragma: no cover - non-trivial refresh
        pass


class _TWiCeDecider(_TableDecider):
    """TWiCe run batching: a counter either stays below the trigger
    threshold for the whole run (one ``+= n``) or crosses it at an
    arithmetically recoverable act."""

    __slots__ = ()

    def decide_chunk(self, runs: "_BankRuns", lo: int, hi: int, interval: int):
        """Decide runs ``lo .. hi - 1``: a run fires each time its row's
        count reaches the threshold, which restarts it from zero."""
        m = self.mitigation
        table = m._table
        threshold = m.trigger_threshold
        rows = runs.rows
        ends = runs.ends
        fired: List[Tuple[int, Tuple]] = []
        for run in range(lo, hi):
            row = rows[run]
            entry = table.get(row)
            if entry is None:
                entry = table[row] = _Entry()
                if len(table) > m.max_occupancy:
                    m.max_occupancy = len(table)
            total = entry.count + ends[run + 1] - ends[run]
            if total >= threshold:
                for record in range(
                    ends[run] + threshold - entry.count - 1, ends[run + 1], threshold
                ):
                    fired.append((record, (ActivateNeighbors(row=row),)))
                total %= threshold
            entry.count = total
        return fired


class _CRADecider(_TableDecider):
    """CRA run batching (same arithmetic as TWiCe, sparse counters)."""

    __slots__ = ()

    def decide_chunk(self, runs: "_BankRuns", lo: int, hi: int, interval: int):
        """Decide runs ``lo .. hi - 1`` (TWiCe's arithmetic; a zero
        counter is not stored)."""
        counters = self.mitigation._counters
        threshold = self.mitigation.trigger_threshold
        rows = runs.rows
        ends = runs.ends
        fired: List[Tuple[int, Tuple]] = []
        for run in range(lo, hi):
            row = rows[run]
            current = counters.get(row, 0)
            total = current + ends[run + 1] - ends[run]
            if total < threshold:
                counters[row] = total
                continue
            for record in range(
                ends[run] + threshold - current - 1, ends[run + 1], threshold
            ):
                fired.append((record, (ActivateNeighbors(row=row),)))
            total %= threshold
            if total:
                counters[row] = total
            else:
                counters.pop(row, None)
        return fired


class _CaPRoMiDecider(_TableDecider):
    """CaPRoMi: activations only observe (no draws, no actions)."""

    __slots__ = ()

    def decide_chunk(self, runs: "_BankRuns", lo: int, hi: int, interval: int):
        """Decide runs ``lo .. hi - 1``: the first observation of a run
        inserts or evicts like the reference, the rest collapse into
        one count update.  The history links are read once, the
        history table being constant between two ``ref`` commands, and
        a row the table of locked entries drops is dropped for the
        whole run (no draws: nothing is unlocked)."""
        m = self.mitigation
        counters = m.counters
        resident = counters._entries
        lock = counters.lock_threshold
        links: Dict[int, int] = {}
        for index, held in enumerate(m.history._entries):
            links.setdefault(held.row, index)
        rows = runs.rows
        ends = runs.ends
        for run in range(lo, hi):
            row = rows[run]
            count = ends[run + 1] - ends[run]
            link = links.get(row, -1)
            entry = resident.get(row)
            if entry is None:
                entry = counters.observe(row, history_link=link)
                if entry is None:
                    counters.dropped += count - 1
                    continue
                count -= 1
            elif link >= 0:
                entry.history_link = link
            if count:
                entry.count += count
                if entry.count >= lock:
                    entry.locked = True
        return ()


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
    # any other technique runs as its real Mitigation object:
    # equivalence by construction
    return _GenericDecider(mitigation)


