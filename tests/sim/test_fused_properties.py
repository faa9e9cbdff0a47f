"""Hypothesis properties of the fused engine's per-cell state.

The fused deciders mirror each mitigation's tables with batched /
vectorised updates; these properties pin the structural invariants the
bit-exact differential suite cannot name individually:

* weight-table normalisation -- every probability a TiVaPRoMi lane
  computes or caches stays in ``[0, 1]`` whatever the activation stream;
* history-FIFO eviction order -- the insertion-ordered dict mirroring
  the paper's FIFO history table evicts exactly the oldest entry and
  never exceeds capacity;
* counter-table monotonicity -- CaPRoMi counter entries only grow
  between refreshes, locks never release, drops never decrease, and the
  TWiCe lifetime counters stay strictly below the trigger threshold;
* cell slicing -- any cell of a fused grid equals a solo reference
  run with the same (technique, seed, pbase);
* chunk kernels -- a decider's ``decide_chunk`` (which jumps between
  the draws below its probability ceiling) fires the same actions at
  the same records, consumes the same random draws and leaves the same
  decision state as stepping the chunk record by record through the
  reference mitigation object's ``on_activation``;
* draw blocks -- ``_random_block`` returns exactly the ``random()``
  values of as many scalar calls and leaves the generator where they
  would, and PARA's rewind replay lands where its draws would.
"""

from __future__ import annotations

import random
from array import array
from itertools import accumulate

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from repro.config import small_test_config
from repro.mitigations.registry import (
    make_factory,
    make_mitigation,
    technique_names,
)
import repro.sim.deciders as deciders
from repro.core.capromi import CaPRoMi
from repro.core.tivapromi import TiVaPRoMiBase
from repro.mitigations.cra import CRA
from repro.mitigations.mrloc import MRLoc
from repro.mitigations.prohit import ProHit
from repro.mitigations.twice import TWiCe
from repro.sim.deciders import (
    _BankRuns,
    _CaPRoMiDecider,
    _TiVaPRoMiDecider,
    _TWiCeDecider,
)
from repro.sim.engine import run_simulation
from repro.sim.fused_engine import _bank_runs, grid_cells
from repro.telemetry.hooks import EngineTelemetry
from repro.telemetry.metrics import MetricsRegistry
from repro.traces.attacker import AttackSpec
from repro.traces.mixer import build_trace
from repro.traces.workload import WorkloadParams

CONFIG = small_test_config()
ROWS = CONFIG.geometry.rows_per_bank

#: one batched decision: activate ``row`` ``count`` times in ``interval``
runs = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=ROWS - 1),  # row
        st.integers(min_value=0, max_value=3),         # interval step
        st.integers(min_value=1, max_value=12),        # run length
    ),
    min_size=1,
    max_size=60,
)

tiva_techniques = st.sampled_from(["LiPRoMi", "LoPRoMi", "LoLiPRoMi"])


def _drive(decider, stream):
    """Feed a Hypothesis run stream, one ``decide_chunk`` call per run;
    yield after every decision."""
    runs = _columns(stream)
    for interval in sorted(runs.chunks):
        lo, hi = runs.chunks[interval]
        for run in range(lo, hi):
            decider.decide_chunk(runs, run, run + 1, interval)
            yield interval


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(technique=tiva_techniques, seed=st.integers(0, 50), stream=runs)
def test_weight_table_normalisation(technique, seed, stream):
    """Every cached slot probability and every live query is in [0, 1]."""
    decider = _TiVaPRoMiDecider(
        make_mitigation(technique, CONFIG, bank=0, seed=seed)
    )
    for interval in _drive(decider, stream):
        assert all(0.0 <= p <= 1.0 for p in decider._slot_p.values())
        for row, _, _ in stream[:5]:
            assert 0.0 <= decider._probability(row, interval) <= 1.0


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(technique=tiva_techniques, seed=st.integers(0, 50), stream=runs)
def test_history_fifo_eviction_order(technique, seed, stream):
    """The history table is a capacity-bounded FIFO: re-triggering a
    resident row updates it in place, inserting a new row at capacity
    evicts exactly the oldest resident."""
    decider = _TiVaPRoMiDecider(
        make_mitigation(technique, CONFIG, bank=0, seed=seed)
    )
    capacity = decider.capacity
    model: dict = {}
    interval = 0
    for row, step, _ in stream:
        interval += step
        decider._record_trigger(row, interval)
        if row in model:
            model[row] = interval % decider.refint
        else:
            if len(model) >= capacity:
                del model[next(iter(model))]
            model[row] = interval % decider.refint
        assert len(decider.table) <= capacity
        assert list(decider.table.items()) == list(model.items())


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(0, 50), stream=runs)
def test_counter_table_monotonicity(seed, stream):
    """Between refreshes, a resident CaPRoMi counter never decreases, a
    locked entry never unlocks (and is never evicted), and the drop
    counter never decreases."""
    decider = _CaPRoMiDecider(
        make_mitigation("CaPRoMi", CONFIG, bank=0, seed=seed)
    )
    counters = decider.mitigation.counters
    snapshot: dict = {}
    dropped = 0
    for _ in _drive(decider, stream):
        present = {entry.row: entry for entry in counters.entries()}
        assert len(present) <= counters.capacity
        for row in list(snapshot):
            if row not in present:
                # only unlocked entries are evictable
                assert not snapshot[row][1]
                del snapshot[row]
        for row, entry in present.items():
            previous = snapshot.get(row)
            if previous is not None:
                count_before, locked_before = previous
                assert entry.count >= count_before
                assert entry.locked or not locked_before
            if entry.locked:
                assert entry.count >= counters.lock_threshold
            snapshot[row] = (entry.count, entry.locked)
        assert counters.dropped >= dropped
        dropped = counters.dropped


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(0, 50), stream=runs)
def test_twice_counters_stay_below_threshold(seed, stream):
    """The TWiCe bulk update preserves the reference's invariant:
    stored lifetime counts are always strictly below the trigger
    threshold (a count reaching it fires and resets inside the run)."""
    decider = _TWiCeDecider(
        make_mitigation("TWiCe", CONFIG, bank=0, seed=seed)
    )
    threshold = decider.mitigation.trigger_threshold
    for _ in _drive(decider, stream):
        table = decider.mitigation._table
        assert all(entry.count < threshold for entry in table.values())


@settings(max_examples=12, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    technique=st.sampled_from(technique_names()),
    seed=st.integers(min_value=0, max_value=100),
    rate=st.integers(min_value=1, max_value=60),
    aggressor=st.integers(min_value=1, max_value=ROWS - 2),
)
def test_fused_cell_slice_equals_solo_reference_run(
    technique, seed, rate, aggressor
):
    """Slicing a fused grid at any cell gives exactly the solo reference
    engine's result for that (technique, seed, pbase)."""
    from repro.sim.fused_engine import run_simulation_grid

    trace = build_trace(
        CONFIG,
        16,
        benign_params=WorkloadParams(avg_acts_per_interval=8),
        attacks=[
            AttackSpec(
                bank=0, aggressors=(aggressor,), acts_per_interval=rate,
                name="prop",
            )
        ],
        seed=seed,
    ).materialize()
    cells = grid_cells(
        [technique, None], (seed, seed + 1),
        pbase_scales=(1.0, 2.0), config=CONFIG,
    )
    results = run_simulation_grid(CONFIG, trace, cells)
    for cell, result in zip(cells, results):
        cell_config = cell.config or CONFIG
        solo = run_simulation(
            cell_config, trace,
            make_factory(cell.technique) if cell.technique else None,
            seed=cell.seed,
        )
        assert solo.as_dict() == result.as_dict()


# ---------------------------------------------------------------------------
# chunk kernels: decide_chunk vs record-by-record on_activation
# ---------------------------------------------------------------------------


def _columns(stream):
    """One bank's run columns for *stream*, ``(row, interval step,
    count)`` runs, as the grid builds them from its segment list."""
    segments = []
    interval = 0
    time_ns = 0
    for row, step, count in stream:
        interval += step
        segments.append(
            (list(range(time_ns, time_ns + count)), 0, row, False, interval)
        )
        time_ns += count
    starts = array("q", accumulate(
        (len(segment[0]) for segment in segments), initial=0
    ))
    bounds = [
        (segment[4], starts[index + 1])
        for index, segment in enumerate(segments)
        if index + 1 == len(segments) or segments[index + 1][4] != segment[4]
    ]
    [runs] = _bank_runs(segments, starts, bounds, [_BankRuns()])
    return runs


def _generator(mitigation):
    """A mitigation's random stream (CaPRoMi's is its counter table's),
    or None."""
    holder = getattr(mitigation, "counters", mitigation)
    return getattr(holder, "_rng", None)


def _draws(decider, mitigation):
    """The decider's pre-drawn draws not yet consumed and where its
    generator then stands, and the reference *mitigation*'s generator
    advanced by as many draws: equal iff both consumed the same draws."""
    generator = _generator(mitigation)
    if generator is None:
        return ([], None), ([], None)
    pending = list(getattr(decider, "_buf", ()))[getattr(decider, "_pos", 0):]
    expected = random.Random()
    expected.setstate(generator.getstate())
    ahead = [expected.random() for _ in pending]
    return (pending, _generator(decider.mitigation).getstate()), (
        ahead, expected.getstate()
    )


def _state(m):
    """What a mitigation's next decisions depend on (ProHit's
    ``_trigger`` is read only for table entries)."""
    if isinstance(m, TiVaPRoMiBase):
        return [(entry.row, entry.interval) for entry in m.history._entries]
    if isinstance(m, MRLoc):
        return list(m._queue)
    if isinstance(m, ProHit):
        return (
            list(m._hot), list(m._cold),
            {victim: m._trigger[victim] for victim in m._hot + m._cold},
        )
    if isinstance(m, TWiCe):
        table = {row: (e.count, e.life) for row, e in m._table.items()}
        return table, m.max_occupancy
    if isinstance(m, CRA):
        return dict(m._counters)
    if isinstance(m, CaPRoMi):
        counters = m.counters
        return (
            [(e.row, e.count, e.locked, e.history_link) for e in counters.entries()],
            counters.dropped,
        )
    return None  # PARA: its generator is its only state


def _kernel_state(decider):
    """A decider's decision state, as its reference mitigation holds it."""
    if isinstance(decider, deciders._TiVaPRoMiDecider):
        return list(decider.table.items())
    return _state(decider.mitigation)


def _without_rng(registry):
    """A registry's content but the decider-only block accounting."""
    state = registry.as_dict()
    state["counters"] = {
        name: value for name, value in state["counters"].items()
        if not name.startswith("rng_")
    }
    return state


def _assert_kernel_matches(technique, config, seed, stream, **kwargs):
    """``decide_chunk`` per interval == the reference mitigation's
    ``on_activation`` per record, with the same refresh ticks between
    intervals."""
    runs = _columns(stream)
    registries = MetricsRegistry(), MetricsRegistry()
    kernel = deciders._make_decider(
        make_mitigation(technique, config, bank=0, seed=seed, **kwargs)
    )
    reference = make_mitigation(technique, config, bank=0, seed=seed, **kwargs)
    kernel.attach_telemetry(EngineTelemetry.create(None, registries[0]))
    reference.telemetry = EngineTelemetry.create(None, registries[1])
    done = -1
    for interval in sorted(runs.chunks):
        for tick in range(done + 1, interval + 1):
            assert kernel.on_refresh(tick) == reference.on_refresh(tick)
        done = interval
        lo, hi = runs.chunks[interval]
        expected = [
            (record, action)
            for run in range(lo, hi)
            for record in range(runs.ends[run], runs.ends[run + 1])
            for action in reference.on_activation(runs.rows[run], interval)
        ]
        fired = kernel.decide_chunk(runs, lo, hi, interval)
        assert [
            (record, action) for record, actions in fired
            for action in actions
        ] == expected
        assert _kernel_state(kernel) == _state(reference)
        drawn, reference_drawn = _draws(kernel, reference)
        assert drawn == reference_drawn
    assert _without_rng(registries[0]) == _without_rng(registries[1])


KERNEL_SETTINGS = settings(
    max_examples=25, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

#: a few neighbouring rows, so tables hit and victims repeat
pooled_rows = st.integers(min_value=ROWS // 2 - 6, max_value=ROWS // 2 + 6)
edge_rows = st.sampled_from([0, 1, ROWS - 2, ROWS - 1])
#: runs of mixed traffic: short runs, table hits, an edge row now and then
mixed_runs = st.lists(
    st.tuples(
        st.one_of(pooled_rows, edge_rows, st.integers(0, ROWS - 1)),
        st.integers(min_value=0, max_value=2),
        st.integers(min_value=1, max_value=12),
    ),
    min_size=1, max_size=80,
)
#: the configured pbase, raised ones, and one whose ceiling is >= 1
pbases = st.sampled_from([CONFIG.pbase, 0.002, 0.02, 0.5])


@KERNEL_SETTINGS
@given(
    technique=st.sampled_from(technique_names()),
    seed=st.integers(0, 50), pbase=pbases, stream=mixed_runs,
)
def test_chunk_kernel_matches_stepping(technique, seed, pbase, stream):
    """Every paper technique, on mixed runs, at any pbase (ceiling >= 1
    makes every record a candidate)."""
    _assert_kernel_matches(
        technique, CONFIG.scaled(pbase=pbase), seed, stream
    )


@KERNEL_SETTINGS
@given(
    technique=st.sampled_from(technique_names()),
    seed=st.integers(0, 50),
    stream=st.lists(
        st.tuples(
            pooled_rows, st.integers(0, 1), st.integers(1, 3000),
        ),
        min_size=1, max_size=12,
    ),
)
def test_chunk_kernel_matches_stepping_on_flooding(technique, seed, stream):
    """Long flooding runs of a few rows."""
    _assert_kernel_matches(
        technique, CONFIG.scaled(pbase=0.002), seed, stream
    )


@KERNEL_SETTINGS
@given(
    seed=st.integers(0, 50),
    base=st.sampled_from([0.0003, 0.01, 0.2]),
    pairs=st.lists(
        st.tuples(st.integers(1, 200), st.integers(1, 200), st.integers(0, 1)),
        min_size=1, max_size=20,
    ),
)
def test_mrloc_kernel_on_two_victim_repeats(seed, base, pairs):
    """Two aggressors sharing a victim, alternating: the recency queue
    holds three victims for the whole stream."""
    row = ROWS // 2
    stream = []
    for first, second, step in pairs:
        stream += [(row, step, first), (row + 2, 0, second)]
    _assert_kernel_matches(
        "MRLoc", CONFIG, seed, stream, base_probability=base,
    )


@KERNEL_SETTINGS
@given(
    technique=tiva_techniques, seed=st.integers(0, 50),
    stream=st.lists(
        st.tuples(
            st.sampled_from([ROWS // 2, ROWS // 2 + 8, ROWS // 2 + 16]),
            st.integers(0, 3), st.integers(1, 40),
        ),
        min_size=1, max_size=60,
    ),
)
def test_tivapromi_kernel_on_table_hits(technique, seed, stream):
    """Three rows at a high pbase: most triggers hit the history table."""
    _assert_kernel_matches(
        technique, CONFIG.scaled(pbase=0.01), seed, stream
    )


@KERNEL_SETTINGS
@given(
    seed=st.integers(0, 50),
    probability=st.sampled_from([0.001, 0.01, 0.1]),
    stream=st.lists(
        st.tuples(pooled_rows, st.integers(0, 1), st.integers(200, 320)),
        min_size=1, max_size=12,
    ),
)
def test_para_kernel_across_draw_blocks(seed, probability, stream):
    """Runs about one 256-draw block long: triggers straddle blocks and
    each rewinds the generator."""
    _assert_kernel_matches(
        "PARA", CONFIG, seed, stream, probability=probability
    )


@KERNEL_SETTINGS
@given(
    seed=st.integers(0, 50),
    insert=st.sampled_from([0.005, 0.1, 0.6]),
    stream=st.lists(
        st.tuples(pooled_rows, st.integers(0, 2), st.integers(1, 30)),
        min_size=1, max_size=80,
    ),
)
def test_prohit_kernel_hits_across_refresh_pops(seed, insert, stream):
    """A few rows, so victims hit the tables, with refresh pops between
    intervals."""
    _assert_kernel_matches(
        "ProHit", CONFIG, seed, stream, insert_probability=insert
    )


# ---------------------------------------------------------------------------
# draw blocks: _random_block and PARA's replay vs scalar random()
# ---------------------------------------------------------------------------


def _advanced(seed, words):
    """A generator seeded with *seed* that has already handed out
    *words* 32-bit outputs."""
    rng = random.Random(seed)
    for _ in range(words):
        rng.getrandbits(32)
    return rng


def _assert_block_matches(seed, words, count):
    block, scalar = _advanced(seed, words), _advanced(seed, words)
    values = deciders._random_block(block, count)
    assert values.dtype == np.float64
    assert values.tolist() == [scalar.random() for _ in range(count)]
    assert block.getstate() == scalar.getstate()


BLOCK_SETTINGS = settings(max_examples=30, deadline=None)
generator_seeds = st.integers(min_value=0, max_value=2**64 - 1)


@pytest.mark.parametrize("count", [1, 2, 255, 256, 4096])
@BLOCK_SETTINGS
@given(seed=generator_seeds, odd=st.integers(min_value=0, max_value=4))
def test_random_block_equals_scalar_draws_at_block_sizes(count, seed, odd):
    """The deciders' block sizes and their neighbours, from a generator
    an odd number of 32-bit outputs in (each ``random()`` takes two, so
    the block starts mid-pair of the generator's own words)."""
    _assert_block_matches(seed, 2 * odd + 1, count)


@BLOCK_SETTINGS
@given(
    seed=generator_seeds,
    words=st.integers(min_value=0, max_value=9),
    count=st.integers(min_value=0, max_value=5000),
)
def test_random_block_equals_scalar_draws(seed, words, count):
    _assert_block_matches(seed, words, count)


@BLOCK_SETTINGS
@given(
    seed=st.integers(0, 50),
    consumed=st.integers(min_value=0, max_value=deciders._PARA_BLOCK),
)
@example(seed=0, consumed=0)
def test_para_rewind_replays_consumed_draws(seed, consumed):
    """A PARA trigger after *consumed* draws of a block (none included)
    rewinds the generator to where *consumed* ``random()`` calls leave
    it, so its ``randrange`` picks the reference's victim."""
    kernel = deciders._make_decider(
        make_mitigation("PARA", CONFIG, bank=0, seed=seed)
    )
    expected = make_mitigation("PARA", CONFIG, bank=0, seed=seed)._rng
    kernel._refill()
    row = ROWS // 2
    (action,) = kernel._trigger(row, consumed)
    for _ in range(consumed):
        expected.random()
    neighbors = CONFIG.geometry.assumed_neighbors(row)
    assert action.row == neighbors[expected.randrange(len(neighbors))]
    assert kernel._rng.getstate() == expected.getstate()
