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
  run with the same (technique, seed, pbase).
"""

from __future__ import annotations

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.config import small_test_config
from repro.mitigations.registry import (
    make_factory,
    make_mitigation,
    technique_names,
)
from repro.sim.engine import run_simulation
from repro.sim.fused_engine import (
    _CaPRoMiDecider,
    _TiVaPRoMiDecider,
    _TWiCeDecider,
    grid_cells,
)
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
    """Feed a Hypothesis run stream; yield after every decision."""
    interval = 0
    for row, step, count in stream:
        interval += step
        decider.decide_run(row, interval, count)
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
