"""Unit and property tests for the modern tracker families.

Covers the Loaded Dice sampler, RVC's victim-centric counters, PVAC's
exhaustive per-victim counters, the PRAC/PRACtical activation counters
with their ALERT recovery channel, and the probabilistic
tracker-management policies -- plus the registry tiers, the
``RecoveryRefresh`` action and the subarray-aware geometry they rely
on.  The Hypothesis properties pin the invariants the run-batched
``observe_run`` fast paths depend on: bounded occupancy, counter
monotonicity between triggers, and exact equivalence between the
batched and the per-record observation paths.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.config import small_test_config
from repro.dram.refresh import RecoveryChannel
from repro.mitigations.base import (
    ActivateNeighbors,
    RecoveryRefresh,
    RefreshRow,
    total_extra_activations,
)
from repro.mitigations.modern import (
    PRAC,
    PVAC,
    RVC,
    LoadedDice,
    PRACtical,
    ProbabilisticTracker,
)
from repro.mitigations.registry import (
    MODERN_TECHNIQUES,
    make_mitigation,
    resolve_technique,
    technique_names,
    technique_tier,
)

CONFIG = small_test_config()
SUBARRAY_CONFIG = small_test_config(num_banks=2, subarrays_per_bank=4)

MODERN_CLASSES = {
    "LoadedDice": LoadedDice,
    "RVC": RVC,
    "PVAC": PVAC,
    "PRAC": PRAC,
    "PRACtical": PRACtical,
    "ProbTracker": ProbabilisticTracker,
}


class TestRegistryTiers:
    def test_modern_names_registered(self):
        assert set(MODERN_TECHNIQUES) == set(MODERN_CLASSES)
        names = technique_names(include_modern=True)
        for name in MODERN_CLASSES:
            assert name in names

    def test_default_names_unchanged(self):
        """The paper's nine-row default is untouched by the new tier."""
        assert len(technique_names()) == 9
        assert not set(technique_names()) & set(MODERN_TECHNIQUES)

    def test_tiers(self):
        assert technique_tier("PARA") == "paper"
        assert technique_tier("CounterTree") == "extended"
        for name in MODERN_CLASSES:
            assert technique_tier(name) == "modern"
        with pytest.raises(ValueError):
            technique_tier("nope")

    def test_resolve_spans_modern(self):
        for name in MODERN_CLASSES:
            assert resolve_technique(name.lower()) == name

    def test_every_modern_name_instantiates(self):
        for name, cls in MODERN_CLASSES.items():
            mitigation = make_mitigation(name, CONFIG, bank=0, seed=1)
            assert isinstance(mitigation, cls)
            assert mitigation.name == name
            assert mitigation.table_bytes >= 0
            assert isinstance(cls.known_vulnerabilities, tuple)


class TestRecoveryRefresh:
    def test_row_property_is_trigger(self):
        action = RecoveryRefresh(rows=(3, 5), trigger_row=5)
        assert action.row == 5

    def test_cost_sums_neighbor_counts(self):
        geometry = CONFIG.geometry
        edge = 0
        middle = geometry.rows_per_bank // 2
        actions = [
            RecoveryRefresh(rows=(edge, middle), trigger_row=middle),
            RefreshRow(row=middle, trigger_row=middle),
            ActivateNeighbors(row=edge),
        ]
        counts = lambda row: len(geometry.neighbors(row))  # noqa: E731
        assert total_extra_activations(actions, counts) == (1 + 2) + 1 + 1


class TestRecoveryChannel:
    def test_fifo_and_stats(self):
        channel = RecoveryChannel()
        channel.raise_alert(bank=0, subarray=1, row=10, interval=3)
        channel.raise_alert(bank=0, subarray=0, row=4, interval=3)
        assert len(channel) == 2
        assert channel.alerts_raised == 2
        assert channel.max_depth == 2
        events = channel.drain()
        assert [event.row for event in events] == [10, 4]
        assert len(channel) == 0
        assert channel.drain() == []

    def test_drain_by_subarray_groups_in_first_alert_order(self):
        channel = RecoveryChannel()
        for subarray, row in ((2, 20), (0, 1), (2, 21), (0, 2)):
            channel.raise_alert(bank=0, subarray=subarray, row=row, interval=0)
        grouped = channel.drain_by_subarray()
        assert list(grouped) == [2, 0]
        assert [event.row for event in grouped[2]] == [20, 21]
        assert [event.row for event in grouped[0]] == [1, 2]


class TestSubarrayGeometry:
    def test_neighbors_confined_to_subarray(self):
        geometry = SUBARRAY_CONFIG.geometry
        width = geometry.rows_per_subarray
        assert geometry.neighbors(0) == (1,)
        assert geometry.neighbors(width - 1) == (width - 2,)
        assert geometry.neighbors(width) == (width + 1,)
        assert geometry.neighbors(width + 1) == (width, width + 2)

    def test_subarray_of(self):
        geometry = SUBARRAY_CONFIG.geometry
        width = geometry.rows_per_subarray
        assert geometry.subarray_of(0) == 0
        assert geometry.subarray_of(width) == 1
        assert geometry.subarray_of(geometry.rows_per_bank - 1) == 3

    def test_single_subarray_matches_flat_geometry(self):
        geometry = CONFIG.geometry
        row = geometry.rows_per_bank // 2
        assert geometry.neighbors(row) == (row - 1, row + 1)
        assert geometry.neighbors(0) == (1,)

    def test_invalid_subarray_counts_rejected(self):
        with pytest.raises(ValueError):
            small_test_config(rows_per_bank=512, subarrays_per_bank=7)
        with pytest.raises(ValueError):
            small_test_config(rows_per_bank=8, rows_per_interval=2,
                              subarrays_per_bank=8)


class TestLoadedDice:
    def test_occupancy_bounded(self):
        dice = LoadedDice(CONFIG, seed=0, entries=4, probability=1e-9)
        for row in range(40):
            dice.on_activation(row * 2, interval=0)
        assert dice.max_occupancy == 4

    def test_selection_is_a_tracked_aggressor(self):
        dice = LoadedDice(CONFIG, seed=3, entries=8, probability=1.0)
        tracked = (10, 20, 30)
        for row in tracked:
            actions = dice.on_activation(row, interval=0)
            assert len(actions) == 1
            assert isinstance(actions[0], ActivateNeighbors)
            assert actions[0].row in tracked


class TestRVC:
    def test_trigger_refreshes_the_victim(self):
        rvc = RVC(CONFIG, trigger_threshold=3)
        row = 100
        actions = []
        for _ in range(3):
            actions = rvc.on_activation(row, interval=0)
        refreshed = {a.row for a in actions if isinstance(a, RefreshRow)}
        assert refreshed == {99, 101}

    def test_counters_cleared_on_refresh_window(self):
        rvc = RVC(CONFIG, trigger_threshold=50)
        victim = 99
        rvc.on_activation(100, interval=0)
        assert rvc.counter(victim) > 0
        # the interval whose refresh slot covers the victim row
        interval = victim // CONFIG.geometry.rows_per_interval
        rvc.on_refresh(interval)
        assert rvc.counter(victim) == 0

    def test_eviction_under_pressure(self):
        rvc = RVC(CONFIG, entries=4, trigger_threshold=1000)
        for row in range(0, 64, 4):
            rvc.on_activation(row, interval=0)
        assert rvc.evictions > 0


class TestPRACFamily:
    def test_prac_emits_recovery_refresh(self):
        prac = PRAC(CONFIG, back_off_threshold=2)
        row = 50
        assert prac.on_activation(row, interval=0) == ()
        actions = prac.on_activation(row, interval=0)
        assert len(actions) == 1
        assert isinstance(actions[0], RecoveryRefresh)
        assert actions[0].rows == (row,)
        assert prac.channel.alerts_raised == 1

    def test_practical_batches_per_subarray(self):
        config = SUBARRAY_CONFIG
        practical = PRACtical(config, back_off_threshold=1)
        width = config.geometry.rows_per_subarray
        rows = (1, 3, width + 5)
        for row in rows:
            assert practical.on_activation(row, interval=0) == ()
        actions = practical.on_refresh(interval=0)
        recoveries = [a for a in actions if isinstance(a, RecoveryRefresh)]
        assert len(recoveries) == 2  # one batch per alerted subarray
        assert recoveries[0].rows == (1, 3)
        assert recoveries[1].rows == (width + 5,)
        assert practical.subarray_recoveries[0] == 1
        assert practical.subarray_recoveries[1] == 1


@st.composite
def activation_runs(draw):
    """A row plus a split of one activation run into two chunks."""
    row = draw(st.integers(min_value=1, max_value=510))
    count = draw(st.integers(min_value=1, max_value=64))
    interval = draw(st.integers(min_value=0, max_value=15))
    return row, count, interval


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    name=st.sampled_from(sorted(MODERN_CLASSES)),
    runs=st.lists(activation_runs(), min_size=1, max_size=6),
    seed=st.integers(min_value=0, max_value=20),
)
def test_observe_run_matches_per_record_path(name, runs, seed):
    """The run-batched observation path must replay exactly like the
    per-record ``on_activation`` loop: same actions at the same
    activation index, run after run.  This is the ``observe_run``
    contract the fused engine relies on for exactness."""
    batched = make_mitigation(name, CONFIG, bank=0, seed=seed)
    scalar = make_mitigation(name, CONFIG, bank=0, seed=seed)
    for row, count, interval in runs:
        remaining = count
        while remaining:
            clean, actions = batched.observe_run(row, interval, remaining)
            if clean == remaining:
                # whole chunk clean: the scalar path must fire nothing
                for index in range(remaining):
                    step = scalar.on_activation(row, interval)
                    assert not step, (
                        f"{name}: scalar fired at act {index}, batched "
                        f"saw {remaining} clean acts"
                    )
                break
            assert 0 <= clean < remaining
            for index in range(clean):
                step = scalar.on_activation(row, interval)
                assert not step, (
                    f"{name}: scalar fired early at act {index}, batched "
                    f"said {clean} clean acts"
                )
            step = scalar.on_activation(row, interval)
            assert list(step) == list(actions)
            remaining -= clean + 1


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    name=st.sampled_from(["RVC", "PVAC", "PRAC"]),
    count=st.integers(min_value=1, max_value=50),
)
def test_deterministic_counters_monotone_until_trigger(name, count):
    """Below the trigger threshold, the deterministic families grow
    their counter by exactly one per activation -- no decay, no skips."""
    kwargs = (
        {"back_off_threshold": 10_000}
        if name == "PRAC"
        else {"trigger_threshold": 10_000}
    )
    mitigation = make_mitigation(name, CONFIG, bank=0, seed=0, **kwargs)
    row = 100
    tracked = row if name == "PRAC" else row + 1  # PRAC counts aggressors
    for step in range(1, count + 1):
        assert mitigation.on_activation(row, interval=0) == ()
        assert mitigation.counter(tracked) == step


@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    entries=st.integers(min_value=1, max_value=8),
    rows=st.lists(st.integers(min_value=1, max_value=510),
                  min_size=1, max_size=60),
    seed=st.integers(min_value=0, max_value=10),
)
def test_bounded_tables_never_exceed_capacity(entries, rows, seed):
    """LoadedDice, RVC and ProbTracker must respect their configured
    table capacity under any activation pattern."""
    dice = LoadedDice(CONFIG, seed=seed, entries=entries, probability=0.5)
    rvc = RVC(CONFIG, entries=entries, trigger_threshold=10_000)
    tracker = ProbabilisticTracker(
        CONFIG, seed=seed, entries=entries, insert_probability=0.5
    )
    for row in rows:
        dice.on_activation(row, interval=0)
        rvc.on_activation(row, interval=0)
        tracker.on_activation(row, interval=0)
    assert dice.max_occupancy <= entries
    assert rvc.max_occupancy <= entries
    assert tracker.max_occupancy <= entries


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    threshold=st.integers(min_value=1, max_value=16),
    count=st.integers(min_value=1, max_value=200),
)
def test_practical_alert_accounting(threshold, count):
    """PRACtical queues exactly floor(count / threshold) alerts for a
    single hammered row and keeps the remainder in the counter."""
    practical = PRACtical(CONFIG, back_off_threshold=threshold)
    row = 50
    clean, actions = practical.observe_run(row, 0, count)
    assert clean == count and actions == ()
    expected_alerts, remainder = divmod(count, threshold)
    assert practical.channel.alerts_raised == expected_alerts
    assert practical._counters.get(row, 0) == remainder
