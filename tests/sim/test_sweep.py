"""Tests for the parameter sweeps."""

import pytest

from repro.config import small_test_config
from repro.sim.sweep import sweep_counter_table, sweep_history_table, sweep_pbase
from repro.traces.attacker import double_sided
from repro.traces.mixer import build_trace
from repro.traces.workload import WorkloadParams


def trace_factory(config):
    def factory(seed):
        attack = double_sided(
            config.geometry, bank=0, victim=100, acts_per_interval=60
        )
        return build_trace(
            config,
            total_intervals=32,
            benign_params=WorkloadParams(avg_acts_per_interval=15),
            attacks=[attack],
            seed=seed,
        )

    return factory


#: each sweep over three design points and two seeds, on an engine
SWEEPS = {
    "history_table": lambda config, engine: sweep_history_table(
        config, trace_factory(config), sizes=(4, 16, 32), seeds=(0, 1),
        engine=engine,
    ),
    "counter_table": lambda config, engine: sweep_counter_table(
        config, trace_factory(config), sizes=(8, 16, 64), seeds=(0, 1),
        engine=engine,
    ),
    "pbase": lambda config, engine: sweep_pbase(
        config, trace_factory(config), scales=(0.5, 1.0, 2.0), seeds=(0, 1),
        check_flooding=False, engine=engine,
    ),
}


def point_key(point):
    return (point.value, point.flips, point.overhead_pct, point.table_bytes)


class TestHistorySweep:
    def test_one_point_per_size(self):
        config = small_test_config(flip_threshold=5_000)
        points = sweep_history_table(
            config, trace_factory(config), sizes=(4, 16), seeds=(0,)
        )
        assert [point.value for point in points] == [4, 16]
        assert all(point.parameter == "history_table_entries" for point in points)

    def test_table_bytes_grow_with_size(self):
        config = small_test_config(flip_threshold=5_000)
        points = sweep_history_table(
            config, trace_factory(config), sizes=(4, 16), seeds=(0,)
        )
        assert points[1].table_bytes > points[0].table_bytes


class TestCounterSweep:
    def test_runs_capromi(self):
        config = small_test_config(flip_threshold=5_000)
        points = sweep_counter_table(
            config, trace_factory(config), sizes=(8, 16), seeds=(0,)
        )
        assert len(points) == 2
        assert all(point.flips == 0 for point in points)


class TestPbaseSweep:
    def test_overhead_monotone_in_pbase(self):
        config = small_test_config(flip_threshold=5_000)
        points = sweep_pbase(
            config,
            trace_factory(config),
            scales=(0.5, 4.0),
            seeds=(0, 1),
            check_flooding=False,
        )
        assert points[1].overhead_pct >= points[0].overhead_pct

    def test_flooding_margin_included_when_requested(self):
        config = small_test_config(flip_threshold=5_000)
        points = sweep_pbase(
            config,
            trace_factory(config),
            scales=(4.0,),
            seeds=(0,),
            check_flooding=True,
            flood_seeds=(0, 1),
        )
        assert points[0].flood_median_acts is None or points[0].flood_median_acts > 0


class TestRefreshMappingAblation:
    def test_assumed_vs_exact_mapping(self):
        from repro.config import small_test_config
        from repro.dram.refresh import RandomRefresh
        from repro.sim.sweep import refresh_mapping_ablation
        from repro.traces.mixer import paper_mixed_workload

        config = small_test_config(
            rows_per_bank=2048, num_banks=2, flip_threshold=30_000
        )
        factory = lambda seed: paper_mixed_workload(
            config, total_intervals=256, seed=seed
        )
        policy_factory = lambda seed: RandomRefresh(config.geometry, seed=0)
        assumed, exact = refresh_mapping_ablation(
            config, factory, policy_factory, seeds=(0,)
        )
        # both protect (the paper's "not required to be effective")
        assert assumed.total_flips == 0
        assert exact.total_flips == 0
        # exact knowledge can only reduce wasted activations (weights
        # computed against the true refresh order are never stale)
        assert exact.overhead_mean <= assumed.overhead_mean * 1.2

    def test_refresh_slot_of_inverts_policy(self):
        from repro.config import small_test_config
        from repro.dram.refresh import RandomRefresh

        config = small_test_config()
        policy = RandomRefresh(config.geometry, seed=4)
        for interval in (0, 5, 63):
            for row in policy.rows_for_interval(interval):
                assert policy.refresh_slot_of(row) == interval


class TestSweepGrids:
    """Degenerate grid handling: empty, single-point, and duplicates."""

    def config(self):
        return small_test_config(flip_threshold=5_000)

    def test_empty_grid_returns_no_points(self):
        config = self.config()
        assert sweep_history_table(
            config, trace_factory(config), sizes=(), seeds=(0,)
        ) == []
        assert sweep_counter_table(
            config, trace_factory(config), sizes=(), seeds=(0,)
        ) == []
        assert sweep_pbase(
            config, trace_factory(config), scales=(), seeds=(0,),
            check_flooding=False,
        ) == []

    def test_single_point_grid(self):
        config = self.config()
        points = sweep_history_table(
            config, trace_factory(config), sizes=(16,), seeds=(0,)
        )
        assert len(points) == 1
        assert points[0].parameter == "history_table_entries"
        assert points[0].value == 16

    def test_duplicate_values_deduplicated_in_order(self):
        config = self.config()
        points = sweep_history_table(
            config, trace_factory(config), sizes=(4, 4, 16, 4), seeds=(0,)
        )
        assert [point.value for point in points] == [4, 16]

    def test_duplicate_pbase_scales_deduplicated(self):
        config = self.config()
        points = sweep_pbase(
            config, trace_factory(config), scales=(1.0, 1.0), seeds=(0,),
            check_flooding=False,
        )
        assert [point.value for point in points] == [1.0]

    def test_equal_value_distinct_spelling_scales_deduplicated(self):
        """Regression: dedup canonicalises to the float value, so ``1``,
        ``1.0`` and ``"1e0"`` are one grid point, and the first spelling
        wins (``int`` here, as passed)."""
        from repro.sim.sweep import _unique

        assert _unique([1, 1.0, "1e0", 0.5, "0.5", 2]) == [1, 0.5, 2]
        # non-numeric values still dedup by identity rather than crash
        assert _unique(["a", "a", "b"]) == ["a", "b"]

        config = self.config()
        points = sweep_pbase(
            config, trace_factory(config), scales=(1, 1.0, "1e0", 2.0),
            seeds=(0,), check_flooding=False,
        )
        assert [float(point.value) for point in points] == [1.0, 2.0]

    @pytest.mark.parametrize("sweep", sorted(SWEEPS))
    def test_fused_sweep_matches_reference_sweep(self, sweep):
        """Every sweep gives the same points on the fused engine as on
        the per-cell reference engine: same values, same aggregates."""
        config = self.config()
        reference = SWEEPS[sweep](config, "reference")
        fused = SWEEPS[sweep](config, "fused")
        assert len(reference) == 3
        assert [point_key(point) for point in fused] == [
            point_key(point) for point in reference
        ]

    @pytest.mark.parametrize("sweep", sorted(SWEEPS))
    def test_fast_alias_runs_one_grid_per_trace_seed(self, monkeypatch, sweep):
        """``fast`` names the fused engine, so each sweep rides one grid
        per trace seed, every design point a cell, as a ``fused`` one
        does, each grid decoding its trace once."""
        import repro.sim.fused_engine as fused
        from repro.telemetry.metrics import MetricsRegistry

        config = self.config()
        real = fused.run_simulation_grid
        registry = MetricsRegistry()
        grids = []

        def counting(config, trace, cells, **kwargs):
            grids.append(len(cells))
            kwargs["metrics"] = registry
            return real(config, trace, cells, **kwargs)

        monkeypatch.setattr(fused, "run_simulation_grid", counting)

        def replay(engine):
            grids.clear()
            registry.counters.clear()
            points = SWEEPS[sweep](config, engine)
            return (
                list(grids), registry.counters["fused.segments"].value,
                [point_key(point) for point in points],
            )

        fast = replay("fast")
        assert fast[0] == [3, 3]
        assert fast == replay("fused")
