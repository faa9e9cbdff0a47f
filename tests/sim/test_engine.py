"""Tests for the trace-driven simulation engine."""

import pytest

from repro.config import small_test_config
from repro.mitigations.registry import make_factory
from repro.sim.engine import ENGINE_NAMES, get_engine, run_cells, run_simulation
from repro.sim.fused_engine import GridCell, grid_cells
from repro.telemetry.tracer import RecordingTracer
from repro.traces.attacker import double_sided, flooding
from repro.traces.mixer import build_trace
from repro.traces.record import Trace, TraceMeta, TraceRecord


def attack_trace(config, intervals=32, rate=100, victim=300):
    # victim 300 sits in refresh group 37, past the default 32-interval
    # horizon, so its disturbance accumulates for the whole trace
    attack = double_sided(
        config.geometry, bank=0, victim=victim, acts_per_interval=rate
    )
    return build_trace(config, total_intervals=intervals, attacks=[attack])


class TestIntervalAccounting:
    def test_all_intervals_ticked_even_with_sparse_trace(self):
        config = small_test_config()
        meta = TraceMeta(total_intervals=10, interval_ns=7800, num_banks=1)
        trace = Trace(meta=meta, records=[TraceRecord(100, 0, 5)])
        result = run_simulation(config, trace, None)
        assert result.intervals_simulated == 10

    def test_empty_trace_still_refreshes(self):
        config = small_test_config()
        meta = TraceMeta(total_intervals=5, interval_ns=7800, num_banks=1)
        result = run_simulation(config, Trace(meta=meta, records=[]), None)
        assert result.intervals_simulated == 5
        assert result.normal_activations == 0

    def test_record_interval_derived_from_time(self):
        config = small_test_config()
        meta = TraceMeta(total_intervals=4, interval_ns=7800, num_banks=1)
        # one record in interval 2
        trace = Trace(meta=meta, records=[TraceRecord(2 * 7800 + 5, 0, 5)])
        result = run_simulation(config, trace, None)
        assert result.normal_activations == 1


class TestUnmitigated:
    def test_sustained_attack_flips_without_mitigation(self):
        config = small_test_config(flip_threshold=2_000)
        result = run_simulation(config, attack_trace(config), None)
        assert result.attack_succeeded
        assert result.max_disturbance >= 2_000
        assert result.protection_margin == 0.0

    def test_attack_activations_counted(self):
        config = small_test_config(flip_threshold=2_000)
        result = run_simulation(config, attack_trace(config), None)
        assert result.attack_activations == result.normal_activations > 0


class TestMitigated:
    @pytest.mark.parametrize(
        "technique",
        ["PARA", "ProHit", "MRLoc", "TWiCe", "CRA",
         "LiPRoMi", "LoPRoMi", "LoLiPRoMi", "CaPRoMi"],
    )
    def test_every_technique_prevents_the_flip(self, technique):
        """Section IV reliability claim at a faithfully scaled geometry.

        The protection dynamics of the probabilistic variants depend on
        the ratio between the flip threshold and the re-trigger gap, so
        this test uses a 512-interval window with a threshold scaled to
        keep that ratio in the paper's regime (see DESIGN.md).
        """
        config = small_test_config(rows_per_bank=4096, flip_threshold=40_000)
        trace = attack_trace(config, intervals=512, rate=165, victim=100)
        unprotected = run_simulation(config, trace, None, seed=3)
        assert unprotected.attack_succeeded
        result = run_simulation(
            config,
            attack_trace(config, intervals=512, rate=165, victim=100),
            make_factory(technique),
            seed=3,
        )
        assert not result.attack_succeeded, technique

    def test_mitigation_produces_extras(self):
        config = small_test_config(flip_threshold=2_000)
        result = run_simulation(
            config, attack_trace(config), make_factory("PARA"), seed=1
        )
        assert result.extra_activations > 0
        assert result.overhead_pct > 0
        assert result.technique == "PARA"

    def test_seeds_change_probabilistic_outcomes(self):
        config = small_test_config(flip_threshold=2_000)
        extras = {
            run_simulation(
                config, attack_trace(config), make_factory("PARA"), seed=seed
            ).extra_activations
            for seed in range(4)
        }
        assert len(extras) > 1

    def test_deterministic_given_seed(self):
        config = small_test_config(flip_threshold=2_000)
        runs = [
            run_simulation(
                config, attack_trace(config), make_factory("LiPRoMi"), seed=5
            ).extra_activations
            for _ in range(2)
        ]
        assert runs[0] == runs[1]


class TestEarlyStop:
    def test_stop_after_first_trigger(self):
        config = small_test_config()
        attack = flooding(config.geometry, 0, row=1, acts_per_interval=150)
        trace = build_trace(config, total_intervals=64, attacks=[attack])
        result = run_simulation(
            config, trace, make_factory("LoPRoMi"), seed=2,
            stop_after_first_trigger=True,
        )
        assert result.first_trigger_activation is not None
        assert result.normal_activations == result.first_trigger_activation

    def test_max_activations_cap(self):
        config = small_test_config(flip_threshold=10 ** 9)
        result = run_simulation(
            config, attack_trace(config), None, max_activations=50
        )
        assert result.normal_activations == 50

    @pytest.mark.parametrize("engine", ["reference", "fused"])
    @pytest.mark.parametrize("limit", [0, -1])
    def test_max_activations_below_one_rejected(self, engine, limit):
        from repro.sim.engine import get_engine

        config = small_test_config()
        with pytest.raises(ValueError, match=f"max_activations.*{limit}"):
            get_engine(engine)(
                config, attack_trace(config), None, max_activations=limit
            )


class TestBookkeeping:
    def test_table_bytes_copied_from_mitigation(self):
        config = small_test_config(flip_threshold=2_000)
        result = run_simulation(
            config, attack_trace(config, intervals=4), make_factory("TWiCe")
        )
        assert result.table_bytes > 0

    def test_flip_threshold_recorded(self):
        config = small_test_config(flip_threshold=2_000)
        result = run_simulation(config, attack_trace(config, intervals=4), None)
        assert result.flip_threshold == 2_000

    def test_wall_time_positive(self):
        config = small_test_config()
        result = run_simulation(config, attack_trace(config, intervals=4), None)
        assert result.wall_seconds > 0


class TestRunCells:
    """The one cell-list evaluator yields the same results on every engine."""

    def test_mixed_cell_list_equal_on_reference_and_fused(self):
        config = small_test_config()
        cells = [
            GridCell(technique=None, seed=0),
            GridCell(technique="PARA", seed=1),
            GridCell(technique="LiPRoMi", seed=2),
            *grid_cells(["LoPRoMi"], [0], pbase_scales=(4.0,), config=config),
            GridCell(technique="PARA", seed=3, kwargs=(("probability", 0.01),)),
        ]
        # a fresh lazy trace per call: the reference engine reads it once
        # per cell, the fused engine decodes it once for the whole list
        results = {
            engine: [
                result.as_dict()
                for result in run_cells(config, attack_trace(config), cells, engine)
            ]
            for engine in ("reference", "fused")
        }
        assert [r["technique"] for r in results["reference"]] == [
            "none", "PARA", "LiPRoMi", "LoPRoMi", "PARA",
        ]
        assert results["fused"] == results["reference"]

    @pytest.mark.parametrize("engine", ENGINE_NAMES)
    def test_one_cell_with_a_tracer_runs_like_get_engine(self, engine):
        config = small_test_config()
        expected = get_engine(engine)(
            config, attack_trace(config), make_factory("LiPRoMi"), seed=4,
            tracer=RecordingTracer(),
        )
        tracer = RecordingTracer()
        (result,) = run_cells(
            config, attack_trace(config),
            [GridCell(technique="LiPRoMi", seed=4)], engine, tracer=tracer,
        )
        assert result.as_dict() == expected.as_dict()
        assert len(tracer) > 0  # the tracer reached the cell

    def test_several_fused_cells_with_a_tracer_run_cell_by_cell(self):
        """A tracer records one cell's event stream, so a traced list of
        several fused cells runs cell by cell (the grid would raise)
        and gives the reference engine's results."""
        config = small_test_config()
        cells = [
            GridCell(technique=None, seed=0),
            GridCell(technique="PARA", seed=1),
            GridCell(technique="LiPRoMi", seed=2),
        ]
        tracer = RecordingTracer()
        fused = [
            result.as_dict()
            for result in run_cells(
                config, attack_trace(config), cells, "fused", tracer=tracer
            )
        ]
        reference = [
            result.as_dict()
            for result in run_cells(config, attack_trace(config), cells, "reference")
        ]
        assert fused == reference
        assert len(tracer) > 0

    def test_refresh_policy_reaches_both_engines(self):
        from repro.dram.refresh import RandomRefresh

        config = small_test_config()
        cells = [
            GridCell(technique=None, seed=0),
            *grid_cells(["PARA", "LiPRoMi", "TWiCe"], [1], config=config),
        ]

        def replay(engine, policy):
            return [
                result.as_dict()
                for result in run_cells(
                    config, attack_trace(config), cells, engine,
                    refresh_policy=policy,
                )
            ]

        policy = RandomRefresh(config.geometry, seed=3)
        reference = replay("reference", policy)
        assert replay("fused", policy) == reference
        # the policy reached the runs: under sequential refresh the
        # mitigated cells see other disturbance peaks
        assert reference != replay("reference", None)

    def test_stop_after_first_trigger_reaches_both_engines(self):
        config = small_test_config()
        cells = [GridCell(technique="PARA", seed=seed) for seed in (0, 1, 2)]
        results = {
            engine: [
                result.as_dict()
                for result in run_cells(
                    config, attack_trace(config), cells, engine,
                    stop_after_first_trigger=True,
                )
            ]
            for engine in ("reference", "fused")
        }
        assert results["fused"] == results["reference"]
        for result in results["reference"]:
            # each run ended at its first trigger, long before the trace did
            assert result["normal_activations"] == result["first_trigger_activation"]
