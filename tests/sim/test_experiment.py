"""Tests for multi-seed experiment aggregation."""

import pytest

from repro.config import small_test_config
from repro.sim.experiment import (
    TechniqueAggregate,
    compare_techniques,
    default_trace_factory,
    run_technique,
)
from repro.sim.metrics import SimResult
from repro.telemetry.metrics import MetricsRegistry
from repro.traces.attacker import double_sided
from repro.traces.mixer import build_trace


def trace_factory(config, intervals=24):
    def factory(seed):
        # victim 300 is refreshed after the trace horizon, so the
        # unmitigated attack accumulates for the whole trace
        attack = double_sided(
            config.geometry, bank=0, victim=300, acts_per_interval=120
        )
        return build_trace(
            config, total_intervals=intervals, attacks=[attack], seed=seed
        )

    return factory


class TestAggregate:
    def make(self):
        aggregate = TechniqueAggregate(technique="T")
        for seed, (extra, fp) in enumerate([(10, 2), (20, 4), (30, 6)]):
            aggregate.results.append(
                SimResult(
                    technique="T",
                    seed=seed,
                    normal_activations=10_000,
                    extra_activations=extra,
                    fp_extra_activations=fp,
                    table_bytes=64,
                    flip_threshold=1000,
                )
            )
        return aggregate

    def test_means(self):
        aggregate = self.make()
        assert aggregate.overhead_mean == pytest.approx(0.2)
        assert aggregate.fpr_mean == pytest.approx(0.04)

    def test_std(self):
        assert self.make().overhead_std == pytest.approx(0.1)

    def test_cell_format(self):
        cell = self.make().overhead_cell()
        assert cell.startswith("(0.2000 +- 0.1000")

    def test_flip_aggregation(self):
        aggregate = self.make()
        assert aggregate.total_flips == 0
        assert not aggregate.any_attack_succeeded

    def test_table_bytes_from_first_result(self):
        assert self.make().table_bytes == 64

    def test_summary_text(self):
        assert "T" in self.make().summary()

    def test_single_seed_std_is_zero(self):
        """Regression: a single-seed campaign must report sigma = 0.0
        (and a well-formed Table III cell), not raise."""
        aggregate = TechniqueAggregate(technique="T")
        aggregate.results.append(
            SimResult(
                technique="T",
                seed=0,
                normal_activations=10_000,
                extra_activations=10,
                fp_extra_activations=2,
                flip_threshold=1000,
            )
        )
        assert aggregate.overhead_std == 0.0
        assert aggregate.overhead_mean == pytest.approx(0.1)
        assert "+- 0.0000" in aggregate.overhead_cell()

    def test_empty_aggregate_is_inert(self):
        """No seeds run yet: every statistic degrades to zero."""
        aggregate = TechniqueAggregate(technique="T")
        assert aggregate.overhead_mean == 0.0
        assert aggregate.overhead_std == 0.0
        assert aggregate.fpr_mean == 0.0
        assert aggregate.total_flips == 0
        assert aggregate.table_bytes == 0
        assert aggregate.min_protection_margin == 0.0
        assert aggregate.wall_seconds == 0.0

    def test_wall_seconds_sums_across_seeds(self):
        aggregate = self.make()
        for result in aggregate.results:
            result.wall_seconds = 0.5
        assert aggregate.wall_seconds == pytest.approx(1.5)


class TestRunTechnique:
    def test_one_result_per_seed(self):
        config = small_test_config(flip_threshold=2_000)
        aggregate = run_technique(
            config, "PARA", trace_factory(config), seeds=(0, 1, 2)
        )
        assert len(aggregate.results) == 3
        assert aggregate.technique == "PARA"

    def test_none_runs_unmitigated(self):
        config = small_test_config(flip_threshold=2_000)
        aggregate = run_technique(config, None, trace_factory(config), seeds=(0,))
        assert aggregate.technique == "none"
        assert aggregate.results[0].extra_activations == 0

    def test_kwargs_forwarded(self):
        config = small_test_config(flip_threshold=2_000)
        strong = run_technique(
            config, "PARA", trace_factory(config), seeds=(0,), probability=0.05
        )
        weak = run_technique(
            config, "PARA", trace_factory(config), seeds=(0,), probability=0.001
        )
        assert strong.overhead_mean > weak.overhead_mean


class TestCompare:
    def test_compare_subset(self):
        config = small_test_config(flip_threshold=2_000)
        comparison = compare_techniques(
            config,
            trace_factory(config),
            techniques=("PARA", "TWiCe"),
            seeds=(0, 1),
            include_unmitigated=True,
        )
        assert set(comparison) == {"none", "PARA", "TWiCe"}
        assert comparison["none"].total_flips > 0
        assert comparison["PARA"].total_flips == 0
        assert comparison["TWiCe"].total_flips == 0

    def test_paired_traces_across_techniques(self):
        """All techniques must see identical per-seed traces."""
        config = small_test_config(flip_threshold=2_000)
        comparison = compare_techniques(
            config, trace_factory(config), techniques=("PARA", "CRA"), seeds=(0,)
        )
        assert (
            comparison["PARA"].results[0].normal_activations
            == comparison["CRA"].results[0].normal_activations
        )


    def test_fast_alias_runs_one_grid_per_trace_seed(self, monkeypatch):
        """``fast`` names the fused engine, so a comparison runs one grid
        per trace seed as a ``fused`` one does: the segment counter
        counts each seed's trace once, not once per technique."""
        import repro.sim.fused_engine as fused

        config = small_test_config()
        grids = []
        real = fused.run_simulation_grid

        def counting(*args, **kwargs):
            grids.append(kwargs["metrics"])
            return real(*args, **kwargs)

        monkeypatch.setattr(fused, "run_simulation_grid", counting)

        def replay(engine):
            grids.clear()
            metrics = MetricsRegistry()
            comparison = compare_techniques(
                config, trace_factory(config, intervals=8),
                techniques=("PARA", "TWiCe"), seeds=(0, 1),
                include_unmitigated=True, engine=engine, metrics=metrics,
            )
            results = {
                name: [result.as_dict() for result in aggregate.results]
                for name, aggregate in comparison.items()
            }
            return len(grids), metrics.counters["fused.segments"].value, results

        fast = replay("fast")
        assert fast[0] == 2
        assert fast == replay("fused")

    def test_fused_comparison_streams_each_trace_once(self, monkeypatch):
        """The grid path reads each seed's trace in one grid call, so it
        takes one-shot lazy traces as they come: nothing materializes
        them, and results equal the reference engine's."""
        from repro.traces.record import Trace

        config = small_test_config()

        def compare(engine):
            comparison = compare_techniques(
                config, trace_factory(config, intervals=8),
                techniques=("PARA", "TWiCe"), seeds=(0, 1),
                include_unmitigated=True, engine=engine,
            )
            return {
                name: [result.as_dict() for result in aggregate.results]
                for name, aggregate in comparison.items()
            }

        reference = compare("reference")

        def refuse(self):
            raise AssertionError("the grid path materialized a trace")

        monkeypatch.setattr(Trace, "materialize", refuse)
        assert compare("fused") == reference

    def test_reference_cells_record_engine_spans_per_technique(self):
        """The per-cell path hands its tracer to every engine run: each
        seed gets one trace and one simulate span, and under every
        simulate the reference engine's setup/replay/drain spans carry
        their technique, so each technique has engine rows of its own."""
        from repro.telemetry.spans import SpanTracer

        config = small_test_config()
        spans = SpanTracer()
        comparison = compare_techniques(
            config, trace_factory(config, intervals=8),
            techniques=("PARA", "TWiCe"), seeds=(0, 1),
            include_unmitigated=True, spans=spans,
        )
        rows = {row["label"]: row for row in spans.timing_report()}
        assert rows["trace"]["count"] == 2
        assert rows["simulate"]["count"] == 2
        for technique in ("none", "PARA", "TWiCe"):
            for phase in ("setup", "replay", "drain"):
                assert rows[f"simulate/{phase}[{technique}]"]["count"] == 2
            # each run's wall_seconds is its own engine spans
            engine_wall = sum(
                rows[f"simulate/{phase}[{technique}]"]["wall_seconds"]
                for phase in ("setup", "replay", "drain")
            )
            assert comparison[technique].wall_seconds == \
                pytest.approx(engine_wall)

    def test_fused_comparison_with_a_tracer_matches_reference(self):
        """A tracer records one cell's event stream, so a traced fused
        comparison runs cell by cell instead of raising in the grid,
        and its results equal the reference engine's."""
        from repro.telemetry.tracer import RecordingTracer

        config = small_test_config()

        def compare(engine, tracer=None):
            comparison = compare_techniques(
                config, trace_factory(config, intervals=8),
                techniques=("PARA", "TWiCe"), seeds=(0, 1),
                include_unmitigated=True, engine=engine, tracer=tracer,
            )
            return {
                name: [result.as_dict() for result in aggregate.results]
                for name, aggregate in comparison.items()
            }

        tracer = RecordingTracer()
        assert compare("fused", tracer) == compare("reference")
        assert len(tracer) > 0


class TestDefaultFactory:
    def test_builds_paper_workload(self):
        config = small_test_config(num_banks=2)
        factory = default_trace_factory(config, total_intervals=16)
        trace = factory(0).materialize()
        assert trace.count() > 0
        assert trace.meta.total_intervals == 16
