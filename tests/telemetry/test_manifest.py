"""Run-manifest round trip, config hashing, and manifest diffing."""

from repro.config import SimConfig, small_test_config
from repro.sim.experiment import TechniqueAggregate
from repro.sim.metrics import SimResult
from repro.telemetry.manifest import (
    RunManifest,
    build_manifest,
    config_digest,
    diff_manifests,
    technique_summary,
)
from repro.telemetry.metrics import MetricsRegistry
from repro.telemetry.spans import SpanTracer


def _aggregate(technique="PARA", seeds=(0, 1)):
    aggregate = TechniqueAggregate(technique=technique)
    for seed in seeds:
        result = SimResult(technique=technique, seed=seed, flip_threshold=100)
        result.normal_activations = 1000
        result.extra_activations = 10
        result.mitigation_triggers = 5
        result.wall_seconds = 0.25
        aggregate.results.append(result)
    return aggregate


class TestConfigDigest:
    def test_digest_is_stable(self):
        assert config_digest(SimConfig()) == config_digest(SimConfig())

    def test_digest_changes_with_any_parameter(self):
        base = small_test_config()
        tweaked = small_test_config(num_banks=base.geometry.num_banks + 1)
        assert config_digest(base) != config_digest(tweaked)


class TestRoundTrip:
    def test_write_then_load_preserves_every_field(self, tmp_path):
        manifest = build_manifest(
            small_test_config(),
            engine="fast",
            seeds=(0, 1, 2),
            comparison={"PARA": _aggregate()},
            metrics=MetricsRegistry(),
            total_intervals=48,
            extra={"command": "test"},
        )
        path = manifest.write(str(tmp_path / "out" / "manifest.json"))
        loaded = RunManifest.load(path)
        assert loaded.as_dict() == manifest.as_dict()

    def test_manifest_records_provenance(self):
        manifest = build_manifest(
            small_test_config(), engine="reference", seeds=(0,)
        )
        assert manifest.config_hash == config_digest(small_test_config())
        assert manifest.created_at  # ISO timestamp
        assert manifest.host["python"]
        # this repo is a git checkout, so the revision must resolve
        assert manifest.git_rev is not None

    def test_profiler_timings_embedded(self):
        spans = SpanTracer()
        with spans.span("replay"):
            pass
        manifest = build_manifest(
            small_test_config(), engine="fast", seeds=(0,), spans=spans
        )
        assert manifest.timings == spans.timing_report()
        assert manifest.timings[0]["label"] == "replay"
        assert manifest.timings[0]["wall_seconds"] == spans.spans[0].wall_seconds


class TestTechniqueSummary:
    def test_summary_fields(self):
        summary = technique_summary(_aggregate(seeds=(0, 1)))
        assert summary["runs"] == 2
        assert summary["seeds"] == [0, 1]
        assert summary["mitigation_triggers"] == 10
        assert summary["wall_seconds"] == 0.5

    def test_single_seed_summary_has_zero_std(self):
        summary = technique_summary(_aggregate(seeds=(0,)))
        assert summary["overhead_std_pct"] == 0.0


class TestDiff:
    def _pair(self, **tweaks):
        config = small_test_config()
        a = build_manifest(config, engine="fast", seeds=(0,),
                           comparison={"PARA": _aggregate(seeds=(0,))})
        b = build_manifest(config, engine=tweaks.get("engine", "fast"),
                           seeds=(0,),
                           comparison={"PARA": _aggregate(seeds=(0,))})
        return a, b

    def test_identical_runs_diff_clean(self):
        a, b = self._pair()
        # created_at / wall_seconds differ, but both are volatile
        assert diff_manifests(a, b) == {}

    def test_engine_change_is_reported(self):
        a, b = self._pair(engine="reference")
        assert diff_manifests(a, b) == {"engine": ("fast", "reference")}

    def test_result_change_is_reported_with_dotted_path(self):
        a, b = self._pair()
        b.results["PARA"]["total_flips"] = 7
        differences = diff_manifests(a, b)
        assert differences == {"results.PARA.total_flips": (0, 7)}

    def test_missing_technique_reports_sentinel(self):
        a, b = self._pair()
        b.results["TWiCe"] = dict(b.results["PARA"])
        differences = diff_manifests(a, b)
        # the whole absent subtree is reported as one leaf difference
        assert "results.TWiCe" in differences
        assert differences["results.TWiCe"][0] == "<missing>"

    def _metrics_pair(self, counters_a, counters_b):
        config = small_test_config()
        manifests = []
        for counters in (counters_a, counters_b):
            metrics = MetricsRegistry()
            for name, value in counters.items():
                metrics.counter(name).add(value)
            manifests.append(build_manifest(
                config, engine="fast", seeds=(0,),
                comparison={"PARA": _aggregate(seeds=(0,))}, metrics=metrics,
            ))
        return manifests

    def test_fused_work_counters_are_volatile(self):
        """How a campaign's shards were grouped into grid passes (a
        resume replays a seed once per unit) is not a result."""
        shared = {"triggers": 5, "extra_activations": 10}
        a, b = self._metrics_pair(
            dict(shared, **{
                "fused.records": 191802, "fused.segments": 191413,
                "fused.cells_requested": 6, "fused.cells_computed": 6,
                "fused.cells_deduped": 0,
            }),
            dict(shared, **{
                "fused.records": 127926, "fused.segments": 127660,
                "fused.cells_requested": 4, "fused.cells_computed": 3,
                "fused.cells_deduped": 1,
            }),
        )
        assert diff_manifests(a, b) == {}

    def test_result_counter_change_still_fails(self):
        work = {"fused.records": 100, "fused.segments": 90}
        for name in ("triggers", "extra_activations"):
            a, b = self._metrics_pair(
                dict(work, **{name: 5}), dict(work, **{name: 6}),
            )
            assert diff_manifests(a, b) == {
                f"metrics.counters.{name}.value": (5, 6)
            }

    def test_result_change_still_fails_beside_work_counters(self):
        a, b = self._metrics_pair(
            {"fused.records": 100}, {"fused.records": 200}
        )
        b.results["PARA"]["total_flips"] = 7
        assert diff_manifests(a, b) == {"results.PARA.total_flips": (0, 7)}

    def test_custom_ignore_list(self):
        a, b = self._pair(engine="reference")
        assert diff_manifests(a, b, ignore=("engine", "created_at",
                                            "timings", "host",
                                            "wall_seconds")) == {}
