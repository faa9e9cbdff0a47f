"""Search-level tests: determinism, resume, and the LiPRoMi rediscovery.

The rediscovery test is the subsystem's acceptance criterion: a small
fixed-budget evolutionary search against LiPRoMi must deterministically
find a weight-aware flooding genome -- dominant single aggressor,
attack phase aligned with the aggressor row's refresh slot ``f_r`` --
whose fitness beats every canned corpus seed.  That is the documented
Section III-A weakness, found by the fuzzer instead of being
hand-coded.
"""

from dataclasses import replace

import pytest

from repro.adversary import (
    AdversaryFrontier,
    SearchSettings,
    SearchStore,
    run_search,
    seed_corpus,
)
from repro.campaign import CampaignStateError, CheckpointMismatchError
from repro.config import small_test_config


def sharp_config():
    """Small geometry with Pbase boosted to 2^-12.

    At the paper's 2^-16 a single tiny window is noise-dominated (the
    first anomalously small RNG draw decides the trigger); at 2^-12 the
    weight schedule is the dominant term, so phase alignment is causal
    -- the regime the rediscovery test needs.
    """
    return replace(small_test_config(), pbase=2.0 ** -12)


def settings(**overrides):
    base = dict(technique="LiPRoMi", strategy="evolve", budget=21,
                eval_seeds=2, seed=0)
    base.update(overrides)
    return SearchSettings(**base)


class TestDeterminism:
    def test_same_seed_same_outcome(self):
        config = small_test_config()
        first = run_search(config, settings())
        second = run_search(config, settings())
        assert first.as_dict() == second.as_dict()
        assert first.frontier.to_json() == second.frontier.to_json()

    def test_different_seed_different_search(self):
        config = small_test_config()
        first = run_search(config, settings(seed=0))
        second = run_search(config, settings(seed=1))
        assert first.as_dict() != second.as_dict()

    def test_worker_count_does_not_change_results(self):
        config = small_test_config()
        inline = run_search(config, settings())
        pooled = run_search(config, settings(), workers=2)
        assert inline.as_dict() == pooled.as_dict()

    def test_technique_name_is_case_insensitive(self):
        config = small_test_config()
        lower = run_search(config, settings(technique="lipromi"))
        canonical = run_search(config, settings(technique="LiPRoMi"))
        assert lower.as_dict() == canonical.as_dict()
        assert lower.technique == "LiPRoMi"

    def test_random_strategy_covers_budget(self):
        config = small_test_config()
        outcome = run_search(config, settings(strategy="random", budget=9))
        assert outcome.evaluations == 9
        assert outcome.frontier.points

    def test_budget_is_exact_even_mid_generation(self):
        config = small_test_config()
        outcome = run_search(config, settings(budget=7))
        assert outcome.evaluations == 7

    def test_generation_zero_is_the_corpus(self):
        config = small_test_config()
        outcome = run_search(config, settings(budget=5))
        names = {c.genome.name for c in outcome.population}
        assert names <= {g.name for g in seed_corpus(config)}


class TestGridDispatch:
    def test_fast_alias_runs_one_grid_per_genome_trace(self, monkeypatch):
        """``fast`` names the fused engine, so a genome's evaluation
        rides one grid over its one trace, every eval seed a cell, as a
        ``fused`` evaluation does."""
        import repro.sim.fused_engine as fused
        from repro.adversary.search import EvalJob, evaluate_genome
        from repro.telemetry.metrics import MetricsRegistry

        config = sharp_config()
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
            fitness = evaluate_genome(EvalJob(
                config=config, technique="LiPRoMi",
                genome=seed_corpus(config)[0], total_intervals=8,
                seeds=(0, 1, 2), engine=engine,
            ))
            return list(grids), registry.counters["fused.segments"].value, fitness

        fast = replay("fast")
        assert fast[0] == [3]
        assert fast == replay("fused")


class TestResume:
    def test_full_replay_matches_fresh(self, tmp_path):
        config = small_test_config()
        fresh = run_search(config, settings(), checkpoint_dir=tmp_path / "ck")
        replayed = run_search(config, settings(),
                              checkpoint_dir=tmp_path / "ck", resume=True)
        assert replayed.as_dict() == fresh.as_dict()

    def test_partial_resume_is_bit_identical(self, tmp_path):
        config = small_test_config()
        fresh = run_search(config, settings(), checkpoint_dir=tmp_path / "ck")
        store = SearchStore(tmp_path / "ck")
        generations = sorted(store.generation_dir.glob("*.json"))
        assert len(generations) >= 2
        for path in generations[1:]:
            path.unlink()
        resumed = run_search(config, settings(),
                             checkpoint_dir=tmp_path / "ck", resume=True)
        assert resumed.as_dict() == fresh.as_dict()
        assert resumed.frontier.to_json() == fresh.frontier.to_json()

    def test_existing_checkpoint_requires_resume_flag(self, tmp_path):
        config = small_test_config()
        run_search(config, settings(), checkpoint_dir=tmp_path / "ck")
        with pytest.raises(CampaignStateError, match="resume"):
            run_search(config, settings(), checkpoint_dir=tmp_path / "ck")

    def test_resume_with_different_knobs_fails_fast(self, tmp_path):
        config = small_test_config()
        run_search(config, settings(), checkpoint_dir=tmp_path / "ck")
        with pytest.raises(CheckpointMismatchError, match="budget"):
            run_search(config, settings(budget=22),
                       checkpoint_dir=tmp_path / "ck", resume=True)

    def test_version_one_checkpoint_fails_fast(self, tmp_path):
        """A checkpoint written before ``fast`` searches moved to the
        fused grid evaluation does not resume under the new one."""
        import json

        config = small_test_config()
        run_search(config, settings(), checkpoint_dir=tmp_path / "ck")
        store = SearchStore(tmp_path / "ck")
        spec = json.loads(store.spec_path.read_text())
        spec["schema_version"] = 1
        store.spec_path.write_text(json.dumps(spec))
        with pytest.raises(CheckpointMismatchError, match="schema_version"):
            run_search(config, settings(), checkpoint_dir=tmp_path / "ck",
                       resume=True)

    def test_on_generation_skipped_for_replayed_generations(self, tmp_path):
        config = small_test_config()
        run_search(config, settings(), checkpoint_dir=tmp_path / "ck")
        fired = []
        run_search(config, settings(), checkpoint_dir=tmp_path / "ck",
                   resume=True, on_generation=lambda g, c: fired.append(g))
        assert fired == []


class TestRediscovery:
    """The acceptance criterion (see module docstring)."""

    def test_evolve_rediscovers_weight_aware_flooding(self):
        config = sharp_config()
        outcome = run_search(
            config,
            SearchSettings(technique="LiPRoMi", strategy="evolve",
                           budget=60, eval_seeds=3, seed=0),
        )
        best = outcome.best.genome
        dominant = best.dominant_gene()
        total = sum(gene.intensity for gene in best.aggressors)

        # beats every canned seed, with real margin
        assert outcome.best.fitness > outcome.corpus_best.fitness
        assert outcome.improvement > 2.0

        # ... and the winning genome is weight-aware flooding: one
        # dominant aggressor whose attack phase sits at (or just after)
        # the row's own refresh slot, where its Eq. 1 weight is lowest
        refint = config.geometry.refint
        slot = dominant.row // config.geometry.rows_per_interval
        assert dominant.intensity / total >= 0.7
        assert (best.phase - slot) % refint <= refint // 8

    def test_rediscovery_is_deterministic(self):
        config = sharp_config()
        knobs = SearchSettings(technique="LiPRoMi", strategy="evolve",
                               budget=60, eval_seeds=3, seed=0)
        assert (run_search(config, knobs).frontier.to_json()
                == run_search(config, knobs).frontier.to_json())

    def test_frontier_is_nonempty_and_consistent(self):
        outcome = run_search(sharp_config(),
                             SearchSettings(technique="LiPRoMi", budget=21))
        assert outcome.frontier.points
        best = outcome.frontier.best
        assert best.fitness == pytest.approx(outcome.best.fitness)
        clone = AdversaryFrontier.from_dict(outcome.frontier.as_dict())
        assert clone.to_json() == outcome.frontier.to_json()
