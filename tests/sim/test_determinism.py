"""Seed determinism: identical seeds must reproduce identical results.

The whole reproduction rests on the derived-seed RNG discipline
(:mod:`repro.rng`): a (technique, seed, trace) triple must map to one
result, bit for bit, no matter when or how often it runs.  These tests
pin that for both engines and for the campaign runner.
"""

from __future__ import annotations

import pytest

from repro.config import small_test_config
from repro.mitigations.registry import make_factory, technique_names
from repro.sim.engine import get_engine
from repro.sim.parallel import RetryPolicy, run_campaign
from repro.traces.mixer import paper_mixed_workload

CONFIG = small_test_config()
TOTAL_INTERVALS = 24


def _trace(seed: int):
    return paper_mixed_workload(CONFIG, total_intervals=TOTAL_INTERVALS, seed=seed)


@pytest.mark.parametrize("engine", ["reference", "fast"])
@pytest.mark.parametrize("technique", technique_names() + [None], ids=str)
def test_run_simulation_is_seed_deterministic(technique, engine):
    run = get_engine(engine)
    factory = make_factory(technique) if technique else None
    first = run(CONFIG, _trace(5), factory, seed=5)
    second = run(CONFIG, _trace(5), factory, seed=5)
    assert first.as_dict() == second.as_dict()


@pytest.mark.parametrize("technique", ["PARA", "LoLiPRoMi"])
def test_different_seeds_usually_differ(technique):
    """Sanity check that the determinism tests are not vacuous: the
    probabilistic techniques draw different decisions under different
    seeds (the trace also differs)."""
    run = get_engine("reference")
    factory = make_factory(technique)
    a = run(CONFIG, _trace(0), factory, seed=0)
    b = run(CONFIG, _trace(1), factory, seed=1)
    assert a.as_dict() != b.as_dict()


def _campaign(**kwargs):
    return run_campaign(
        CONFIG,
        total_intervals=TOTAL_INTERVALS,
        techniques=["PARA", "LiPRoMi", "CaPRoMi"],
        seeds=(0, 1),
        include_unmitigated=True,
        workers=0,
        **kwargs,
    )


def test_run_campaign_is_seed_deterministic():
    first = _campaign()
    second = _campaign()
    assert first.keys() == second.keys()
    for name in first:
        a = [result.as_dict() for result in first[name].results]
        b = [result.as_dict() for result in second[name].results]
        assert a == b, name


def test_run_campaign_memoized_traces_match_regenerated():
    """Per-shard units (here forced by a retry policy) each regenerate
    the seed's trace; a whole-seed unit regenerates it once and streams
    it into one grid replay.  The split may not change anything."""
    per_shard = _campaign(
        engine="fused", retry=RetryPolicy(max_retries=1, backoff_base=0)
    )
    whole_seed = _campaign(engine="fused")
    for name in per_shard:
        a = [result.as_dict() for result in per_shard[name].results]
        b = [result.as_dict() for result in whole_seed[name].results]
        assert a == b, name
