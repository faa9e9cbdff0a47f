"""Differential equivalence: single-cell optimized engine vs reference.

Every registered technique (plus the unmitigated baseline) is replayed
by both engines over a grid of (workload, seed) points, plus the
engine-kwarg and refresh-policy variants, and the results must be
field-for-field identical.  This is the correctness spine that lets the
optimized engine take shortcuts (bulk RNG draws, run batching, interval
skipping) without any risk of silent drift.
"""

from __future__ import annotations

import pytest

from repro.config import small_test_config
from repro.dram.refresh import all_policies
from repro.mitigations.registry import (
    MODERN_TECHNIQUES,
    make_factory,
    technique_names,
)
from repro.traces.attacker import AttackSpec
from repro.traces.mixer import build_trace, paper_mixed_workload

from tests.harness import assert_engines_equivalent

CONFIG = small_test_config()
TOTAL_INTERVALS = 48
SEEDS = (0, 1, 2)
#: all nine Table III techniques plus the unmitigated baseline
TECHNIQUES = technique_names() + [None]
#: the modern tracker families (Loaded Dice, RVC, PVAC, PRAC family,
#: probabilistic tracker management)
MODERN = list(MODERN_TECHNIQUES)


def _factory(technique):
    return make_factory(technique) if technique else None


def _mixed(seed, config=CONFIG):
    """Fresh paper mixed workload (benign + ramped attacker)."""
    return lambda: paper_mixed_workload(
        config, total_intervals=TOTAL_INTERVALS, seed=seed
    )


def _flooding(seed, config=CONFIG):
    """Fresh single-aggressor flooding trace with an idle prefix."""
    row = config.geometry.rows_per_bank // 2
    return lambda: build_trace(
        config,
        TOTAL_INTERVALS,
        attacks=(
            AttackSpec(
                bank=0,
                aggressors=(row,),
                acts_per_interval=40,
                start_interval=3,
            ),
        ),
        seed=seed,
    )


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("technique", TECHNIQUES, ids=str)
def test_mixed_workload_equivalence(technique, seed):
    assert_engines_equivalent(CONFIG, _mixed(seed), _factory(technique), seed=seed)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("technique", TECHNIQUES, ids=str)
def test_flooding_workload_equivalence(technique, seed):
    assert_engines_equivalent(
        CONFIG, _flooding(seed), _factory(technique), seed=seed
    )


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("technique", MODERN)
def test_modern_mixed_workload_equivalence(technique, seed):
    assert_engines_equivalent(CONFIG, _mixed(seed), _factory(technique), seed=seed)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("technique", MODERN)
def test_modern_flooding_workload_equivalence(technique, seed):
    assert_engines_equivalent(
        CONFIG, _flooding(seed), _factory(technique), seed=seed
    )


@pytest.mark.parametrize("technique", MODERN)
def test_modern_multi_subarray_equivalence(technique):
    """Two banks x four subarrays: boundary rows lose one neighbour and
    PRACtical's recovery batching groups per subarray; both engines must
    still agree record-for-record."""
    config = small_test_config(num_banks=2, subarrays_per_bank=4)
    assert_engines_equivalent(
        config, _mixed(0, config=config), _factory(technique), seed=0
    )
    assert_engines_equivalent(
        config, _flooding(1, config=config), _factory(technique), seed=1
    )


@pytest.mark.parametrize(
    "technique", ["PARA", "LiPRoMi", "LoPRoMi", "LoLiPRoMi", "CaPRoMi"]
)
def test_stop_after_first_trigger_equivalence(technique):
    row = CONFIG.geometry.rows_per_bank // 2
    heavy = lambda: build_trace(  # noqa: E731 - heavy enough to trigger all variants
        CONFIG,
        TOTAL_INTERVALS,
        attacks=(
            AttackSpec(
                bank=0, aggressors=(row,), acts_per_interval=120, start_interval=3
            ),
        ),
        seed=1,
    )
    result = assert_engines_equivalent(
        CONFIG,
        heavy,
        _factory(technique),
        seed=1,
        stop_after_first_trigger=True,
    )
    # the flooding trace must actually exercise the early-exit path
    assert result.first_trigger_activation is not None


@pytest.mark.parametrize("technique", ["PARA", "LiPRoMi", "TWiCe", None], ids=str)
@pytest.mark.parametrize("limit", [1, 137, 500])
def test_max_activations_equivalence(technique, limit):
    result = assert_engines_equivalent(
        CONFIG, _mixed(2), _factory(technique), seed=2, max_activations=limit
    )
    assert result.normal_activations <= limit


@pytest.mark.parametrize("technique", ["LiPRoMi", "LoLiPRoMi", "PARA", "TWiCe"])
def test_refresh_policy_equivalence(technique):
    for policy in all_policies(CONFIG.geometry, seed=7):
        assert_engines_equivalent(
            CONFIG,
            _mixed(0),
            _factory(technique),
            seed=0,
            refresh_policy=policy,
        )
        assert_engines_equivalent(
            CONFIG,
            _flooding(0),
            _factory(technique),
            seed=0,
            refresh_policy=policy,
        )


@pytest.mark.parametrize("technique", ["LoLiPRoMi", "PARA", "MRLoc"])
def test_multi_bank_equivalence(two_bank_config, technique):
    trace_factory = _mixed(0, config=two_bank_config)
    assert_engines_equivalent(
        two_bank_config, trace_factory, _factory(technique), seed=0
    )


def test_distance2_disturbance_equivalence():
    """Second-neighbour disturbance disables run batching; still exact."""
    config = small_test_config().scaled(distance2_rate=0.5)
    assert_engines_equivalent(
        config, _flooding(0, config=config), _factory("LiPRoMi"), seed=0
    )
    assert_engines_equivalent(
        config, _mixed(1, config=config), _factory("PARA"), seed=1
    )


def test_mismatched_policy_geometry_rejected():
    """Both engines validate the policy geometry identically."""
    from repro.dram.refresh import SequentialRefresh
    from repro.sim.engine import run_simulation
    from repro.sim.fused_engine import run_simulation_fused

    other = small_test_config(rows_per_bank=1024)
    policy = SequentialRefresh(other.geometry)
    for engine in (run_simulation, run_simulation_fused):
        with pytest.raises(ValueError):
            engine(
                CONFIG, _mixed(0)(), _factory("PARA"), refresh_policy=policy
            )
