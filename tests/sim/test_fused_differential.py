"""Differential equivalence: fused grid engine vs reference engine.

The fused engine replays one decoded trace for a whole
``(technique, seed, pbase)`` cell grid at once, with cross-cell
deduplication.  Its license to exist is this suite: every cell of a
fused grid must be field-for-field identical (flips included) to a solo
reference-engine run of that cell, across all registered techniques,
three seeds, a pbase grid, engine-kwarg variants, and an ingested
DRAMSim capture.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.config import ddr4_paper_config, small_test_config
from repro.mitigations.registry import (
    MODERN_TECHNIQUES,
    technique_class,
    technique_names,
)
from repro.sim.fused_engine import GridCell, grid_cells, run_simulation_grid
from repro.telemetry.metrics import MetricsRegistry
from repro.traces.attacker import AttackSpec
from repro.traces.mixer import build_trace, paper_mixed_workload

from tests.harness import assert_grid_equivalent

CONFIG = small_test_config()
TOTAL_INTERVALS = 48
SEEDS = (0, 1, 2)
#: the paper's pbase ablation axis, scaled around the configured value
PBASE_SCALES = (0.5, 1.0, 2.0)
#: all nine Table III techniques plus the unmitigated baseline
TECHNIQUES = technique_names() + [None]
#: the modern tracker families
MODERN = list(MODERN_TECHNIQUES)

FIXTURES = Path(__file__).resolve().parents[1] / "fixtures" / "traces"


def _mixed(seed, config=CONFIG):
    return lambda: paper_mixed_workload(
        config, total_intervals=TOTAL_INTERVALS, seed=seed
    )


def _flooding(seed, config=CONFIG):
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


@pytest.mark.parametrize("technique", TECHNIQUES, ids=str)
def test_mixed_grid_equivalence(technique):
    """Full seed x pbase plane of each technique vs per-cell reference."""
    cells = grid_cells(
        [technique], SEEDS, pbase_scales=PBASE_SCALES, config=CONFIG
    )
    assert_grid_equivalent(CONFIG, _mixed(0), cells)


@pytest.mark.parametrize("technique", TECHNIQUES, ids=str)
def test_flooding_grid_equivalence(technique):
    cells = grid_cells(
        [technique], SEEDS, pbase_scales=PBASE_SCALES, config=CONFIG
    )
    assert_grid_equivalent(CONFIG, _flooding(1), cells)


@pytest.mark.fused_smoke
def test_bounded_smoke_grid():
    """The CI fused-smoke job: every technique, one bounded mixed grid.

    One grid call covering the whole technique axis (two seeds, two
    pbase points) against per-cell reference runs -- small enough for
    every push, wide enough that any decider regression trips it.
    """
    cells = grid_cells(
        TECHNIQUES, (0, 1), pbase_scales=(1.0, 2.0), config=CONFIG
    )
    assert_grid_equivalent(CONFIG, _mixed(2), cells)


@pytest.mark.parametrize("technique", MODERN)
def test_modern_grid_equivalence(technique):
    """Modern techniques: full seed x pbase plane vs per-cell reference."""
    cells = grid_cells(
        [technique], SEEDS, pbase_scales=PBASE_SCALES, config=CONFIG
    )
    assert_grid_equivalent(CONFIG, _mixed(0), cells)
    assert_grid_equivalent(CONFIG, _flooding(1), cells)


def test_modern_multi_subarray_grid_equivalence():
    """One fused grid over every modern family on a two-bank,
    four-subarray geometry, checked cell-by-cell against reference."""
    config = small_test_config(num_banks=2, subarrays_per_bank=4)
    cells = grid_cells(MODERN + [None], (0, 1), config=config)
    assert_grid_equivalent(config, _mixed(0, config=config), cells)


@pytest.mark.mitigation_matrix
def test_mitigation_matrix_smoke():
    """The CI mitigation-matrix job: every registered technique -- the
    nine paper rows, the extended trackers and the modern families --
    in one tiny fused campaign grid, each cell pinned to a solo
    reference run."""
    all_names = technique_names(include_extended=True, include_modern=True)
    cells = grid_cells(all_names + [None], (0,), config=CONFIG)
    assert_grid_equivalent(CONFIG, _mixed(3), cells)


def test_modern_dedup_collapses_deterministic_lanes():
    """RVC/PVAC/PRAC/PRACtical consume neither rng nor pbase, so a
    seed x pbase plane collapses to one lane each; LoadedDice and
    ProbTracker keep one lane per seed."""
    techniques = MODERN
    cells = grid_cells(
        techniques, SEEDS, pbase_scales=PBASE_SCALES, config=CONFIG
    )
    metrics = MetricsRegistry()
    trace = _mixed(1)().materialize()
    run_simulation_grid(CONFIG, trace, cells, metrics=metrics)
    requested = metrics.counters["fused.cells_requested"].value
    computed = metrics.counters["fused.cells_computed"].value
    assert requested == len(cells) == 6 * len(SEEDS) * len(PBASE_SCALES)
    # 4 deterministic families keep 1 lane; 2 rng families keep one
    # lane per seed
    assert computed == 4 + 2 * len(SEEDS)


def test_grid_dedup_is_invisible():
    """Dedup collapses cells yet every replica still matches reference.

    TWiCe/CRA collapse both axes, PARA/ProHit/MRLoc the pbase axis; the
    metrics registry proves the collapse actually happened while the
    harness proves the replicated results are still per-cell exact.
    """
    techniques = ["TWiCe", "CRA", "PARA", "ProHit", "MRLoc", None]
    cells = grid_cells(
        techniques, SEEDS, pbase_scales=PBASE_SCALES, config=CONFIG
    )
    metrics = MetricsRegistry()
    trace = _mixed(1)().materialize()
    run_simulation_grid(CONFIG, trace, cells, metrics=metrics)
    requested = metrics.counters["fused.cells_requested"].value
    computed = metrics.counters["fused.cells_computed"].value
    deduped = metrics.counters["fused.cells_deduped"].value
    assert requested == len(cells) == 54
    # TWiCe, CRA and the baseline keep 1 lane each; PARA/ProHit/MRLoc
    # keep one lane per seed
    assert computed == 3 + 3 * len(SEEDS)
    assert requested == computed + deduped
    assert_grid_equivalent(CONFIG, _mixed(1), cells)


def test_dedup_traits_match_registry():
    """Every registered technique declares the dedup traits explicitly
    or inherits the conservative default; the deterministic counter
    techniques must have opted out of both axes for the dedup to fire."""
    for name in technique_names(include_extended=True):
        cls = technique_class(name)
        assert isinstance(cls.consumes_rng, bool)
        assert isinstance(cls.consumes_pbase, bool)
    for name in ("TWiCe", "CRA", "CounterTree"):
        cls = technique_class(name)
        assert not cls.consumes_rng and not cls.consumes_pbase
    for name in ("LiPRoMi", "LoPRoMi", "LoLiPRoMi", "CaPRoMi"):
        cls = technique_class(name)
        assert cls.consumes_rng and cls.consumes_pbase
    for name in ("PARA", "ProHit", "MRLoc"):
        cls = technique_class(name)
        assert cls.consumes_rng and not cls.consumes_pbase
    for name in ("RVC", "PVAC", "PRAC", "PRACtical"):
        cls = technique_class(name)
        assert not cls.consumes_rng and not cls.consumes_pbase
    for name in ("LoadedDice", "ProbTracker"):
        cls = technique_class(name)
        assert cls.consumes_rng and not cls.consumes_pbase


@pytest.mark.parametrize(
    "technique", ["PARA", "LiPRoMi", "LoLiPRoMi", "CaPRoMi", "MRLoc"]
)
def test_stop_after_first_trigger_grid(technique):
    row = CONFIG.geometry.rows_per_bank // 2
    heavy = lambda: build_trace(  # noqa: E731
        CONFIG,
        TOTAL_INTERVALS,
        attacks=(
            AttackSpec(
                bank=0, aggressors=(row,), acts_per_interval=120,
                start_interval=3,
            ),
        ),
        seed=1,
    )
    cells = grid_cells([technique], SEEDS, config=CONFIG)
    results = assert_grid_equivalent(
        CONFIG, heavy, cells, stop_after_first_trigger=True
    )
    assert any(
        result.first_trigger_activation is not None for result in results
    )


@pytest.mark.parametrize("limit", [1, 137, 500])
def test_max_activations_grid(limit):
    cells = grid_cells(
        ["PARA", "LiPRoMi", "TWiCe", None], (2,), config=CONFIG
    )
    results = assert_grid_equivalent(
        CONFIG, _mixed(2), cells, max_activations=limit
    )
    assert all(result.normal_activations <= limit for result in results)


def test_multi_bank_grid_equivalence(two_bank_config):
    cells = grid_cells(
        ["LoLiPRoMi", "PARA", "MRLoc", "CaPRoMi"], (0, 1),
        config=two_bank_config,
    )
    assert_grid_equivalent(
        two_bank_config, _mixed(0, config=two_bank_config), cells
    )


def test_ingested_dramsim_grid_equivalence():
    """The gzipped DRAMSim capture replays grid-identically.

    Ingested traces have irregular timing and multi-bank interleaving
    the synthetic workloads never produce; the fused tape must segment
    them exactly like the per-record reference loop.
    """
    from repro.traces.ingest import ingest_trace

    config = ddr4_paper_config()
    ingested = ingest_trace(
        FIXTURES / "mini_dramsim.trace.gz", config, clock_ns=45.0
    )
    trace = ingested.trace.materialize()
    cells = grid_cells(
        TECHNIQUES, (0, 1), pbase_scales=(1.0, 2.0), config=config
    )
    assert_grid_equivalent(config, lambda: trace, cells)


def test_mismatched_cell_geometry_rejected():
    other = small_test_config(rows_per_bank=1024)
    cells = [GridCell(technique="PARA", seed=0, config=other)]
    with pytest.raises(ValueError):
        run_simulation_grid(CONFIG, _mixed(0)(), cells)


def test_tracer_requires_single_cell():
    from repro.telemetry import RecordingTracer

    cells = grid_cells(["PARA", "TWiCe"], (0,), config=CONFIG)
    with pytest.raises(ValueError):
        run_simulation_grid(
            CONFIG, _mixed(0)(), cells, tracer=RecordingTracer()
        )


def test_single_cell_tracer_matches_streamed_run():
    """A one-cell grid with telemetry equals the reference result, and
    its event stream equals the streamed single-cell run's."""
    from repro.mitigations.registry import make_factory
    from repro.sim.engine import run_simulation
    from repro.sim.fused_engine import run_simulation_fused
    from repro.telemetry import RecordingTracer

    trace = _mixed(0)().materialize()
    solo_tracer, grid_tracer = RecordingTracer(), RecordingTracer()
    solo = run_simulation_fused(
        CONFIG, trace, make_factory("LiPRoMi"), seed=0, tracer=solo_tracer
    )
    [gridded] = run_simulation_grid(
        CONFIG, trace, [GridCell(technique="LiPRoMi", seed=0)],
        tracer=grid_tracer,
    )
    reference = run_simulation(CONFIG, trace, make_factory("LiPRoMi"), seed=0)
    assert reference.as_dict() == gridded.as_dict() == solo.as_dict()
    assert solo_tracer.events == grid_tracer.events


def test_cell_wall_seconds_sum_within_the_grid_call():
    """Each computed cell is charged its own lane's time and a deduped
    replica none, so cell times never add up to more than the call."""
    import time

    trace = _mixed(0)().materialize()
    cells = grid_cells(
        ["PARA", "TWiCe", "LiPRoMi", None], SEEDS,
        pbase_scales=PBASE_SCALES, config=CONFIG,
    )
    started = time.perf_counter()
    results = run_simulation_grid(CONFIG, trace, cells)
    elapsed = time.perf_counter() - started
    assert all(result.wall_seconds >= 0.0 for result in results)
    assert sum(result.wall_seconds for result in results) <= elapsed


def test_single_cell_early_stop_stops_decoding():
    """A streamed single-cell run stops pulling records inside the
    segment where its first trigger fired (plus the one record that
    closes that segment), instead of decoding the whole trace."""
    from repro.mitigations.registry import make_factory
    from repro.sim.fused_engine import run_simulation_fused
    from repro.traces.record import Trace

    row = CONFIG.geometry.rows_per_bank // 2
    source = build_trace(
        CONFIG, TOTAL_INTERVALS,
        attacks=(AttackSpec(bank=0, aggressors=(row,), acts_per_interval=120,
                            start_interval=3),),
        seed=1,
    ).materialize()
    records = source.records
    pulled = 0

    def counting():
        nonlocal pulled
        for record in records:
            pulled += 1
            yield record

    result = run_simulation_fused(
        CONFIG, Trace(source.meta, counting()), make_factory("LiPRoMi"),
        seed=1, stop_after_first_trigger=True,
    )
    last = result.first_trigger_activation - 1  # index of the last act run
    interval_ns = source.meta.interval_ns

    def key(index):
        record = records[index]
        return record[1:], record.time_ns // interval_ns

    end = last + 1
    while end < len(records) and key(end) == key(last):
        end += 1
    assert pulled <= end + 1 < len(records)


def test_streamed_run_memory_does_not_grow_with_the_trace():
    """A single-cell run over a lazy trace holds the live segment only:
    its peak memory stays far below one retained timestamp per record
    (a list slot plus an int object, about 40 bytes)."""
    import tracemalloc

    from repro.sim.fused_engine import run_simulation_fused

    trace = paper_mixed_workload(CONFIG, total_intervals=600, seed=0)
    tracemalloc.start()
    try:
        result = run_simulation_fused(CONFIG, trace, None)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.normal_activations > 50_000
    assert peak < 8 * result.normal_activations


@pytest.mark.parametrize(
    "techniques", [[], ["PARA", "TWiCe", None]], ids=["empty", "grid"]
)
def test_grid_counts_every_record_and_segment(techniques):
    """``fused.records``/``fused.segments`` count the whole trace, even
    for an empty grid, and so does a full single-cell run."""
    from repro.sim.fused_engine import run_simulation_fused

    trace = _mixed(0)().materialize()
    interval_ns = trace.meta.interval_ns
    keys = [
        (r.bank, r.row, r.is_attack, r.time_ns // interval_ns)
        for r in trace.records
    ]
    segments = 1 + sum(1 for a, b in zip(keys, keys[1:]) if a != b)
    grid, solo = MetricsRegistry(), MetricsRegistry()
    run_simulation_grid(
        CONFIG, trace, grid_cells(techniques, (0,), config=CONFIG),
        metrics=grid,
    )
    run_simulation_fused(CONFIG, trace, None, metrics=solo)
    for registry in (grid, solo):
        assert registry.counters["fused.records"].value == trace.count()
        assert registry.counters["fused.segments"].value == segments
