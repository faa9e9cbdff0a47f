"""Differential equivalence: fused grid engine vs reference engine.

The fused engine replays one decoded trace for a whole
``(technique, seed, pbase)`` cell grid at once, with cross-cell
deduplication.  Its license to exist is this suite: every cell of a
fused grid must be field-for-field identical (flips included) to a solo
reference-engine run of that cell, across all registered techniques,
three seeds, a pbase grid, engine-kwarg variants, an ingested DRAMSim
capture, every refresh policy and a remapped geometry -- on attack
grids whose flips land inside the epochs the mitigations touch, which
is what the shared device pass must resolve exactly.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.config import SimConfig, ddr4_paper_config, small_test_config
from repro.mitigations.registry import (
    MODERN_TECHNIQUES,
    make_factory,
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


def _mixed(seed, config=CONFIG, intervals=TOTAL_INTERVALS):
    return lambda: paper_mixed_workload(
        config, total_intervals=intervals, seed=seed
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


@pytest.mark.fused_smoke
def test_paper_geometry_smoke_grid():
    """The CI fused-smoke job at the paper's geometry (``SimConfig()``:
    four banks, RefInt 8192, Pbase 2**-23), where the deciders' draw
    screens pass about one draw in a thousand -- on
    ``small_test_config`` they pass far more -- and every bank runs its
    own chunks: all nine techniques plus the baseline, two seeds, each
    cell pinned to a solo reference run."""
    config = SimConfig()
    cells = grid_cells(TECHNIQUES, (0, 1), config=config)
    assert_grid_equivalent(config, _mixed(4, config=config, intervals=32), cells)


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


@pytest.mark.parametrize("limit", [0, -3])
def test_max_activations_below_one_rejected(limit):
    """A record limit below one names itself instead of replaying a
    record anyway."""
    cells = grid_cells(["PARA", None], (0,), config=CONFIG)
    with pytest.raises(ValueError, match=f"max_activations.*{limit}"):
        run_simulation_grid(CONFIG, _mixed(0)(), cells, max_activations=limit)


def test_distance2_cell_in_a_grid():
    """A grid mixing a ``distance2_rate > 0`` cell (float increments,
    run on the reference engine over the grid's segments) with ordinary
    cells that share the device pass: every cell equals its solo
    reference run."""
    config = small_test_config(num_banks=2, flip_threshold=500)
    distance2 = config.scaled(distance2_rate=0.25)
    cells = grid_cells(["LiPRoMi", "PARA", None], (0,), config=config) + [
        GridCell(technique="LiPRoMi", seed=0, config=distance2),
        GridCell(technique=None, seed=1, config=distance2),
    ]
    results = assert_grid_equivalent(
        config, _attack_grid(config, "double-sided"), cells
    )
    assert results[3].as_dict() != results[0].as_dict()


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


#: techniques whose actions reach the device every way a lane can:
#: ``RecoveryRefresh`` batches (PRAC, PRACtical), ``RefreshRow``
#: (PARA, MRLoc, ProHit, the last at refresh-time drains) and
#: ``ActivateNeighbors`` (LiPRoMi, TWiCe)
SHARED_PASS_TECHNIQUES = [
    "PRAC", "PRACtical", "PARA", "MRLoc", "ProHit", "LiPRoMi", "TWiCe", None,
]


def _attack(kind, geometry, bank):
    from repro.traces.attacker import double_sided, flooding, n_aggressor

    middle = geometry.rows_per_bank // 2
    if kind == "flooding":
        return flooding(geometry, bank, middle, 120, start_interval=2)
    if kind == "double-sided":
        return double_sided(geometry, bank, middle + 1, 160, start_interval=1)
    return n_aggressor(geometry, bank, 4, 240, first_row=middle - 6, spacing=3)


def _policy(name, geometry):
    from repro.dram.refresh import (
        CounterMaskRefresh,
        RandomRefresh,
        RemappedRefresh,
    )

    if name == "random":
        return RandomRefresh(geometry, seed=3)
    if name == "remapped":
        return RemappedRefresh(geometry, remap_fraction=0.1, seed=3)
    return CounterMaskRefresh(geometry)


def _attack_grid(config, kind):
    """A 72-interval trace hammering bank 1 (of two) in the *kind* way."""
    return lambda: build_trace(
        config, 72, attacks=(_attack(kind, config.geometry, 1),), seed=5
    )


@pytest.mark.parametrize("kind", ["flooding", "double-sided", "n-aggressor"])
@pytest.mark.parametrize("policy", ["random", "remapped", "counter-mask"])
def test_refresh_policy_attack_grid_equivalence(policy, kind):
    """Grids under every non-sequential refresh policy, with flips inside
    the epochs the mitigations touch (threshold 500, two banks)."""
    config = small_test_config(num_banks=2, flip_threshold=500)
    cells = grid_cells(SHARED_PASS_TECHNIQUES, (0, 1), config=config)
    results = assert_grid_equivalent(
        config, _attack_grid(config, kind), cells,
        refresh_policy=_policy(policy, config.geometry),
    )
    assert any(result.flips for result in results)


@pytest.mark.parametrize("kind", ["flooding", "double-sided", "n-aggressor"])
def test_remapped_geometry_attack_grid_equivalence(kind):
    """A grid on a geometry whose true adjacency is remapped: act_n
    refreshes the physical neighbours, PARA/MRLoc/ProHit the assumed
    ones."""
    from dataclasses import replace

    from repro.dram.remap import RemappedGeometry

    base = small_test_config(num_banks=2, flip_threshold=500)
    middle = base.geometry.rows_per_bank // 2
    geometry = RemappedGeometry(
        num_banks=2, rows_per_bank=base.geometry.rows_per_bank,
        rows_per_interval=base.geometry.rows_per_interval,
        swaps=((middle, 40), (middle + 2, 300), (middle - 3, 7)),
    )
    config = replace(base, geometry=geometry)
    cells = grid_cells(SHARED_PASS_TECHNIQUES, (0, 1), config=config)
    results = assert_grid_equivalent(config, _attack_grid(config, kind), cells)
    assert any(result.flips for result in results)


def test_best_untouched_epoch_recount(monkeypatch):
    """A lane that touches every epoch the device pass kept gets its
    ``max_disturbance`` from a recount that skips the touched ones."""
    import repro.sim.fused_engine as fused

    monkeypatch.setattr(fused, "_TOP_EPOCHS", 1)
    recounts = []
    device_pass = fused._device_pass

    def counting(*args, **kwargs):
        if kwargs.get("exclude") is not None:
            recounts.append(len(kwargs["exclude"]))
        return device_pass(*args, **kwargs)

    monkeypatch.setattr(fused, "_device_pass", counting)
    config = small_test_config(num_banks=2, flip_threshold=500)
    cells = grid_cells(SHARED_PASS_TECHNIQUES, (0, 1), config=config)
    assert_grid_equivalent(config, _attack_grid(config, "double-sided"), cells)
    assert recounts


def test_grid_shares_one_device_pass(monkeypatch):
    """A grid replays the device once, with or without a record limit;
    a grid that stops at each lane's first drain runs one own pass per
    computed lane."""
    import repro.sim.fused_engine as fused

    calls = []
    device_pass = fused._device_pass

    def counted(*args, **kwargs):
        calls.append(kwargs.get("lane"))
        return device_pass(*args, **kwargs)

    monkeypatch.setattr(fused, "_device_pass", counted)
    trace = _mixed(0)().materialize()
    cells = grid_cells(TECHNIQUES, (0,), config=CONFIG)
    run_simulation_grid(CONFIG, trace, cells)
    assert calls == [None]
    run_simulation_grid(CONFIG, trace, cells, max_activations=500)
    assert calls == [None, None]
    del calls[:]
    run_simulation_grid(CONFIG, trace, cells, stop_after_first_trigger=True)
    assert len(calls) == len(cells)
    assert sum(lane is not None for lane in calls) == len(cells) - 1


def test_shared_pass_metrics_match_own_passes():
    """Grid lanes emit the same metrics under the shared device pass as
    the same cells' own passes (campaign checkpoints store them)."""
    from repro.sim.fused_engine import _plan_cell, run_simulation_fused

    config = small_test_config(num_banks=2, flip_threshold=500)
    trace = _attack_grid(config, "n-aggressor")().materialize()
    cells = grid_cells(SHARED_PASS_TECHNIQUES, (0, 1), config=config)
    shared, own = MetricsRegistry(), MetricsRegistry()
    run_simulation_grid(config, trace, cells, metrics=shared)
    computed = set()
    for cell in cells:
        key = _plan_cell(cell, config).key
        if key in computed:
            continue  # a deduplicated replica replays nothing
        computed.add(key)
        factory = make_factory(cell.technique) if cell.technique else None
        run_simulation_fused(config, trace, factory, seed=cell.seed, metrics=own)

    def lanes(registry):
        # the fused.* work counters count calls, not lanes
        state = registry.as_dict()
        state["counters"] = {
            name: value for name, value in state["counters"].items()
            if not name.startswith("fused.")
        }
        return state

    assert lanes(shared) == lanes(own)


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


def test_cell_wall_seconds_is_the_sum_of_its_lane_spans():
    """Every lane span carries its cell's technique, seed and pbase; a
    computed cell's ``wall_seconds`` is the sum of its lane spans (the
    shared device pass and index scan included for the unmitigated
    cell) and a deduplicated replica, which has none, gets 0.0."""
    from repro.telemetry.spans import SpanTracer

    trace = _mixed(0)().materialize()
    cells = grid_cells(
        ["PARA", "TWiCe", "LiPRoMi", None], SEEDS,
        pbase_scales=PBASE_SCALES, config=CONFIG,
    )
    spans = SpanTracer()
    results = run_simulation_grid(CONFIG, trace, cells, spans=spans)
    names = {span.name for span in spans.spans}
    assert names == {"decode", "device", "decide", "index", "resolve"}
    lanes = {}
    for span in spans.spans:
        if span.name == "decode":
            continue
        key = (
            span.attributes["technique"], span.attributes["seed"],
            span.attributes["pbase"],
        )
        lanes.setdefault(key, []).append(span)
    computed = 0
    for cell, result in zip(cells, results):
        own = lanes.get((cell.technique or "none", cell.seed, cell.config.pbase), [])
        assert result.wall_seconds == sum(span.wall_seconds for span in own)
        computed += bool(own)
    # one lane per computed cell: baseline, TWiCe once, PARA per seed,
    # LiPRoMi per seed and pbase
    assert computed == len(lanes) == 1 + 1 + len(SEEDS) + len(SEEDS) * len(PBASE_SCALES)


def test_single_cell_early_stop_stops_decoding():
    """A streamed single-cell run stops pulling records at the end of
    the interval it stops in (plus the one record that closes that
    interval; its decisions are made an interval at a time), instead of
    decoding the whole trace."""
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

    def interval(index):
        return records[index].time_ns // interval_ns

    end = last + 1
    while end < len(records) and interval(end) == interval(last):
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


@pytest.mark.parametrize("technique", ["MRLoc", "LiPRoMi"])
def test_streamed_mitigated_run_memory_does_not_grow_with_the_trace(technique):
    """A mitigated single cell's own pass holds one interval of the lazy
    trace, its decisions and their drains: the same bound as the
    unmitigated run."""
    import tracemalloc

    from repro.mitigations.registry import make_factory
    from repro.sim.fused_engine import run_simulation_fused

    trace = paper_mixed_workload(CONFIG, total_intervals=600, seed=0)
    tracemalloc.start()
    try:
        result = run_simulation_fused(CONFIG, trace, make_factory(technique))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.normal_activations > 50_000
    assert result.mitigation_triggers > 0
    assert peak < 8 * result.normal_activations


#: bytes per record a 10-cell grid may hold beyond its segment list:
#: the shared device pass's index measured about 41 (a list-of-lists
#: index holding Python ints per record needs about 360)
GRID_BYTES_PER_RECORD = 80


def test_grid_memory_beyond_the_segment_list():
    """A 10-cell grid on a lazy trace holds little beyond the segment
    list it shares between lanes: the device pass's index is packed."""
    import tracemalloc

    from repro.sim.fused_engine import _segments

    def trace():
        return paper_mixed_workload(CONFIG, total_intervals=600, seed=0)

    tracemalloc.start()
    try:
        segments = list(_segments(trace()))
        segment_bytes = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    records = sum(len(segment[0]) for segment in segments)
    del segments
    cells = grid_cells(TECHNIQUES, (0,), config=CONFIG)
    assert len(cells) == 10
    tracemalloc.start()
    try:
        run_simulation_grid(CONFIG, trace(), cells)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert records > 50_000
    assert peak - segment_bytes < GRID_BYTES_PER_RECORD * records


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
