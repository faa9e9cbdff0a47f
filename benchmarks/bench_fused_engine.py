"""Optimized-engine throughput on the flooding benchmark trace.

Two speed floors, each re-asserting field-for-field equality at
benchmark scale (the differential tests pin it at test scale):

* the single-cell optimized engine against the reference engine, per
  technique on the flooding trace (>= 3x for the TiVaPRoMi variants)
  and summed over the nine techniques on the paper's mixed trace;
* the whole nine-technique campaign grid (plus the unmitigated
  baseline) as one grid call that decodes the trace once, against solo
  single-cell runs per ``(technique, seed, pbase)`` cell.

Plus the modern-family throughput floors and the disabled-observability
overhead guards.

Scale with ``REPRO_BENCH_INTERVALS`` / ``REPRO_BENCH_SEEDS`` as usual.
"""

from __future__ import annotations

import time

from benchmarks.conftest import (
    BENCH_INTERVALS,
    BENCH_SEEDS,
    run_once,
    write_bench_output,
)
from repro.analysis.report import render_table
from repro.mitigations.registry import make_factory, technique_names
from repro.sim.engine import run_simulation
from repro.sim.fused_engine import grid_cells, run_simulation_fused, run_simulation_grid
from repro.telemetry import MetricsRegistry, NullTracer
from repro.traces.attacker import AttackSpec
from repro.traces.mixer import build_trace, paper_mixed_workload

#: the paper's pbase ablation axis, scaled around the configured value
PBASE_SCALES = (0.5, 1.0, 2.0)
#: one grid call must beat solo runs of its cells by this much.  Solo
#: runs use the same batched deciders (the table techniques included)
#: as the grid, so the grid's edge is only the shared decode, cell dedup
#: and shared geometry caches: 3.2x measured at 512 intervals x 1 seed
#: on a 2-core x86-64 VM, so 2x leaves room for slower CI runners
SPEEDUP_FLOOR = 2.0
#: techniques held to the reference-speedup floor (the paper's
#: probabilistic variants); the others are measured and reported
REFERENCE_FLOOR_TECHNIQUES = ("LiPRoMi", "LoPRoMi", "LoLiPRoMi")
REFERENCE_REPORTED_TECHNIQUES = ("PARA", "TWiCe", "CaPRoMi", "none")
REFERENCE_SPEEDUP_FLOOR = 3.0
#: the nine techniques' single-cell runs on the paper's mixed trace,
#: summed, against the reference's: 1.8x measured at 512 intervals on a
#: 2-core x86-64 VM, so 1.3x sits more than 25% below it
MIXED_SPEEDUP_FLOOR = 1.3


def _flooding_trace(config):
    row = config.geometry.rows_per_bank // 2
    acts = config.timing.max_acts_per_interval
    return build_trace(
        config,
        BENCH_INTERVALS,
        attacks=(
            AttackSpec(bank=0, aggressors=(row,), acts_per_interval=acts),
        ),
        seed=3,
        materialize=True,
    )


def test_reference_speedup_floor(benchmark, paper_config):
    """The single-cell optimized engine beats the reference engine: per
    TiVaPRoMi variant on the flooding trace, and summed over the nine
    techniques on the paper's mixed trace."""
    flooding = _flooding_trace(paper_config)
    mixed = paper_mixed_workload(
        paper_config, total_intervals=BENCH_INTERVALS, seed=0
    ).materialize()

    def measure(trace, technique):
        factory = make_factory(technique) if technique != "none" else None
        started = time.perf_counter()
        reference = run_simulation(paper_config, trace, factory, seed=3)
        mid = time.perf_counter()
        fused = run_simulation_fused(paper_config, trace, factory, seed=3)
        ended = time.perf_counter()
        assert reference.as_dict() == fused.as_dict(), technique
        return mid - started, ended - mid

    flooding_timings, mixed_timings = run_once(benchmark, lambda: (
        {
            technique: measure(flooding, technique)
            for technique in REFERENCE_FLOOR_TECHNIQUES + REFERENCE_REPORTED_TECHNIQUES
        },
        {technique: measure(mixed, technique) for technique in technique_names()},
    ))

    def table(timings):
        rows = []
        for technique, (ref_seconds, fused_seconds) in timings.items():
            rows.append((technique, f"{ref_seconds:.3f}s", f"{fused_seconds:.3f}s",
                         f"{ref_seconds / fused_seconds:.1f}x"))
        return render_table(("technique", "reference", "fused", "speedup"), rows)

    for technique, (ref_seconds, fused_seconds) in flooding_timings.items():
        benchmark.extra_info[technique] = round(ref_seconds / fused_seconds, 2)
    mixed_ref = sum(ref_seconds for ref_seconds, _ in mixed_timings.values())
    mixed_fused = sum(fused_seconds for _, fused_seconds in mixed_timings.values())
    mixed_speedup = mixed_ref / mixed_fused
    benchmark.extra_info["mixed_nine_techniques"] = round(mixed_speedup, 2)
    report = (
        f"=== optimized engine vs reference, flooding trace "
        f"({flooding.count():,} records, {BENCH_INTERVALS} intervals) ===\n"
        + table(flooding_timings)
        + f"\n=== optimized engine vs reference, paper mixed trace "
        f"({mixed.count():,} records, {BENCH_INTERVALS} intervals) ===\n"
        + table(mixed_timings)
        + f"\nnine techniques: reference {mixed_ref:.3f}s, fused "
        f"{mixed_fused:.3f}s, {mixed_speedup:.2f}x"
    )
    print("\n" + report)
    write_bench_output("reference_speedup", report)
    for technique in REFERENCE_FLOOR_TECHNIQUES:
        ref_seconds, fused_seconds = flooding_timings[technique]
        assert ref_seconds / fused_seconds >= REFERENCE_SPEEDUP_FLOOR, (
            f"{technique}: {ref_seconds / fused_seconds:.2f}x "
            f"< {REFERENCE_SPEEDUP_FLOOR}x floor"
        )
    assert mixed_speedup >= MIXED_SPEEDUP_FLOOR, (
        f"mixed trace, nine techniques: {mixed_speedup:.2f}x "
        f"< {MIXED_SPEEDUP_FLOOR}x floor"
    )


def test_fused_campaign_speedup(benchmark, paper_config):
    techniques = technique_names() + [None]
    cells = grid_cells(
        techniques, BENCH_SEEDS, pbase_scales=PBASE_SCALES,
        config=paper_config,
    )
    trace = _flooding_trace(paper_config)

    def compute():
        started = time.perf_counter()
        solo = []
        for cell in cells:
            cell_config = cell.config or paper_config
            factory = make_factory(cell.technique) if cell.technique else None
            solo.append(
                run_simulation_fused(cell_config, trace, factory, seed=cell.seed)
            )
        mid = time.perf_counter()
        metrics = MetricsRegistry()
        fused = run_simulation_grid(
            paper_config, trace, cells, metrics=metrics
        )
        ended = time.perf_counter()
        return mid - started, ended - mid, solo, fused, metrics

    solo_s, fused_s, solo, fused, metrics = run_once(benchmark, compute)

    mismatched = [
        cell
        for cell, solo_result, fused_result in zip(cells, solo, fused)
        if solo_result.as_dict() != fused_result.as_dict()
    ]
    assert not mismatched, (
        f"fused grid diverged at benchmark scale for {len(mismatched)} "
        f"cells, first: {mismatched[0]}"
    )

    speedup = solo_s / fused_s
    computed = metrics.counters["fused.cells_computed"].value
    deduped = metrics.counters["fused.cells_deduped"].value
    benchmark.extra_info["speedup"] = round(speedup, 2)
    benchmark.extra_info["cells"] = len(cells)
    benchmark.extra_info["cells_deduped"] = deduped
    report = (
        f"=== fused grid vs solo per-cell runs, flooding trace "
        f"({trace.count():,} records, {BENCH_INTERVALS} intervals) ===\n"
        + render_table(
            ("cells", "computed", "deduped", "solo", "grid", "speedup"),
            [(
                str(len(cells)), str(computed), str(deduped),
                f"{solo_s:.3f}s", f"{fused_s:.3f}s", f"{speedup:.1f}x",
            )],
        )
    )
    print("\n" + report)
    write_bench_output("fused_engine_speedup", report)

    assert speedup >= SPEEDUP_FLOOR, (
        f"fused campaign speedup {speedup:.2f}x < {SPEEDUP_FLOOR}x floor"
    )


#: per-technique fused replay floors for the modern tracker families,
#: in trace records per second.  Local runs clock ~3M rec/s; the floor
#: leaves a ~20x margin for slow CI runners while still catching an
#: accidental de-batching (losing ``observe_run`` costs well over 20x
#: on a flooding trace).
MODERN_THROUGHPUT_FLOORS = {
    "LoadedDice": 150_000,
    "RVC": 150_000,
    "PVAC": 150_000,
    "PRAC": 150_000,
    "PRACtical": 150_000,
    "ProbTracker": 150_000,
}


def test_modern_technique_throughput_floors(benchmark, paper_config):
    """Each modern family must hold its fused-replay throughput floor.

    A solo fused run per technique over the flooding benchmark trace,
    best-of-3 to damp scheduler noise.  The floor is the guard that the
    run-batched ``observe_run`` paths stay wired up: falling back to
    per-record dispatch on a flooding trace costs orders of magnitude.
    """
    trace = _flooding_trace(paper_config)
    records = trace.count()

    def compute():
        rates = {}
        for name in sorted(MODERN_THROUGHPUT_FLOORS):
            best = None
            for _ in range(3):
                started = time.perf_counter()
                run_simulation_fused(
                    paper_config, trace, make_factory(name), seed=0
                )
                elapsed = time.perf_counter() - started
                if best is None or elapsed < best:
                    best = elapsed
            rates[name] = records / best
        return rates

    rates = run_once(benchmark, compute)
    rows = [
        (name, f"{rates[name]:,.0f}", f"{floor:,}")
        for name, floor in sorted(MODERN_THROUGHPUT_FLOORS.items())
    ]
    report = (
        f"=== modern-technique fused replay throughput, flooding trace "
        f"({records:,} records, {BENCH_INTERVALS} intervals) ===\n"
        + render_table(("technique", "records/s", "floor"), rows)
    )
    print("\n" + report)
    write_bench_output("modern_technique_throughput", report)
    for name, floor in MODERN_THROUGHPUT_FLOORS.items():
        benchmark.extra_info[f"{name}_records_per_s"] = round(rates[name])
        assert rates[name] >= floor, (
            f"{name}: {rates[name]:,.0f} records/s < {floor:,} floor"
        )


#: a NullTracer run may be at most this much slower than a plain run
#: (ratio bound, plus an absolute epsilon to absorb timer noise on the
#: reduced CI scale)
NULL_TRACER_OVERHEAD_RATIO = 1.02
NULL_TRACER_OVERHEAD_EPSILON_S = 0.05


def best_of_interleaved(runs, plain, instrumented):
    """Best-of-*runs* ``(seconds, result)`` of each of two variants, run
    interleaved (plain, instrumented, plain, ...) so that host drift
    over the measurement lands on both sides alike."""
    best = [None, None]
    for _ in range(runs):
        for side, run in enumerate((plain, instrumented)):
            started = time.perf_counter()
            result = run()
            elapsed = time.perf_counter() - started
            if best[side] is None or elapsed < best[side][0]:
                best[side] = (elapsed, result)
    return tuple(best)


def test_fused_null_tracer_overhead(benchmark, paper_config):
    """Disabled telemetry must not regress the fused engine.

    ``NullTracer`` collapses to ``telemetry=None`` at engine entry, so a
    single-cell run with one costs nothing beyond the collapse.  Best-of-3
    timings, interleaved between the two sides, keep the comparison
    robust against scheduler noise and host drift.
    """
    trace = _flooding_trace(paper_config)

    def run(**kwargs):
        return run_simulation_fused(
            paper_config, trace, make_factory("LoLiPRoMi"), seed=3, **kwargs,
        )

    def compute():
        return best_of_interleaved(
            3, run, lambda: run(tracer=NullTracer())
        )

    (plain_s, plain_result), (null_s, null_result) = run_once(
        benchmark, compute
    )
    assert plain_result.as_dict() == null_result.as_dict()
    benchmark.extra_info["overhead_pct"] = round(
        100.0 * (null_s / plain_s - 1.0), 2
    )
    print(f"\nNullTracer overhead (fused): plain={plain_s:.3f}s "
          f"null={null_s:.3f}s ({100.0 * (null_s / plain_s - 1.0):+.2f}%)")
    assert null_s <= plain_s * NULL_TRACER_OVERHEAD_RATIO + \
        NULL_TRACER_OVERHEAD_EPSILON_S, (
        f"NullTracer regressed the fused engine: {plain_s:.3f}s -> "
        f"{null_s:.3f}s"
    )


def test_campaign_disabled_observability_overhead(benchmark, paper_config):
    """Disabled spans + no status bus must not regress ``run_campaign``.

    The observability plane threads span tracers, heartbeats, and
    the progress callback through every campaign path; this guard (the
    ``NullTracer`` guard's sibling) pins the disabled-path cost: a
    campaign handed a disabled :class:`SpanTracer` and no
    :class:`StatusBus` must run as fast as one with no observability
    arguments at all, and produce identical aggregates.  Like its
    sibling, it interleaves the two sides' best-of-3 runs.
    """
    from repro.sim.parallel import run_campaign
    from repro.telemetry import SpanTracer

    techniques = ("PARA", "LoLiPRoMi")
    kwargs = dict(
        total_intervals=BENCH_INTERVALS,
        techniques=techniques,
        seeds=tuple(BENCH_SEEDS),
        workers=0,
        engine="fused",
    )

    def compute():
        return best_of_interleaved(
            3,
            lambda: run_campaign(paper_config, **kwargs),
            lambda: run_campaign(
                paper_config, **kwargs, spans=SpanTracer(enabled=False),
                status=None,
            ),
        )

    (plain_s, plain_result), (off_s, off_result) = run_once(
        benchmark, compute
    )
    for technique in techniques:
        plain_dicts = [r.as_dict() for r in plain_result[technique].results]
        off_dicts = [r.as_dict() for r in off_result[technique].results]
        assert plain_dicts == off_dicts
    benchmark.extra_info["overhead_pct"] = round(
        100.0 * (off_s / plain_s - 1.0), 2
    )
    print(f"\ndisabled-observability overhead (campaign): "
          f"plain={plain_s:.3f}s disabled={off_s:.3f}s "
          f"({100.0 * (off_s / plain_s - 1.0):+.2f}%)")
    assert off_s <= plain_s * NULL_TRACER_OVERHEAD_RATIO + \
        NULL_TRACER_OVERHEAD_EPSILON_S, (
        f"disabled observability regressed run_campaign: {plain_s:.3f}s -> "
        f"{off_s:.3f}s"
    )
