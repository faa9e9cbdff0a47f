"""Multi-seed experiment orchestration.

An *experiment* runs one mitigation technique over freshly generated
traces for several seeds and aggregates overhead/FPR/reliability
statistics -- the unit from which Table III and Fig. 4 are built.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

from repro.analysis.stats import mean, mean_pm_std, std
from repro.config import SimConfig
from repro.dram.refresh import RefreshPolicy
from repro.mitigations.registry import make_factory, technique_names
from repro.rng import derive_seed
from repro.sim.engine import get_engine, is_grid_engine
from repro.sim.metrics import SimResult
from repro.telemetry.spans import SpanTracer, span_of
from repro.traces.mixer import paper_mixed_workload
from repro.traces.record import Trace

#: builds the trace for one seed
TraceFactory = Callable[[int], Trace]
#: builds the refresh policy for one seed (None -> sequential)
PolicyFactory = Callable[[int], RefreshPolicy]


@dataclass
class TechniqueAggregate:
    """Multi-seed statistics for one technique."""

    technique: str
    results: List[SimResult] = field(default_factory=list)
    #: seeds whose shard was dropped by a fault-tolerant campaign
    #: (``on_shard_failure=skip``); statistics above cover the
    #: surviving seeds only, so reports must surface these
    degraded_seeds: List[int] = field(default_factory=list)

    @property
    def overheads(self) -> List[float]:
        return [result.overhead_pct for result in self.results]

    @property
    def fprs(self) -> List[float]:
        return [result.fpr_pct for result in self.results]

    @property
    def overhead_mean(self) -> float:
        return mean(self.overheads) if self.results else 0.0

    @property
    def overhead_std(self) -> float:
        # std() itself returns 0.0 below two samples, so a single-seed
        # campaign reports (mu +- 0.0)% instead of raising
        return std(self.overheads)

    @property
    def fpr_mean(self) -> float:
        return mean(self.fprs) if self.results else 0.0

    @property
    def total_flips(self) -> int:
        return sum(len(result.flips) for result in self.results)

    @property
    def any_attack_succeeded(self) -> bool:
        return self.total_flips > 0

    @property
    def table_bytes(self) -> int:
        return self.results[0].table_bytes if self.results else 0

    @property
    def min_protection_margin(self) -> float:
        if not self.results:
            return 0.0
        return min(result.protection_margin for result in self.results)

    @property
    def wall_seconds(self) -> float:
        """Total engine wall-clock across all seeds (manifest timing)."""
        return sum(result.wall_seconds for result in self.results)

    def overhead_cell(self) -> str:
        """Table III style ``(mu +- sigma)%`` cell."""
        return mean_pm_std(self.overheads)

    @property
    def degraded(self) -> bool:
        return bool(self.degraded_seeds)

    def summary(self) -> str:
        degraded = (
            f" DEGRADED(seeds={sorted(self.degraded_seeds)})"
            if self.degraded_seeds else ""
        )
        return (
            f"{self.technique:<10} overhead={self.overhead_cell()} "
            f"fpr={self.fpr_mean:.4f}% flips={self.total_flips} "
            f"table={self.table_bytes}B{degraded}"
        )


def default_trace_factory(
    config: SimConfig, total_intervals: int, **workload_kwargs
) -> TraceFactory:
    """The paper's mixed SPEC + ramped-attacker workload, per seed."""

    def factory(seed: int) -> Trace:
        return paper_mixed_workload(
            config, total_intervals=total_intervals, seed=seed, **workload_kwargs
        )

    return factory


def run_technique(
    config: SimConfig,
    technique: Optional[str],
    trace_factory: TraceFactory,
    seeds: Sequence[int] = (0, 1, 2),
    policy_factory: Optional[PolicyFactory] = None,
    engine: str = "reference",
    tracer=None,
    metrics=None,
    spans: Optional[SpanTracer] = None,
    **technique_kwargs,
) -> TechniqueAggregate:
    """Run *technique* (or ``None`` for no mitigation) over all seeds.

    ``engine`` selects the simulation engine by name (see
    :data:`repro.sim.engine.ENGINE_NAMES`); both engines produce
    identical results, pinned by the differential test harness.
    ``tracer`` / ``metrics`` / ``spans`` are handed to every per-seed
    engine run (all seeds share them, so metric counters aggregate
    across the whole technique); they never change any result.  Each
    seed records a ``trace`` and a ``simulate`` span carrying the
    technique, the engine's spans nested in the latter.
    """
    run = get_engine(engine)
    mitigation_factory = (
        make_factory(technique, **technique_kwargs) if technique else None
    )
    aggregate = TechniqueAggregate(technique=technique or "none")
    label = technique or "none"
    for seed in seeds:
        with span_of(spans, "trace", technique=label, seed=seed):
            trace = trace_factory(derive_seed(seed, "trace"))
        policy = policy_factory(seed) if policy_factory else None
        with span_of(spans, "simulate", technique=label, seed=seed):
            result = run(
                config,
                trace,
                mitigation_factory,
                seed=seed,
                refresh_policy=policy,
                tracer=tracer,
                metrics=metrics,
                spans=spans,
            )
        aggregate.results.append(result)
    return aggregate


def compare_techniques(
    config: SimConfig,
    trace_factory: TraceFactory,
    techniques: Optional[Sequence[str]] = None,
    seeds: Sequence[int] = (0, 1, 2),
    include_unmitigated: bool = False,
    engine: str = "reference",
    tracer=None,
    metrics=None,
    spans: Optional[SpanTracer] = None,
) -> Dict[str, TechniqueAggregate]:
    """Run every technique over the same per-seed traces.

    Identical trace seeds across techniques make the comparison paired,
    which is how the paper evaluates all nine techniques on the same
    gem5 trace.
    """
    names = list(techniques) if techniques is not None else technique_names()
    if is_grid_engine(engine) and tracer is None:
        # Grid path: every technique rides one decode+replay of the
        # per-seed trace, which is read once and so never cached.
        # Per-engine tracers are single-cell only, so a tracer falls
        # through to the per-cell loop below.
        return _compare_fused(
            config, trace_factory, names, seeds, include_unmitigated,
            metrics=metrics, spans=spans,
        )
    # the per-cell loop reads each seed's trace once per technique
    cache: Dict[int, Trace] = {}

    def cached_factory(trace_seed: int) -> Trace:
        trace = cache.get(trace_seed)
        if trace is None:
            trace = trace_factory(trace_seed).materialize()
            cache[trace_seed] = trace
        return trace

    comparison: Dict[str, TechniqueAggregate] = {}
    telemetry_kwargs = dict(tracer=tracer, metrics=metrics, spans=spans)
    if include_unmitigated:
        comparison["none"] = run_technique(
            config, None, cached_factory, seeds, engine=engine,
            **telemetry_kwargs,
        )
    for name in names:
        comparison[name] = run_technique(
            config, name, cached_factory, seeds, engine=engine,
            **telemetry_kwargs,
        )
    return comparison


def _compare_fused(
    config: SimConfig,
    trace_factory: TraceFactory,
    names: Sequence[str],
    seeds: Sequence[int],
    include_unmitigated: bool,
    metrics=None,
    spans: Optional[SpanTracer] = None,
) -> Dict[str, TechniqueAggregate]:
    """Fused-engine comparison: one grid call per trace seed.

    The paired-trace structure (every technique sees the same per-seed
    trace) maps exactly onto one fused cell grid per seed: the trace
    varies with the seed, so the seed axis cannot share a decode, but
    the whole technique axis can.  Results are bit-identical to the
    per-cell path -- the differential suite pins it.  Each seed
    records a ``trace`` span and a ``grid`` span holding the grid's
    lane spans.
    """
    from repro.sim.fused_engine import grid_cells, run_simulation_grid

    techniques: List[Optional[str]] = (
        [None] if include_unmitigated else []
    ) + list(names)
    comparison: Dict[str, TechniqueAggregate] = {}
    for technique in techniques:
        comparison[technique or "none"] = TechniqueAggregate(
            technique=technique or "none"
        )
    for seed in seeds:
        with span_of(spans, "trace", seed=seed):
            trace = trace_factory(derive_seed(seed, "trace"))
        cells = grid_cells(techniques, (seed,), config=config)
        with span_of(spans, "grid", seed=seed):
            results = run_simulation_grid(
                config, trace, cells, metrics=metrics, spans=spans
            )
        for cell, result in zip(cells, results):
            comparison[cell.technique or "none"].results.append(result)
    return comparison
