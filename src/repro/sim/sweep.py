"""Parameter sweeps for the ablation studies DESIGN.md calls out.

The paper fixes the history table at 32 entries ("the best optimization
based on the simulated memory traces") and the CaPRoMi counter table at
64; these sweeps regenerate the tradeoff curves behind those choices,
plus the ``Pbase`` protection/overhead knob.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.config import SimConfig
from repro.sim.attacks import flooding_experiment
from repro.sim.engine import is_grid_engine
from repro.sim.experiment import TraceFactory, run_technique


def _unique(values: Sequence) -> List:
    """Deduplicate a sweep grid, keeping first-seen order.

    Sweep grids come from CLI lists and config files where repeated
    values are easy to produce; simulating a duplicated design point
    twice would waste a full multi-seed campaign per duplicate.  Values
    are canonicalised to ``float`` before hashing so spellings of the
    same number (``"0.1"`` vs ``"1e-1"`` out of a config file, ``1`` vs
    ``1.0``) collapse to one design point -- without this, a fused
    pbase sweep would carry duplicate cells through the whole grid.
    The *first-seen* original value is kept, so integer grids stay
    integers.
    """
    seen = set()
    unique = []
    for value in values:
        try:
            key = float(value)
        except (TypeError, ValueError):
            key = value
        if key not in seen:
            seen.add(key)
            unique.append(value)
    return unique


@dataclass
class SweepPoint:
    """One setting of the swept parameter and its outcomes."""

    parameter: str
    value: float
    overhead_pct: float
    fpr_pct: float
    flips: int
    table_bytes: int
    #: median flood activations until first mitigation (protection
    #: proxy; None when the flooding check was skipped or never fired)
    flood_median_acts: Optional[float] = None


def _measure(
    config: SimConfig,
    technique: str,
    trace_factory: TraceFactory,
    seeds: Sequence[int],
    parameter: str,
    value: float,
    check_flooding: bool,
    flood_seeds: Sequence[int],
    engine: str = "reference",
) -> SweepPoint:
    aggregate = run_technique(
        config, technique, trace_factory, seeds, engine=engine
    )
    flood_median = None
    if check_flooding:
        outcome = flooding_experiment(config, technique, seeds=flood_seeds)
        flood_median = outcome.median_acts
    return SweepPoint(
        parameter=parameter,
        value=value,
        overhead_pct=aggregate.overhead_mean,
        fpr_pct=aggregate.fpr_mean,
        flips=aggregate.total_flips,
        table_bytes=aggregate.table_bytes,
        flood_median_acts=flood_median,
    )


def sweep_history_table(
    config: SimConfig,
    trace_factory: TraceFactory,
    technique: str = "LoLiPRoMi",
    sizes: Sequence[int] = (4, 8, 16, 32, 64, 128),
    seeds: Sequence[int] = (0, 1),
    check_flooding: bool = False,
    flood_seeds: Sequence[int] = (0, 1, 2),
    engine: str = "reference",
) -> List[SweepPoint]:
    """History-table entries vs overhead (paper's fixed point: 32)."""
    points = []
    for size in _unique(sizes):
        cfg = config.scaled(history_table_entries=size)
        points.append(
            _measure(
                cfg, technique, trace_factory, seeds,
                "history_table_entries", size, check_flooding, flood_seeds,
                engine=engine,
            )
        )
    return points


def sweep_counter_table(
    config: SimConfig,
    trace_factory: TraceFactory,
    sizes: Sequence[int] = (16, 32, 64, 128),
    seeds: Sequence[int] = (0, 1),
    check_flooding: bool = False,
    flood_seeds: Sequence[int] = (0, 1, 2),
    engine: str = "reference",
) -> List[SweepPoint]:
    """CaPRoMi counter-table entries (paper's fixed point: 64)."""
    points = []
    for size in _unique(sizes):
        cfg = config.scaled(counter_table_entries=size)
        points.append(
            _measure(
                cfg, "CaPRoMi", trace_factory, seeds,
                "counter_table_entries", size, check_flooding, flood_seeds,
                engine=engine,
            )
        )
    return points


def sweep_pbase(
    config: SimConfig,
    trace_factory: TraceFactory,
    technique: str = "LoLiPRoMi",
    scales: Sequence[float] = (0.25, 0.5, 1.0, 2.0, 4.0),
    seeds: Sequence[int] = (0, 1),
    check_flooding: bool = True,
    flood_seeds: Sequence[int] = (0, 1, 2),
    engine: str = "reference",
) -> List[SweepPoint]:
    """``Pbase`` scaling: overhead grows, flood reaction time shrinks.

    With the fused engine (``engine="fused"`` or its alias ``"fast"``)
    the whole scale axis rides one fused grid per trace seed (the pbase
    axis is a native fused-grid dimension), instead of one engine call
    per (scale, seed) pair.
    """
    scales = _unique(scales)
    if is_grid_engine(engine):
        return _sweep_pbase_fused(
            config, trace_factory, technique, scales, seeds,
            check_flooding, flood_seeds,
        )
    points = []
    for scale in scales:
        cfg = config.scaled(pbase=config.pbase * scale)
        points.append(
            _measure(
                cfg, technique, trace_factory, seeds,
                "pbase_scale", scale, check_flooding, flood_seeds,
                engine=engine,
            )
        )
    return points


def _sweep_pbase_fused(
    config: SimConfig,
    trace_factory: TraceFactory,
    technique: str,
    scales: Sequence[float],
    seeds: Sequence[int],
    check_flooding: bool,
    flood_seeds: Sequence[int],
) -> List[SweepPoint]:
    from repro.rng import derive_seed
    from repro.sim.experiment import TechniqueAggregate
    from repro.sim.fused_engine import grid_cells, run_simulation_grid

    aggregates = {
        float(scale): TechniqueAggregate(technique=technique)
        for scale in scales
    }
    for seed in seeds:
        trace = trace_factory(derive_seed(seed, "trace"))
        cells = grid_cells(
            [technique], (seed,), pbase_scales=scales, config=config
        )
        results = run_simulation_grid(config, trace, cells)
        for scale, result in zip(scales, results):
            aggregates[float(scale)].results.append(result)
    points = []
    for scale in scales:
        aggregate = aggregates[float(scale)]
        flood_median = None
        if check_flooding:
            cfg = config.scaled(pbase=config.pbase * float(scale))
            outcome = flooding_experiment(cfg, technique, seeds=flood_seeds)
            flood_median = outcome.median_acts
        points.append(
            SweepPoint(
                parameter="pbase_scale",
                value=scale,
                overhead_pct=aggregate.overhead_mean,
                fpr_pct=aggregate.fpr_mean,
                flips=aggregate.total_flips,
                table_bytes=aggregate.table_bytes,
                flood_median_acts=flood_median,
            )
        )
    return points


def refresh_mapping_ablation(
    config: SimConfig,
    trace_factory: TraceFactory,
    policy_factory,
    technique: str = "LiPRoMi",
    seeds: Sequence[int] = (0, 1),
):
    """Assumed vs exact refresh mapping under a non-sequential policy.

    Section IV states TiVaPRoMi's sequential-refresh assumption is "not
    required for our technique to be effective".  This ablation runs the
    same traces twice under *policy_factory*'s policy: once with the
    default Eq. 1 mapping (``f_r = r / RowsPI``, now wrong for the
    device) and once with the policy's exact inverse mapping
    (:meth:`~repro.dram.refresh.RefreshPolicy.refresh_slot_of`), and
    returns both aggregates so the cost of the assumption can be read
    off directly.  Returns ``(assumed, exact)``.
    """
    from repro.mitigations.registry import make_mitigation
    from repro.rng import derive_seed
    from repro.sim.engine import run_simulation
    from repro.sim.experiment import TechniqueAggregate

    assumed = TechniqueAggregate(technique=f"{technique} (assumed f_r)")
    exact = TechniqueAggregate(technique=f"{technique} (exact f_r)")
    for seed in seeds:
        policy = policy_factory(seed)
        for aggregate, slot_fn in (
            (assumed, None),
            (exact, policy.refresh_slot_of),
        ):
            kwargs = {"refresh_slot_fn": slot_fn} if slot_fn else {}

            def factory(cfg, bank, factory_seed, _kwargs=kwargs):
                return make_mitigation(
                    technique, cfg, bank=bank, seed=factory_seed, **_kwargs
                )

            trace = trace_factory(derive_seed(seed, "trace"))
            result = run_simulation(
                config, trace, factory, seed=seed, refresh_policy=policy
            )
            aggregate.results.append(result)
    return assumed, exact
