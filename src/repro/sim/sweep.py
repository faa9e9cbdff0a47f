"""Parameter sweeps for the ablation studies DESIGN.md calls out.

The paper fixes the history table at 32 entries ("the best optimization
based on the simulated memory traces") and the CaPRoMi counter table at
64; these sweeps regenerate the tradeoff curves behind those choices,
plus the ``Pbase`` protection/overhead knob.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.config import SimConfig
from repro.sim.attacks import flooding_experiment
from repro.sim.experiment import TechniqueAggregate, TraceFactory, _run_seeds
from repro.sim.fused_engine import GridCell


def _unique(values: Sequence) -> List:
    """Deduplicate a sweep grid, keeping first-seen order.

    Sweep grids come from CLI lists and config files where repeated
    values are easy to produce; simulating a duplicated design point
    twice would waste a full multi-seed campaign per duplicate.  Values
    are canonicalised to ``float`` before hashing so spellings of the
    same number (``"0.1"`` vs ``"1e-1"`` out of a config file, ``1`` vs
    ``1.0``) collapse to one design point -- without this, a fused
    sweep would carry duplicate cells through the whole grid.
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


def _sweep(
    config: SimConfig,
    trace_factory: TraceFactory,
    technique: str,
    parameter: str,
    points: Sequence[Tuple[float, SimConfig]],
    seeds: Sequence[int],
    check_flooding: bool,
    flood_seeds: Sequence[int],
    engine: str,
) -> List[SweepPoint]:
    """One :class:`SweepPoint` per ``(value, config)`` design point.

    Each point is a cell with its own config, so every seed's trace is
    built once and read by the whole sweep -- one grid per seed on the
    fused engine.
    """
    cells = [GridCell(technique, config=cfg) for _, cfg in points]
    columns = _run_seeds(config, trace_factory, cells, seeds, engine)
    swept = []
    for (value, cfg), results in zip(points, columns):
        aggregate = TechniqueAggregate(technique=technique, results=results)
        flood_median = None
        if check_flooding:
            outcome = flooding_experiment(cfg, technique, seeds=flood_seeds)
            flood_median = outcome.median_acts
        swept.append(
            SweepPoint(
                parameter=parameter,
                value=value,
                overhead_pct=aggregate.overhead_mean,
                fpr_pct=aggregate.fpr_mean,
                flips=aggregate.total_flips,
                table_bytes=aggregate.table_bytes,
                flood_median_acts=flood_median,
            )
        )
    return swept


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
    points = [
        (size, config.scaled(history_table_entries=size)) for size in _unique(sizes)
    ]
    return _sweep(
        config, trace_factory, technique, "history_table_entries", points,
        seeds, check_flooding, flood_seeds, engine,
    )


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
    points = [
        (size, config.scaled(counter_table_entries=size)) for size in _unique(sizes)
    ]
    return _sweep(
        config, trace_factory, "CaPRoMi", "counter_table_entries", points,
        seeds, check_flooding, flood_seeds, engine,
    )


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

    Each scale multiplies ``config.pbase`` (after float coercion, so
    ``"0.5"`` is a scale too) and is one cell of the per-seed run; on
    the fused engine (``engine="fused"`` or its alias ``"fast"``) the
    whole scale axis rides one grid per trace seed, the pbase axis
    being a native grid dimension.
    """
    points = [
        (scale, config.scaled(pbase=config.pbase * float(scale)))
        for scale in _unique(scales)
    ]
    return _sweep(
        config, trace_factory, technique, "pbase_scale", points,
        seeds, check_flooding, flood_seeds, engine,
    )


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
    off directly.  Each seed's trace is built once and replayed by both
    cells on the reference engine.  Returns ``(assumed, exact)``.
    """
    from repro.rng import derive_seed
    from repro.sim.engine import run_cells

    assumed = TechniqueAggregate(technique=f"{technique} (assumed f_r)")
    exact = TechniqueAggregate(technique=f"{technique} (exact f_r)")
    for seed in seeds:
        policy = policy_factory(seed)
        cells = [
            GridCell(technique=technique, seed=seed),
            GridCell(
                technique=technique, seed=seed,
                kwargs=(("refresh_slot_fn", policy.refresh_slot_of),),
            ),
        ]
        results = run_cells(
            config, trace_factory(derive_seed(seed, "trace")), cells,
            "reference", refresh_policy=policy,
        )
        for aggregate, result in zip((assumed, exact), results):
            aggregate.results.append(result)
    return assumed, exact
