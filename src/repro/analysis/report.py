"""Render the paper's tables and figure series as ASCII reports.

Every benchmark prints through these helpers so the regenerated rows
look like the paper's tables and can be diffed against EXPERIMENTS.md.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Mapping, Sequence

from repro.analysis.area import TechniqueArea, table3_resources
from repro.config import SimConfig
from repro.core.timing import cycle_report

if TYPE_CHECKING:  # imported lazily at call time: sim imports analysis
    from repro.adversary.frontier import AdversaryFrontier
    from repro.adversary.search import SearchOutcome
    from repro.sim.attacks import FloodingOutcome
    from repro.sim.experiment import TechniqueAggregate


def render_table(headers: Sequence[str], rows: Sequence[Sequence[str]]) -> str:
    """Minimal fixed-width table renderer."""
    widths = [len(header) for header in headers]
    for row in rows:
        for column, cell in enumerate(row):
            widths[column] = max(widths[column], len(cell))
    lines = []
    fmt = "  ".join(f"{{:<{width}}}" for width in widths)
    lines.append(fmt.format(*headers))
    lines.append("  ".join("-" * width for width in widths))
    for row in rows:
        lines.append(fmt.format(*row))
    return "\n".join(lines)


def render_table1(config: SimConfig) -> str:
    """Table I: simulated system specification."""
    timing = config.timing
    geometry = config.geometry
    rows = [
        ("Refresh window", f"{timing.refresh_window_ms} ms"),
        ("Refresh interval", f"{timing.refresh_interval_us} us"),
        ("Activation to activation", f"{timing.act_to_act_ns} ns"),
        ("Refresh time", f"{timing.refresh_time_ns} ns"),
        ("DRAM I/O frequency", f"{timing.io_freq_ghz} GHz"),
        ("Banks", str(geometry.num_banks)),
        ("Rows per bank", str(geometry.rows_per_bank)),
        ("Rows per refresh interval", str(geometry.rows_per_interval)),
        ("Refresh intervals per window (RefInt)", str(geometry.refint)),
        ("Max activations per interval", str(timing.max_acts_per_interval)),
        ("Bit-flip activation threshold", str(config.flip_threshold)),
        ("Pbase", f"2^-{round(-__import__('math').log2(config.pbase))}"),
        ("RefInt * Pbase", f"{config.max_probability:.2e}"),
        ("History table entries", str(config.history_table_entries)),
        ("CaPRoMi counter table entries", str(config.counter_table_entries)),
    ]
    return render_table(("parameter", "value"), rows)


def render_table2(config: SimConfig) -> str:
    """Table II: FSM cycles per observed act/ref command."""
    return "\n".join(cycle_report(config))


def render_table3(
    config: SimConfig,
    comparison: Mapping[str, "TechniqueAggregate"],
    resources: Dict[str, TechniqueArea] = None,
    frontiers: Mapping[str, "AdversaryFrontier"] = None,
) -> str:
    """Table III: resources, vulnerability, overhead, FPR.

    With *frontiers* (per-technique adversary-search results), a second
    section lists the worst pattern the red-team fuzzer discovered
    against each technique -- the empirical margin next to the paper's
    literature-based vulnerability column.
    """
    from repro.sim.attacks import vulnerability_verdicts

    resources = resources or table3_resources(config)
    verdicts = vulnerability_verdicts(list(resources), frontiers=frontiers)
    para = resources["PARA"]
    rows = []
    for name, area in resources.items():
        aggregate = comparison.get(name)
        overhead = aggregate.overhead_cell() if aggregate else "n/a"
        fpr = f"{aggregate.fpr_mean:.4f}%" if aggregate else "n/a"
        vulnerable, _reason = verdicts[name]
        rows.append(
            (
                name,
                f"{area.luts_ddr4:,} ({area.relative_to(para):.1f}x)",
                f"{area.luts_ddr3:,}",
                "Yes" if vulnerable else "No",
                overhead,
                fpr,
            )
        )
    table = render_table(
        (
            "technique",
            "LUTs DDR4 (vs PARA)",
            "LUTs DDR3",
            "vulnerable",
            "overhead mu+-sigma",
            "FPR",
        ),
        rows,
    )
    discovered = [
        (name, frontier.best)
        for name, frontier in (frontiers or {}).items()
        if frontier.best is not None
    ]
    if discovered:
        extra = render_table(
            ("technique", "worst discovered pattern",
             "acts to 1st mitigation", "acts/window"),
            [
                (name, best.name, f"{best.fitness:,.0f}",
                 f"{best.acts_per_window:,}")
                for name, best in discovered
            ],
        )
        table += "\n\n" + extra
    return table


def render_techniques(
    config: SimConfig,
    include_extended: bool = True,
    include_modern: bool = True,
) -> str:
    """The `repro techniques` listing: every registered technique.

    One row per technique with its registry tier, fused-dedup traits,
    per-bank table bytes, a DDR4 LUT estimate where the area model
    covers it, and the documented vulnerabilities.
    """
    from repro.analysis.area import area_estimate
    from repro.mitigations.registry import (
        make_mitigation,
        technique_names,
        technique_tier,
    )

    rows = []
    for name in technique_names(
        include_extended=include_extended, include_modern=include_modern
    ):
        cls_instance = make_mitigation(name, config)
        try:
            luts = f"{area_estimate(name, config, config.timing).total:,}"
        except ValueError:
            luts = "n/a"
        vulnerabilities = "; ".join(type(cls_instance).known_vulnerabilities)
        rows.append(
            (
                name,
                technique_tier(name),
                "yes" if type(cls_instance).consumes_rng else "no",
                "yes" if type(cls_instance).consumes_pbase else "no",
                f"{cls_instance.table_bytes:,}",
                luts,
                vulnerabilities or "none documented",
            )
        )
    return render_table(
        (
            "technique",
            "tier",
            "rng",
            "pbase",
            "table B/bank",
            "LUTs DDR4",
            "known vulnerabilities",
        ),
        rows,
    )


def render_fig4(points: Sequence[Mapping[str, float]]) -> str:
    """Fig. 4: table size vs activation overhead (log-log scatter data)."""
    ordered = sorted(points, key=lambda point: point["table_bytes"])
    rows = [
        (
            str(point["technique"]),
            f"{point['table_bytes']:.0f}",
            f"{point['overhead_pct']:.4f}",
        )
        for point in ordered
    ]
    table = render_table(
        ("technique", "table bytes/bank", "overhead %"), rows
    )
    return table + "\n\n" + _ascii_scatter(ordered)


def _ascii_scatter(
    points: Sequence[Mapping[str, float]], width: int = 64, height: int = 16
) -> str:
    """Crude log-log scatter of the Fig. 4 tradeoff."""
    import math

    xs = [math.log10(max(point["table_bytes"], 1.0)) for point in points]
    ys = []
    for point in points:
        overhead = point["overhead_pct"]
        ys.append(math.log10(overhead) if overhead > 0 else -4.0)
    x_low, x_high = min(xs), max(xs)
    y_low, y_high = min(ys), max(ys)
    x_span = (x_high - x_low) or 1.0
    y_span = (y_high - y_low) or 1.0
    grid = [[" "] * width for _ in range(height)]
    for point, x, y in zip(points, xs, ys):
        column = int((x - x_low) / x_span * (width - 1))
        row = int((y_high - y) / y_span * (height - 1))
        marker = str(point["technique"])[0]
        grid[row][column] = marker
    lines = ["overhead% (log) ^  markers = technique initials"]
    lines.extend("".join(row) for row in grid)
    lines.append("-" * width + "> table bytes/bank (log)")
    return "\n".join(lines)


def render_flooding(outcomes: Sequence["FloodingOutcome"]) -> str:
    """The Section IV flooding experiment summary."""
    rows = []
    for outcome in outcomes:
        acts = outcome.median_acts
        rows.append(
            (
                outcome.technique,
                str(outcome.start_weight),
                f"{acts:,.0f}" if acts is not None else "no trigger",
                "yes" if outcome.below_safety_margin else "NO",
            )
        )
    return render_table(
        ("technique", "start weight", "median acts to 1st mitigation", "<69K?"),
        rows,
    )


def render_adversary(outcome: "SearchOutcome") -> str:
    """Adversary-search summary: headline numbers + Pareto frontier.

    The headline compares the best discovered pattern against the best
    canned seed (improvement > 1 means the fuzzer found something the
    literature corpus does not cover); the frontier table lists every
    non-dominated (activation budget, activations-to-first-mitigation)
    pattern.
    """
    corpus, best = outcome.corpus_best, outcome.best
    header_rows = [
        ("technique", outcome.technique),
        ("strategy", outcome.strategy),
        ("evaluations", f"{outcome.evaluations} (budget {outcome.budget})"),
        ("generations", str(outcome.generations)),
        ("best canned seed",
         f"{corpus.fitness:,.0f} acts ({corpus.genome.name})"),
        ("best discovered",
         f"{best.fitness:,.0f} acts ({best.genome.name})"),
        ("improvement", f"{outcome.improvement:.2f}x"),
    ]
    sections = [render_table(("field", "value"), header_rows)]
    rows = [
        (
            point.name,
            f"{point.acts_per_window:,}",
            f"{point.fitness:,.0f}",
            f"{point.escape_rate:.0%}",
            str(point.generation),
        )
        for point in outcome.frontier.points
    ]
    sections.append(render_table(
        ("pattern", "acts/window", "acts to 1st mitigation", "escape", "gen"),
        rows,
    ))
    return "\n\n".join(sections)


def render_comparison(comparison: Mapping[str, "TechniqueAggregate"]) -> str:
    """Generic per-technique summary table."""
    rows = [
        (
            name,
            aggregate.overhead_cell(),
            f"{aggregate.fpr_mean:.4f}%",
            str(aggregate.total_flips),
            f"{aggregate.table_bytes:,}",
        )
        for name, aggregate in comparison.items()
    ]
    return render_table(
        ("technique", "overhead", "FPR", "flips", "table B/bank"), rows
    )


def render_manifest(manifest) -> str:
    """Human-readable summary of a :class:`~repro.telemetry.RunManifest`.

    The header recaps the provenance fields (config hash, engine,
    seeds, git revision), then one row per technique, then the headline
    metric counters when the run collected any.
    """
    header_rows = [
        ("engine", manifest.engine),
        ("config hash", manifest.config_hash),
        ("seeds", ", ".join(str(seed) for seed in manifest.seeds) or "-"),
        ("git rev", (manifest.git_rev or "unknown")[:12]),
        ("created", manifest.created_at or "-"),
        ("schema", str(manifest.schema_version)),
    ]
    if manifest.total_intervals is not None:
        header_rows.append(("intervals", str(manifest.total_intervals)))
    sections = [render_table(("field", "value"), header_rows)]
    if manifest.results:
        rows = [
            (
                name,
                str(summary.get("runs", 0)),
                f"{summary.get('overhead_mean_pct', 0.0):.4f}%",
                f"{summary.get('fpr_mean_pct', 0.0):.4f}%",
                str(summary.get("total_flips", 0)),
                f"{summary.get('wall_seconds', 0.0):.2f}s",
            )
            for name, summary in sorted(manifest.results.items())
        ]
        sections.append(render_table(
            ("technique", "runs", "overhead", "FPR", "flips", "wall"), rows
        ))
    counters = manifest.metrics.get("counters", {}) if manifest.metrics else {}
    if counters:
        rows = [
            (name, f"{entry.get('value', 0):,}"
                   + (" (saturated)" if entry.get("saturated") else ""))
            for name, entry in sorted(counters.items())
        ]
        sections.append(render_table(("counter", "value"), rows))
    return "\n\n".join(sections)


def render_manifest_diff(
    a_label: str, b_label: str, differences: Mapping[str, tuple]
) -> str:
    """Render :func:`~repro.telemetry.diff_manifests` output."""
    if not differences:
        return f"manifests match: {a_label} == {b_label} (volatile fields ignored)"
    rows = [
        (path, str(left), str(right))
        for path, (left, right) in sorted(differences.items())
    ]
    table = render_table((
        "path", f"a: {a_label}", f"b: {b_label}"
    ), rows)
    return f"{len(rows)} difference(s):\n\n{table}"


def render_timing(rows: Sequence[Mapping]) -> str:
    """A span tree's :meth:`~repro.telemetry.spans.SpanTracer.timing_report`
    as the indented ``--profile`` table, shares of the root rows' wall."""
    table = render_table(("span", "seconds", "calls", "share"), [
        ("  " * row["depth"] + row["label"].rsplit("/", 1)[-1],
         f"{row['wall_seconds']:.3f}", str(row["count"]),
         f"{row['share_pct']:.1f}%")
        for row in rows
    ])
    total = sum(row["wall_seconds"] for row in rows if not row["depth"])
    return f"{table}\ntotal {total:.3f}s"


def render_campaign_failures(failures: Sequence) -> str:
    """Degraded-shard table for a fault-tolerant campaign."""
    rows = [
        (
            failure.technique,
            str(failure.seed),
            str(failure.attempts),
            failure.kind,
            failure.error,
        )
        for failure in failures
    ]
    table = render_table(
        ("technique", "seed", "attempts", "kind", "error"), rows
    )
    return f"{len(rows)} degraded shard(s):\n\n{table}"


def render_campaign(
    comparison: Mapping[str, "TechniqueAggregate"],
    failures: Sequence = (),
) -> str:
    """Campaign summary: one line per technique plus degraded shards."""
    sections = ["\n".join(
        aggregate.summary() for aggregate in comparison.values()
    )]
    if failures:
        sections.append(render_campaign_failures(failures))
    return "\n\n".join(sections)


def render_campaign_status(status, aggregates=None) -> str:
    """Render a :class:`~repro.campaign.store.CampaignStatus`.

    Header recaps the stored spec; the body shows per-technique
    completed seeds so an interrupted campaign's remaining work is
    visible at a glance.  Pass the store's incremental
    ``partial_aggregates()`` as *aggregates* to append the summary
    lines of every technique with at least one landed shard -- the
    mid-run numbers, folded in canonical order, that the completed
    campaign will report for those cells.
    """
    spec = status.spec
    header_rows = [
        ("engine", spec.engine),
        ("config hash", spec.config_hash),
        ("intervals", str(spec.total_intervals)),
        ("seeds", ", ".join(str(seed) for seed in spec.seeds)),
        ("shards", f"{len(status.completed)}/{status.total} completed"),
        ("state", "complete" if status.complete else "resumable"),
    ]
    sections = [render_table(("field", "value"), header_rows)]
    done = {}
    for technique, seed in status.completed:
        done.setdefault(technique, []).append(seed)
    rows = [
        (
            technique,
            ", ".join(str(s) for s in done.get(technique, [])) or "-",
            ", ".join(
                str(seed) for name, seed in status.missing
                if name == technique
            ) or "-",
        )
        for technique in spec.techniques
    ]
    sections.append(render_table(("technique", "done", "missing"), rows))
    if aggregates:
        lines = [
            aggregate.summary()
            for aggregate in aggregates.values()
            if aggregate.results
        ]
        if lines:
            sections.append("\n".join(lines))
    if status.failures:
        sections.append(render_campaign_failures(status.failures))
    return "\n\n".join(sections)


def _fmt_eta(seconds) -> str:
    if seconds is None:
        return "-"
    seconds = int(round(seconds))
    if seconds >= 3600:
        return f"{seconds // 3600}h{(seconds % 3600) // 60:02d}m"
    if seconds >= 60:
        return f"{seconds // 60}m{seconds % 60:02d}s"
    return f"{seconds}s"


def render_campaign_live(snapshot, workers=(), stale=(), now=None) -> str:
    """One frame of ``campaign-status --follow``.

    *snapshot* is a :class:`~repro.telemetry.statusbus.CampaignSnapshot`
    (or ``None`` while the runner has not published one yet), *workers*
    the heartbeats read from the status bus, *stale* the worker names
    flagged stale, and *now* a ``time.monotonic()`` stamp for heartbeat
    ages (injectable so tests render deterministic frames).
    """
    import time as _time

    if now is None:
        now = _time.monotonic()
    stale = set(stale)
    lines = []
    if snapshot is None:
        lines.append("campaign: waiting for first status snapshot...")
    else:
        pct = (100.0 * snapshot.done / snapshot.total
               if snapshot.total else 0.0)
        rate = snapshot.throughput
        head = (
            f"campaign: {snapshot.done}/{snapshot.total} shards ({pct:.0f}%)"
        )
        if rate is not None:
            head += f"  throughput {rate:.2f}/s"
        head += f"  eta {_fmt_eta(snapshot.eta_seconds)}"
        if snapshot.complete:
            head += "  [complete]"
        lines.append(head)
        lines.append(
            f"retries {snapshot.retries}  degraded {snapshot.degraded}  "
            f"stale {snapshot.stale}"
        )
    if workers:
        rows = []
        for beat in workers:
            flags = []
            if beat.degraded:
                flags.append("degraded")
            if beat.worker in stale and beat.phase == "running":
                flags.append("STALE")
            rows.append((
                beat.worker,
                f"{beat.cells_done}/{beat.cells_total}",
                beat.phase,
                f"{max(0.0, now - beat.mono):.1f}s",
                str(beat.retries),
                ",".join(flags) or "-",
            ))
        lines.append("")
        lines.append(render_table(
            ("worker", "done", "phase", "age", "retries", "flags"), rows
        ))
    return "\n".join(lines)


def render_ingest(result) -> str:
    """Render an :class:`~repro.traces.ingest.IngestResult`.

    Header recaps the ingest provenance (format, mapper, digests,
    cache outcome), followed by the trace-statistics characterisation
    from :func:`repro.analysis.trace_stats.characterize`.
    """
    from repro.analysis.trace_stats import characterize

    provenance = result.provenance
    cache = provenance.get("cache", {})
    if not cache.get("enabled"):
        cache_cell = "disabled"
    elif cache.get("hit"):
        cache_cell = "hit"
    else:
        cache_cell = "miss (entry written)"
    header_rows = [
        ("source", str(provenance.get("source", "-"))),
        ("format", str(provenance.get("format", "-"))),
        ("mapper", str(provenance.get("mapper") or "-")),
        ("source digest", str(provenance.get("source_digest", "-"))[:16]),
        ("spec digest", str(provenance.get("spec_digest", "-"))),
        ("records", f"{provenance.get('records', 0):,}"),
        ("skipped", f"{provenance.get('skipped', 0):,}"),
        ("cache", cache_cell),
    ]
    sections = [render_table(("field", "value"), header_rows)]
    samples = provenance.get("skipped_samples") or []
    if samples:
        sections.append(
            "skipped-record samples:\n" + "\n".join(
                f"  {sample}" for sample in samples
            )
        )
    stats = characterize(result.trace)
    sections.append(render_table(("statistic", "value"), stats.summary_rows()))
    return "\n\n".join(sections)


def render_serve_session(outcome) -> str:
    """Render a ``repro submit`` :class:`~repro.serve.client.SessionOutcome`.

    A provenance header (session id, shard, server cache outcome),
    then one :meth:`~repro.sim.metrics.SimResult.summary` line per
    verdict -- byte-identical to what an offline ``repro run`` of the
    same cell prints, which is what lets the CI smoke job diff the
    streamed and offline outputs directly.
    """
    from repro.sim.metrics import SimResult

    provenance = outcome.provenance
    cache = provenance.get("cache", {})
    if not cache.get("enabled"):
        cache_cell = "disabled"
    elif cache.get("hit"):
        cache_cell = "hit"
    else:
        cache_cell = "miss (entry written)"
    header_rows = [
        ("session", str(outcome.session or "-")),
        ("shard", str(outcome.accepted.get("shard", "-"))),
        ("engine", str(outcome.accepted.get("engine", "-"))),
        ("format", str(provenance.get("format", "-"))),
        ("source digest", str(provenance.get("source_digest", "-"))[:16]),
        ("records", f"{provenance.get('records', 0):,}"),
        ("server cache", cache_cell),
        ("verdicts", str(len(outcome.verdicts))),
    ]
    sections = [render_table(("field", "value"), header_rows)]
    if outcome.verdicts:
        lines = [
            SimResult.from_dict(verdict["result"]).summary()
            for verdict in outcome.verdicts
        ]
        sections.append("\n".join(lines))
    return "\n\n".join(sections)
