"""Command-line interface: regenerate any paper artifact from a shell.

    python -m repro table1                 # Table I
    python -m repro table2                 # Table II + budgets
    python -m repro table3 [--intervals N --seeds K]
    python -m repro fig4   [--intervals N --seeds K]
    python -m repro flood  [--start-weights 0 384 4096 --seeds K]
    python -m repro policies [--intervals N]
    python -m repro trace --out FILE [--intervals N --seed S]
    python -m repro ingest FILE [--format auto --mapper layout]
    python -m repro run --technique NAME --trace FILE
    python -m repro run --technique NAME --trace-file CAPTURE[.gz]
    python -m repro compare [--trace-file CAPTURE] [--techniques ...]
    python -m repro campaign --checkpoint-dir DIR [--resume]
    python -m repro campaign --checkpoint-dir DIR --executor queue \
        --queue-dir SHARED [--queue-workers N]
    python -m repro campaign-worker SHARED [--idle-exit SECONDS]
    python -m repro campaign-status DIR
    python -m repro adversary --technique NAME [--strategy evolve]
    python -m repro serve [--port 7777 --shards N --status-dir DIR]
    python -m repro submit FILE --port 7777 [--techniques NAME ...]

``ingest`` parses an externally captured trace (DRAMSim/Ramulator
command logs, litex-rowhammer-tester JSON dumps, or the native format;
gzip transparent) and prints its provenance and statistics.  The same
``--trace-file`` family of flags on ``run``/``compare``/``campaign``
replays such a capture through the mitigations instead of the
synthetic paper workload (see docs/trace-formats.md).

The heavy subcommands accept the same scale knobs as the benchmarks,
plus ``--engine {reference,fast,fused}`` to pick the simulation engine
(``fused`` is result-identical to the reference and shares one trace
decode across a campaign's whole technique grid; ``fast`` is its alias
-- see docs/architecture.md), and the
observability flags (see docs/observability.md):

    --trace-events FILE    stream telemetry events as JSON lines
    --manifest FILE        write a reproducibility manifest (config
                           hash, seeds, git rev, results, metrics)
    --profile              print the run's span tree with wall-clock
                           seconds and shares

    python -m repro manifest-diff A.json B.json   # compare two runs

Exit status: 0 on success; 2 on bad input -- an unknown technique, a
missing input file, a malformed trace -- reported as one line on
stderr before any work starts; 1 means "the attack succeeded" for
``run``, "the manifests differ" for ``manifest-diff`` and a failed
shard or server error elsewhere (``submit`` adds 3 for a lost
connection).

``campaign`` runs the full technique comparison with per-shard
checkpointing: kill it at any point and re-run with ``--resume`` to
continue from the completed shards (see docs/campaigns.md).  Worker
faults are handled by ``--max-retries/--shard-timeout`` with
exponential backoff, and ``--on-shard-failure skip`` degrades failed
shards instead of aborting the campaign.  ``--executor`` picks the
execution lane (serial, local pool, or a shared filesystem work
queue); with ``--executor queue`` the shards are leased by
``campaign-worker`` processes -- start any number of them, on any
host that mounts the queue directory, and the campaign's aggregates
stay bit-identical to a single-host run (see docs/distributed.md).

``serve`` starts the streaming evaluation service: a long-running
server that accepts trace uploads over newline-delimited JSON,
multiplexes concurrent client sessions onto sharded workers running
the fused engine, and streams verdicts back incrementally.  ``submit``
is its client: it uploads a capture and prints the same per-technique
summary lines an offline ``run`` would.  Protocol spec and quickstart
in docs/serve.md; with ``--status-dir`` a live server is observable
through ``campaign-status DIR --follow`` like any campaign.

``adversary`` runs the red-team pattern fuzzer against one mitigation:
a deterministic random or (mu+lambda) evolutionary search over attack
genomes, reporting the Pareto frontier of (activation budget,
activations before first mitigation).  ``--checkpoint-dir``/``--resume``
give it the same kill/resume durability as ``campaign`` (see
docs/adversary.md).
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional, Sequence

from repro.config import SimConfig


class UsageError(Exception):
    """Bad command-line input: :func:`main` prints it as one line and
    exits with status 2."""


def _technique(name: str) -> str:
    """The registry name for a user spelling (case-insensitive)."""
    from repro.mitigations.registry import resolve_technique

    try:
        return resolve_technique(name)
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def _techniques(names: Optional[Sequence[str]]) -> Optional[List[str]]:
    return None if names is None else [_technique(name) for name in names]


def _input_file(path: Optional[str], what: str) -> None:
    """Fail before any work if an input file given on the command line
    is missing."""
    if path is not None and not os.path.isfile(path):
        raise UsageError(f"{what} not found: {path}")


def _add_scale_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--intervals", type=int, default=2048,
                        help="refresh intervals per run (8192 = full window)")
    parser.add_argument("--seeds", type=int, default=2,
                        help="seeds per technique")
    _add_engine_arg(parser)
    _add_telemetry_args(parser)


def _add_telemetry_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--trace-events", metavar="FILE", default=None,
        help="write telemetry events (triggers, refreshes, interval "
             "rollovers) to FILE as JSON lines",
    )
    parser.add_argument(
        "--manifest", metavar="FILE", default=None,
        help="write a run manifest (config hash, seeds, engine, git "
             "rev, per-technique results, metrics) to FILE",
    )
    parser.add_argument(
        "--profile", action="store_true",
        help="print the run's span tree (wall-clock seconds per phase, "
             "technique lane and shard) after the run",
    )
    _add_metrics_out_arg(parser)


def _add_metrics_out_arg(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--metrics-out", metavar="FILE", default=None,
        help="export the run's metrics (and span summary, where the "
             "command records spans) to FILE: .prom writes Prometheus "
             "text format, anything else JSON lines",
    )


def _telemetry_from_args(args, config):
    """Build (tracer, metrics, spans) from the CLI flags, or Nones.

    The span tree is recorded for ``--profile`` (which prints it) and
    ``--metrics-out`` (which exports its summary); span ids derive from
    the config hash.
    """
    from repro.telemetry import JsonlTracer, MetricsRegistry, SpanTracer, config_digest

    tracer = JsonlTracer(args.trace_events) if args.trace_events else None
    metrics_out = getattr(args, "metrics_out", None)
    # the manifest embeds the metrics snapshot and --metrics-out exports
    # it, so both imply metrics collection (interval-granular, near-free)
    metrics = (
        MetricsRegistry()
        if (args.manifest or args.trace_events or metrics_out)
        else None
    )
    spans = (
        SpanTracer(id_seed=config_digest(config))
        if args.profile or metrics_out else None
    )
    return tracer, metrics, spans


def _finish_telemetry(
    args, config, tracer, metrics, spans,
    comparison=None, total_intervals=None, extra=None, failures=None,
) -> None:
    """Close the tracer, export metrics, write the manifest and profile."""
    from repro.analysis.report import render_timing
    from repro.telemetry import build_manifest

    if tracer is not None:
        tracer.close()
        print(f"wrote {tracer.events_written:,} events to {tracer.path}",
              file=sys.stderr)
    metrics_out = getattr(args, "metrics_out", None)
    if metrics_out:
        from repro.telemetry import write_metrics_export

        path = write_metrics_export(
            metrics_out, metrics,
            spans.summary() if spans is not None else None,
        )
        print(f"wrote metrics export to {path}", file=sys.stderr)
        extra = dict(extra or {})
        extra["metrics_export"] = {
            "path": str(path),
            "format": "prometheus" if path.suffix in (".prom", ".txt")
            else "jsonl",
        }
    if args.manifest:
        manifest = build_manifest(
            config,
            engine=getattr(args, "engine", "reference"),
            seeds=tuple(range(args.seeds)) if hasattr(args, "seeds") else (),
            comparison=comparison,
            metrics=metrics,
            spans=spans,
            total_intervals=total_intervals,
            extra=extra,
            failures=failures,
        )
        print(f"wrote manifest to {manifest.write(args.manifest)}",
              file=sys.stderr)
    if args.profile:
        print("\n" + render_timing(spans.timing_report()))


def _add_ingest_args(
    parser: argparse.ArgumentParser,
    with_trace_file: bool = True,
    with_cache: bool = True,
) -> None:
    """Flags controlling external-trace ingestion (docs/trace-formats.md).

    ``with_cache=False`` omits the cache-location flags -- ``submit``
    streams to a server whose cache lives server-side.
    """
    if with_trace_file:
        parser.add_argument(
            "--trace-file", metavar="FILE", default=None,
            help="replay an externally captured trace (DRAMSim/Ramulator, "
                 "litex-rowhammer-tester JSON, or native; gzip OK) instead "
                 "of the synthetic workload",
        )
    parser.add_argument(
        "--trace-format", choices=("auto", "dramsim", "litex", "native"),
        default="auto",
        help="source format ('auto' sniffs the file contents)",
    )
    parser.add_argument(
        "--mapper", default="layout", metavar="SPEC",
        help="address-mapper preset name or literal bit-field spec, e.g. "
             "'row:30-15 bank:14-13 column:12-0' (dramsim format only)",
    )
    parser.add_argument(
        "--clock-ns", type=float, default=1.0, metavar="NS",
        help="nanoseconds per dramsim trace cycle",
    )
    parser.add_argument(
        "--mark-attacks", choices=("auto", "yes", "no"), default="auto",
        help="override the is_attack flag on ingested records (auto: "
             "dramsim=no, litex=yes, native keeps its per-record flags)",
    )
    parser.add_argument(
        "--on-parse-error", choices=("raise", "skip"), default="raise",
        help="malformed records abort the ingest (raise) or are counted "
             "and dropped (skip)",
    )
    if with_cache:
        _add_ingest_cache_arg(parser)
        parser.add_argument(
            "--no-ingest-cache", action="store_true",
            help="bypass the npz ingest cache (always re-parse)",
        )


def _add_ingest_cache_arg(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--ingest-cache", metavar="DIR", default=None,
        help="ingest cache directory (default: $REPRO_INGEST_CACHE or "
             "~/.cache/repro/ingest)",
    )


_MARK_ATTACKS = {"auto": None, "yes": True, "no": False}


def _ingest_from_args(args, config, metrics=None, spans=None):
    """Run the ingest pipeline for ``--trace-file``-style flags."""
    from repro.traces.ingest import IngestCache, ingest_trace

    cache = IngestCache(root=args.ingest_cache, metrics=metrics)
    return ingest_trace(
        args.trace_file,
        config,
        format=args.trace_format,
        mapper=args.mapper,
        clock_ns=args.clock_ns,
        mark_attacks=_MARK_ATTACKS[args.mark_attacks],
        on_parse_error=args.on_parse_error,
        cache=cache,
        use_cache=not args.no_ingest_cache,
        metrics=metrics,
        spans=spans,
    )


def _add_engine_arg(parser: argparse.ArgumentParser) -> None:
    from repro.sim.engine import ENGINE_NAMES

    parser.add_argument(
        "--engine", choices=ENGINE_NAMES, default="reference",
        help="simulation engine: 'fused' is result-identical to "
             "'reference' (pinned by the differential tests), several "
             "times faster per run, and evaluates a whole "
             "technique/seed/pbase grid in one trace pass (campaigns, "
             "sweeps, adversary searches); 'fast' is an alias of 'fused'",
    )


def _cmd_table1(args) -> int:
    from repro.analysis.report import render_table1

    print(render_table1(SimConfig()))
    return 0


def _cmd_table2(args) -> int:
    from repro.analysis.report import render_table2

    print(render_table2(SimConfig()))
    return 0


def _cmd_techniques(args) -> int:
    from repro.analysis.report import render_techniques

    print(render_techniques(
        SimConfig(),
        include_extended=not args.paper_only,
        include_modern=not args.paper_only,
    ))
    return 0


def _comparison(args, config, tracer=None, metrics=None, spans=None):
    from repro.mitigations.registry import technique_names
    from repro.sim.experiment import compare_techniques, default_trace_factory

    factory = default_trace_factory(config, total_intervals=args.intervals)
    techniques = None
    if getattr(args, "include_modern", False):
        techniques = technique_names(include_modern=True)
    return compare_techniques(
        config, factory, techniques=techniques, seeds=tuple(range(args.seeds)),
        include_unmitigated=True, engine=args.engine,
        tracer=tracer, metrics=metrics, spans=spans,
    )


def _cmd_table3(args) -> int:
    from repro.analysis.area import table3_resources
    from repro.analysis.report import render_table3

    config = SimConfig()
    tracer, metrics, spans = _telemetry_from_args(args, config)
    comparison = _comparison(args, config, tracer, metrics, spans)
    full_comparison = dict(comparison)
    unmitigated = comparison.pop("none")
    print(f"unmitigated flips: {unmitigated.total_flips}\n")
    resources = table3_resources(config, include_modern=args.include_modern)
    print(render_table3(config, comparison, resources))
    _finish_telemetry(
        args, config, tracer, metrics, spans,
        comparison=full_comparison, total_intervals=args.intervals,
        extra={"command": "table3"},
    )
    return 0


def _cmd_fig4(args) -> int:
    from repro.analysis.area import fig4_points
    from repro.analysis.report import render_fig4

    config = SimConfig()
    tracer, metrics, spans = _telemetry_from_args(args, config)
    comparison = _comparison(args, config, tracer, metrics, spans)
    full_comparison = dict(comparison)
    comparison.pop("none")
    overheads = {name: agg.overhead_mean for name, agg in comparison.items()}
    print(render_fig4(fig4_points(config, overheads)))
    _finish_telemetry(
        args, config, tracer, metrics, spans,
        comparison=full_comparison, total_intervals=args.intervals,
        extra={"command": "fig4"},
    )
    return 0


def _cmd_flood(args) -> int:
    from repro.analysis.report import render_flooding
    from repro.mitigations.registry import TIVAPROMI_VARIANTS
    from repro.sim.attacks import flooding_experiment

    config = SimConfig()
    outcomes = []
    for start_weight in args.start_weights:
        for technique in TIVAPROMI_VARIANTS:
            outcomes.append(
                flooding_experiment(
                    config, technique, start_weight=start_weight,
                    seeds=tuple(range(args.seeds)),
                )
            )
    print(render_flooding(outcomes))
    return 0


def _cmd_policies(args) -> int:
    from repro.analysis.report import render_table
    from repro.dram.refresh import all_policies
    from repro.sim.experiment import default_trace_factory, run_technique

    args.technique = _technique(args.technique)
    config = SimConfig()
    tracer, metrics, spans = _telemetry_from_args(args, config)
    factory = default_trace_factory(config, total_intervals=args.intervals)
    rows = []
    comparison = {}
    for policy in all_policies(config.geometry, seed=0):
        aggregate = run_technique(
            config, args.technique, factory,
            seeds=tuple(range(args.seeds)),
            policy_factory=lambda seed, p=policy: p,
            engine=args.engine,
            tracer=tracer, metrics=metrics, spans=spans,
        )
        comparison[f"{args.technique}@{policy.name}"] = aggregate
        rows.append(
            (policy.name, aggregate.overhead_cell(),
             str(aggregate.total_flips))
        )
    print(render_table(("policy", "overhead", "flips"), rows))
    _finish_telemetry(
        args, config, tracer, metrics, spans,
        comparison=comparison, total_intervals=args.intervals,
        extra={"command": "policies", "technique": args.technique},
    )
    return 0


def _cmd_trace(args) -> int:
    from repro.traces.mixer import paper_mixed_workload
    from repro.traces.trace_io import save_trace

    directory = os.path.dirname(args.out)
    if directory and not os.path.isdir(directory):
        raise UsageError(f"output directory not found: {directory}")
    config = SimConfig()
    trace = paper_mixed_workload(
        config, total_intervals=args.intervals, seed=args.seed
    )
    count = save_trace(trace, args.out)
    print(f"wrote {count:,} activations to {args.out}")
    return 0


def _cmd_ingest(args) -> int:
    from repro.analysis.report import render_ingest
    from repro.traces.trace_io import save_trace_npz

    _input_file(args.trace_file, "trace file")
    config = SimConfig()
    tracer, metrics, spans = _telemetry_from_args(args, config)
    result = _ingest_from_args(args, config, metrics, spans)
    print(render_ingest(result))
    if args.out:
        count = save_trace_npz(result.trace, args.out)
        print(f"wrote {count:,} records to {args.out}", file=sys.stderr)
    args.seeds = 0  # no simulation seeds in an ingest-only manifest
    _finish_telemetry(
        args, config, tracer, metrics, spans,
        extra={"command": "ingest", "ingest": result.provenance},
    )
    return 0


def _cmd_compare(args) -> int:
    from repro.analysis.report import render_comparison, render_ingest
    from repro.sim.experiment import compare_techniques, default_trace_factory

    args.techniques = _techniques(args.techniques)
    _input_file(args.trace_file, "trace file")
    config = SimConfig()
    tracer, metrics, spans = _telemetry_from_args(args, config)
    extra = {"command": "compare"}
    if args.trace_file:
        result = _ingest_from_args(args, config, metrics, spans)
        print(render_ingest(result))
        print()
        trace = result.trace.materialize()
        factory = lambda seed: trace  # noqa: E731 - same capture, all seeds
        extra["ingest"] = result.provenance
    else:
        factory = default_trace_factory(config, total_intervals=args.intervals)
    comparison = compare_techniques(
        config, factory,
        techniques=args.techniques,
        seeds=tuple(range(args.seeds)),
        include_unmitigated=args.include_unmitigated,
        engine=args.engine,
        tracer=tracer, metrics=metrics, spans=spans,
    )
    print(render_comparison(comparison))
    _finish_telemetry(
        args, config, tracer, metrics, spans,
        comparison=comparison, total_intervals=args.intervals,
        extra=extra,
    )
    return 0


def _cmd_run(args) -> int:
    from repro.mitigations.registry import make_factory
    from repro.sim.engine import get_engine
    from repro.sim.experiment import TechniqueAggregate
    from repro.traces.trace_io import load_trace

    if bool(args.trace) == bool(args.trace_file):
        print("run: pass exactly one of --trace / --trace-file",
              file=sys.stderr)
        return 2
    if args.technique != "none":
        args.technique = _technique(args.technique)
    _input_file(args.trace, "trace")
    _input_file(args.trace_file, "trace file")
    config = SimConfig()
    tracer, metrics, spans = _telemetry_from_args(args, config)
    ingest_provenance = None
    if args.trace_file:
        ingested = _ingest_from_args(args, config, metrics, spans)
        trace = ingested.trace
        ingest_provenance = ingested.provenance
    else:
        trace = load_trace(args.trace)
    factory = make_factory(args.technique) if args.technique != "none" else None
    result = get_engine(args.engine)(
        config, trace, factory, seed=args.seed,
        tracer=tracer, metrics=metrics, spans=spans,
    )
    print(result.summary())
    aggregate = TechniqueAggregate(technique=args.technique)
    aggregate.results.append(result)
    args.seeds = 1  # manifest seed range for a single run
    extra = {
        "command": "run",
        "trace": args.trace or args.trace_file,
        "seed": args.seed,
    }
    if ingest_provenance is not None:
        extra["ingest"] = ingest_provenance
    _finish_telemetry(
        args, config, tracer, metrics, spans,
        comparison={args.technique: aggregate},
        extra=extra,
    )
    return 1 if result.attack_succeeded else 0


def _cmd_campaign(args) -> int:
    from repro.analysis.report import render_campaign
    from repro.campaign import FaultInjector, run_durable_campaign
    from repro.sim.parallel import RetryPolicy

    # checked here, not in a pool worker after the campaign started
    args.techniques = _techniques(args.techniques)
    _input_file(args.trace_file, "trace file")
    config = SimConfig()
    tracer, metrics, spans = _telemetry_from_args(args, config)
    retry = None
    if (
        args.max_retries
        or args.shard_timeout is not None
        or args.on_shard_failure != "raise"
    ):
        retry = RetryPolicy(
            max_retries=args.max_retries,
            backoff_base=args.backoff_base,
            shard_timeout=args.shard_timeout,
            on_failure=args.on_shard_failure,
        )
    executor = None
    if args.executor == "queue" or args.queue_dir:
        from repro.campaign import QueueExecutor

        queue_dir = args.queue_dir or os.path.join(
            args.checkpoint_dir, "queue"
        )
        executor = QueueExecutor(
            queue_dir,
            workers=args.queue_workers,
            lease_timeout=args.lease_timeout,
        )
    elif args.executor != "auto":
        executor = args.executor
    extra = {"command": "campaign"}
    trace_path = trace_digest = None
    tmp_npz = None
    if args.trace_file:
        import tempfile

        from repro.traces.trace_io import save_trace_npz

        ingested = _ingest_from_args(args, config, metrics, spans)
        extra["ingest"] = ingested.provenance
        trace_digest = "{}:{}".format(
            ingested.provenance["source_digest"],
            ingested.provenance["spec_digest"],
        )
        total_intervals = ingested.trace.meta.total_intervals
        cache_info = ingested.provenance.get("cache", {})
        if cache_info.get("enabled"):
            # workers replay the npz the ingest cache already holds
            trace_path = cache_info["path"]
        else:
            fd, tmp_npz = tempfile.mkstemp(
                prefix="repro-ingest-", suffix=".npz"
            )
            os.close(fd)
            save_trace_npz(ingested.trace, tmp_npz)
            trace_path = tmp_npz
    else:
        total_intervals = args.intervals
    try:
        aggregates = run_durable_campaign(
            config,
            total_intervals=total_intervals,
            checkpoint_dir=args.checkpoint_dir,
            resume=args.resume,
            techniques=args.techniques,
            seeds=tuple(range(args.seeds)),
            include_unmitigated=args.include_unmitigated,
            workers=args.workers,
            engine=args.engine,
            retry=retry,
            fault_injector=FaultInjector.from_env(),
            tracer=tracer,
            metrics=metrics,
            spans=spans,
            trace_path=trace_path,
            trace_digest=trace_digest,
            executor=executor,
        )
    finally:
        if tmp_npz is not None:
            try:
                os.unlink(tmp_npz)
            except OSError:
                pass
    print(render_campaign(aggregates, aggregates.failures))
    _finish_telemetry(
        args, config, tracer, metrics, spans,
        comparison=aggregates, total_intervals=total_intervals,
        extra=extra, failures=aggregates.failures,
    )
    return 1 if aggregates.failures else 0


def _cmd_campaign_worker(args) -> int:
    """Drain campaign shards from a shared queue directory.

    The worker half of ``--executor queue`` (spec: docs/distributed.md):
    leases one ticket at a time by atomic rename, runs it with the
    same shard function every executor uses, heartbeats its lease and
    the queue's status bus while the shard runs, and pushes the result
    (or a failure report) back into the queue.  Start any number of
    these, on any host that mounts the queue directory, before or
    after the campaign itself starts.
    """
    from repro.campaign import run_worker

    if os.path.exists(args.queue_dir) and not os.path.isdir(args.queue_dir):
        raise UsageError(f"queue directory is a file: {args.queue_dir}")

    def log(message: str) -> None:
        print(message, file=sys.stderr)

    return run_worker(
        args.queue_dir,
        poll_interval=args.poll_interval,
        idle_exit=args.idle_exit,
        max_shards=args.max_shards,
        lease_refresh=args.lease_refresh,
        log=None if args.quiet else log,
    )


def _cmd_adversary(args) -> int:
    from dataclasses import replace

    from repro.adversary import SearchSettings, run_search
    from repro.analysis.report import render_adversary
    from repro.config import small_test_config

    args.technique = _technique(args.technique)
    args.trace_events = None  # search fans out; no per-event stream
    config = SimConfig() if args.preset == "paper" else small_test_config()
    if args.pbase_exp is not None:
        config = replace(config, pbase=2.0 ** -args.pbase_exp)
    tracer, metrics, spans = _telemetry_from_args(args, config)
    settings = SearchSettings(
        technique=args.technique,
        strategy=args.strategy,
        budget=args.budget,
        population=args.population,
        offspring=args.offspring,
        eval_seeds=args.eval_seeds,
        windows=args.windows,
        engine=args.engine,
        seed=args.seed,
    )

    def progress(evaluations: int, budget: int) -> None:
        print(f"adversary: {evaluations}/{budget} evaluations",
              file=sys.stderr)

    outcome = run_search(
        config,
        settings,
        checkpoint_dir=args.checkpoint_dir,
        resume=args.resume,
        workers=args.workers,
        metrics=metrics,
        progress=progress,
        spans=spans,
    )
    print(render_adversary(outcome))
    if args.frontier_out:
        with open(args.frontier_out, "w", encoding="utf-8") as stream:
            stream.write(outcome.frontier.to_json())
        print(f"wrote frontier to {args.frontier_out}", file=sys.stderr)
    args.seeds = settings.eval_seeds  # manifest seed range
    _finish_telemetry(
        args, config, tracer, metrics, spans,
        total_intervals=config.geometry.refint * settings.windows,
        extra={
            "command": "adversary",
            "technique": outcome.technique,
            "strategy": outcome.strategy,
            "budget": outcome.budget,
            "search_seed": settings.seed,
            "frontier": outcome.frontier.as_dict(),
            "best": outcome.best.as_dict(),
            "corpus_best_fitness": outcome.corpus_best.fitness,
            "improvement": outcome.improvement,
        },
    )
    return 0


def _cmd_serve(args) -> int:
    import threading

    from repro.serve import ServeServer, ServeSettings

    settings = ServeSettings(
        host=args.host,
        port=args.port,
        shards=args.shards,
        engine=args.engine,
        session_queue=args.session_queue,
        shed_grace_s=args.shed_grace,
        write_buffer_bytes=args.write_buffer_bytes,
        status_dir=args.status_dir,
        metrics_out=args.metrics_out,
        ingest_cache=args.ingest_cache,
    )
    server = ServeServer(config=SimConfig(), settings=settings)
    thread = threading.Thread(
        target=server.run, name="repro-serve", daemon=True
    )
    thread.start()
    try:
        if not server.wait_started(30):
            print("serve: server failed to start within 30s",
                  file=sys.stderr)
            return 1
    except RuntimeError as exc:
        print(f"serve: {exc}", file=sys.stderr)
        return 1
    # one parseable line on stdout: scripts (and the CI smoke job)
    # read the bound port from it when --port 0 picked a free one
    print(
        f"repro-serve listening on {settings.host}:{server.port} "
        f"shards={settings.shards} engine={settings.engine}",
        flush=True,
    )
    try:
        while thread.is_alive():
            thread.join(0.5)
        return 0
    except KeyboardInterrupt:
        server.shutdown()
        thread.join(10)
        return 0


def _cmd_submit(args) -> int:
    from repro.analysis.report import render_serve_session
    from repro.serve import ServeClient, ServeError

    _input_file(args.trace_file, "trace file")
    techniques = args.techniques or ["PARA"]
    # the server resolves the names itself and also takes "none"
    _techniques([name for name in techniques if name.lower() != "none"])
    client = ServeClient(args.host, args.port, timeout=args.timeout)

    def on_frame(frame) -> None:
        if frame.get("type") == "progress":
            print(
                f"submit: uploaded {frame.get('bytes', 0):,} bytes "
                f"({frame.get('lines', 0):,} lines)",
                file=sys.stderr,
            )

    try:
        outcome = client.submit(
            args.trace_file,
            techniques=techniques,
            seeds=list(range(args.seeds)),
            format=args.trace_format,
            mapper=args.mapper,
            clock_ns=args.clock_ns,
            mark_attacks=_MARK_ATTACKS[args.mark_attacks],
            on_parse_error=args.on_parse_error,
            session=args.session,
            on_frame=on_frame if args.progress else None,
        )
    except ServeError as exc:
        print(f"submit: server error {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        # ServeDisconnected included: no terminal frame ever arrived
        print(f"submit: connection to {args.host}:{args.port} failed: "
              f"{exc}", file=sys.stderr)
        return 3
    if args.summary_only:
        from repro.sim.metrics import SimResult

        for verdict in outcome.verdicts:
            print(SimResult.from_dict(verdict["result"]).summary())
    else:
        print(render_serve_session(outcome))
    return 0


def _status_frame_json(store, bus):
    """One machine-readable ``campaign-status`` poll as a dict."""
    snapshot = bus.read_snapshot()
    heartbeats = bus.read_heartbeats()
    stale = {beat.worker for beat in bus.stale_workers()}
    frame = {
        "snapshot": snapshot.as_dict() if snapshot is not None else None,
        "workers": [beat.as_dict() for beat in heartbeats],
        "stale": sorted(stale),
    }
    if store.exists:
        from repro.telemetry.manifest import technique_summary

        status = store.status()
        frame["store"] = {
            "completed": len(status.completed),
            "total": status.total,
            "complete": status.complete,
            "failures": len(status.failures),
        }
        # incremental aggregation: the canonical-order fold of whatever
        # shards have landed so far -- the same numbers the finished
        # campaign will report for these cells, available mid-run
        frame["aggregates"] = {
            name: technique_summary(aggregate)
            for name, aggregate in store.partial_aggregates().items()
            if aggregate.results
        }
    else:
        frame["store"] = None
        frame["aggregates"] = {}
    return frame


def _cmd_campaign_status(args) -> int:
    import json
    import time

    from repro.analysis.report import (
        render_campaign_live,
        render_campaign_status,
    )
    from repro.campaign import CampaignStore
    from repro.telemetry import StatusBus

    store = CampaignStore(args.checkpoint_dir)
    follow = args.follow or args.once
    if not follow:
        if not store.exists:
            print(f"no campaign checkpoint at {args.checkpoint_dir}",
                  file=sys.stderr)
            return 2
        print(render_campaign_status(
            store.status(), aggregates=store.partial_aggregates()
        ))
        return 0

    bus = StatusBus.for_checkpoint(args.checkpoint_dir,
                                   stale_after=args.stale_after)
    # without a terminal, a refreshing table is useless -- emit JSON
    # frames instead so scripts (and the CI smoke job) can parse them
    as_json = args.json or not sys.stdout.isatty()
    if as_json and hasattr(sys.stdout, "reconfigure"):
        # non-TTY stdout is block-buffered: force line buffering so a
        # polling consumer sees every frame the moment it is printed
        sys.stdout.reconfigure(line_buffering=True)
    try:
        while True:
            if as_json:
                frame = _status_frame_json(store, bus)
                print(json.dumps(frame, sort_keys=True), flush=True)
                complete = bool(
                    (frame["snapshot"] or {}).get("complete")
                    or (frame["store"] or {}).get("complete")
                )
            else:
                snapshot = bus.read_snapshot()
                stale = {beat.worker for beat in bus.stale_workers()}
                frame_text = render_campaign_live(
                    snapshot, bus.read_heartbeats(), stale=stale
                )
                # in-place refresh: home the cursor and clear downwards
                print("\x1b[H\x1b[J" + frame_text, flush=True)
                complete = snapshot is not None and snapshot.complete
            if args.once or complete:
                return 0
            time.sleep(args.interval)
    except KeyboardInterrupt:
        return 0
    except BrokenPipeError:
        # a downstream consumer (`... --follow | head -1`) closed the
        # pipe after taking what it needed: that is a clean stop, not
        # an error.  Point stdout at devnull so the interpreter-exit
        # flush cannot raise a second BrokenPipeError traceback.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0


def _cmd_manifest_diff(args) -> int:
    from repro.analysis.report import render_manifest_diff
    from repro.telemetry import RunManifest, diff_manifests
    from repro.telemetry.manifest import VOLATILE_FIELDS

    _input_file(args.a, "manifest")
    _input_file(args.b, "manifest")
    left = RunManifest.load(args.a)
    right = RunManifest.load(args.b)
    ignore = tuple(VOLATILE_FIELDS) + tuple(args.ignore or ())
    differences = diff_manifests(left, right, ignore=ignore)
    print(render_manifest_diff(args.a, args.b, differences))
    return 1 if differences else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="TiVaPRoMi (DATE 2021) reproduction toolkit",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    subparsers.add_parser("table1", help="Table I").set_defaults(func=_cmd_table1)
    subparsers.add_parser("table2", help="Table II").set_defaults(func=_cmd_table2)

    table3 = subparsers.add_parser("table3", help="Table III comparison")
    _add_scale_args(table3)
    table3.add_argument(
        "--include-modern", action="store_true",
        help="append the modern tracker families (LoadedDice, RVC, PVAC, "
             "PRAC, PRACtical, ProbTracker) to the paper's nine rows",
    )
    table3.set_defaults(func=_cmd_table3)

    techniques = subparsers.add_parser(
        "techniques",
        help="list registered techniques with traits and area estimates",
    )
    techniques.add_argument(
        "--paper-only", action="store_true",
        help="restrict to the nine techniques from the paper's Table III",
    )
    techniques.set_defaults(func=_cmd_techniques)

    fig4 = subparsers.add_parser("fig4", help="Fig. 4 tradeoff")
    _add_scale_args(fig4)
    fig4.set_defaults(func=_cmd_fig4)

    flood = subparsers.add_parser("flood", help="flooding experiment")
    flood.add_argument("--start-weights", type=int, nargs="+",
                       default=[0, 384, 4096])
    flood.add_argument("--seeds", type=int, default=5)
    flood.set_defaults(func=_cmd_flood)

    policies = subparsers.add_parser(
        "policies", help="refresh-policy robustness"
    )
    _add_scale_args(policies)
    policies.add_argument("--technique", default="LoLiPRoMi")
    policies.set_defaults(func=_cmd_policies)

    trace = subparsers.add_parser("trace", help="generate a workload trace")
    trace.add_argument("--out", required=True)
    trace.add_argument("--intervals", type=int, default=1024)
    trace.add_argument("--seed", type=int, default=0)
    trace.set_defaults(func=_cmd_trace)

    ingest = subparsers.add_parser(
        "ingest",
        help="parse an external trace file and report its statistics",
    )
    ingest.add_argument(
        "trace_file", metavar="FILE",
        help="DRAMSim/Ramulator, litex-rowhammer-tester JSON, or native "
             "trace (gzip transparent; see docs/trace-formats.md)",
    )
    _add_ingest_args(ingest, with_trace_file=False)
    ingest.add_argument(
        "--out", metavar="FILE.npz", default=None,
        help="also export the ingested trace as columnar npz",
    )
    _add_telemetry_args(ingest)
    ingest.set_defaults(func=_cmd_ingest, engine="reference")

    run = subparsers.add_parser("run", help="run one technique on a trace")
    run.add_argument("--technique", required=True,
                     help="technique name, or 'none' for unmitigated")
    run.add_argument("--trace", default=None,
                     help="native trace written by 'repro trace'")
    run.add_argument("--seed", type=int, default=0)
    _add_ingest_args(run)
    _add_engine_arg(run)
    _add_telemetry_args(run)
    run.set_defaults(func=_cmd_run)

    compare = subparsers.add_parser(
        "compare",
        help="compare techniques on one workload (synthetic or ingested)",
    )
    _add_scale_args(compare)
    _add_ingest_args(compare)
    compare.add_argument(
        "--techniques", nargs="+", default=None, metavar="NAME",
        help="techniques to compare (default: all nine)",
    )
    compare.add_argument(
        "--include-unmitigated", action="store_true",
        help="also run the unprotected baseline",
    )
    compare.set_defaults(func=_cmd_compare)

    campaign = subparsers.add_parser(
        "campaign",
        help="checkpointed technique-comparison campaign (resumable)",
    )
    campaign.add_argument(
        "--checkpoint-dir", required=True, metavar="DIR",
        help="directory for the campaign spec and per-shard checkpoints",
    )
    campaign.add_argument(
        "--resume", action="store_true",
        help="continue an existing checkpoint (validates its config "
             "hash and grid, then runs only the missing shards)",
    )
    _add_scale_args(campaign)
    campaign.add_argument(
        "--techniques", nargs="+", default=None, metavar="NAME",
        help="techniques to run (default: all nine)",
    )
    campaign.add_argument(
        "--include-unmitigated", action="store_true",
        help="also run the unprotected baseline",
    )
    campaign.add_argument(
        "--workers", type=int, default=None,
        help="pool width (default: one per CPU; 0 runs inline)",
    )
    campaign.add_argument(
        "--executor", choices=("auto", "serial", "pool", "queue"),
        default="auto",
        help="execution lane: auto follows --workers (0 = serial, "
             "else pool); queue leases shards to campaign-worker "
             "processes over a shared directory (docs/distributed.md)",
    )
    campaign.add_argument(
        "--queue-dir", metavar="DIR", default=None,
        help="work-queue directory for the queue executor -- share it "
             "(e.g. over NFS) with every campaign-worker (default: "
             "<checkpoint-dir>/queue; setting it implies "
             "--executor queue)",
    )
    campaign.add_argument(
        "--queue-workers", type=int, default=0, metavar="N",
        help="campaign-worker subprocesses to spawn locally against "
             "the queue (default 0: rely on externally started "
             "workers)",
    )
    campaign.add_argument(
        "--lease-timeout", type=float, default=60.0, metavar="SECONDS",
        help="re-ticket a leased shard after this long without a "
             "worker heartbeat -- the queue lane's hung/vanished-"
             "worker bound (default %(default)s)",
    )
    campaign.add_argument(
        "--max-retries", type=int, default=0,
        help="extra attempts per crashed/hung/failed shard "
             "(exponential backoff between attempts)",
    )
    campaign.add_argument(
        "--backoff-base", type=float, default=0.5, metavar="SECONDS",
        help="first retry delay; doubles per subsequent retry",
    )
    campaign.add_argument(
        "--shard-timeout", type=float, default=None, metavar="SECONDS",
        help="declare a shard hung after this long (pool mode only; "
             "see docs/campaigns.md for round semantics)",
    )
    campaign.add_argument(
        "--on-shard-failure", choices=("raise", "skip"), default="raise",
        help="after retries are exhausted: abort the campaign (raise) "
             "or record a degraded shard and continue (skip)",
    )
    _add_ingest_args(campaign)
    campaign.set_defaults(func=_cmd_campaign)

    campaign_worker = subparsers.add_parser(
        "campaign-worker",
        help="lease and run campaign shards from a shared queue "
             "directory (docs/distributed.md)",
    )
    campaign_worker.add_argument(
        "queue_dir", metavar="DIR",
        help="queue directory of a '--executor queue' campaign; the "
             "worker creates the layout if it starts first",
    )
    campaign_worker.add_argument(
        "--poll-interval", type=float, default=0.5, metavar="SECONDS",
        help="sleep between empty ticket polls (default %(default)s)",
    )
    campaign_worker.add_argument(
        "--idle-exit", type=float, default=None, metavar="SECONDS",
        help="exit after this long without available work (default: "
             "keep polling until the campaign raises the stop "
             "sentinel)",
    )
    campaign_worker.add_argument(
        "--max-shards", type=int, default=None, metavar="N",
        help="exit after completing N shards (default: unlimited)",
    )
    campaign_worker.add_argument(
        "--lease-refresh", type=float, default=1.0, metavar="SECONDS",
        help="heartbeat period while a shard runs; keep well under "
             "the campaign's --lease-timeout (default %(default)s)",
    )
    campaign_worker.add_argument(
        "--quiet", action="store_true",
        help="suppress the per-shard progress lines on stderr",
    )
    campaign_worker.set_defaults(func=_cmd_campaign_worker)

    adversary = subparsers.add_parser(
        "adversary",
        help="red-team search for worst-case patterns vs one technique",
    )
    adversary.add_argument(
        "--technique", required=True,
        help="mitigation under attack (case-insensitive)",
    )
    adversary.add_argument(
        "--strategy", choices=("random", "evolve"), default="evolve",
        help="random genome draws, or (mu+lambda) evolution from the "
             "canned seed corpus",
    )
    adversary.add_argument(
        "--budget", type=int, default=64,
        help="total candidate evaluations",
    )
    adversary.add_argument("--population", type=int, default=4,
                           help="survivors kept between generations (mu)")
    adversary.add_argument("--offspring", type=int, default=8,
                           help="children bred per generation (lambda)")
    adversary.add_argument("--eval-seeds", type=int, default=2,
                           help="simulation seeds per candidate")
    adversary.add_argument("--windows", type=int, default=2,
                           help="refresh windows per evaluation")
    adversary.add_argument("--seed", type=int, default=0,
                           help="search seed (proposals and evaluation)")
    adversary.add_argument(
        "--preset", choices=("paper", "small"), default="paper",
        help="paper-scale config, or the small test geometry (fast; "
             "used by CI and the determinism tests)",
    )
    adversary.add_argument(
        "--pbase-exp", type=int, default=None, metavar="N",
        help="override Pbase to 2^-N (larger trigger probabilities "
             "sharpen the weight-alignment signal at tiny budgets)",
    )
    adversary.add_argument(
        "--checkpoint-dir", metavar="DIR", default=None,
        help="checkpoint every evaluated generation for kill/resume",
    )
    adversary.add_argument(
        "--resume", action="store_true",
        help="continue an existing search checkpoint (validates its "
             "spec, replays stored generations bit-identically)",
    )
    adversary.add_argument(
        "--workers", type=int, default=0,
        help="pool width for candidate evaluation (0 runs inline)",
    )
    adversary.add_argument(
        "--frontier-out", metavar="FILE", default=None,
        help="write the Pareto frontier as canonical JSON",
    )
    _add_engine_arg(adversary)
    adversary.set_defaults(func=_cmd_adversary, engine="fast")
    adversary.add_argument(
        "--manifest", metavar="FILE", default=None,
        help="write a run manifest embedding the frontier",
    )
    adversary.add_argument(
        "--profile", action="store_true",
        help="print the search's span tree (wall-clock seconds per "
             "generation and evaluation) after the run",
    )
    _add_metrics_out_arg(adversary)

    serve = subparsers.add_parser(
        "serve",
        help="run the streaming evaluation service (docs/serve.md)",
    )
    serve.add_argument("--host", default="127.0.0.1",
                       help="bind address (default %(default)s)")
    serve.add_argument(
        "--port", type=int, default=7777,
        help="TCP port; 0 picks a free one, reported on stdout "
             "(default %(default)s)",
    )
    serve.add_argument(
        "--shards", type=int, default=2,
        help="worker lanes; sessions are assigned round-robin "
             "(default %(default)s)",
    )
    serve.add_argument(
        "--session-queue", type=int, default=256, metavar="FRAMES",
        help="outbound frames buffered per session; when full the "
             "worker throttles instead of overflowing "
             "(default %(default)s)",
    )
    serve.add_argument(
        "--shed-grace", type=float, default=20.0, metavar="SECONDS",
        help="cumulative seconds a session's worker may stall on a "
             "full outbound queue before the client is shed "
             "(default %(default)s)",
    )
    serve.add_argument(
        "--write-buffer-bytes", type=int, default=256 * 1024,
        metavar="BYTES",
        help="transport write-buffer high-water mark; smaller values "
             "surface slow clients sooner (default %(default)s)",
    )
    serve.add_argument(
        "--status-dir", metavar="DIR", default=None,
        help="publish a campaign-status-compatible status bus under "
             "DIR/status ('repro campaign-status DIR --follow' then "
             "shows live sessions)",
    )
    _add_ingest_cache_arg(serve)
    _add_metrics_out_arg(serve)
    _add_engine_arg(serve)
    serve.set_defaults(func=_cmd_serve, engine="fused")

    submit = subparsers.add_parser(
        "submit",
        help="stream a trace to a repro-serve server for evaluation",
    )
    submit.add_argument(
        "trace_file", metavar="FILE",
        help="trace to upload (DRAMSim/Ramulator, litex JSON, or "
             "native; gzip travels as-is)",
    )
    submit.add_argument("--host", default="127.0.0.1",
                        help="server address (default %(default)s)")
    submit.add_argument("--port", type=int, default=7777,
                        help="server port (default %(default)s)")
    submit.add_argument(
        "--techniques", nargs="+", default=None, metavar="NAME",
        help="techniques to evaluate, or 'none' for the unmitigated "
             "baseline (default: PARA)",
    )
    submit.add_argument(
        "--seeds", type=int, default=1,
        help="seeds per technique (default %(default)s)",
    )
    submit.add_argument(
        "--session", default="", metavar="LABEL",
        help="session label (appears in server logs and status bus)",
    )
    submit.add_argument(
        "--timeout", type=float, default=120.0, metavar="SECONDS",
        help="socket timeout (default %(default)s)",
    )
    submit.add_argument(
        "--progress", action="store_true",
        help="print upload progress frames to stderr",
    )
    submit.add_argument(
        "--summary-only", action="store_true",
        help="print only the per-cell summary lines (byte-identical "
             "to an offline 'repro run' of the same cells)",
    )
    _add_ingest_args(submit, with_trace_file=False, with_cache=False)
    submit.set_defaults(func=_cmd_submit)

    campaign_status = subparsers.add_parser(
        "campaign-status",
        help="inspect a campaign checkpoint directory",
    )
    campaign_status.add_argument("checkpoint_dir", metavar="DIR")
    campaign_status.add_argument(
        "--follow", action="store_true",
        help="poll the campaign's status bus and redraw a live progress "
             "table until the campaign completes (JSON frames when "
             "stdout is not a terminal)",
    )
    campaign_status.add_argument(
        "--once", action="store_true",
        help="take a single status-bus poll and exit (implies --follow)",
    )
    campaign_status.add_argument(
        "--json", action="store_true",
        help="force machine-readable JSON frames even on a terminal",
    )
    campaign_status.add_argument(
        "--interval", type=float, default=1.0, metavar="SECONDS",
        help="poll period for --follow (default %(default)s)",
    )
    campaign_status.add_argument(
        "--stale-after", type=float, default=15.0, metavar="SECONDS",
        help="flag a running shard stale after this heartbeat silence "
             "(default %(default)s)",
    )
    campaign_status.set_defaults(func=_cmd_campaign_status)

    manifest_diff = subparsers.add_parser(
        "manifest-diff",
        help="compare two run manifests (exit 1 if results differ)",
    )
    manifest_diff.add_argument("a", help="baseline manifest JSON")
    manifest_diff.add_argument("b", help="candidate manifest JSON")
    manifest_diff.add_argument(
        "--ignore", action="append", default=[], metavar="FIELD",
        help="extra field/path to ignore (repeatable; volatile fields "
             "are always ignored)",
    )
    manifest_diff.set_defaults(func=_cmd_manifest_diff)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    from repro.traces.trace_io import TraceFormatError

    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (UsageError, FileNotFoundError, TraceFormatError) as exc:
        message = " ".join(str(exc).split())
        print(f"repro {args.command}: error: {message}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
