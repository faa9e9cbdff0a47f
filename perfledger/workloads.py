"""The benchmark workloads and the closed loop that measures them.

Every time here is host time (what the simulator takes to run), never
simulated time.  One caller drives each workload in a closed loop: the
next operation starts only when the previous one has returned.  Inputs
come from the workload seed alone, and every operation's results are
checked (see :func:`run_workload`).

Import this module only after :func:`perfledger.use_checkout_sources`.
"""

from __future__ import annotations

import gzip
import hashlib
import json
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.campaign import (
    CampaignSpec,
    CampaignStore,
    QueueExecutor,
    ShardRecord,
    run_durable_campaign,
)
from repro.config import SimConfig, small_test_config
from repro.mitigations.registry import make_factory, technique_names
from repro.rng import derive_seed
from repro.serve import ServeClient
from repro.sim.engine import get_engine
from repro.sim.executors import PoolExecutor, SerialExecutor
from repro.sim.fast_engine import run_simulation_fast
from repro.sim.fused_engine import (
    GridCell,
    grid_cells,
    run_simulation_fused,
    run_simulation_grid,
)
from repro.sim.parallel import run_campaign
from repro.telemetry import MetricsRegistry, SpanTracer
from repro.telemetry.export import parse_jsonl
from repro.traces import build_trace, paper_mixed_workload
from repro.traces.attacker import flooding
from repro.traces.ingest import IngestCache, ingest_trace
from repro.traces.trace_io import load_trace_npz, save_trace_npz

#: end-to-end metrics, each reported for every workload (name -> unit)
END_TO_END_UNITS: Dict[str, str] = {
    "wall_s_p50": "s",
    "cell_rec_per_s": "cell-rec/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

#: the requested cells of every grid: the unmitigated baseline (``None``)
#: and the nine paper techniques, in the campaign's canonical order
TECHNIQUES: List[Optional[str]] = [None] + technique_names()
#: one cell's technique for the single-cell engine comparison
SOLO_TECHNIQUE = "LoLiPRoMi"


def _replay_metric(technique: Optional[str]) -> str:
    return f"engine.replay.{technique or 'none'}_s"


#: per-layer metrics from ``--trace 1`` (name -> unit).  Every workload
#: reports every name; a layer the workload's operation never reaches
#: reads 0.
PER_LAYER_UNITS: Dict[str, str] = {
    "traces.gen_s": "s",
    "traces.gen_rec_per_s": "rec/s",
    "traces.npz_save_s": "s",
    "traces.npz_load_s": "s",
    "ingest.parse_s": "s",
    "ingest.parse_rec_per_s": "rec/s",
    "ingest.miss_s": "s",
    "ingest.hit_s": "s",
    "ingest.hit_ratio": "ratio",
    "engine.tape_s": "s",
    "engine.replay_s": "s",
    **{_replay_metric(name): "s" for name in TECHNIQUES},
    "engine.solo_fused_s": "s",
    "engine.solo_fast_s": "s",
    "engine.records": "count",
    "engine.segments": "count",
    "engine.rec_per_segment": "ratio",
    "engine.cells_computed": "count",
    "engine.dedup_ratio": "ratio",
    "exec.serial_s": "s",
    "exec.pool_s": "s",
    "exec.queue_s": "s",
    "exec.pool.overhead_per_shard_s": "s",
    "exec.queue.overhead_per_shard_s": "s",
    "campaign.checkpoint_s": "s",
    "campaign.fold_s": "s",
    "campaign.first_op_s": "s",
    "serve.accept_s": "s",
    "serve.ingest_wait_s": "s",
    "serve.first_verdict_s": "s",
    "serve.tail_s": "s",
    "serve.cold_s_p50": "s",
    "serve.warm_s_p50": "s",
    "serve.sessions_failed": "count",
    "serve.sessions_shed": "count",
    "serve.queue_depth_max": "count",
    "telemetry.span_overhead_pct": "%",
    "telemetry.spans": "count",
    "telemetry.traced_op_s": "s",
    "telemetry.self_coverage_pct": "%",
}

#: spans of a traced operation, named ``<layer>.<part>``; their self
#: times are the layer metrics (``engine.grid`` splits into tape and
#: replay with the separately measured tape time)
DECOMPOSED_LAYERS = (
    "traces.gen", "traces.npz_save", "traces.npz_load", "engine.grid",
    "campaign.checkpoint", "campaign.fold",
    "serve.accept", "serve.ingest_wait", "serve.first_verdict", "serve.tail",
)

#: a run times at least this many operations, however long they take
MIN_TIMED_OPS = 5
#: fresh processes timed for ``setup_s``: half before the timed loop
#: (after one untimed start that fills the bytecode cache), half after
#: it, so that a short stall of the host moves only a few of them
SETUP_SAMPLES = 10
#: queue poll interval (runner and worker) of the queue lanes.  The CLI
#: default of 0.2 s makes an operation's time jump in 0.2 s steps with
#: the phase of the worker's polling, so run medians land on one of two
#: levels 15% apart; 0.05 s (the worker's minimum) keeps the steps small.
QUEUE_POLL_S = 0.05
#: observability-on/off operation pairs behind ``telemetry.span_overhead_pct``
OVERHEAD_PAIRS = 3
#: a traced run decomposes at least this many operations
MIN_TRACED_OPS = 3
#: repetitions of each single-layer diagnostic call (median reported)
DIAG_REPEATS = 3


class OracleMismatch(AssertionError):
    """A set-up oracle disagrees with the simulator's result."""


@dataclass
class OpResult:
    """One operation: its host wall time, result digest and work done."""

    wall: float
    digest: str
    #: trace records x requested cells processed by the operation
    cell_records: int
    #: which expected digest applies (one per distinct input)
    key: Any = None
    #: per-operation facts a workload reports on (e.g. cache hit)
    info: Dict[str, Any] = field(default_factory=dict)


def digest_of(payload: Any) -> str:
    """Content digest of a JSON-ready result payload."""
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def results_digest(results) -> str:
    """Digest of a list of :class:`SimResult` (wall time excluded)."""
    return digest_of([result.as_dict() for result in results])


def campaign_digest(aggregates) -> str:
    """Digest of a campaign's aggregates; degraded shards are an error."""
    if aggregates.failures or any(
        aggregate.degraded_seeds for aggregate in aggregates.values()
    ):
        raise RuntimeError("campaign degraded: a shard did not complete")
    return digest_of({
        name: [result.as_dict() for result in aggregate.results]
        for name, aggregate in aggregates.items()
    })


def median_time(call: Callable[[], Any], repeats: int = DIAG_REPEATS) -> float:
    """Median host seconds of *repeats* calls."""
    samples = []
    for _ in range(repeats):
        started = time.perf_counter()
        call()
        samples.append(time.perf_counter() - started)
    return statistics.median(samples)


def self_times(spans: SpanTracer) -> Dict[str, float]:
    """Per-name self time: each span's wall minus its children's."""
    children: Dict[str, float] = {}
    for span in spans.spans:
        if span.parent_id is not None:
            children[span.parent_id] = (
                children.get(span.parent_id, 0.0) + span.wall_seconds
            )
    totals: Dict[str, float] = {}
    for span in spans.spans:
        own = span.wall_seconds - children.get(span.span_id, 0.0)
        totals[span.name] = totals.get(span.name, 0.0) + own
    return totals


def _factory(technique: Optional[str]):
    return make_factory(technique) if technique is not None else None


class Workload:
    """One benchmark workload: inputs from a seed, a timed operation,
    its oracles, and its decomposition into per-layer calls."""

    name = ""
    why = ""
    #: modules a fresh process imports before it can run an operation
    setup_modules: Tuple[str, ...] = ()
    #: the set-up process is a service that runs until interrupted
    setup_is_service = False

    def __init__(self, seed: int, work: Path):
        self.seed = seed
        self.work = work
        self._dirs = 0
        #: expected digest per OpResult.key
        self.expected: Dict[Any, str] = {}
        #: counts from the last observability-on operation's registry
        self.last_registry: Optional[MetricsRegistry] = None
        #: spans the program itself recorded in that operation
        self.last_program_spans = 0
        #: trace records the last traced operation generated
        self.traced_records = 0

    def fresh_dir(self, label: str) -> Path:
        self._dirs += 1
        return self.work / f"{label}-{self._dirs}"

    # -- set-up ---------------------------------------------------------

    def setup_command(self) -> Tuple[List[str], str]:
        """(argv, ready-line prefix) of one fresh set-up process."""
        imports = ", ".join(self.setup_modules)
        return (
            [sys.executable, "-c", f"import {imports}; print('ready', flush=True)"],
            "ready",
        )

    def prepare(self) -> None:
        """Generate the inputs (untimed)."""

    def close(self) -> None:
        """Stop everything the workload started."""

    # -- operations -----------------------------------------------------

    def op(self, index: int, hooks: bool = False) -> OpResult:
        """Timed operation number *index*; *hooks* passes the observability
        arguments the public API accepts (``spans=``/``metrics=``)."""
        raise NotImplementedError

    def check_oracles(self, warm: OpResult) -> None:
        """Set the expected digests from *warm*, then validate it.

        Untraced runs call this after the timed loop and after reading
        ``peak_rss_mb``, so the oracles' memory is not counted.
        """
        raise NotImplementedError

    def expected_for(self, key: Any) -> str:
        """The digest an operation on input *key* must return."""
        return self.expected[key]

    def traced_op(self, index: int) -> Tuple[float, Dict[str, float], int]:
        """One operation split into direct layer calls under spans.

        Returns (wall, {layer: self seconds}, spans recorded).
        """
        raise NotImplementedError

    def diagnostics(self, layers: Dict[str, float]) -> Dict[str, float]:
        """Single-layer measurements beside the traced operations;
        *layers* holds the traced operations' median self times."""
        raise NotImplementedError


def engine_counts(registry: Optional[MetricsRegistry]) -> Dict[str, float]:
    """Fused-engine work counters of one operation."""
    counters = registry.counters if registry is not None else {}

    def count(name: str) -> int:
        counter = counters.get(name)
        return counter.value if counter is not None else 0

    records = count("fused.records")
    segments = count("fused.segments")
    requested = count("fused.cells_requested")
    computed = count("fused.cells_computed")
    return {
        "engine.records": records,
        "engine.segments": segments,
        "engine.rec_per_segment": records / segments if segments else 0.0,
        "engine.cells_computed": computed,
        "engine.dedup_ratio": computed / requested if requested else 0.0,
    }


def engine_breakdown(
    config: SimConfig,
    traces: Dict[int, Any],
    cells_of: Callable[[Optional[str], int], List[GridCell]],
    grid_self_s: float,
) -> Dict[str, float]:
    """Tape, replay and per-technique replay seconds for a grid.

    *traces* maps each trace's seed to a materialized trace and
    *cells_of(technique, seed)* gives that technique's cells on it.
    ``engine.replay_s`` is the traced grid's self time minus the tape
    when *grid_self_s* is non-zero, else a direct full-grid call minus it.
    """
    tape = {
        seed: median_time(lambda t=trace: run_simulation_grid(config, t, []))
        for seed, trace in traces.items()
    }
    tape_s = sum(tape.values())
    out: Dict[str, float] = {"engine.tape_s": tape_s}
    for technique in TECHNIQUES:
        total = 0.0
        for seed, trace in traces.items():
            cells = cells_of(technique, seed)
            if cells:
                total += median_time(
                    lambda t=trace, c=cells: run_simulation_grid(config, t, c)
                ) - tape[seed]
        out[_replay_metric(technique)] = total
    if not grid_self_s:
        grid_self_s = sum(
            median_time(lambda t=trace, s=seed: run_simulation_grid(
                config, t,
                [c for tech in TECHNIQUES for c in cells_of(tech, s)],
            ))
            for seed, trace in traces.items()
        )
    out["engine.replay_s"] = grid_self_s - tape_s
    return out


def solo_engines(
    config: SimConfig, trace, technique: str, seed: int
) -> Dict[str, float]:
    """One cell under the fused and the fast engine; results must agree."""
    factory = make_factory(technique)
    fused = run_simulation_fused(config, trace, factory, seed=seed)
    fast = run_simulation_fast(config, trace, factory, seed=seed)
    if fused.as_dict() != fast.as_dict():
        raise OracleMismatch(
            f"fused and fast engines disagree on {technique} seed {seed}"
        )
    return {
        "engine.solo_fused_s": median_time(
            lambda: run_simulation_fused(config, trace, factory, seed=seed)
        ),
        "engine.solo_fast_s": median_time(
            lambda: run_simulation_fast(config, trace, factory, seed=seed)
        ),
    }


def check_reference(
    config: SimConfig, trace, cell: GridCell, result, where: str
) -> None:
    """The reference engine is the oracle for one sampled cell."""
    reference = get_engine("reference")(
        cell.config or config, trace, _factory(cell.technique), seed=cell.seed
    )
    if reference.as_dict() != result.as_dict():
        raise OracleMismatch(
            f"{where}: cell {cell.technique or 'none'} seed {cell.seed} "
            "differs from the reference engine"
        )


# ---------------------------------------------------------------------------
# campaign workloads
# ---------------------------------------------------------------------------


class CampaignWorkload(Workload):
    """A durable ``repro campaign`` over the paper mixed workload."""

    setup_modules = ("repro.campaign", "repro.sim.fused_engine")
    config: SimConfig
    intervals: int
    num_seeds: int

    def __init__(self, seed: int, work: Path):
        super().__init__(seed, work)
        self.seeds = tuple(range(seed, seed + self.num_seeds))

    def lane(self, checkpoint: Path) -> Dict[str, Any]:
        """The executor arguments of one campaign."""
        raise NotImplementedError

    def _trace(self, seed: int):
        """The trace ``run_campaign`` generates for *seed* (lazy)."""
        return paper_mixed_workload(
            self.config, self.intervals, seed=derive_seed(seed, "trace")
        )

    def prepare(self) -> None:
        # counted without keeping the records, which are not the
        # operation's memory
        self.records = sum(
            sum(1 for _ in self._trace(seed)) for seed in self.seeds
        )

    def _campaign(
        self, lane: Callable[[Path], Dict[str, Any]], hooks: bool = False
    ) -> OpResult:
        checkpoint = self.fresh_dir("ckpt")
        observe: Dict[str, Any] = {}
        if hooks:
            observe = {
                "spans": SpanTracer(id_seed="perfledger"),
                "metrics": MetricsRegistry(),
            }
        started = time.perf_counter()
        aggregates = run_durable_campaign(
            self.config, self.intervals, checkpoint,
            techniques=technique_names(), include_unmitigated=True,
            seeds=self.seeds, engine="fused", **lane(checkpoint), **observe,
        )
        wall = time.perf_counter() - started
        shutil.rmtree(checkpoint)
        if hooks:
            self.last_registry = observe["metrics"]
            self.last_program_spans = len(observe["spans"])
        return OpResult(
            wall=wall,
            digest=campaign_digest(aggregates),
            cell_records=self.records * len(TECHNIQUES),
            key="campaign",
            info={"aggregates": aggregates},
        )

    def op(self, index: int, hooks: bool = False) -> OpResult:
        return self._campaign(self.lane, hooks)

    def check_oracles(self, warm: OpResult) -> None:
        self.expected["campaign"] = warm.digest
        # materialized for the oracles and the single-layer diagnostics
        self.traces = {
            seed: self._trace(seed).materialize() for seed in self.seeds
        }
        aggregates = warm.info["aggregates"]
        cells = [
            GridCell(technique=name, seed=seed)
            for name in TECHNIQUES for seed in self.seeds
        ]
        for cell in random.Random(self.seed).sample(cells, 2):
            result = aggregates[cell.technique or "none"].results[
                self.seeds.index(cell.seed)
            ]
            check_reference(
                self.config, self.traces[cell.seed], cell, result, self.name
            )

    def traced_op(self, index: int) -> Tuple[float, Dict[str, float], int]:
        spans = SpanTracer(id_seed="perfledger")
        checkpoint = self.fresh_dir("traced")
        paths: Dict[int, Path] = {}
        with spans.span("op") as root:
            checkpoint.mkdir(parents=True)
            for seed in self.seeds:
                with spans.span("traces.gen"):
                    trace = self._trace(seed).materialize()
                paths[seed] = checkpoint / f"trace-{seed}.npz"
                with spans.span("traces.npz_save"):
                    save_trace_npz(trace, paths[seed])
            store = CampaignStore(checkpoint / "store")
            with spans.span("campaign.checkpoint"):
                store.initialize(CampaignSpec.build(
                    self.config, engine="fused",
                    total_intervals=self.intervals,
                    techniques=TECHNIQUES, seeds=self.seeds,
                ))
            for seed in self.seeds:
                with spans.span("traces.npz_load"):
                    trace = load_trace_npz(paths[seed])
                with spans.span("engine.grid"):
                    results = run_simulation_grid(
                        self.config, trace,
                        [GridCell(technique=name, seed=seed) for name in TECHNIQUES],
                    )
                with spans.span("campaign.checkpoint"):
                    for name, result in zip(TECHNIQUES, results):
                        store.write_shard(ShardRecord(
                            technique=name or "none", seed=seed, result=result,
                        ))
            with spans.span("campaign.fold"):
                aggregates = store.partial_aggregates(degrade_missing=True)
        shutil.rmtree(checkpoint)
        if campaign_digest(aggregates) != self.expected["campaign"]:
            raise OracleMismatch(f"{self.name}: traced operation result differs")
        self.traced_records = self.records
        return root.wall_seconds, self_times(spans), len(spans)

    def diagnostics(self, layers: Dict[str, float]) -> Dict[str, float]:
        out = engine_breakdown(
            self.config, self.traces,
            lambda technique, seed: [GridCell(technique=technique, seed=seed)],
            layers["engine.grid"],
        )
        out.update(solo_engines(
            self.config, self.traces[self.seed], SOLO_TECHNIQUE, self.seed
        ))
        return out


class PaperCampaign(CampaignWorkload):
    name = "paper_campaign"
    why = (
        "the paper's evaluation: a durable pool campaign of 9 techniques + "
        "none on the mixed trace, ~1 record per segment, per-record lane "
        "stepping dominates"
    )
    config = SimConfig()
    #: sized so one campaign takes about 1.5 s on one core
    intervals = 96
    num_seeds = 2

    def lane(self, checkpoint: Path) -> Dict[str, Any]:
        # one pool worker: the pool transport stays on the path, but the
        # time does not depend on how much of a second core the host lends
        return {"executor": PoolExecutor(workers=1)}


class QueueCampaign(CampaignWorkload):
    name = "queue_campaign"
    why = (
        "40 tiny shards over the filesystem work queue with a spawned "
        "worker: tickets, leases, polling and checkpoints dominate, replay "
        "is small"
    )
    config = small_test_config(num_banks=2)
    intervals = 16
    num_seeds = 4

    def lane(self, checkpoint: Path) -> Dict[str, Any]:
        # one worker like paper_campaign's pool
        return {"executor": QueueExecutor(
            checkpoint / "queue", workers=1, lease_timeout=60,
            poll_interval=QUEUE_POLL_S,
        )}

    def check_oracles(self, warm: OpResult) -> None:
        super().check_oracles(warm)
        serial = self._campaign(lambda checkpoint: {"workers": 0})
        if serial.digest != warm.digest:
            raise OracleMismatch(
                f"{self.name}: queue aggregates differ from a workers=0 run"
            )

    def diagnostics(self, layers: Dict[str, float]) -> Dict[str, float]:
        out = super().diagnostics(layers)
        shards = len(TECHNIQUES) * len(self.seeds)
        lanes = {
            "exec.serial_s": lambda: SerialExecutor(),
            "exec.pool_s": lambda: PoolExecutor(workers=1),
            "exec.queue_s": lambda: QueueExecutor(
                self.fresh_dir("lane-queue"), workers=1, lease_timeout=60,
                poll_interval=QUEUE_POLL_S,
            ),
        }
        for metric, executor in lanes.items():
            def lane_run(executor=executor):
                aggregates = run_campaign(
                    self.config, self.intervals, include_unmitigated=True,
                    seeds=self.seeds, engine="fused", executor=executor(),
                )
                if campaign_digest(aggregates) != self.expected["campaign"]:
                    raise OracleMismatch(f"{self.name}: {metric} lane differs")
            out[metric] = median_time(lane_run)
        for lane in ("pool", "queue"):
            out[f"exec.{lane}.overhead_per_shard_s"] = (
                out[f"exec.{lane}_s"] - out["exec.serial_s"]
            ) / shards
        return out


# ---------------------------------------------------------------------------
# flooding grid
# ---------------------------------------------------------------------------


class FloodGrid(Workload):
    name = "flood_grid"
    why = (
        "single-aggressor flooding, 60-cell technique x seed x pbase grid: "
        "~165 records per segment, batched draw scans and trace generation "
        "dominate"
    )
    setup_modules = ("repro.traces", "repro.sim.fused_engine")
    config = SimConfig()
    #: 1024 intervals keep one grid near 1 s on a 2-core host
    intervals = 1024
    pbase_scales = (0.5, 1.0, 2.0)

    def prepare(self) -> None:
        rng = random.Random(self.seed)
        geometry = self.config.geometry
        self.attack = flooding(
            geometry,
            bank=rng.randrange(geometry.num_banks),
            row=rng.randrange(2, geometry.rows_per_bank - 2),
            acts_per_interval=self.config.timing.max_acts_per_interval,
        )
        self.seeds = (self.seed, self.seed + 1)
        self.cells = grid_cells(
            TECHNIQUES, self.seeds, pbase_scales=self.pbase_scales,
            config=self.config,
        )

    def _trace(self):
        return build_trace(
            self.config, self.intervals, attacks=(self.attack,),
            seed=self.seed, materialize=True,
        )

    def op(self, index: int, hooks: bool = False) -> OpResult:
        registry = MetricsRegistry() if hooks else None
        started = time.perf_counter()
        trace = self._trace()
        results = run_simulation_grid(
            self.config, trace, self.cells, metrics=registry
        )
        wall = time.perf_counter() - started
        if hooks:
            self.last_registry = registry
        return OpResult(
            wall=wall,
            digest=results_digest(results),
            cell_records=trace.count() * len(self.cells),
            key="grid",
            info={"results": results},
        )

    def check_oracles(self, warm: OpResult) -> None:
        self.expected["grid"] = warm.digest
        self.trace = self._trace()
        results = warm.info["results"]
        for index in random.Random(self.seed).sample(range(len(self.cells)), 2):
            check_reference(
                self.config, self.trace, self.cells[index], results[index],
                self.name,
            )

    def traced_op(self, index: int) -> Tuple[float, Dict[str, float], int]:
        spans = SpanTracer(id_seed="perfledger")
        with spans.span("op") as root:
            with spans.span("traces.gen"):
                trace = self._trace()
            with spans.span("engine.grid"):
                results = run_simulation_grid(self.config, trace, self.cells)
        if results_digest(results) != self.expected["grid"]:
            raise OracleMismatch(f"{self.name}: traced operation result differs")
        self.traced_records = trace.count()
        return root.wall_seconds, self_times(spans), len(spans)

    def diagnostics(self, layers: Dict[str, float]) -> Dict[str, float]:
        out = engine_breakdown(
            self.config, {self.seed: self.trace},
            lambda technique, seed: [
                cell for cell in self.cells if cell.technique == technique
            ],
            layers["engine.grid"],
        )
        out.update(solo_engines(
            self.config, self.trace, SOLO_TECHNIQUE, self.seed
        ))
        return out


# ---------------------------------------------------------------------------
# serve sessions
# ---------------------------------------------------------------------------


def write_upload(
    config: SimConfig, intervals: int, seed: int, number: int, path: Path
) -> None:
    """Upload *number* of workload seed *seed*: the paper mixed workload
    as a gzipped DRAMSim ``cycle,ACT,addr`` log (1 cycle = 1 ns), with
    the default geometry's ``row << 15 | bank << 13`` address layout.
    """
    trace = paper_mixed_workload(
        config, intervals, seed=derive_seed(seed, "serve", number)
    )
    lines = [
        f"{record.time_ns},ACT,0x{(record.row << 15) | (record.bank << 13):x}\n"
        for record in trace
    ]
    with open(path, "wb") as raw:
        # no name and mtime 0 in the header: the bytes depend on the seed only
        with gzip.GzipFile(
            filename="", fileobj=raw, mode="wb", mtime=0
        ) as zipped:
            zipped.write("".join(lines).encode("ascii"))


class ServeIngest(Workload):
    name = "serve_ingest"
    why = (
        "repro serve sessions on gzipped DRAMSim uploads, each new file sent "
        "twice (ingest-cache miss, then hit): decode, transport and cache "
        "dominate, replay is small"
    )
    setup_modules = ("repro.serve",)
    setup_is_service = True
    config = SimConfig()
    #: 64 intervals: about 16k ACTs, a 75 KB gzipped upload
    intervals = 64
    techniques = ("PARA", "LoLiPRoMi")
    cell_seed = 0
    clock_ns = 1.0

    #: the line ``repro serve`` prints once it accepts connections
    ready_line = "repro-serve listening"

    def _serve_argv(self, cache: Path, *extra: str) -> List[str]:
        return [
            sys.executable, "-m", "repro", "serve", "--port", "0",
            "--ingest-cache", str(cache), *extra,
        ]

    def setup_command(self) -> Tuple[List[str], str]:
        return self._serve_argv(self.fresh_dir("setup-cache")), self.ready_line

    def prepare(self) -> None:
        self.cells = [
            GridCell(technique=name, seed=self.cell_seed)
            for name in self.techniques
        ]
        self.files: Dict[int, Path] = {}
        self.metrics_path = self.work / "serve-metrics.jsonl"
        self.server = subprocess.Popen(
            self._serve_argv(
                self.work / "ingest-cache",
                "--metrics-out", str(self.metrics_path),
            ),
            stdout=subprocess.PIPE, text=True,
        )
        line = self.server.stdout.readline()
        if not line.startswith(self.ready_line):
            raise RuntimeError(f"repro serve did not start: {line!r}")
        address = line.split()[3]
        self.client = ServeClient("127.0.0.1", int(address.rsplit(":", 1)[1]))
        #: session seconds of the traced operations, by cache outcome
        self.cold_walls: List[float] = []
        self.warm_walls: List[float] = []

    def close(self) -> None:
        server = getattr(self, "server", None)
        if server is None:
            return
        self.server = None
        server.terminate()
        try:
            server.wait(timeout=20)
        except subprocess.TimeoutExpired:
            server.kill()
            server.wait()
        server.stdout.close()

    def _file(self, number: int) -> Path:
        """Upload *number*, generated on first use."""
        path = self.files.get(number)
        if path is None:
            path = self.work / f"upload-{number}.trace.gz"
            write_upload(self.config, self.intervals, self.seed, number, path)
            self.files[number] = path
        return path

    def expected_for(self, key: Any) -> str:
        """Digest of an offline grid over upload *key*, computed once."""
        if key not in self.expected:
            ingested = self._ingest(self.files[key], use_cache=False).trace
            self.expected[key] = results_digest(run_simulation_grid(
                self.config, ingested.materialize(), self.cells
            ))
        return self.expected[key]

    def _ingest(self, path: Path, **kwargs):
        return ingest_trace(
            path, self.config, format="dramsim", clock_ns=self.clock_ns,
            **kwargs,
        )

    def _session(self, path: Path, hooks: bool) -> Dict[str, Any]:
        stamps: List[Tuple[str, float]] = []

        def stamp(frame: Dict[str, Any]) -> None:
            stamps.append((frame["type"], time.perf_counter()))

        started = time.perf_counter()
        outcome = self.client.submit(
            path, techniques=self.techniques, seeds=[self.cell_seed],
            clock_ns=self.clock_ns, on_frame=stamp if hooks else None,
        )
        return {
            "wall": time.perf_counter() - started, "started": started,
            "stamps": stamps, "outcome": outcome,
        }

    def op(self, index: int, hooks: bool = False) -> OpResult:
        """Upload file *index* twice: a cache miss, then a cache hit."""
        path = self._file(index)
        sessions = []
        started = time.perf_counter()
        for cold in (True, False):
            session = self._session(path, hooks)
            if session["outcome"].cache_hit == cold:
                raise RuntimeError(
                    f"file {index}: expected {'a miss' if cold else 'a hit'}"
                )
            session["cold"] = cold
            sessions.append(session)
        wall = time.perf_counter() - started
        digests = {digest_of(s["outcome"].results()) for s in sessions}
        records = sessions[0]["outcome"].session_metrics["records"]
        return OpResult(
            wall=wall,
            digest=(
                digests.pop() if len(digests) == 1
                else "cache hit and miss verdicts differ"
            ),
            cell_records=records * len(self.cells) * len(sessions),
            key=index,
            info={"sessions": sessions, "records": records},
        )

    def check_oracles(self, warm: OpResult) -> None:
        self.warm_path = self.files[warm.key]
        self.trace = self._ingest(self.warm_path, use_cache=False).trace
        self.trace.materialize()
        offline = run_simulation_grid(self.config, self.trace, self.cells)
        self.expected[warm.key] = results_digest(offline)
        cell = random.Random(self.seed).randrange(len(self.cells))
        check_reference(
            self.config, self.trace, self.cells[cell], offline[cell], self.name
        )
        if warm.digest != self.expected[warm.key]:
            raise OracleMismatch(
                f"{self.name}: served verdicts differ from the offline grid"
            )

    def traced_op(self, index: int) -> Tuple[float, Dict[str, float], int]:
        result = self.op(index, hooks=True)
        if result.digest != self.expected_for(result.key):
            raise OracleMismatch(f"{self.name}: traced session result differs")
        layers = dict.fromkeys(
            ("serve.accept", "serve.ingest_wait", "serve.first_verdict",
             "serve.tail"), 0.0,
        )
        for session in result.info["sessions"]:
            (self.cold_walls if session["cold"] else self.warm_walls).append(
                session["wall"]
            )
            marks = dict(session["stamps"][::-1])  # first stamp per type
            start = session["started"]
            accepted = marks.get("accepted", start)
            ingested = marks.get("ingest", accepted)
            verdict = marks.get("verdict", ingested)
            done = marks.get("done", verdict)
            layers["serve.accept"] += accepted - start
            layers["serve.ingest_wait"] += ingested - accepted
            layers["serve.first_verdict"] += verdict - ingested
            layers["serve.tail"] += done - verdict
        self.traced_records = result.info["records"]
        return result.wall, layers, 0

    def diagnostics(self, layers: Dict[str, float]) -> Dict[str, float]:
        path = self.warm_path
        records = self.trace.count()
        parse_s = median_time(lambda: self._ingest(path, use_cache=False))
        misses, hits = [], []
        for _ in range(DIAG_REPEATS):
            cache = IngestCache(root=self.fresh_dir("diag-cache"))
            for samples in (misses, hits):
                started = time.perf_counter()
                self._ingest(path, cache=cache)
                samples.append(time.perf_counter() - started)
        registry = MetricsRegistry()
        run_simulation_grid(self.config, self.trace, self.cells, metrics=registry)
        out: Dict[str, float] = {
            "ingest.parse_s": parse_s,
            "ingest.parse_rec_per_s": records / parse_s,
            "ingest.miss_s": statistics.median(misses),
            "ingest.hit_s": statistics.median(hits),
            "ingest.hit_ratio": (
                len(self.warm_walls)
                / (len(self.cold_walls) + len(self.warm_walls))
            ),
            "serve.cold_s_p50": statistics.median(self.cold_walls),
            "serve.warm_s_p50": statistics.median(self.warm_walls),
        }
        out.update(engine_counts(registry))
        out.update(engine_breakdown(
            self.config, {self.cell_seed: self.trace},
            lambda technique, seed: [
                cell for cell in self.cells if cell.technique == technique
            ],
            0.0,
        ))
        out.update(solo_engines(
            self.config, self.trace, SOLO_TECHNIQUE, self.cell_seed
        ))
        exported = parse_jsonl(self.metrics_path.read_text(encoding="utf-8"))
        counters = exported["counters"]
        depth = exported["histograms"].get("serve.queue_depth", {})
        out["serve.sessions_failed"] = counters["serve.sessions_failed"]["value"]
        out["serve.sessions_shed"] = counters["serve.sessions_shed"]["value"]
        out["serve.queue_depth_max"] = depth.get("max") or 0
        return out


WORKLOADS = {
    workload.name: workload
    for workload in (PaperCampaign, FloodGrid, ServeIngest, QueueCampaign)
}


# ---------------------------------------------------------------------------
# the measurement loop
# ---------------------------------------------------------------------------


@dataclass
class Report:
    """What one run of one workload measured."""

    workload: str
    correct: bool
    attempted: int
    failed: int
    metrics: Dict[str, float]
    units: Dict[str, str]
    #: digest of the warm-up operation's checked result
    digest: str


def time_setup(workload: Workload, count: int) -> List[float]:
    """Seconds from spawning a fresh process to it being ready, for
    *count* processes started one after another."""
    samples = []
    for _ in range(count):
        argv, ready = workload.setup_command()
        started = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=subprocess.PIPE, text=True)
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - started
            if not line.startswith(ready):
                raise RuntimeError(
                    f"set-up process {argv} printed {line!r}, not {ready!r}"
                )
        finally:
            if workload.setup_is_service and proc.poll() is None:
                proc.terminate()
            try:
                proc.wait(timeout=20)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
            proc.stdout.close()
        samples.append(elapsed)
    return samples


def peak_rss_mb() -> float:
    """Largest resident set of this process or any waited-for child."""
    peak_kb = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    return peak_kb / 1024.0


class _Counter:
    """Attempted/failed bookkeeping shared by every loop of a run."""

    def __init__(self, workload: Workload, oracle_ok: bool = True):
        self.workload = workload
        #: False once a set-up oracle failed: every operation then fails
        self.oracle_ok = oracle_ok
        self.attempted = 0
        self.failed = 0
        self.index = 0

    def run(self, call: Callable[[int], Any]) -> Any:
        """Run *call(index)*; ``None`` when it raised."""
        index = self.index
        self.index += 1
        self.attempted += 1
        try:
            return call(index)
        except Exception:  # a failed operation is counted, not fatal
            self.failed += 1
            print(
                f"perfledger: {self.workload.name} operation {index} failed:",
                file=sys.stderr,
            )
            traceback.print_exc(file=sys.stderr)
            return None

    def checked(self, result: Optional[OpResult]) -> Optional[OpResult]:
        """Count *result* failed if it is missing or its digest is wrong."""
        if result is None:
            return None
        if not self.oracle_ok or (
            result.digest != self.workload.expected_for(result.key)
        ):
            self.failed += 1
        return result

    def run_checked(self, call: Callable[[int], Any]) -> Any:
        """:meth:`run` for a call that checks its own result; it counts
        failed anyway when the set-up oracles failed."""
        result = self.run(call)
        if result is not None and not self.oracle_ok:
            self.failed += 1
        return result

    def check_oracles(self, warm: OpResult) -> None:
        try:
            self.workload.check_oracles(warm)
        except OracleMismatch as exc:
            print(f"perfledger: {exc}", file=sys.stderr)
            self.oracle_ok = False


def run_workload(
    name: str,
    seed: int,
    seconds: float,
    traced: bool,
    work: Path,
) -> Report:
    """Measure workload *name*: set-up, warm-up, then either timed
    operations (end-to-end metrics) or traced ones (per-layer).

    An untraced run checks its oracles and the timed operations' digests
    only after it has read ``peak_rss_mb``, so no oracle work is counted
    in it; a traced run checks them before its operations.
    """
    workload = WORKLOADS[name](seed, work)
    counter = _Counter(workload)
    metrics: Dict[str, float] = {}
    try:
        if not traced:
            # the first start fills the bytecode cache
            setup = time_setup(workload, 1 + SETUP_SAMPLES // 2)[1:]
        workload.prepare()
        warm = workload.op(-1)  # index -1: the warm-up's own input
        if traced:
            counter.check_oracles(warm)
            metrics.update(_traced_metrics(workload, counter, warm, seconds))
        else:
            results: List[OpResult] = []
            deadline = time.perf_counter() + seconds
            while (
                counter.attempted < MIN_TIMED_OPS
                or time.perf_counter() < deadline
            ):
                result = counter.run(workload.op)
                if result is not None:
                    results.append(result)
            if not results:
                raise RuntimeError(f"{name}: every operation failed")
            workload.close()  # a waited-for server counts in RUSAGE_CHILDREN
            metrics["peak_rss_mb"] = peak_rss_mb()
            setup += time_setup(workload, SETUP_SAMPLES - len(setup))
            metrics["setup_s"] = statistics.median(setup)
            metrics["wall_s_p50"] = statistics.median(r.wall for r in results)
            metrics["cell_rec_per_s"] = statistics.median(
                r.cell_records / r.wall for r in results
            )
            counter.check_oracles(warm)
            for result in results:
                counter.checked(result)
    finally:
        workload.close()
    units = PER_LAYER_UNITS if traced else END_TO_END_UNITS
    return Report(
        workload=name,
        correct=counter.oracle_ok and counter.failed == 0,
        attempted=counter.attempted,
        failed=counter.failed,
        metrics={key: float(metrics[key]) for key in units},
        units=dict(units),
        digest=workload.expected.get(warm.key, ""),
    )


def _traced_metrics(
    workload: Workload, counter: _Counter, warm: OpResult, seconds: float
) -> Dict[str, float]:
    metrics = {key: 0.0 for key in PER_LAYER_UNITS}
    metrics["campaign.first_op_s"] = warm.wall
    # observability cost: the same operation with and without the
    # spans=/metrics= arguments of the public API, interleaved
    plain: List[float] = []
    hooked: List[float] = []
    for _ in range(OVERHEAD_PAIRS):
        for hooks, walls in ((False, plain), (True, hooked)):
            result = counter.checked(
                counter.run(lambda index, h=hooks: workload.op(index, hooks=h))
            )
            if result is not None:
                walls.append(result.wall)
    if plain and hooked:
        metrics["telemetry.span_overhead_pct"] = 100.0 * (
            statistics.median(hooked) / statistics.median(plain) - 1.0
        )
    metrics.update(engine_counts(workload.last_registry))
    # the operation decomposed into direct layer calls under spans
    walls: List[float] = []
    layer_samples: Dict[str, List[float]] = {}
    coverage: List[float] = []
    span_counts: List[int] = []
    records: List[int] = []
    first = counter.attempted
    deadline = time.perf_counter() + seconds
    while (
        counter.attempted - first < MIN_TRACED_OPS
        or time.perf_counter() < deadline
    ):
        traced = counter.run_checked(workload.traced_op)
        if traced is None:
            continue
        wall, layers, span_count = traced
        walls.append(wall)
        span_counts.append(span_count)
        records.append(workload.traced_records)
        covered = 0.0
        for layer in DECOMPOSED_LAYERS:
            layer_samples.setdefault(layer, []).append(layers.get(layer, 0.0))
            covered += layers.get(layer, 0.0)
        coverage.append(100.0 * covered / wall)
    if not walls:
        raise RuntimeError(f"{workload.name}: every traced operation failed")
    layers = {
        layer: statistics.median(samples)
        for layer, samples in layer_samples.items()
    }
    for layer in DECOMPOSED_LAYERS:
        if layer != "engine.grid":
            metrics[f"{layer}_s"] = layers[layer]
    if layers["traces.gen"] > 0:
        metrics["traces.gen_rec_per_s"] = (
            statistics.median(records) / layers["traces.gen"]
        )
    metrics["telemetry.traced_op_s"] = statistics.median(walls)
    metrics["telemetry.self_coverage_pct"] = statistics.median(coverage)
    metrics["telemetry.spans"] = (
        statistics.median(span_counts) + workload.last_program_spans
    )
    # the single-layer measurements count as one more checked operation
    diagnostics = counter.run_checked(
        lambda index: workload.diagnostics(layers)
    )
    if diagnostics is not None:
        metrics.update(diagnostics)
    return metrics
