"""Deterministic red-team search for worst-case attack patterns.

Two strategies over the :mod:`repro.adversary.genome` space:

* ``random`` -- unbiased genome draws each generation (baseline /
  smoke-test strategy);
* ``evolve`` -- a (mu + lambda) evolutionary strategy: keep the
  ``population`` fittest candidates ever seen, breed ``offspring``
  children per generation by weighted mutation and crossover
  (:mod:`repro.adversary.mutate`), always starting from the canned
  seed corpus.

Fitness is what the paper's Section IV tables measure from the defence
side, flipped to the attacker's view: the number of activations the
pattern lands before the mitigation first fires (escaped runs score
their full activation count).  Candidates are evaluated on pure-attack
traces through the standard engines (fast by default) with
``stop_after_first_trigger``, fanned over a process pool via
:func:`repro.sim.parallel.parallel_map`.

Determinism is structural, not incidental:

* every generation's proposals come from a fresh
  ``stream(seed, "adversary", strategy, generation)`` RNG, so no RNG
  state survives a generation boundary;
* selection, frontier updates and tie-breaks are pure functions of the
  candidate records, ordered by canonical genome keys;
* generations checkpoint atomically through
  :class:`repro.adversary.store.SearchStore`, and a resumed search
  replays stored generations before evaluating anything new --

so the same seed and budget produce a bit-identical frontier whether
the search ran once, was killed and resumed, or ran with a different
worker count.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace
from statistics import fmean
from typing import Any, Callable, Dict, List, Optional, Set, Tuple

from repro.adversary.frontier import AdversaryFrontier, FrontierPoint
from repro.adversary.genome import PatternGenome, seed_corpus
from repro.adversary.mutate import crossover, mutate, random_genome
from repro.adversary.store import SearchSpec, SearchStore
from repro.campaign.store import CampaignStateError
from repro.config import SimConfig
from repro.mitigations.registry import resolve_technique
from repro.rng import derive_seed, stream
from repro.sim.engine import ENGINE_NAMES, is_grid_engine, run_cells
from repro.sim.fused_engine import GridCell
from repro.sim.parallel import parallel_map
from repro.telemetry.spans import span_of
from repro.traces.mixer import build_trace

STRATEGIES = ("random", "evolve")

#: probability that an evolve-strategy child is bred by crossover
#: (followed by mutation) rather than by mutation alone
CROSSOVER_RATE = 0.25

#: proposal retries before accepting an already-evaluated duplicate
DEDUP_RETRIES = 4


@dataclass(frozen=True)
class SearchSettings:
    """Knobs of one adversary search (everything that defines it)."""

    technique: str
    strategy: str = "evolve"
    budget: int = 64
    population: int = 4
    offspring: int = 8
    eval_seeds: int = 2
    windows: int = 2
    engine: str = "fast"
    seed: int = 0

    def __post_init__(self) -> None:
        if self.strategy not in STRATEGIES:
            raise ValueError(
                f"unknown strategy {self.strategy!r}; choose from {STRATEGIES}"
            )
        if self.engine not in ENGINE_NAMES:
            raise ValueError(
                f"unknown engine {self.engine!r}; choose from {ENGINE_NAMES}"
            )
        for name in ("budget", "population", "offspring", "eval_seeds",
                     "windows"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1")


@dataclass(frozen=True)
class EvalJob:
    """One candidate's evaluation unit (picklable for the pool)."""

    config: SimConfig
    technique: str
    genome: PatternGenome
    total_intervals: int
    seeds: Tuple[int, ...]
    engine: str


def evaluate_genome(job: EvalJob) -> Dict[str, Any]:
    """Measure one genome against its technique over the eval seeds.

    Module-level so :func:`repro.sim.parallel.parallel_map` can ship it
    to worker processes.  Each trace it builds is one
    :func:`~repro.sim.engine.run_cells` call stopped at the first
    trigger, its eval seeds the cells.  On the grid engine
    (``"fused"`` or its alias ``"fast"``) the genome compiles to one
    trace, seeded by the genome key alone, so every eval seed rides one
    grid and varies only the mitigation RNG: fitness variance measures
    the defence's randomness, not the attack's mixing noise.  Other
    engines build one trace per eval seed, seeded by the eval seed and
    the genome key.  The two rules differ when ``eval_seeds > 1``; a
    checkpoint pins the engine and
    :data:`~repro.adversary.store.SEARCH_SCHEMA_VERSION`, so they never
    mix within one search.
    """
    if is_grid_engine(job.engine):
        runs = [(0, job.seeds)]
    else:
        runs = [(seed, (seed,)) for seed in job.seeds]
    results = []
    for trace_seed, seeds in runs:
        trace = build_trace(
            job.config,
            job.total_intervals,
            benign_params=None,
            attacks=job.genome.compile(job.config, job.total_intervals),
            seed=derive_seed(trace_seed, "adversary-trace", job.genome.key()),
        )
        cells = [GridCell(technique=job.technique, seed=seed) for seed in seeds]
        results.extend(run_cells(
            job.config, trace, cells, job.engine, stop_after_first_trigger=True
        ))
    return {
        "acts_to_trigger": [result.first_trigger_activation for result in results],
        "total_acts": [result.attack_activations for result in results],
    }


@dataclass
class Candidate:
    """An evaluated genome: the unit selection and checkpoints act on."""

    genome: PatternGenome
    generation: int
    #: per eval seed; ``None`` means the pattern escaped the whole horizon
    acts_to_trigger: List[Optional[int]]
    #: per eval seed: attacker activations landed over the horizon
    total_acts: List[int]
    #: planned attacker activations per refresh window (cost axis)
    acts_per_window: int

    @property
    def fitness(self) -> float:
        """Mean activations landed before the mitigation first fires."""
        return fmean(
            float(total if acts is None else acts)
            for acts, total in zip(self.acts_to_trigger, self.total_acts)
        )

    @property
    def escape_rate(self) -> float:
        """Fraction of eval seeds the pattern fully escaped."""
        escaped = sum(1 for acts in self.acts_to_trigger if acts is None)
        return escaped / len(self.acts_to_trigger)

    def frontier_point(self) -> FrontierPoint:
        return FrontierPoint(
            genome=self.genome.as_dict(),
            name=self.genome.name,
            acts_per_window=self.acts_per_window,
            fitness=self.fitness,
            escape_rate=self.escape_rate,
            generation=self.generation,
        )

    def as_dict(self) -> Dict[str, Any]:
        return {
            "genome": self.genome.as_dict(),
            "generation": self.generation,
            "acts_to_trigger": list(self.acts_to_trigger),
            "total_acts": list(self.total_acts),
            "acts_per_window": self.acts_per_window,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "Candidate":
        return cls(
            genome=PatternGenome.from_dict(data["genome"]),
            generation=int(data["generation"]),
            acts_to_trigger=[
                None if acts is None else int(acts)
                for acts in data["acts_to_trigger"]
            ],
            total_acts=[int(total) for total in data["total_acts"]],
            acts_per_window=int(data["acts_per_window"]),
        )


def _rank_key(candidate: Candidate) -> Tuple[float, int, str]:
    """Canonical ranking: fittest first, cheaper first, then key."""
    return (-candidate.fitness, candidate.acts_per_window,
            candidate.genome.key())


def select(candidates: List[Candidate], size: int) -> List[Candidate]:
    """The *size* best candidates in canonical order (pure function)."""
    return sorted(candidates, key=_rank_key)[:size]


@dataclass
class SearchOutcome:
    """Everything a finished (or resumed-and-finished) search reports."""

    technique: str
    strategy: str
    budget: int
    evaluations: int
    generations: int
    population: List[Candidate]
    frontier: AdversaryFrontier
    best: Candidate
    corpus_best: Candidate
    #: best fitness seen so far, one entry per generation
    history: List[float] = field(default_factory=list)

    @property
    def improvement(self) -> float:
        """Best discovered fitness relative to the best canned seed."""
        if self.corpus_best.fitness == 0:
            return float("inf") if self.best.fitness > 0 else 1.0
        return self.best.fitness / self.corpus_best.fitness

    def as_dict(self) -> Dict[str, Any]:
        return {
            "technique": self.technique,
            "strategy": self.strategy,
            "budget": self.budget,
            "evaluations": self.evaluations,
            "generations": self.generations,
            "population": [c.as_dict() for c in self.population],
            "frontier": self.frontier.as_dict(),
            "best": self.best.as_dict(),
            "corpus_best": self.corpus_best.as_dict(),
            "history": list(self.history),
        }


def _dedup_corpus(genomes: List[PatternGenome]) -> List[PatternGenome]:
    seen: Set[str] = set()
    unique = []
    for genome in genomes:
        if genome.key() in seen:
            continue
        seen.add(genome.key())
        unique.append(genome)
    return unique


def _propose(
    generation: int,
    population: List[Candidate],
    seen: Set[str],
    settings: SearchSettings,
    config: SimConfig,
) -> List[PatternGenome]:
    """Deterministic proposals for *generation* (corpus at generation 0)."""
    if generation == 0:
        return _dedup_corpus(seed_corpus(config))
    rng = stream(settings.seed, "adversary", settings.strategy, generation)
    if settings.strategy == "random":
        return [random_genome(rng, config) for _ in range(settings.offspring)]
    proposals: List[PatternGenome] = []
    for _ in range(settings.offspring):
        child = _breed(population, rng, config)
        for _ in range(DEDUP_RETRIES):
            if child.key() not in seen:
                break
            child = _breed(population, rng, config)
        proposals.append(child)
    return proposals


def _breed(
    population: List[Candidate], rng: random.Random, config: SimConfig
) -> PatternGenome:
    if len(population) >= 2 and rng.random() < CROSSOVER_RATE:
        first = rng.randrange(len(population))
        second = rng.randrange(len(population) - 1)
        if second >= first:
            second += 1
        child = crossover(
            population[first].genome, population[second].genome, rng
        )
        return mutate(child, rng, config)
    parent = population[rng.randrange(len(population))]
    return mutate(parent.genome, rng, config)


def run_search(
    config: SimConfig,
    settings: SearchSettings,
    checkpoint_dir: Optional[str] = None,
    resume: bool = False,
    workers: Optional[int] = 0,
    metrics=None,
    on_generation: Optional[Callable[[int, List[Candidate]], None]] = None,
    progress: Optional[Callable[[int, int], None]] = None,
    spans=None,
) -> SearchOutcome:
    """Run (or resume) an adversary search against one technique.

    * ``checkpoint_dir`` -- checkpoint every evaluated generation there;
      with ``resume=True`` an existing checkpoint (validated against
      this search's spec) is replayed before any new evaluation, making
      the resumed result bit-identical to an uninterrupted run.
    * ``workers`` -- process-pool width for candidate evaluation
      (``0`` evaluates inline; the default, since small searches are
      dominated by engine start-up otherwise).
    * ``on_generation(index, candidates)`` fires after each *newly
      evaluated* generation is checkpointed (not for replayed ones);
      ``progress(evaluations, budget)`` after every generation.
    * ``spans`` -- optional :class:`~repro.telemetry.spans.SpanTracer`:
      the search records a ``search`` root span with one ``generation``
      child per generation (``replayed`` marks checkpoint replays);
      evaluation fan-out spans ship back from pool workers through
      :func:`~repro.sim.parallel.parallel_map`.
    """
    settings = replace(settings, technique=resolve_technique(settings.technique))
    store = SearchStore(checkpoint_dir) if checkpoint_dir else None
    spec = SearchSpec.build(config, settings)
    stored: List[List[Dict[str, Any]]] = []
    if store is not None:
        if store.exists:
            if not resume:
                raise CampaignStateError(
                    f"checkpoint directory {store.root} already holds a "
                    "search; pass resume=True (--resume) to continue it or "
                    "use a fresh directory"
                )
            store.ensure_matches(spec)
            stored = store.load_generations()
        else:
            store.initialize(spec)

    total_intervals = config.geometry.refint * settings.windows
    eval_seeds = tuple(
        derive_seed(settings.seed, "adversary-eval", index)
        for index in range(settings.eval_seeds)
    )

    population: List[Candidate] = []
    frontier = AdversaryFrontier(settings.technique)
    seen: Set[str] = set()
    history: List[float] = []
    all_candidates: List[Candidate] = []
    corpus_candidates: List[Candidate] = []
    evaluations = 0
    generation = 0

    root_span = (
        spans.start(
            "search", technique=settings.technique,
            strategy=settings.strategy, budget=settings.budget,
        )
        if spans is not None and spans.enabled else None
    )
    try:
        while evaluations < settings.budget:
            replayed = generation < len(stored)
            with span_of(
                spans, "generation", index=generation, replayed=replayed,
            ):
                genomes = _propose(
                    generation, population, seen, settings, config
                )
                genomes = genomes[: settings.budget - evaluations]
                if replayed:
                    candidates = [
                        Candidate.from_dict(data)
                        for data in stored[generation]
                    ]
                else:
                    jobs = [
                        EvalJob(
                            config=config,
                            technique=settings.technique,
                            genome=genome,
                            total_intervals=total_intervals,
                            seeds=eval_seeds,
                            engine=settings.engine,
                        )
                        for genome in genomes
                    ]
                    measured = parallel_map(
                        evaluate_genome, jobs, workers=workers, spans=spans,
                    )
                    candidates = [
                        Candidate(
                            genome=genome,
                            generation=generation,
                            acts_to_trigger=result["acts_to_trigger"],
                            total_acts=result["total_acts"],
                            acts_per_window=genome.acts_per_window(config),
                        )
                        for genome, result in zip(genomes, measured)
                    ]
                    if store is not None:
                        store.write_generation(
                            generation, [c.as_dict() for c in candidates]
                        )
                    if on_generation is not None:
                        on_generation(generation, candidates)
                if generation == 0:
                    corpus_candidates = list(candidates)
                evaluations += len(candidates)
                all_candidates.extend(candidates)
                for candidate in candidates:
                    seen.add(candidate.genome.key())
                frontier.update(c.frontier_point() for c in candidates)
                population = select(
                    population + candidates, settings.population
                )
                history.append(population[0].fitness)
                if metrics is not None:
                    metrics.counter("adversary.evaluations").add(
                        len(candidates)
                    )
                    metrics.counter("adversary.generations").add(1)
            if progress is not None:
                progress(evaluations, settings.budget)
            generation += 1
    finally:
        if root_span is not None:
            spans.finish()

    return SearchOutcome(
        technique=settings.technique,
        strategy=settings.strategy,
        budget=settings.budget,
        evaluations=evaluations,
        generations=generation,
        population=population,
        frontier=frontier,
        best=select(all_candidates, 1)[0],
        corpus_best=select(corpus_candidates, 1)[0],
        history=history,
    )
