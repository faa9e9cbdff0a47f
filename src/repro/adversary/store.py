"""Durable adversary-search state: spec + per-generation checkpoints.

Layout of a search checkpoint directory::

    <checkpoint_dir>/
        adversary.json          # SearchSpec: config + hash, search knobs
        generations/
            gen_00000.json      # evaluated candidates of one generation

The design mirrors :class:`repro.campaign.store.CampaignStore` and
shares its durability primitive
(:func:`repro.telemetry.statusbus.write_json_atomic`): every write is atomic,
the *generation* file is the unit of resume, and resuming replays
stored generations in order before evaluating anything new.  Because
each generation's proposals are derived from a per-generation RNG
stream (:func:`repro.rng.stream` seeded by the search seed and the
generation index), a killed-and-resumed search is bit-identical to an
uninterrupted one without ever persisting RNG state.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Any, Dict, List, Tuple

from repro.campaign.store import CampaignStateError, CheckpointMismatchError
from repro.config import SimConfig
from repro.telemetry.manifest import config_as_dict, config_digest
from repro.telemetry.statusbus import write_json_atomic

#: bump when the search checkpoint layout changes incompatibly; 2:
#: ``"fast"`` searches evaluate genomes on the fused grid, as
#: ``"fused"`` ones do, so a version-1 ``"fast"`` search cannot resume
SEARCH_SCHEMA_VERSION = 2

SPEC_FILENAME = "adversary.json"
GENERATION_DIRNAME = "generations"


@dataclass
class SearchSpec:
    """Everything that identifies one adversary search."""

    config: Dict[str, Any]
    config_hash: str
    technique: str
    strategy: str
    budget: int
    population: int
    offspring: int
    eval_seeds: int
    windows: int
    engine: str
    seed: int
    schema_version: int = SEARCH_SCHEMA_VERSION

    @classmethod
    def build(cls, config: SimConfig, settings: Any) -> "SearchSpec":
        return cls(
            config=config_as_dict(config),
            config_hash=config_digest(config),
            technique=settings.technique,
            strategy=settings.strategy,
            budget=settings.budget,
            population=settings.population,
            offspring=settings.offspring,
            eval_seeds=settings.eval_seeds,
            windows=settings.windows,
            engine=settings.engine,
            seed=settings.seed,
        )

    def as_dict(self) -> Dict[str, Any]:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "SearchSpec":
        return cls(**dict(data))

    def mismatches(self, other: "SearchSpec") -> Dict[str, Tuple[Any, Any]]:
        """Fields where *other* (the requested search) differs from self."""
        out: Dict[str, Tuple[Any, Any]] = {}
        for key in (
            "schema_version", "config_hash", "technique", "strategy",
            "budget", "population", "offspring", "eval_seeds", "windows",
            "engine", "seed",
        ):
            mine, theirs = getattr(self, key), getattr(other, key)
            if mine != theirs:
                out[key] = (mine, theirs)
        return out


class SearchStore:
    """Filesystem-backed adversary-search checkpoint."""

    def __init__(self, root) -> None:
        self.root = Path(root)
        self.generation_dir = self.root / GENERATION_DIRNAME

    @property
    def spec_path(self) -> Path:
        return self.root / SPEC_FILENAME

    @property
    def exists(self) -> bool:
        return self.spec_path.is_file()

    def initialize(self, spec: SearchSpec) -> None:
        self.generation_dir.mkdir(parents=True, exist_ok=True)
        write_json_atomic(self.spec_path, spec.as_dict())

    def read_spec(self) -> SearchSpec:
        if not self.exists:
            raise CampaignStateError(
                f"no adversary checkpoint at {self.root} "
                f"(missing {SPEC_FILENAME})"
            )
        data = json.loads(self.spec_path.read_text(encoding="utf-8"))
        return SearchSpec.from_dict(data)

    def ensure_matches(self, spec: SearchSpec) -> None:
        """Fail fast if the stored search is not *spec*'s search."""
        mismatches = self.read_spec().mismatches(spec)
        if mismatches:
            raise CheckpointMismatchError(mismatches)

    # -- generations ---------------------------------------------------

    def generation_path(self, index: int) -> Path:
        return self.generation_dir / f"gen_{index:05d}.json"

    def write_generation(
        self, index: int, candidates: List[Dict[str, Any]]
    ) -> Path:
        path = self.generation_path(index)
        write_json_atomic(path, {"generation": index,
                                 "candidates": candidates})
        return path

    def load_generations(self) -> List[List[Dict[str, Any]]]:
        """Stored generations 0..k as candidate dicts, stopping at the
        first gap or unreadable file (anything after it is recomputed)."""
        generations: List[List[Dict[str, Any]]] = []
        index = 0
        while True:
            path = self.generation_path(index)
            if not path.is_file():
                break
            try:
                payload = json.loads(path.read_text(encoding="utf-8"))
                candidates = list(payload["candidates"])
            except (json.JSONDecodeError, KeyError, TypeError):
                break
            generations.append(candidates)
            index += 1
        return generations
