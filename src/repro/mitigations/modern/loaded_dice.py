"""Loaded Dice -- non-selection-aware probabilistic tracking.

Woo, Kim, Jaleel and Nair (arXiv:2605.17358) identify the
*non-selection problem* of classic probabilistic defenses: PARA-style
samplers first decide *whether* to mitigate and then pick *which*
candidate uniformly, so a heavily hammered row can simply never win the
draw -- the per-victim protection probability is diluted by every other
candidate.  Loaded Dice keeps the cheap per-activation coin flip but
*loads* the selection die: a small table tracks activation counts of
recent aggressors, and when the coin triggers, the victim's aggressor
is sampled with probability proportional to its activation count.  Hot
rows therefore cannot hide behind cold ones, which is exactly the gap
the registry records as PARA's and ProHit's ``known_vulnerabilities``.

Model implemented here:

* an ``entries``-deep table of (aggressor row, activation count); on a
  miss with a full table the minimum-count entry (first inserted on
  ties) is evicted -- the dice are probabilistic, the bookkeeping is
  deterministic;
* one uniform draw per activation decides whether to mitigate
  (``probability``, defaulting to PARA's 0.001);
* on a trigger a second draw samples a tracked aggressor with
  probability proportional to its count, issues ``act_n`` on it (the
  device resolves the true neighbours, sidestepping remapping), and
  retires its table entry.
"""

from __future__ import annotations

import math
from typing import ClassVar, Dict, Optional, Sequence, Tuple

from repro.config import SimConfig
from repro.mitigations.base import ActivateNeighbors, Mitigation, MitigationAction
from repro.rng import stream


class LoadedDice(Mitigation):
    name: ClassVar[str] = "LoadedDice"
    known_vulnerabilities: ClassVar[Tuple[str, ...]] = ()
    #: fixed trigger probability; the count-weighted die needs the RNG
    consumes_rng: ClassVar[bool] = True
    consumes_pbase: ClassVar[bool] = False

    def __init__(
        self,
        config: SimConfig,
        bank: int = 0,
        seed: int = 0,
        entries: Optional[int] = None,
        probability: float = 0.001,
    ):
        super().__init__(config, bank)
        if not 0.0 < probability <= 1.0:
            raise ValueError(f"probability must be in (0, 1]: {probability}")
        self.entries = config.history_table_entries if entries is None else entries
        if self.entries < 1:
            raise ValueError(f"entries must be positive: {self.entries}")
        self.probability = probability
        #: aggressor row -> activations since tracked (insertion-ordered)
        self._counts: Dict[int, int] = {}
        self.max_occupancy = 0
        self._rng = stream(seed, "loaded-dice", bank)

    def _observe(self, row: int) -> None:
        count = self._counts.get(row)
        if count is not None:
            self._counts[row] = count + 1
            return
        if len(self._counts) >= self.entries:
            self._counts.pop(self._coldest())
        self._counts[row] = 1
        if len(self._counts) > self.max_occupancy:
            self.max_occupancy = len(self._counts)

    def _coldest(self) -> int:
        """Minimum-count tracked row; first inserted wins ties."""
        coldest = -1
        coldest_count = -1
        for tracked, count in self._counts.items():
            if coldest_count < 0 or count < coldest_count:
                coldest, coldest_count = tracked, count
        return coldest

    def _roll_loaded_die(self) -> Sequence[MitigationAction]:
        """Sample a tracked aggressor with probability ~ its count."""
        total = sum(self._counts.values())
        point = self._rng.random() * total
        acc = 0
        selected = -1
        for tracked, count in self._counts.items():
            acc += count
            selected = tracked
            if point < acc:
                break
        self._counts.pop(selected, None)
        return (ActivateNeighbors(row=selected),)

    def on_activation(self, row: int, interval: int) -> Sequence[MitigationAction]:
        self._observe(row)
        if self._rng.random() >= self.probability:
            return ()
        return self._roll_loaded_die()

    def observe_run(
        self, row: int, interval: int, count: int
    ) -> Tuple[int, Sequence[MitigationAction]]:
        """Run-batching hook (the optimized engine's ``decide_run`` contract).

        A run repeats one row, so after the first activation settles
        insertion/eviction the remaining activations are one count
        increment plus one coin flip each; the flips are scanned
        without touching the table until one lands.
        """
        actions = self.on_activation(row, interval)
        if actions:
            return 0, actions
        if count == 1:
            return 1, ()
        remaining = count - 1
        probability = self.probability
        draw = self._rng.random
        for clean in range(remaining):
            if draw() < probability:
                self._counts[row] += clean + 1
                return clean + 1, self._roll_loaded_die()
        self._counts[row] += remaining
        return count, ()

    @property
    def table_bytes(self) -> int:
        row_bits = max(1, math.ceil(math.log2(self.config.geometry.rows_per_bank)))
        count_bits = max(
            1, math.ceil(math.log2(self.config.flip_threshold + 1))
        )
        total_bits = self.entries * (row_bits + count_bits + 1)  # +valid
        return (total_bits + 7) // 8
