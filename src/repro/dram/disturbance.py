"""Row-Hammer disturbance model.

This is the abstract charge model behind the 139 K activation threshold
of Kim et al. [12] that the paper (and TWiCe, CRA, PARA, ...) evaluate
against:

* every activation of row ``r`` disturbs its physical neighbours
  ``r - 1`` and ``r + 1`` by one unit;
* refreshing a row -- by the periodic refresh, by a normal activation of
  the row itself, or by a mitigation's ``act_n`` -- restores its charge,
  resetting the disturbance count to zero;
* if a row accumulates ``flip_threshold`` disturbances between two
  restorations, its cells start flipping bits and the attack succeeded.

``distance2_rate`` extends the model beyond the paper with the
second-neighbour coupling later shown by the Half-Double attack
(Google, 2021): each activation also disturbs rows ``r +- 2`` by a
small fraction of a unit.  At 0 (the default, and the paper's model)
the extension is inert; the extension experiments use small positive
values to study how distance-1 mitigations fare when their own
``act_n`` refreshes contribute distance-2 disturbance.

Counters are kept sparsely (dict) because in any realistic trace only a
tiny fraction of rows is ever disturbed between refreshes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from repro.config import DRAMGeometry


@dataclass(frozen=True)
class FlipEvent:
    """A successful Row-Hammer disturbance (bit flips started)."""

    bank: int
    row: int
    #: disturbance count when the threshold was crossed
    count: int
    #: simulation time in nanoseconds, -1 if unknown
    time_ns: int = -1


@dataclass
class BankDisturbance:
    """Disturbance counters for one bank."""

    geometry: DRAMGeometry
    flip_threshold: int
    bank: int = 0
    #: per-activation disturbance of rows at distance 2 (Half-Double
    #: coupling); 0 reproduces the paper's distance-1 model exactly
    distance2_rate: float = 0.0
    _counters: Dict[int, float] = field(default_factory=dict)
    flips: List[FlipEvent] = field(default_factory=list)
    #: running maximum over all rows and all times (attack-margin metric)
    max_disturbance: int = 0

    def on_activation(self, row: int, time_ns: int = -1) -> None:
        """Apply a row activation: restore *row*, disturb its neighbours."""
        self._counters.pop(row, None)
        for victim in self.geometry.neighbors(row):
            self._disturb(victim, 1.0, time_ns)
        if self.distance2_rate > 0.0:
            for victim in self._second_neighbors(row):
                self._disturb(victim, self.distance2_rate, time_ns)

    def refresh_row(self, row: int) -> None:
        """Restore *row* (periodic refresh or mitigation act_n)."""
        self._counters.pop(row, None)

    def activate_neighbors(self, row: int, time_ns: int = -1) -> int:
        """Apply a mitigation ``act_n`` command for aggressor *row*.

        Both neighbours are activated (restoring them), which in turn
        disturbs *their* neighbours -- mitigations are themselves a
        (small) source of disturbance, and the model keeps that effect.
        Returns the number of rows activated (2, or 1 at array edges).
        """
        victims = self.geometry.neighbors(row)
        for victim in victims:
            self.on_activation(victim, time_ns)
        return len(victims)

    def disturbance(self, row: int) -> int:
        """Current disturbance count of *row* (whole units)."""
        return int(self._counters.get(row, 0.0))

    def _second_neighbors(self, row: int):
        """Rows two physical slots away (Half-Double coupling)."""
        out = []
        for neighbor in self.geometry.neighbors(row):
            for second in self.geometry.neighbors(neighbor):
                if second != row:
                    out.append(second)
        return out

    def _disturb(self, victim: int, amount: float, time_ns: int) -> None:
        before = self._counters.get(victim, 0.0)
        count = before + amount
        self._counters[victim] = count
        if int(count) > self.max_disturbance:
            self.max_disturbance = int(count)
        if before < self.flip_threshold <= count:
            self.flips.append(
                FlipEvent(
                    bank=self.bank, row=victim, count=int(count),
                    time_ns=time_ns,
                )
            )
