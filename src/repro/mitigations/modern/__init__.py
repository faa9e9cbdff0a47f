"""Modern (2024-2025) tracker mitigation families.

The paper's Table III compares TiVaPRoMi against the 2021 defense
landscape.  This package extends the registry with the tracker families
retrieved in PAPERS.md so the repo benchmarks a decade of Row-Hammer
mitigation rather than a snapshot:

* :class:`~repro.mitigations.modern.loaded_dice.LoadedDice` --
  non-selection-aware probabilistic tracking (Woo et al.,
  arXiv:2605.17358);
* :class:`~repro.mitigations.modern.rvc.RVC` -- victim-centric counting
  in a bounded table (Jain & Tavva, arXiv:2604.24287);
* :class:`~repro.mitigations.modern.pvac.PVAC` -- exhaustive
  per-victim-row counters (Kim et al., arXiv:2604.20576);
* :class:`~repro.mitigations.modern.prac.PRAC` /
  :class:`~repro.mitigations.modern.prac.PRACtical` -- per-row
  activation counters with ALERT back-off recovery, and the
  subarray-isolated refinement (Nazaraliyev et al., arXiv:2507.18581);
* :class:`~repro.mitigations.modern.policies.ProbabilisticTracker` --
  Jaleel et al.'s probabilistic tracker-management policies as a
  configurable counter-table wrapper (arXiv:2404.16256).

Every class implements the same :class:`~repro.mitigations.base.Mitigation`
protocol as the 2021 techniques and passes the reference = fast = fused
differential harness.  The deterministic counters additionally expose
``observe_run`` (the run-batching contract of the optimized engine's
``decide_run``) so fused campaign grids stay fast.
"""

from repro.mitigations.modern.loaded_dice import LoadedDice
from repro.mitigations.modern.policies import ProbabilisticTracker
from repro.mitigations.modern.prac import PRAC, PRACtical
from repro.mitigations.modern.pvac import PVAC
from repro.mitigations.modern.rvc import RVC

__all__ = [
    "LoadedDice",
    "PRAC",
    "PRACtical",
    "PVAC",
    "ProbabilisticTracker",
    "RVC",
]
