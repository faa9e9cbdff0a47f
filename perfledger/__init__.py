"""The repository benchmark: end-to-end and per-layer performance ledger.

``python -m perfledger --workload NAME`` runs one workload and prints its
metrics (the contract ``BENCHMARK.json`` describes);
``python -m perfledger.ledger`` runs every workload in fresh processes
and writes a ledger entry; ``python -m perfledger.compare_ledger A B``
diffs two entries.  See ``perfledger/README.md``.

The benchmark imports the simulator from ``src/`` of the checkout it
sits in -- no install step -- and refuses to run without it.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

#: checkout root: the directory holding ``perfledger/`` and ``src/``
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: the benchmark spec (metric names, units, bounds)
SPEC_PATH = ROOT / "BENCHMARK.json"

#: exit status when the simulator sources are missing
EXIT_NO_SOURCES = 2

#: workload names, kept importable without the simulator so ``--help``
#: works anywhere (``perfledger.workloads.WORKLOADS`` must match)
WORKLOAD_NAMES = ("paper_campaign", "flood_grid", "serve_ingest", "queue_campaign")


def use_checkout_sources() -> None:
    """Import ``repro`` from this checkout's ``src/``; exit 2 without it.

    Also exports ``PYTHONPATH`` so that every subprocess the benchmark
    starts (set-up probes, ``repro serve``, queue workers) imports the
    same sources.
    """
    if not (SRC / "repro" / "__init__.py").is_file():
        print(
            f"perfledger: no simulator sources at {SRC / 'repro'}; run "
            "from a checkout of the repository",
            file=sys.stderr,
        )
        raise SystemExit(EXIT_NO_SOURCES)
    src = str(SRC)
    if src not in sys.path:
        sys.path.insert(0, src)
    existing = os.environ.get("PYTHONPATH")
    if not existing or src not in existing.split(os.pathsep):
        os.environ["PYTHONPATH"] = (
            src + os.pathsep + existing if existing else src
        )
