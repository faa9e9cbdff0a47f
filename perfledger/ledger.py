"""Run every workload in fresh processes and write one ledger entry.

    python -m perfledger.ledger [--seed N] [--workloads a,b] [--traced]
                                [--out PATH]

Each workload of each set runs as its own ``python -m perfledger``
process for ``BENCHMARK.json``'s ``run_seconds``, so imports are cold
and peak RSS belongs to that workload.  An entry holds two untraced
sets (end-to-end metrics) and, with ``--traced``, one set with
``--trace 1`` (per-layer metrics).  The sets are interleaved workload
by workload, so a drift of the host's speed lands in both untraced
sets alike.  The command prints one ``workload metric value unit`` line
per metric and writes the same data, plus host facts, as JSON to
``--out``.  Compare two entries with
``python -m perfledger.compare_ledger A.json B.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict, List

from perfledger import ROOT, SPEC_PATH, WORKLOAD_NAMES

LEDGER_SCHEMA = 1
#: untraced sets per entry: two, so that an entry shows its own noise
UNTRACED_SETS = 2
#: seconds one workload process may take before the ledger gives up
RUN_TIMEOUT_S = 600


def host_facts() -> Dict[str, Any]:
    """The facts a ledger entry must carry to be comparable."""
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    try:
        revision = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        revision = "unknown"
    src_lines = sum(
        len(path.read_bytes().splitlines())
        for path in (ROOT / "src").rglob("*.py")
    )
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "platform": platform.platform(),
        "machine": platform.machine(),
        "git_revision": revision,
        "src_lines": src_lines,
    }


def run_one(workload: str, seed: int, seconds: float, traced: bool) -> Dict[str, Any]:
    """One fresh ``python -m perfledger`` process; its parsed result."""
    proc = subprocess.run(
        [
            sys.executable, "-m", "perfledger", "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds),
            "--trace", "1" if traced else "0",
        ],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(
            f"{workload} (seed {seed}, traced={traced}) exited "
            f"{proc.returncode} without a result"
        )
    result = json.loads(lines[-1])
    for line in lines[:-1]:
        fields = line.split()
        if fields[:2] == ["digest", workload]:
            result["digest"] = fields[2]
    return result


def run_ledger(workloads: List[str], seed: int, traced: bool) -> Dict[str, Any]:
    seconds = json.loads(SPEC_PATH.read_text(encoding="utf-8"))["run_seconds"]
    kinds = ["untraced"] * UNTRACED_SETS + (["traced"] if traced else [])
    sets = [{"kind": kind, "runs": {}} for kind in kinds]
    for workload in workloads:
        for entry in sets:
            result = run_one(workload, seed, seconds, entry["kind"] == "traced")
            entry["runs"][workload] = result
            for name, metric in result["metrics"].items():
                print(f"{workload} {name} {metric['value']!r} {metric['unit']}",
                      flush=True)
    return {
        "schema": LEDGER_SCHEMA,
        "host": host_facts(),
        "settings": {"seed": seed, "seconds": seconds, "workloads": workloads},
        "sets": sets,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m perfledger.ledger",
        description=__doc__.split("\n\n")[0],
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--workloads", default=",".join(WORKLOAD_NAMES),
        help="comma-separated subset (default: all four)",
    )
    parser.add_argument("--traced", action="store_true",
                        help="also record one per-layer (traced) set")
    parser.add_argument(
        "--out", type=Path, default=ROOT / "perfledger" / "out" / "ledger.json",
        help="JSON output path (default %(default)s)",
    )
    args = parser.parse_args(argv)
    workloads = [name for name in args.workloads.split(",") if name]
    unknown = sorted(set(workloads) - set(WORKLOAD_NAMES))
    if unknown:
        parser.error(f"unknown workloads: {', '.join(unknown)}")
    ledger = run_ledger(workloads, args.seed, args.traced)
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(ledger, indent=1, sort_keys=True) + "\n",
                        encoding="utf-8")
    print(f"wrote {args.out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
