"""Compare two ledger entries metric by metric.

    python -m perfledger.compare_ledger BASE.json NEW.json

Prints one row per workload and end-to-end metric: each side's median
and quartiles over its untraced sets, the change, and a verdict:

* ``regressed`` -- NEW's median is worse than BASE's by more than the
  metric's bound in ``BENCHMARK.json`` (for ``setup_s``: by more than
  the bound or 0.05 s, whichever is larger);
* ``unresolved`` -- otherwise, but the set-to-set spread (quartile
  distance over median) of either side is wider than the bound, so
  "unchanged" cannot be claimed -- unless every NEW set reads better
  than every BASE set (``improved``);
* ``improved`` / ``ok`` -- better by more than the bound / within it.

Exits 1 when any metric regressed, when a workload's error rate
(failed / attempted operations) rose, or when result digests differ
between the entries (same seed) or between the sets of one entry;
0 otherwise.  ``PATH@K`` selects only the K-th untraced set of an
entry, so the two sets of one entry compare as ``E.json@0 E.json@1``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path
from typing import Any, Dict, List, Sequence, Tuple

from perfledger import SPEC_PATH

#: absolute change (in the metric's unit) a metric may worsen by when
#: that is more than its relative bound: a few milliseconds of process
#: start-up are not a regression of a fast set-up
ABSOLUTE_FLOORS = {"setup_s": 0.05}


def load(path: Path) -> Dict[str, Any]:
    return json.loads(Path(path).read_text(encoding="utf-8"))


def load_selection(argument: str) -> Dict[str, Any]:
    """A ledger entry, or one untraced set of it for ``PATH@K``."""
    path, marker, index = argument.rpartition("@")
    if not marker or not index.isdigit():
        return load(Path(argument))
    ledger = load(Path(path))
    chosen = [entry for entry in ledger["sets"] if entry["kind"] == "untraced"]
    ledger["sets"] = [chosen[int(index)]]
    return ledger


def untraced_runs(ledger: Dict[str, Any], workload: str) -> List[Dict[str, Any]]:
    return [
        entry["runs"][workload]
        for entry in ledger["sets"]
        if entry["kind"] == "untraced" and workload in entry["runs"]
    ]


def summary(values: Sequence[float]) -> Tuple[float, float, float]:
    """(first quartile, median, third quartile) of *values*."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    low, mid, high = statistics.quantiles(values, n=4)
    return low, mid, high


def spread(values: Sequence[float]) -> float:
    """Quartile distance as a share of the median."""
    low, mid, high = summary(values)
    return (high - low) / abs(mid) if mid else 0.0


def verdict(
    base: Sequence[float], new: Sequence[float], better: str, bound: float,
    floor: float = 0.0,
) -> Tuple[str, float]:
    """(verdict, signed change of NEW's median, positive = worse).

    A regression must exceed both *bound* (a share of BASE's median)
    and *floor* (an absolute change).
    """
    base_mid, new_mid = summary(base)[1], summary(new)[1]
    sign = 1.0 if better == "lower" else -1.0
    worse = sign * (new_mid - base_mid) / abs(base_mid) if base_mid else 0.0
    if worse > bound and sign * (new_mid - base_mid) > floor:
        return "regressed", worse
    all_better = (
        max(new) < min(base) if better == "lower" else min(new) > max(base)
    )
    if max(spread(base), spread(new)) > bound:
        return ("improved" if all_better else "unresolved"), worse
    if worse < -bound:
        return "improved", worse
    return "ok", worse


def error_rate(runs: Sequence[Dict[str, Any]]) -> float:
    attempted = sum(run["attempted"] for run in runs)
    return sum(run["failed"] for run in runs) / attempted if attempted else 0.0


def compare(
    base: Dict[str, Any], new: Dict[str, Any], spec: Dict[str, Any]
) -> Tuple[List[str], List[str]]:
    """(report rows, failure reasons)."""
    rows = [
        f"{'workload':<16} {'metric':<16} {'base q1/med/q3':<34} "
        f"{'new q1/med/q3':<34} {'change':>8}  verdict"
    ]
    failures: List[str] = []
    same_seed = base["settings"]["seed"] == new["settings"]["seed"]
    workloads = [
        name for name in base["settings"]["workloads"]
        if name in new["settings"]["workloads"]
    ]
    for workload in workloads:
        base_runs = untraced_runs(base, workload)
        new_runs = untraced_runs(new, workload)
        if not base_runs or not new_runs:
            continue
        for metric in spec["end_to_end"]:
            name = metric["name"]
            base_values = [run["metrics"][name]["value"] for run in base_runs]
            new_values = [run["metrics"][name]["value"] for run in new_runs]
            label, worse = verdict(
                base_values, new_values, metric["better"], metric["bound"],
                ABSOLUTE_FLOORS.get(name, 0.0),
            )
            rows.append(
                f"{workload:<16} {name:<16} "
                + " ".join(
                    "/".join(f"{value:.4g}" for value in summary(values)).ljust(34)
                    for values in (base_values, new_values)
                )
                + f" {100 * worse:+7.1f}%  {label}"
            )
            if label == "regressed":
                failures.append(
                    f"{workload} {name} worse by {100 * worse:.1f}% "
                    f"(bound {100 * metric['bound']:.0f}%)"
                )
        if error_rate(new_runs) > error_rate(base_runs):
            failures.append(
                f"{workload} error rate rose: {error_rate(base_runs):.3g} -> "
                f"{error_rate(new_runs):.3g}"
            )
        digests = {run.get("digest") for run in base_runs}
        new_digests = {run.get("digest") for run in new_runs}
        for label, found in (("base", digests), ("new", new_digests)):
            if len(found) > 1:
                failures.append(f"{workload} {label} sets disagree on digests")
        if same_seed and digests != new_digests:
            failures.append(f"{workload} result digest differs")
    return rows, failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m perfledger.compare_ledger",
        description=__doc__.split("\n\n")[0],
    )
    parser.add_argument("base", help="ledger entry, or PATH@K for one set")
    parser.add_argument("new", help="ledger entry, or PATH@K for one set")
    args = parser.parse_args(argv)
    rows, failures = compare(
        load_selection(args.base), load_selection(args.new), load(SPEC_PATH)
    )
    print("\n".join(rows))
    for reason in failures:
        print(f"FAIL {reason}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
