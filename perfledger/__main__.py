"""Run one benchmark workload and print its metrics.

    python3 -m perfledger --workload paper_campaign --seed 0 --seconds 20 --trace 0

Prints one ``workload metric value unit`` line per metric, a
``digest workload <sha256>`` line (the checked result of the warm-up
operation), and as the last line one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--trace 0``
reports the end-to-end metrics, ``--trace 1`` the per-layer ones.

Everything the run writes lives under ``perfledger/.work/`` and is
removed when it ends.  Without the simulator sources (``src/repro``)
next to this directory the command exits with status 2.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import sys
import tempfile

from perfledger import ROOT, WORKLOAD_NAMES, use_checkout_sources


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        prog="python -m perfledger", description=__doc__.split("\n\n")[0]
    )
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0,
                        help="input seed (default %(default)s)")
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="measurement time (default %(default)s)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1 = per-layer metrics instead of end-to-end")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    use_checkout_sources()
    work = ROOT / "perfledger" / ".work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    # keep every temporary file and ingest cache inside the checkout
    os.environ["TMPDIR"] = str(work)
    os.environ["REPRO_INGEST_CACHE"] = str(work / "default-ingest-cache")
    tempfile.tempdir = None
    try:
        from perfledger.workloads import run_workload

        report = run_workload(
            args.workload, args.seed, args.seconds, bool(args.trace), work
        )
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):  # other runs may still use it
            work.parent.rmdir()
    for name, value in report.metrics.items():
        print(f"{report.workload} {name} {value!r} {report.units[name]}")
    print(f"digest {report.workload} {report.digest}")
    print(json.dumps({
        "correct": report.correct,
        "attempted": report.attempted,
        "failed": report.failed,
        "metrics": {
            name: {"value": value, "unit": report.units[name]}
            for name, value in report.metrics.items()
        },
    }), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
