#!/usr/bin/env python3
"""Trace a LoLiPRoMi run to JSONL and summarise the event stream.

Runs the paper's mixed workload under LoLiPRoMi on the optimized engine with
a ``JsonlTracer`` attached, then reads the trace back and prints a
per-kind event count table plus the trigger-weight distribution — no
pandas needed, the events are plain one-line JSON objects.

Run:  python examples/traced_run.py [--intervals N] [--out events.jsonl]
"""

import argparse
import tempfile
from collections import Counter
from pathlib import Path

from repro import SimConfig, paper_mixed_workload
from repro.mitigations import make_factory
from repro.sim.fused_engine import run_simulation_fused
from repro.telemetry import JsonlTracer, MetricsRegistry, read_jsonl_events


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--intervals",
        type=int,
        default=512,
        help="refresh intervals to simulate",
    )
    parser.add_argument(
        "--out",
        type=Path,
        default=None,
        help="where to write the JSONL trace (default: a temp file)",
    )
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    out = args.out or Path(tempfile.mkdtemp()) / "events.jsonl"

    config = SimConfig()
    trace = paper_mixed_workload(
        config, total_intervals=args.intervals, seed=args.seed
    ).materialize()

    metrics = MetricsRegistry()
    with JsonlTracer(str(out)) as tracer:
        result = run_simulation_fused(
            config,
            trace,
            make_factory("LoLiPRoMi"),
            seed=args.seed,
            tracer=tracer,
            metrics=metrics,
        )

    print(f"LoLiPRoMi over {args.intervals} intervals: "
          f"{result.mitigation_triggers} triggers, "
          f"{result.extra_activations} extra activations "
          f"({result.overhead_pct:.4f}%), {len(result.flips)} bit flips")
    print(f"trace: {tracer.events_written} events -> {out}\n")

    events = read_jsonl_events(str(out))
    kinds = Counter(event["kind"] for event in events)
    print("event counts by kind")
    for kind, count in kinds.most_common():
        print(f"  {kind:<20} {count:>8,}")

    weights = metrics.histograms["trigger_weight"]
    labels = (
        [f"<= {weights.bounds[0]:g}"]
        + [f"({low:g}, {high:g}]"
           for low, high in zip(weights.bounds, weights.bounds[1:])]
        + [f"> {weights.bounds[-1]:g}"]
    )
    print("\ntrigger-weight distribution (Eq. 1/2 weight when a trigger fired)")
    for label, count in zip(labels, weights.counts):
        if count:
            print(f"  w {label:<16} {count:>6,}")

    # a quick sanity check the reader can repeat with jq:
    #   jq -s 'map(select(.kind=="trigger")) | length' events.jsonl
    assert kinds["trigger"] == result.mitigation_triggers
    print(f"\ntrigger events match the SimResult total "
          f"({result.mitigation_triggers}) -- telemetry observes, never decides.")


if __name__ == "__main__":
    main()
