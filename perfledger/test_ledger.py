"""Checks of the benchmark itself (not of the simulator).

    python -m pytest perfledger/test_ledger.py

Covers input determinism, the result-digest check, the comparison
verdicts, the metric names ``BENCHMARK.json`` promises, and the exit
status without simulator sources.  Runs in a few seconds.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from dataclasses import replace

import pytest

from perfledger import ROOT, SPEC_PATH, WORKLOAD_NAMES, use_checkout_sources

use_checkout_sources()

from perfledger import compare_ledger  # noqa: E402
from perfledger.workloads import (  # noqa: E402
    END_TO_END_UNITS,
    PER_LAYER_UNITS,
    WORKLOADS,
    FloodGrid,
    OpResult,
    PaperCampaign,
    QueueCampaign,
    ServeIngest,
    _Counter,
    results_digest,
    write_upload,
)
from repro.sim.metrics import SimResult  # noqa: E402


# -- inputs come from the seed alone ------------------------------------


def _campaign_inputs(cls, seed, tmp_path):
    workload = cls(seed, tmp_path)
    workload.prepare()
    return {
        trace_seed: list(workload._trace(trace_seed))
        for trace_seed in workload.seeds
    }


@pytest.mark.parametrize("cls", [PaperCampaign, QueueCampaign])
def test_campaign_inputs_repeat_per_seed(cls, tmp_path):
    first = _campaign_inputs(cls, 3, tmp_path)
    assert first == _campaign_inputs(cls, 3, tmp_path)
    assert first != _campaign_inputs(cls, 4, tmp_path)


def test_flood_inputs_repeat_per_seed(tmp_path):
    def inputs(seed):
        workload = FloodGrid(seed, tmp_path)
        workload.prepare()
        return workload.attack, workload.cells, list(workload._trace())

    assert inputs(3) == inputs(3)
    assert inputs(3) != inputs(4)


def test_serve_uploads_byte_identical_per_seed(tmp_path):
    def upload(seed, number, name):
        path = tmp_path / name
        write_upload(
            ServeIngest.config, ServeIngest.intervals, seed, number, path
        )
        return path.read_bytes()

    first = upload(3, 0, "a.gz")
    assert first == upload(3, 0, "b.gz")
    assert first != upload(4, 0, "c.gz")
    assert first != upload(3, 1, "d.gz")


# -- the digest check ---------------------------------------------------


def test_digest_check_rejects_perturbed_result(tmp_path):
    result = SimResult(
        technique="PARA", seed=0, normal_activations=1000,
        extra_activations=3, mitigation_triggers=3, max_disturbance=17,
    )
    workload = PaperCampaign(0, tmp_path)
    workload.expected["campaign"] = results_digest([result])
    counter = _Counter(workload, oracle_ok=True)

    def op(simresult):
        return OpResult(
            wall=0.1, digest=results_digest([simresult]), cell_records=1,
            key="campaign",
        )

    counter.checked(op(replace(result, wall_seconds=9.0)))
    assert counter.failed == 0, "wall time is not part of the result"
    counter.checked(op(replace(result, extra_activations=4)))
    assert counter.failed == 1


def test_failed_oracle_fails_every_operation(tmp_path):
    workload = PaperCampaign(0, tmp_path)
    workload.expected["campaign"] = "abc"
    counter = _Counter(workload, oracle_ok=False)
    counter.checked(OpResult(wall=0.1, digest="abc", cell_records=1,
                             key="campaign"))
    assert counter.failed == 1
    # traced operations check their own digests, and fail here too
    counter.run_checked(lambda index: (0.1, {}, 0))
    assert (counter.attempted, counter.failed) == (1, 2)


# -- compare_ledger verdicts --------------------------------------------


def _ledger(values, seed=0, digest="d", failed=0, metric="wall_s_p50"):
    return {
        "schema": 1,
        "settings": {"seed": seed, "workloads": ["flood_grid"]},
        "sets": [
            {"kind": "untraced", "runs": {"flood_grid": {
                "attempted": 10, "failed": failed, "digest": digest,
                "metrics": {
                    name: {"value": value if name == metric else 1.0,
                           "unit": unit}
                    for name, unit in END_TO_END_UNITS.items()
                },
            }}}
            for value in values
        ],
    }


BASE = [1.00, 1.01, 0.99, 1.00]
SPEC = json.loads(SPEC_PATH.read_text(encoding="utf-8"))
WALL_BOUND = next(
    m["bound"] for m in SPEC["end_to_end"] if m["name"] == "wall_s_p50"
)


def _wall_verdict(base, new):
    rows, failures = compare_ledger.compare(_ledger(base), new, SPEC)
    row = next(line for line in rows if " wall_s_p50 " in line)
    return row.split()[-1], failures


def test_compare_flags_slowdown_beyond_bound():
    slower = 1 + 2 * WALL_BOUND
    verdict, failures = _wall_verdict(BASE, _ledger([v * slower for v in BASE]))
    assert verdict == "regressed"
    assert failures


def test_compare_passes_slowdown_within_bound():
    slower = 1 + WALL_BOUND / 4
    verdict, failures = _wall_verdict(BASE, _ledger([v * slower for v in BASE]))
    assert verdict == "ok"
    assert not failures


def test_compare_marks_wide_spread_unresolved():
    wide = [1 - 2 * WALL_BOUND, 1 + 2 * WALL_BOUND, 1.0, 1.0]
    verdict, failures = _wall_verdict(wide, _ledger([v * 1.02 for v in wide]))
    assert verdict == "unresolved"
    assert not failures


def test_compare_fails_on_digest_or_error_rate():
    _, failures = compare_ledger.compare(
        _ledger(BASE), _ledger(BASE, digest="other"), SPEC
    )
    assert any("digest" in reason for reason in failures)
    _, failures = compare_ledger.compare(
        _ledger(BASE), _ledger(BASE, failed=1), SPEC
    )
    assert any("error rate" in reason for reason in failures)


def test_compare_setup_absolute_floor():
    bound = next(
        m["bound"] for m in SPEC["end_to_end"] if m["name"] == "setup_s"
    )
    base = [0.1] * 4

    def failures(slower):
        return compare_ledger.compare(
            _ledger(base, metric="setup_s"),
            _ledger([v + slower for v in base], metric="setup_s"), SPEC,
        )[1]

    # past the relative bound, inside the 0.05 s floor
    assert 0.1 * bound < 0.04 < 0.05
    assert not failures(0.04)
    assert failures(0.06)


def test_committed_sets_agree_in_both_orders(capsys):
    entry = ROOT / "perfledger" / "ledger" / "BENCH_11.json"
    assert compare_ledger.main([f"{entry}@0", f"{entry}@1"]) == 0
    assert compare_ledger.main([f"{entry}@1", f"{entry}@0"]) == 0
    assert "regressed" not in capsys.readouterr().out


def test_compare_selects_one_set(tmp_path):
    path = tmp_path / "entry.json"
    path.write_text(json.dumps(_ledger([1.0, 2.0])), encoding="utf-8")
    second = compare_ledger.load_selection(f"{path}@1")
    assert [entry["runs"]["flood_grid"]["metrics"]["wall_s_p50"]["value"]
            for entry in second["sets"]] == [2.0]


# -- the contract -------------------------------------------------------


def test_benchmark_json_matches_emitted_metrics():
    spec = SPEC
    assert spec["paths"] == ["perfledger"]
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOAD_NAMES)
    assert list(WORKLOADS) == list(WORKLOAD_NAMES)
    for workload in spec["workloads"]:
        assert workload["why"] == WORKLOADS[workload["name"]].why
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER_UNITS
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())


def test_exits_nonzero_without_sources(tmp_path):
    shutil.copytree(ROOT / "perfledger", tmp_path / "perfledger",
                    ignore=shutil.ignore_patterns(".work", "out", "__pycache__"))
    shutil.copy(SPEC_PATH, tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "-m", "perfledger", "--workload", "flood_grid",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
        env={"PATH": "/usr/bin:/bin"},
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
