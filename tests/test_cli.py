"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_all_commands_registered(self):
        parser = build_parser()
        for command in ("table1", "table2", "table3", "fig4", "flood",
                        "policies", "trace", "run"):
            args = None
            try:
                if command in ("trace",):
                    args = parser.parse_args([command, "--out", "x"])
                elif command == "run":
                    args = parser.parse_args(
                        [command, "--technique", "PARA", "--trace", "x"]
                    )
                else:
                    args = parser.parse_args([command])
            except SystemExit:  # pragma: no cover
                pytest.fail(f"command {command} failed to parse")
            assert args.command == command


class TestBadInput:
    """Every subcommand's bad input exits 2 with one line on stderr and
    no traceback, before any work starts (1 stays "attack succeeded"
    for ``run`` and "differences" for ``manifest-diff``)."""

    @staticmethod
    def _fails(capsys, argv, needle):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.strip().splitlines()
        assert len(lines) == 1, captured.err
        assert lines[0].startswith(f"repro {argv[0]}: error: ")
        assert needle in lines[0]

    def test_run_missing_trace(self, tmp_path, capsys):
        self._fails(capsys, ["run", "--technique", "PARA", "--trace",
                             str(tmp_path / "missing.npz")], "missing.npz")

    def test_run_missing_trace_file(self, tmp_path, capsys):
        self._fails(capsys, ["run", "--technique", "PARA", "--trace-file",
                             str(tmp_path / "missing.log")], "missing.log")

    def test_run_unknown_technique(self, tmp_path, capsys):
        trace = tmp_path / "t.trc"
        assert main(["trace", "--out", str(trace), "--intervals", "2"]) == 0
        capsys.readouterr()
        self._fails(capsys, ["run", "--technique", "Nope", "--trace",
                             str(trace)], "unknown technique 'Nope'")

    def test_run_malformed_trace(self, tmp_path, capsys):
        trace = tmp_path / "bad.trc"
        trace.write_text("not a trace\n")
        self._fails(capsys, ["run", "--technique", "PARA", "--trace",
                             str(trace)], "bad.trc")

    def test_compare_unknown_technique(self, capsys):
        self._fails(capsys, ["compare", "--intervals", "2", "--techniques",
                             "PARA", "Nope"], "unknown technique 'Nope'")

    def test_campaign_unknown_technique_before_work(self, tmp_path, capsys):
        checkpoint = tmp_path / "ckpt"
        self._fails(capsys, ["campaign", "--checkpoint-dir", str(checkpoint),
                             "--intervals", "4", "--techniques", "Nope"],
                    "unknown technique 'Nope'")
        assert not checkpoint.exists()

    def test_campaign_missing_trace_file(self, tmp_path, capsys):
        self._fails(capsys, ["campaign", "--checkpoint-dir",
                             str(tmp_path / "ckpt"), "--trace-file",
                             str(tmp_path / "missing.log")], "missing.log")

    def test_ingest_missing_file(self, tmp_path, capsys):
        self._fails(capsys, ["ingest", str(tmp_path / "missing.log")],
                    "missing.log")

    def test_policies_unknown_technique(self, capsys):
        self._fails(capsys, ["policies", "--technique", "Nope"],
                    "unknown technique 'Nope'")

    def test_adversary_unknown_technique(self, capsys):
        self._fails(capsys, ["adversary", "--technique", "Nope",
                             "--budget", "1", "--preset", "small"],
                    "choose from")

    def test_trace_missing_output_directory(self, tmp_path, capsys):
        self._fails(capsys, ["trace", "--out",
                             str(tmp_path / "absent" / "t.trc")], "absent")

    def test_submit_unknown_technique(self, tmp_path, capsys):
        trace = tmp_path / "t.trc"
        trace.write_text("")
        self._fails(capsys, ["submit", str(trace), "--port", "1",
                             "--techniques", "Nope"],
                    "unknown technique 'Nope'")

    def test_campaign_worker_queue_dir_is_a_file(self, tmp_path, capsys):
        queue = tmp_path / "queue"
        queue.write_text("")
        self._fails(capsys, ["campaign-worker", str(queue), "--idle-exit",
                             "1"], "queue")

    def test_manifest_diff_missing_manifest(self, tmp_path, capsys):
        self._fails(capsys, ["manifest-diff", str(tmp_path / "a.json"),
                             str(tmp_path / "b.json")], "a.json")


class TestStaticCommands:
    def test_table1_prints_parameters(self, capsys):
        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "Refresh window" in out
        assert "8192" in out

    def test_table2_prints_cycles(self, capsys):
        assert main(["table2"]) == 0
        out = capsys.readouterr().out
        assert "CaPRoMi" in out
        assert "258" in out


class TestTraceRoundtrip:
    def test_trace_then_run(self, tmp_path, capsys):
        trace_path = str(tmp_path / "trace.txt")
        assert main(["trace", "--out", trace_path, "--intervals", "8"]) == 0
        out = capsys.readouterr().out
        assert "wrote" in out
        code = main(["run", "--technique", "PARA", "--trace", trace_path])
        out = capsys.readouterr().out
        assert "PARA" in out
        assert code == 0  # 8 intervals cannot flip anything

    def test_run_unmitigated(self, tmp_path, capsys):
        trace_path = str(tmp_path / "trace.txt")
        main(["trace", "--out", trace_path, "--intervals", "8"])
        capsys.readouterr()
        code = main(["run", "--technique", "none", "--trace", trace_path])
        out = capsys.readouterr().out
        assert "none" in out
        assert code == 0


class TestHeavyCommands:
    """The simulation-backed subcommands, at minimal scale."""

    def test_table3_small(self, capsys):
        assert main(["table3", "--intervals", "16", "--seeds", "1"]) == 0
        out = capsys.readouterr().out
        assert "LoLiPRoMi" in out
        assert "unmitigated flips" in out

    def test_fig4_small(self, capsys):
        assert main(["fig4", "--intervals", "16", "--seeds", "1"]) == 0
        out = capsys.readouterr().out
        assert "table bytes/bank" in out

    def test_policies_small(self, capsys):
        assert main(["policies", "--intervals", "16", "--seeds", "1"]) == 0
        out = capsys.readouterr().out
        assert "counter-mask" in out

    def test_flood_small(self, capsys):
        assert main(["flood", "--start-weights", "4096", "--seeds", "2"]) == 0
        out = capsys.readouterr().out
        assert "start weight" in out


class TestAdversary:
    """The red-team fuzzer subcommand, at smoke scale."""

    SMALL = ["adversary", "--technique", "lipromi", "--preset", "small",
             "--budget", "9", "--eval-seeds", "1"]

    def test_random_strategy_smoke(self, tmp_path, capsys):
        frontier_path = tmp_path / "frontier.json"
        code = main(self.SMALL + ["--strategy", "random",
                                  "--frontier-out", str(frontier_path)])
        out = capsys.readouterr().out
        assert code == 0
        assert "LiPRoMi" in out
        assert "acts to 1st mitigation" in out
        import json

        frontier = json.loads(frontier_path.read_text(encoding="utf-8"))
        assert frontier["technique"] == "LiPRoMi"
        assert frontier["points"]

    def test_evolve_beats_corpus(self, capsys):
        code = main(self.SMALL + ["--strategy", "evolve", "--budget", "21",
                                  "--eval-seeds", "2", "--pbase-exp", "12"])
        out = capsys.readouterr().out
        assert code == 0
        assert "improvement" in out

    def test_checkpoint_and_resume_roundtrip(self, tmp_path, capsys):
        ckpt = str(tmp_path / "ck")
        argv = self.SMALL + ["--checkpoint-dir", ckpt]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv + ["--resume"]) == 0
        second = capsys.readouterr().out
        assert first == second

    def test_manifest_embeds_frontier(self, tmp_path, capsys):
        import json

        manifest_path = tmp_path / "manifest.json"
        assert main(self.SMALL + ["--manifest", str(manifest_path)]) == 0
        capsys.readouterr()
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
        extra = manifest["extra"]
        assert extra["command"] == "adversary"
        assert extra["frontier"]["technique"] == "LiPRoMi"
        assert extra["frontier"]["points"]

    def test_unknown_technique_fails(self, capsys):
        code = main(["adversary", "--technique", "NoSuch", "--budget", "1",
                     "--preset", "small"])
        assert code == 2
        assert "choose from" in capsys.readouterr().err


class TestObservabilityCli:
    """--metrics-out exports and the campaign-status live modes."""

    CAMPAIGN = ["campaign", "--intervals", "8", "--seeds", "2",
                "--techniques", "PARA", "--workers", "0"]

    def run_campaign(self, tmp_path, *extra):
        ckpt = tmp_path / "ckpt"
        code = main(self.CAMPAIGN + ["--checkpoint-dir", str(ckpt)]
                    + list(extra))
        assert code == 0
        return ckpt

    def test_metrics_out_prometheus_round_trips(self, tmp_path, capsys):
        import json

        from repro.telemetry import registry_from_prometheus
        from repro.telemetry.export import parse_prometheus

        export = tmp_path / "metrics.prom"
        manifest = tmp_path / "manifest.json"
        self.run_campaign(tmp_path, "--metrics-out", str(export),
                          "--manifest", str(manifest))
        err = capsys.readouterr().err
        assert "wrote metrics export" in err
        text = export.read_text(encoding="utf-8")
        registry = registry_from_prometheus(text)
        assert registry.counters["campaign.shards_completed"].value == 2
        # span summary rode along: the campaign tree is in the export
        span_paths = parse_prometheus(text)["span_paths"]
        assert span_paths["campaign/shard"] == 2
        assert "campaign/shard/simulate" in span_paths
        # and the manifest records the export provenance
        extra = json.loads(manifest.read_text())["extra"]
        assert extra["metrics_export"] == {
            "path": str(export), "format": "prometheus",
        }

    def test_metrics_out_jsonl(self, tmp_path, capsys):
        from repro.telemetry.export import parse_jsonl

        export = tmp_path / "metrics.jsonl"
        self.run_campaign(tmp_path, "--metrics-out", str(export))
        capsys.readouterr()
        parsed = parse_jsonl(export.read_text(encoding="utf-8"))
        assert parsed["counters"]["campaign.shards_completed"]["value"] == 2
        assert parsed["span_paths"]["campaign"] == 1

    def test_campaign_status_once_emits_json_frame(self, tmp_path, capsys):
        import json

        ckpt = self.run_campaign(tmp_path)
        capsys.readouterr()
        assert main(["campaign-status", str(ckpt), "--once"]) == 0
        frame = json.loads(capsys.readouterr().out)
        assert frame["snapshot"]["complete"] is True
        assert frame["snapshot"]["done"] == 2
        assert frame["store"] == {
            "completed": 2, "total": 2, "complete": True, "failures": 0,
        }
        assert [w["worker"] for w in frame["workers"]] == \
            ["PARA__s0", "PARA__s1"]
        assert all(w["phase"] == "done" for w in frame["workers"])
        assert frame["stale"] == []

    def test_campaign_status_follow_exits_on_complete(self, tmp_path,
                                                      capsys):
        import json

        ckpt = self.run_campaign(tmp_path)
        capsys.readouterr()
        assert main(["campaign-status", str(ckpt), "--follow",
                     "--json", "--interval", "0.01"]) == 0
        frames = [json.loads(line)
                  for line in capsys.readouterr().out.splitlines()]
        assert frames
        assert frames[-1]["snapshot"]["complete"] is True

    def test_campaign_status_once_before_campaign_exists(self, tmp_path,
                                                         capsys):
        import json

        assert main(["campaign-status", str(tmp_path / "nope"),
                     "--once"]) == 0
        frame = json.loads(capsys.readouterr().out)
        assert frame["snapshot"] is None
        assert frame["store"] is None

    def test_plain_status_still_errors_without_checkpoint(self, capsys,
                                                          tmp_path):
        assert main(["campaign-status", str(tmp_path / "nope")]) == 2
        assert "no campaign checkpoint" in capsys.readouterr().err

    def test_adversary_metrics_out_records_generations(self, tmp_path,
                                                       capsys):
        from repro.telemetry.export import parse_jsonl

        export = tmp_path / "adversary.jsonl"
        code = main(["adversary", "--technique", "lipromi", "--preset",
                     "small", "--budget", "9", "--eval-seeds", "1",
                     "--metrics-out", str(export)])
        capsys.readouterr()
        assert code == 0
        parsed = parse_jsonl(export.read_text(encoding="utf-8"))
        assert parsed["span_paths"]["search"] == 1
        assert parsed["span_paths"].get("search/generation", 0) >= 1


def profile_rows(out):
    """The ``--profile`` table printed at the end of *out*:
    ``[(depth, name, seconds, calls, share_pct)]`` in print order."""
    import re

    lines = out.splitlines()
    start = max(i for i, line in enumerate(lines) if line.startswith("span "))
    rows = []
    for line in lines[start + 2:]:
        if line.startswith("total"):
            break
        indent, name, seconds, calls, share = re.match(
            r"( *)(\S+) +(\S+) +(\d+) +(\S+)%$", line.rstrip()
        ).groups()
        rows.append((
            len(indent) // 2, name, float(seconds), int(calls), float(share),
        ))
    return rows


class TestProfileCli:
    """``--profile`` prints the run's span tree: per-technique lanes and
    shards get rows of their own, and the root rows' shares -- each of
    the total root wall -- add up to 100% (within print rounding)."""

    @staticmethod
    def profile(capsys, argv):
        assert main(argv + ["--profile"]) in (0, 1)
        rows = profile_rows(capsys.readouterr().out)
        roots = [row for row in rows if row[0] == 0]
        assert roots
        assert sum(row[4] for row in roots) <= 100.0 + 0.05 * len(roots)
        return {name for _, name, _, _, _ in rows}, rows

    def test_run_reference_rows(self, capsys):
        names, rows = self.profile(capsys, [
            "run", "--technique", "PARA",
            "--trace", "tests/fixtures/golden_trace.txt",
        ])
        assert names == {"setup", "replay", "drain"}

    def test_compare_fused_has_per_technique_lane_rows(self, capsys):
        techniques = ["PARA", "TWiCe", "LiPRoMi"]
        names, rows = self.profile(capsys, [
            "compare", "--engine", "fused", "--intervals", "16",
            "--seeds", "2", "--include-unmitigated",
            "--techniques", *techniques,
        ])
        for technique in techniques:
            assert f"decide[{technique}]" in names
            assert f"resolve[{technique}]" in names
        assert {"trace", "grid", "decode", "device[none]"} <= names
        lanes = [row for row in rows if row[1] == "decide[PARA]"]
        assert lanes[0][0] == 1 and lanes[0][3] == 2  # under grid, per seed

    def test_campaign_rows(self, capsys, tmp_path):
        names, rows = self.profile(capsys, [
            "campaign", "--intervals", "8", "--seeds", "2",
            "--techniques", "PARA", "TWiCe", "--workers", "0",
            "--engine", "fused", "--checkpoint-dir", str(tmp_path / "ckpt"),
        ])
        assert [row[1] for row in rows if row[0] == 0] == ["campaign"]
        assert {"traces", "dispatch", "shard[PARA]", "shard[TWiCe]"} <= names
        depth = {(row[0], row[1]) for row in rows}
        assert (2, "trace") in depth and (2, "simulate") in depth

    def test_resumed_campaign_times_only_this_invocation(self, capsys, tmp_path):
        """Shards an earlier invocation ran stay in the span summary but
        carry no clock readings, so the profile covers this run only."""
        from repro.telemetry.export import parse_jsonl

        argv = [
            "campaign", "--intervals", "8", "--seeds", "2",
            "--techniques", "PARA", "--workers", "0", "--engine", "fused",
            "--checkpoint-dir", str(tmp_path / "ckpt"),
        ]
        assert main(argv) == 0
        export = tmp_path / "resumed.jsonl"
        names, rows = self.profile(
            capsys, argv + ["--resume", "--metrics-out", str(export)]
        )
        assert names == {"campaign", "traces", "dispatch"}
        paths = parse_jsonl(export.read_text(encoding="utf-8"))["span_paths"]
        assert paths["campaign/shard"] == 2

    def test_adversary_rows(self, capsys):
        names, rows = self.profile(capsys, [
            "adversary", "--technique", "lipromi", "--preset", "small",
            "--budget", "4", "--eval-seeds", "1", "--workers", "0",
        ])
        assert rows[0][:2] == (0, "search[LiPRoMi]")
        assert "generation" in names


class TestServeCli:
    def test_serve_and_submit_parse(self):
        parser = build_parser()
        args = parser.parse_args(["serve", "--port", "0", "--shards", "3"])
        assert (args.command, args.shards, args.engine) == ("serve", 3, "fused")
        args = parser.parse_args([
            "submit", "trace.gz", "--port", "7777",
            "--techniques", "PARA", "none", "--seeds", "2",
            "--clock-ns", "45", "--summary-only",
        ])
        assert args.command == "submit"
        assert args.techniques == ["PARA", "none"]
        assert args.summary_only

    def test_submit_against_no_server_exits_3(self, tmp_path, capsys):
        trace = tmp_path / "t.trc"
        trace.write_text("0,ACT,0x0\n")
        # a bound-then-closed socket yields a port nothing listens on
        import socket

        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        assert main(["submit", str(trace), "--port", str(port)]) == 3
        assert "connection" in capsys.readouterr().err

    def test_submit_missing_trace_file(self, tmp_path, capsys):
        code = main(["submit", str(tmp_path / "absent.trc"), "--port", "1"])
        assert code == 2
        assert "not found" in capsys.readouterr().err


class TestCampaignStatusPipe:
    def test_follow_json_survives_a_closed_pipe(self, tmp_path):
        """`campaign-status --follow --json | head -1` must exit clean.

        The downstream consumer closes the pipe after the first frame;
        the follow loop must treat the resulting BrokenPipeError as a
        normal stop -- no traceback, exit code 0 -- and every frame
        must be flushed as a complete line (head would hang forever on
        a block-buffered writer that never fills its buffer).
        """
        import json
        import os
        import subprocess
        import sys
        from pathlib import Path

        repo_root = Path(__file__).resolve().parents[1]
        env = dict(os.environ)
        env["PYTHONPATH"] = str(repo_root / "src")
        proc = subprocess.run(
            [
                "bash", "-c",
                f"{sys.executable} -m repro campaign-status "
                f"{tmp_path} --follow --json --interval 0.05 | head -1",
            ],
            capture_output=True, text=True, timeout=60, env=env,
            cwd=repo_root,
        )
        assert proc.returncode == 0
        assert "Traceback" not in proc.stderr
        frame = json.loads(proc.stdout.strip())
        assert frame["snapshot"] is None  # empty dir: bus not written yet


class TestDistributedCli:
    """The queue executor lane and campaign-worker entry point."""

    CAMPAIGN = ["campaign", "--intervals", "8", "--seeds", "2",
                "--techniques", "PARA", "TWiCe", "--engine", "fast"]

    @staticmethod
    def canonical(ckpt):
        from repro.campaign import CampaignStore

        aggregates = CampaignStore(ckpt).partial_aggregates()
        return {
            name: [result.as_dict() for result in aggregate.results]
            for name, aggregate in aggregates.items()
        }

    def test_campaign_parses_executor_flags(self):
        parser = build_parser()
        args = parser.parse_args(self.CAMPAIGN + [
            "--checkpoint-dir", "ckpt",
            "--executor", "queue", "--queue-dir", "q",
            "--queue-workers", "2", "--lease-timeout", "5",
        ])
        assert args.executor == "queue"
        assert args.queue_dir == "q"
        assert args.queue_workers == 2
        assert args.lease_timeout == 5.0
        # executor lane names are validated at parse time
        with pytest.raises(SystemExit):
            parser.parse_args(self.CAMPAIGN + ["--checkpoint-dir", "ckpt",
                                               "--executor", "rdma"])

    def test_campaign_worker_parses(self):
        parser = build_parser()
        args = parser.parse_args([
            "campaign-worker", "qdir", "--poll-interval", "0.1",
            "--idle-exit", "3", "--max-shards", "7",
            "--lease-refresh", "0.5", "--quiet",
        ])
        assert args.command == "campaign-worker"
        assert args.queue_dir == "qdir"
        assert args.poll_interval == 0.1
        assert args.idle_exit == 3.0
        assert args.max_shards == 7
        assert args.lease_refresh == 0.5
        assert args.quiet

    def test_queue_campaign_matches_serial(self, tmp_path, capsys):
        """`--executor queue` with self-spawned workers lands the same
        bytes in the store as the serial lane, and the queue directory
        defaults to living under the checkpoint."""
        serial = tmp_path / "serial"
        code = main(self.CAMPAIGN + ["--workers", "0",
                                     "--checkpoint-dir", str(serial)])
        assert code == 0
        queued = tmp_path / "queued"
        code = main(self.CAMPAIGN + [
            "--executor", "queue", "--queue-workers", "2",
            "--lease-timeout", "30", "--checkpoint-dir", str(queued),
        ])
        capsys.readouterr()
        assert code == 0
        assert (queued / "queue" / "queue.json").is_file()
        assert self.canonical(queued) == self.canonical(serial)

    def test_queue_dir_flag_selects_queue_lane(self, tmp_path, capsys):
        """--queue-dir alone implies the queue executor; the campaign
        completes through it without --executor spelled out."""
        ckpt = tmp_path / "ckpt"
        code = main(self.CAMPAIGN + [
            "--queue-dir", str(tmp_path / "fabric"),
            "--queue-workers", "2", "--lease-timeout", "30",
            "--checkpoint-dir", str(ckpt),
        ])
        capsys.readouterr()
        assert code == 0
        assert (tmp_path / "fabric" / "queue.json").is_file()
        from repro.campaign import CampaignStore

        assert CampaignStore(ckpt).status().complete

    def test_status_frame_carries_incremental_aggregates(self, tmp_path,
                                                         capsys):
        import json

        ckpt = tmp_path / "ckpt"
        assert main(self.CAMPAIGN + ["--workers", "0",
                                     "--checkpoint-dir", str(ckpt)]) == 0
        capsys.readouterr()
        assert main(["campaign-status", str(ckpt), "--once"]) == 0
        frame = json.loads(capsys.readouterr().out)
        assert set(frame["aggregates"]) == {"PARA", "TWiCe"}
        assert frame["aggregates"]["PARA"]["runs"] == 2
        # the human view folds the same partial aggregates in
        assert main(["campaign-status", str(ckpt)]) == 0
        out = capsys.readouterr().out
        assert "PARA" in out and "TWiCe" in out
