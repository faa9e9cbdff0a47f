"""Filesystem work-queue: protocol units plus worker-kill integration.

Unit coverage of the on-disk protocol (ticket and block-ticket round
trips, atomic claim semantics, lease expiry, torn-file quarantine and
sweeping, self-heal evidence, refusal of tickets of another schema)
and the headline integration scenarios from ``docs/distributed.md``: a
leased worker SIGKILLed mid-shard is reclaimed via lease expiry and the
campaign still finishes bit-identical to a single-host pool run, and a
queue campaign whose *driver* is SIGKILLed resumes bit-identically on
another executor.  ``TestBlockTickets`` repeats the failure scenarios
for fused block tickets (one ticket per seed), which a campaign without
a retry policy, fault injector or tracer publishes.
"""

import contextlib
import json
import os
import signal
import subprocess
import sys
import textwrap
import threading
import time

import pytest

from repro.campaign import (
    CampaignStore,
    FaultInjector,
    QueueExecutor,
    RemoteShardError,
    ShardTicket,
    WorkQueue,
    run_durable_campaign,
    run_worker,
)
from repro.campaign.faults import FAULT_ENV_VAR
from repro.campaign.queue import QUEUE_SCHEMA_VERSION, TicketSchemaError
from repro.config import small_test_config
from repro.sim.executors import CampaignJob, ShardTimeout, _run_job
from repro.sim.parallel import RetryPolicy, run_campaign
from repro.telemetry.metrics import MetricsRegistry
from repro.telemetry.statusbus import write_json_atomic

TECHNIQUES = ("PARA", "TWiCe")
SEEDS = (0, 1)

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(__file__)))


def canonical(aggregates):
    return {
        name: [result.as_dict() for result in aggregate.results]
        for name, aggregate in aggregates.items()
    }


def make_job(config, technique="PARA", seed=0, **kwargs):
    kwargs.setdefault("engine", "fast")
    return CampaignJob(
        config=config, techniques=(technique,), seed=seed, total_intervals=8,
        **kwargs,
    )


def make_block(config, techniques=("PARA", "TWiCe"), seed=0, **kwargs):
    kwargs.setdefault("engine", "fused")
    return CampaignJob(
        config=config, techniques=tuple(techniques), seed=seed,
        total_intervals=8, **kwargs,
    )


def spawn_worker(queue_dir, *extra):
    """An external ``repro campaign-worker`` subprocess, like another
    host's would be."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(REPO_ROOT, "src")
    return subprocess.Popen(
        [
            sys.executable, "-m", "repro", "campaign-worker",
            str(queue_dir), "--poll-interval", "0.05",
            "--lease-refresh", "0.2", *extra,
        ],
        env=env, cwd=REPO_ROOT,
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )


def reap(procs, queue_dir):
    """Drain external workers: raise the stop sentinel, then escalate."""
    WorkQueue(queue_dir).request_stop()
    for proc in procs:
        if proc.poll() is None:
            try:
                proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()


def live_group_members(pgid):
    """The pids of process group *pgid* that are still running (zombies
    awaiting their reaper are dead)."""
    if not os.path.isdir("/proc"):
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return []
        return [pgid]
    live = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="utf-8") as handle:
                stat = handle.read()
        except OSError:
            continue  # exited while we looked
        # the fields after ``(comm)``: state, ppid, pgrp, ...
        state, _ppid, pgrp = stat.rsplit(")", 1)[1].split()[:3]
        if int(pgrp) == pgid and state != "Z":
            live.append(int(entry))
    return live


def wait_until(predicate, timeout=60.0, interval=0.05, message="condition"):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        value = predicate()
        if value:
            return value
        time.sleep(interval)
    pytest.fail(f"timed out after {timeout:.0f}s waiting for {message}")


class TestQueueProtocol:
    def test_ticket_round_trips_through_json(self, tmp_path):
        config = small_test_config(num_banks=2)
        injector = FaultInjector.from_rules([{"mode": "error"}])
        job = make_job(
            config, workload_kwargs=(("attack_fraction", 0.5),),
            collect_metrics=True, collect_spans=True, span_seed="abc",
            fault_injector=injector,
        )
        ticket = ShardTicket.from_job(job, attempt=3)
        rebuilt = ShardTicket.from_dict(json.loads(json.dumps(
            ticket.as_dict()
        )))
        back = rebuilt.to_job(tmp_path)
        assert back.config == job.config
        assert back.workload_kwargs == job.workload_kwargs
        assert (back.techniques, back.seed, back.engine) == (
            ("PARA",), 0, "fast"
        )
        assert back.attempt == 3
        assert back.collect_metrics and back.collect_spans
        assert back.span_seed == "abc"
        assert back.fault_injector == injector
        assert back.status_dir is None  # workers heartbeat the queue bus

    def test_claim_is_exclusive_and_starts_the_liveness_clock(self, tmp_path):
        config = small_test_config(num_banks=2)
        wq = WorkQueue(tmp_path)
        wq.ensure_layout()
        wq.publish_ticket(ShardTicket.from_job(make_job(config)))
        before = time.time()
        ticket, lease = wq.claim_ticket()
        assert ticket.shard == "PARA__s0"
        assert lease.is_file() and not wq.ticket_path("PARA__s0").exists()
        # claim re-stamps the lease mtime: liveness starts at claim
        # time, not at whenever the runner published the ticket
        assert lease.stat().st_mtime >= before - 1.0
        assert wq.claim_ticket() is None  # nothing left to lease

    def test_torn_ticket_is_quarantined_not_retried(self, tmp_path):
        wq = WorkQueue(tmp_path)
        wq.ensure_layout()
        wq.ticket_path("PARA__s0").write_text("{torn", encoding="utf-8")
        assert wq.claim_ticket() is None
        assert not wq.ticket_path("PARA__s0").exists()
        assert not wq.lease_path("PARA__s0").exists()
        quarantined = list(wq.failed_dir.glob("*.corrupt"))
        assert len(quarantined) == 1
        # a quarantined shard counts as absent: the runner's self-heal
        # evidence set must demand a fresh ticket for it
        assert "PARA__s0" not in wq.present_shards()

    def test_lease_expiry_and_reclaim(self, tmp_path):
        config = small_test_config(num_banks=2)
        wq = WorkQueue(tmp_path)
        wq.ensure_layout()
        wq.publish_ticket(ShardTicket.from_job(make_job(config)))
        _, lease = wq.claim_ticket()
        assert wq.expired_leases(timeout=60.0) == []
        os.utime(lease, (1, 1))  # the holder went silent long ago
        expired = wq.expired_leases(timeout=60.0)
        assert [shard for shard, _ in expired] == ["PARA__s0"]
        ticket = wq.reclaim_lease(lease)
        assert ticket is not None and ticket.shard == "PARA__s0"
        assert not lease.exists()
        # a touch from a live holder resets the clock
        wq.publish_ticket(ShardTicket.from_job(make_job(config)))
        _, lease = wq.claim_ticket()
        os.utime(lease, (1, 1))
        wq.touch(lease)
        assert wq.expired_leases(timeout=60.0) == []

    def test_torn_lease_reclaim_and_result_sweep(self, tmp_path):
        wq = WorkQueue(tmp_path)
        wq.ensure_layout()
        torn_lease = wq.lease_path("PARA__s0")
        torn_lease.write_text("{torn", encoding="utf-8")
        assert wq.reclaim_lease(torn_lease) is None
        assert not torn_lease.exists()
        wq.result_path("PARA__s1").write_text("{torn", encoding="utf-8")
        assert wq.read_results() == {}
        assert wq.sweep_torn_results() == 1
        assert not wq.result_path("PARA__s1").exists()

    def test_present_shards_covers_every_stage(self, tmp_path):
        config = small_test_config(num_banks=2)
        wq = WorkQueue(tmp_path)
        wq.ensure_layout()
        wq.publish_ticket(ShardTicket.from_job(make_job(config, seed=0)))
        wq.publish_ticket(ShardTicket.from_job(make_job(config, seed=1)))
        _, lease = wq.claim_ticket()  # seed 0 moves to leases/
        wq.write_result({"shard": "TWiCe__s0", "technique": "TWiCe"})
        wq.write_failure(
            ShardTicket.from_job(make_job(config, technique="TWiCe", seed=1)),
            kind="error", error="boom",
        )
        assert wq.present_shards() == {
            "PARA__s0", "PARA__s1", "TWiCe__s0", "TWiCe__s1",
        }
        # failure reports are consumed exactly once
        reports = wq.take_failures()
        assert [r["shard"] for r in reports] == ["TWiCe__s1"]
        assert reports[0]["kind"] == "error"
        assert wq.take_failures() == []

    def test_stop_sentinel_drains_an_idle_worker(self, tmp_path):
        wq = WorkQueue(tmp_path)
        wq.ensure_layout()
        wq.request_stop()
        assert run_worker(tmp_path, poll_interval=0.01) == 0

    def test_worker_runs_a_ticket_and_pushes_the_result(self, tmp_path):
        config = small_test_config(num_banks=2)
        wq = WorkQueue(tmp_path)
        wq.ensure_layout()
        wq.publish_ticket(ShardTicket.from_job(make_job(config)))
        assert run_worker(tmp_path, poll_interval=0.01, max_shards=1) == 0
        results = wq.read_results()
        assert set(results) == {"PARA__s0"}
        record = results["PARA__s0"]
        assert record["technique"] == "PARA" and record["seed"] == 0
        assert record["worker"]["pid"] == os.getpid()
        assert not list(wq.leases_dir.glob("*.json"))  # lease released
        beats = {
            beat.worker: beat for beat in wq.status_bus().read_heartbeats()
        }
        assert beats["PARA__s0"].phase == "done"

    def test_worker_reports_a_failing_shard(self, tmp_path):
        config = small_test_config(num_banks=2)
        wq = WorkQueue(tmp_path)
        wq.ensure_layout()
        injector = FaultInjector.from_rules([{"mode": "error"}])
        wq.publish_ticket(ShardTicket.from_job(
            make_job(config, fault_injector=injector)
        ))
        assert run_worker(tmp_path, poll_interval=0.01, idle_exit=0.2) == 0
        assert wq.read_results() == {}
        reports = wq.take_failures()
        assert len(reports) == 1
        assert reports[0]["shard"] == "PARA__s0"
        assert reports[0]["kind"] == "error"
        assert "InjectedFault" in reports[0]["error"]
        assert not list(wq.leases_dir.glob("*.json"))

    def test_block_ticket_round_trips_through_json(self, tmp_path):
        config = small_test_config(num_banks=2)
        block = make_block(
            config, techniques=(None, "PARA"), seed=3, engine="fast",
            workload_kwargs=(("attack_fraction", 0.5),),
            collect_metrics=True, collect_spans=True, span_seed="abc",
        )
        ticket = ShardTicket.from_job(block, trace="trace-0.npz")
        assert ticket.shard == "block__s3"
        assert ticket.shards == ["none__s3", "PARA__s3"]
        data = json.loads(json.dumps(ticket.as_dict()))
        assert data["schema_version"] == QUEUE_SCHEMA_VERSION
        assert data["techniques"] == [None, "PARA"]
        back = ShardTicket.from_dict(data).to_job(tmp_path)
        assert back == make_block(
            config, techniques=(None, "PARA"), seed=3, engine="fast",
            workload_kwargs=(("attack_fraction", 0.5),),
            collect_metrics=True, collect_spans=True, span_seed="abc",
            trace_path=str(tmp_path / "traces" / "trace-0.npz"),
        )

    def test_worker_runs_a_block_ticket_and_pushes_one_result_per_shard(
        self, tmp_path
    ):
        config = small_test_config(num_banks=2)
        block = make_block(config, collect_metrics=True)
        wq = WorkQueue(tmp_path)
        wq.ensure_layout()
        wq.publish_ticket(ShardTicket.from_job(block))
        lines = []
        assert run_worker(
            tmp_path, poll_interval=0.01, max_shards=2, log=lines.append,
        ) == 0
        assert sum("leased block__s0 (2 shards" in line for line in lines) == 1
        results = wq.read_results()
        assert set(results) == {"PARA__s0", "TWiCe__s0"}
        expected = {
            record.technique: record.as_dict() for record in _run_job(block)
        }
        for shard, record in results.items():
            technique = shard.split("__")[0]
            assert record["result"]["technique"] == technique
            assert record["result"] == {
                **expected[technique]["result"],
                "wall_seconds": record["result"]["wall_seconds"],
            }
            assert record["attempts"] == 1
        # the block's one metrics registry ships on its first shard only
        assert results["PARA__s0"]["metrics"] is not None
        assert results["TWiCe__s0"]["metrics"] is None
        assert not list(wq.leases_dir.glob("*.json"))  # lease released
        beats = {
            beat.worker: beat for beat in wq.status_bus().read_heartbeats()
        }
        assert {beats[shard].phase for shard in results} == {"done"}

    def test_worker_refuses_a_ticket_of_another_schema(self, tmp_path):
        """A ticket written for another queue schema is never run as
        something else: the worker files a failure report naming both
        versions instead."""
        config = small_test_config(num_banks=2)
        wq = WorkQueue(tmp_path)
        wq.ensure_layout()
        path = wq.publish_ticket(ShardTicket.from_job(make_job(config)))
        data = json.loads(path.read_text(encoding="utf-8"))
        data["schema_version"] = 99
        write_json_atomic(path, data)
        assert run_worker(tmp_path, poll_interval=0.01, idle_exit=0.2) == 0
        assert wq.read_results() == {}
        assert not list(wq.leases_dir.glob("*.json"))
        assert not list(wq.failed_dir.glob("*.corrupt"))
        reports = wq.take_failures()
        assert [report["shard"] for report in reports] == ["PARA__s0"]
        assert "schema version 99" in reports[0]["error"]
        assert f"schema version {QUEUE_SCHEMA_VERSION}" in reports[0]["error"]


    def test_schema_2_ticket_is_refused(self):
        """A ticket of the two-kind layout (``technique`` on one-shard
        tickets) is refused, not misread, naming both versions."""
        data = ShardTicket.from_job(
            make_job(small_test_config(num_banks=2))
        ).as_dict()
        del data["techniques"]
        data.update(schema_version=2, technique="PARA")
        with pytest.raises(TicketSchemaError) as refused:
            ShardTicket.from_dict(data)
        assert "schema version 2" in str(refused.value)
        assert f"schema version {QUEUE_SCHEMA_VERSION}" in str(refused.value)
        assert QUEUE_SCHEMA_VERSION == 3


class TestQueueCampaigns:
    def test_external_workers_only(self, tmp_path):
        """The multi-host mode: the runner publishes work and waits;
        workers started separately (here: subprocesses) drain it."""
        config = small_test_config(num_banks=2)
        qdir = tmp_path / "q"
        workers = [spawn_worker(qdir), spawn_worker(qdir)]
        try:
            queued = run_campaign(
                config, 8, techniques=TECHNIQUES, seeds=SEEDS,
                engine="fast",
                executor=QueueExecutor(
                    qdir, workers=0, lease_timeout=30.0, poll_interval=0.05,
                ),
            )
        finally:
            reap(workers, qdir)
        reference = run_campaign(
            config, 8, techniques=TECHNIQUES, seeds=SEEDS, workers=2,
            engine="fast",
        )
        assert canonical(queued) == canonical(reference)

    def test_sigkilled_worker_is_reclaimed_bit_identically(self, tmp_path):
        """The headline distributed guarantee: SIGKILL a worker while
        it holds a lease; the lease expires, the shard re-runs on the
        surviving worker, and the final aggregates are bit-identical
        to a single-host pool run -- with the kill accounted as one
        ``timeout`` retry."""
        config = small_test_config(num_banks=2)
        qdir = tmp_path / "q"
        ckpt = tmp_path / "ckpt"
        # first attempt of PARA/seed 0 stalls long enough to be killed
        # mid-shard; the re-ticketed attempt 1 runs clean
        injector = FaultInjector.from_rules([{
            "mode": "hang", "technique": "PARA", "seed": 0,
            "attempts": [0], "seconds": 120.0,
        }])
        metrics = MetricsRegistry()
        box = {}

        def drive():
            box["aggregates"] = run_durable_campaign(
                config, 8, ckpt, techniques=TECHNIQUES, seeds=SEEDS,
                engine="fast",
                executor=QueueExecutor(
                    qdir, workers=0, lease_timeout=2.0, poll_interval=0.05,
                ),
                retry=RetryPolicy(max_retries=2, backoff_base=0),
                fault_injector=injector, sleep=lambda seconds: None,
                metrics=metrics,
            )

        workers = [spawn_worker(qdir), spawn_worker(qdir)]
        driver = threading.Thread(target=drive, name="queue-driver")
        driver.start()
        try:
            bus = WorkQueue(qdir).status_bus()

            def hung_worker_pid():
                for beat in bus.read_heartbeats():
                    if beat.worker == "PARA__s0" and beat.phase == "running":
                        return beat.pid
                return None

            pid = wait_until(hung_worker_pid,
                             message="a worker to lease the hung shard")
            os.kill(pid, signal.SIGKILL)
            driver.join(timeout=120)
            assert not driver.is_alive(), "campaign did not finish"
        finally:
            reap(workers, qdir)
            driver.join(timeout=10)
        assert "aggregates" in box
        reference = run_campaign(
            config, 8, techniques=TECHNIQUES, seeds=SEEDS, workers=2,
            engine="fast",
        )
        assert canonical(box["aggregates"]) == canonical(reference)
        assert not box["aggregates"].failures
        counters = metrics.as_dict()["counters"]
        assert counters["campaign.shard_timeouts"]["value"] >= 1
        assert counters["campaign.shard_retries"]["value"] >= 1
        assert CampaignStore(ckpt).status().complete

    def test_sigkilled_driver_resumes_bit_identical(self, tmp_path):
        """Kill the *runner* of a queue campaign mid-run: the shards
        its workers completed are already checkpointed, and a serial
        resume finishes the rest bit-identically -- executor choice is
        invisible to the durable-campaign contract."""
        ckpt = tmp_path / "ckpt"
        qdir = tmp_path / "q"
        driver = textwrap.dedent(
            """
            from repro.campaign import (
                FaultInjector, QueueExecutor, run_durable_campaign,
            )
            from repro.config import small_test_config

            run_durable_campaign(
                small_test_config(num_banks=2),
                total_intervals=8,
                checkpoint_dir={ckpt!r},
                techniques=("PARA", "TWiCe"),
                seeds=(0, 1),
                engine="fast",
                executor=QueueExecutor(
                    {qdir!r}, workers=2, poll_interval=0.05,
                ),
                fault_injector=FaultInjector.from_env(),
            )
            """
        ).format(ckpt=str(ckpt), qdir=str(qdir))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(REPO_ROOT, "src")
        env[FAULT_ENV_VAR] = json.dumps([{
            "mode": "hang", "technique": "TWiCe", "seed": 1,
            "seconds": 120,
        }])
        # the driver leads a process group of its own, which the
        # workers it spawns join: killing the group takes them along
        proc = subprocess.Popen(
            [sys.executable, "-c", driver], env=env, cwd=REPO_ROOT,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            start_new_session=True,
        )
        store = CampaignStore(ckpt)
        try:
            deadline = time.monotonic() + 60
            while time.monotonic() < deadline:
                if store.exists and store.status().completed:
                    break
                if proc.poll() is not None:
                    _, stderr = proc.communicate()
                    pytest.fail(
                        "queue campaign exited before being killed:\n"
                        + stderr.decode("utf-8", "replace")
                    )
                time.sleep(0.05)
            else:
                pytest.fail("no shard was checkpointed within 60s")
        finally:
            # the hung worker reads no stop sentinel before its 120 s
            # hang ends, so the driver goes down with all its workers
            with contextlib.suppress(ProcessLookupError):
                os.killpg(proc.pid, signal.SIGKILL)
            proc.wait(timeout=30)
        wait_until(
            lambda: not live_group_members(proc.pid),
            timeout=30, message="the driver's workers to die",
        )

        completed = len(store.status().completed)
        assert 1 <= completed < len(TECHNIQUES) * len(SEEDS)
        resumed = run_durable_campaign(
            small_test_config(num_banks=2), 8, ckpt, resume=True,
            techniques=TECHNIQUES, seeds=SEEDS, workers=0, engine="fast",
        )
        reference = run_campaign(
            small_test_config(num_banks=2), 8, techniques=TECHNIQUES,
            seeds=SEEDS, workers=0, engine="fast",
        )
        assert canonical(resumed) == canonical(reference)
        assert store.status().complete

    def test_lost_files_self_heal(self, tmp_path):
        """Deleting queue files mid-run only costs time: the runner
        re-publishes any unresolved shard absent from every stage."""
        config = small_test_config(num_banks=2)
        qdir = tmp_path / "q"
        executor = QueueExecutor(
            qdir, workers=0, lease_timeout=30.0, poll_interval=0.05,
        )
        wq = WorkQueue(qdir)
        box = {}

        def drive():
            box["aggregates"] = run_campaign(
                config, 8, techniques=("PARA",), seeds=(0,),
                engine="fast", executor=executor,
            )

        driver = threading.Thread(target=drive, name="heal-driver")
        driver.start()
        workers = []
        try:
            wait_until(
                lambda: list(wq.tickets_dir.glob("*.json")) or None,
                message="the ticket to be published",
            )
            # simulate a lost ticket (foreign deletion / corrupt
            # quarantine): the runner must notice and re-publish
            for path in wq.tickets_dir.glob("*.json"):
                path.unlink()
            wait_until(
                lambda: list(wq.tickets_dir.glob("*.json")) or None,
                message="the self-heal pass to re-publish the ticket",
            )
            workers.append(spawn_worker(qdir))
            driver.join(timeout=120)
            assert not driver.is_alive()
        finally:
            reap(workers, qdir)
            driver.join(timeout=10)
        reference = run_campaign(
            config, 8, techniques=("PARA",), seeds=(0,), workers=0,
            engine="fast",
        )
        assert canonical(box["aggregates"]) == canonical(reference)


class TestBlockTickets:
    """Queue campaigns that lease one fused block per seed."""

    def test_refused_ticket_surfaces_as_remote_shard_error(self, tmp_path):
        config = small_test_config(num_banks=2)
        qdir = tmp_path / "q"
        wq = WorkQueue(qdir)
        box = {}

        def drive():
            try:
                run_campaign(
                    config, 8, techniques=TECHNIQUES, seeds=(0,),
                    engine="fused",
                    executor=QueueExecutor(
                        qdir, workers=0, lease_timeout=30.0,
                        poll_interval=0.05,
                    ),
                )
            except Exception as exc:  # surfaced to the test thread
                box["error"] = exc

        driver = threading.Thread(target=drive, name="schema-driver")
        driver.start()
        try:
            path = wait_until(
                lambda: next(iter(wq.tickets_dir.glob("*.json")), None),
                message="the block ticket to be published",
            )
            data = json.loads(path.read_text(encoding="utf-8"))
            data["schema_version"] = 99
            write_json_atomic(path, data)
            # drains until the failing campaign raises the stop sentinel
            run_worker(qdir, poll_interval=0.01, idle_exit=30.0)
            driver.join(timeout=60)
            assert not driver.is_alive()
        finally:
            wq.request_stop()
            driver.join(timeout=10)
        error = box.get("error")
        assert isinstance(error, RemoteShardError)
        assert "block__s0" in str(error)
        assert "schema version 99" in str(error)

    def test_sigkilled_worker_holding_a_block_raises_shard_timeout(
        self, tmp_path
    ):
        """Without a retry policy a dead worker's block is not re-run:
        its lease expires and the campaign raises ``ShardTimeout``
        naming the block's shards instead of waiting forever."""
        config = small_test_config(num_banks=2)
        qdir = tmp_path / "q"
        lease_timeout = 2.0
        box = {}

        def drive():
            try:
                run_campaign(
                    config, 8, techniques=TECHNIQUES, seeds=(0,),
                    engine="fused",
                    executor=QueueExecutor(
                        qdir, workers=0, lease_timeout=lease_timeout,
                        poll_interval=0.05,
                    ),
                )
            except Exception as exc:  # surfaced to the test thread
                box["error"] = exc
                box["raised_at"] = time.monotonic()

        # a real worker loop whose block never finishes, so the kill
        # always lands while the block lease is held
        stuck = textwrap.dedent(
            """
            import sys, time
            import repro.campaign.queue as queue

            queue._run_job = lambda job: time.sleep(600)
            queue.run_worker(sys.argv[1], poll_interval=0.05,
                             lease_refresh=0.2)
            """
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(REPO_ROOT, "src")
        worker = subprocess.Popen(
            [sys.executable, "-c", stuck, str(qdir)], env=env,
            cwd=REPO_ROOT, stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )
        driver = threading.Thread(target=drive, name="block-driver")
        driver.start()
        try:
            bus = WorkQueue(qdir).status_bus()

            def block_holder():
                beats = {
                    beat.worker: beat for beat in bus.read_heartbeats()
                    if beat.phase == "running"
                }
                if {"PARA__s0", "TWiCe__s0"} <= set(beats):
                    return beats["PARA__s0"].pid
                return None

            pid = wait_until(block_holder,
                             message="a worker to lease the block")
            assert pid == worker.pid
            os.kill(pid, signal.SIGKILL)
            killed_at = time.monotonic()
            driver.join(timeout=60)
            assert not driver.is_alive(), "campaign hung on a dead lease"
        finally:
            if worker.poll() is None:
                worker.kill()
            worker.wait(timeout=10)
            WorkQueue(qdir).request_stop()
            driver.join(timeout=10)
        error = box.get("error")
        assert isinstance(error, ShardTimeout)
        assert "block__s0" in str(error)
        assert "PARA__s0" in str(error) and "TWiCe__s0" in str(error)
        assert box["raised_at"] - killed_at < 2 * lease_timeout

    def test_block_campaign_stages_no_trace(self, tmp_path):
        """A block ticket carries no trace: the worker regenerates the
        seed's trace from the ticket's knobs, so ``traces/`` stays
        empty and results equal an inline run."""
        config = small_test_config(num_banks=2)
        qdir = tmp_path / "q"
        wq = WorkQueue(qdir)
        box = {}

        def drive():
            box["aggregates"] = run_campaign(
                config, 8, techniques=TECHNIQUES, seeds=SEEDS,
                engine="fused",
                executor=QueueExecutor(
                    qdir, workers=0, lease_timeout=30.0, poll_interval=0.05,
                ),
            )

        driver = threading.Thread(target=drive, name="stream-driver")
        driver.start()
        try:
            wait_until(
                lambda: wq.ticket_path("block__s0").exists(),
                message="the block tickets to be published",
            )
            # drains until the finished campaign raises the stop sentinel
            run_worker(qdir, poll_interval=0.01, idle_exit=30.0)
            driver.join(timeout=60)
            assert not driver.is_alive()
        finally:
            wq.request_stop()
            driver.join(timeout=10)
        assert list(wq.traces_dir.iterdir()) == []
        reference = run_campaign(
            config, 8, techniques=TECHNIQUES, seeds=SEEDS, workers=0,
            engine="fused",
        )
        assert canonical(box["aggregates"]) == canonical(reference)

    def test_deleted_block_ticket_self_heals(self, tmp_path):
        config = small_test_config(num_banks=2)
        qdir = tmp_path / "q"
        wq = WorkQueue(qdir)
        box = {}

        def drive():
            box["aggregates"] = run_campaign(
                config, 8, techniques=TECHNIQUES, seeds=(0,),
                engine="fused",
                executor=QueueExecutor(
                    qdir, workers=0, lease_timeout=30.0, poll_interval=0.05,
                ),
            )

        driver = threading.Thread(target=drive, name="block-heal-driver")
        driver.start()
        workers = []
        try:
            wait_until(
                lambda: wq.ticket_path("block__s0").exists(),
                message="the block ticket to be published",
            )
            wq.ticket_path("block__s0").unlink()
            wait_until(
                lambda: wq.ticket_path("block__s0").exists(),
                message="the self-heal pass to re-publish the block",
            )
            workers.append(spawn_worker(qdir))
            driver.join(timeout=120)
            assert not driver.is_alive()
        finally:
            reap(workers, qdir)
            driver.join(timeout=10)
        reference = run_campaign(
            config, 8, techniques=TECHNIQUES, seeds=(0,), workers=0,
            engine="fused",
        )
        assert canonical(box["aggregates"]) == canonical(reference)

    def test_sigkilled_driver_resumes_bit_identical(self, tmp_path):
        """Kill the runner after one block landed: that block's shards
        are checkpointed, and a serial resume finishes the other seed
        bit-identically."""
        ckpt = tmp_path / "ckpt"
        qdir = tmp_path / "q"
        driver = textwrap.dedent(
            """
            from repro.campaign import QueueExecutor, run_durable_campaign
            from repro.config import small_test_config

            run_durable_campaign(
                small_test_config(num_banks=2),
                total_intervals=8,
                checkpoint_dir={ckpt!r},
                techniques=("PARA", "TWiCe"),
                seeds=(0, 1),
                engine="fused",
                executor=QueueExecutor(
                    {qdir!r}, workers=0, poll_interval=0.05,
                ),
            )
            """
        ).format(ckpt=str(ckpt), qdir=str(qdir))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(REPO_ROOT, "src")
        env.pop(FAULT_ENV_VAR, None)
        proc = subprocess.Popen(
            [sys.executable, "-c", driver], env=env, cwd=REPO_ROOT,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        )
        # one block of two shards, then the worker exits: the other
        # seed's block stays queued until the driver is killed
        worker = spawn_worker(qdir, "--max-shards", "2")
        store = CampaignStore(ckpt)
        try:
            def one_block_landed():
                if proc.poll() is not None:
                    _, stderr = proc.communicate()
                    pytest.fail(
                        "queue campaign exited before being killed:\n"
                        + stderr.decode("utf-8", "replace")
                    )
                return (
                    store.exists
                    and len(store.status().completed) == 2
                )

            wait_until(one_block_landed, message="one block to land")
            assert worker.wait(timeout=30) == 0
        finally:
            if proc.poll() is None:
                proc.send_signal(signal.SIGKILL)
            proc.wait(timeout=30)
            reap([worker], qdir)

        assert sorted(
            (name, seed) for name, seed in store.status().completed
        ) == [("PARA", 0), ("TWiCe", 0)]
        resumed = run_durable_campaign(
            small_test_config(num_banks=2), 8, ckpt, resume=True,
            techniques=TECHNIQUES, seeds=SEEDS, workers=0, engine="fused",
        )
        reference = run_campaign(
            small_test_config(num_banks=2), 8, techniques=TECHNIQUES,
            seeds=SEEDS, workers=0, engine="fused",
        )
        assert canonical(resumed) == canonical(reference)
        assert store.status().complete
