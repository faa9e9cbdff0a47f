"""Tests for the durable (checkpoint/resume) campaign runner."""

import pytest

from repro.campaign import (
    CampaignStateError,
    CampaignStore,
    CheckpointMismatchError,
    FaultInjector,
    run_durable_campaign,
)
from repro.config import small_test_config
from repro.sim.executors import SerialExecutor
from repro.sim.parallel import RetryPolicy, run_campaign
from repro.telemetry.metrics import MetricsRegistry
from repro.telemetry.statusbus import StatusBus

TECHNIQUES = ("PARA", "TWiCe")
SEEDS = (0, 1)


def canonical(aggregates):
    """Bit-exact comparable view of campaign aggregates."""
    return {
        name: [result.as_dict() for result in aggregate.results]
        for name, aggregate in aggregates.items()
    }


class RecordingExecutor(SerialExecutor):
    """The serial lane, recording every batch of units it is handed."""

    def __init__(self):
        self.calls = []

    def execute(self, jobs, ctx):
        self.calls.append(list(jobs))
        return super().execute(jobs, ctx)


def durable(config, ckpt, **kwargs):
    kwargs.setdefault("techniques", TECHNIQUES)
    kwargs.setdefault("seeds", SEEDS)
    kwargs.setdefault("workers", 0)
    return run_durable_campaign(config, 8, ckpt, **kwargs)


class TestDurableCampaign:
    def test_matches_plain_run_campaign(self, tmp_path):
        config = small_test_config(num_banks=2)
        plain = run_campaign(
            config, total_intervals=8, techniques=TECHNIQUES, seeds=SEEDS,
            workers=0,
        )
        assert canonical(durable(config, tmp_path / "ckpt")) == canonical(plain)

    def test_existing_checkpoint_requires_resume(self, tmp_path):
        config = small_test_config(num_banks=2)
        durable(config, tmp_path / "ckpt")
        with pytest.raises(CampaignStateError, match="--resume"):
            durable(config, tmp_path / "ckpt")

    def test_resume_of_complete_campaign_is_identical_noop(self, tmp_path):
        config = small_test_config(num_banks=2)
        first = durable(config, tmp_path / "ckpt")
        executor = RecordingExecutor()
        resumed = durable(
            config, tmp_path / "ckpt", resume=True, executor=executor,
        )
        assert canonical(resumed) == canonical(first)
        assert executor.calls == []  # nothing dispatched
        snapshot = StatusBus.for_checkpoint(tmp_path / "ckpt").read_snapshot()
        assert snapshot.complete
        assert snapshot.done == snapshot.total == len(TECHNIQUES) * len(SEEDS)

    def test_store_is_read_once_per_run(self, tmp_path, monkeypatch):
        loads = []
        load_shards = CampaignStore.load_shards

        def counting(store):
            loads.append(store.root)
            return load_shards(store)

        monkeypatch.setattr(CampaignStore, "load_shards", counting)
        config = small_test_config(num_banks=2)
        durable(config, tmp_path / "ckpt")
        assert len(loads) == 1
        CampaignStore(tmp_path / "ckpt").shard_path("PARA", 1).unlink()
        durable(config, tmp_path / "ckpt", resume=True)
        assert len(loads) == 2
        durable(config, tmp_path / "ckpt", resume=True)
        assert len(loads) == 3

    def test_resume_recomputes_only_missing_shards(self, tmp_path):
        config = small_test_config(num_banks=2)
        first = durable(config, tmp_path / "ckpt")
        store = CampaignStore(tmp_path / "ckpt")
        store.shard_path("PARA", 1).unlink()
        completed = []
        resumed = durable(
            config, tmp_path / "ckpt", resume=True,
            progress=lambda done, total: completed.append((done, total)),
        )
        assert canonical(resumed) == canonical(first)
        assert completed[-1] == (1, 1)  # exactly one shard re-ran

    def test_resume_mismatched_config_fails_fast(self, tmp_path):
        durable(small_test_config(num_banks=2), tmp_path / "ckpt")
        with pytest.raises(CheckpointMismatchError, match="config_hash"):
            durable(
                small_test_config(num_banks=1), tmp_path / "ckpt", resume=True
            )

    def test_resume_mismatched_grid_fails_fast(self, tmp_path):
        config = small_test_config(num_banks=2)
        durable(config, tmp_path / "ckpt")
        with pytest.raises(CheckpointMismatchError, match="seeds"):
            durable(config, tmp_path / "ckpt", resume=True, seeds=(0, 1, 2))

    def test_metrics_identical_between_fresh_and_resumed(self, tmp_path):
        config = small_test_config(num_banks=2)
        fresh = MetricsRegistry()
        durable(config, tmp_path / "a", metrics=fresh)
        store = CampaignStore(tmp_path / "a")
        store.shard_path("TWiCe", 0).unlink()
        resumed = MetricsRegistry()
        durable(config, tmp_path / "a", resume=True, metrics=resumed)
        assert resumed.as_dict() == fresh.as_dict()

    def test_degraded_shard_heals_on_resume(self, tmp_path):
        config = small_test_config(num_banks=2)
        injector = FaultInjector.from_rules(
            [{"mode": "error", "technique": "PARA", "seed": 1}]
        )
        degraded = durable(
            config, tmp_path / "ckpt",
            retry=RetryPolicy(max_retries=1, backoff_base=0,
                              on_failure="skip"),
            fault_injector=injector, sleep=lambda seconds: None,
        )
        assert degraded["PARA"].degraded_seeds == [1]
        assert [f.seed for f in degraded.failures] == [1]
        store = CampaignStore(tmp_path / "ckpt")
        assert not store.status().complete
        healed = durable(config, tmp_path / "ckpt", resume=True)
        assert healed["PARA"].degraded_seeds == []
        assert store.status().complete
        reference = durable(config, tmp_path / "ref")
        assert canonical(healed) == canonical(reference)

    def test_on_failure_raise_leaves_resumable_checkpoint(self, tmp_path):
        config = small_test_config(num_banks=2)
        injector = FaultInjector.from_rules(
            [{"mode": "error", "technique": "TWiCe", "seed": 1}]
        )
        with pytest.raises(Exception, match="injected worker error"):
            durable(
                config, tmp_path / "ckpt",
                retry=RetryPolicy(max_retries=0, on_failure="raise"),
                fault_injector=injector,
            )
        store = CampaignStore(tmp_path / "ckpt")
        completed = store.status().completed
        assert ("TWiCe", 1) not in completed
        assert len(completed) >= 1  # earlier shards were checkpointed
        healed = durable(config, tmp_path / "ckpt", resume=True)
        reference = durable(config, tmp_path / "ref")
        assert canonical(healed) == canonical(reference)
