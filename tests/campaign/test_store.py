"""Tests for the campaign checkpoint store."""

import json
import shutil
from pathlib import Path

import pytest

from repro.campaign import run_durable_campaign
from repro.campaign.store import (
    CampaignSpec,
    CampaignStateError,
    CampaignStore,
    CheckpointMismatchError,
    ShardRecord,
)
from repro.config import small_test_config
from repro.sim.metrics import SimResult
from repro.sim.parallel import ShardFailure


#: a checkpoint holding one of two shards, plus the other shard's queue
#: result, both written by an earlier release of the campaign runner
FIXTURE = Path(__file__).resolve().parents[1] / "fixtures" / "checkpoint"


def make_spec(config=None, **overrides):
    kwargs = dict(
        engine="reference",
        total_intervals=16,
        techniques=("PARA", "TWiCe"),
        seeds=(0, 1),
    )
    kwargs.update(overrides)
    return CampaignSpec.build(config or small_test_config(), **kwargs)


def make_result(technique="PARA", seed=0):
    return SimResult(
        technique=technique, seed=seed, normal_activations=100,
        extra_activations=3, intervals_simulated=16, wall_seconds=1.25,
    )


class TestSpec:
    def test_round_trip(self):
        spec = make_spec()
        assert CampaignSpec.from_dict(spec.as_dict()) == spec

    def test_none_technique_becomes_string(self):
        spec = make_spec(techniques=(None, "PARA"))
        assert spec.techniques == ["none", "PARA"]

    def test_shard_keys_are_technique_major(self):
        assert make_spec().shard_keys() == [
            ("PARA", 0), ("PARA", 1), ("TWiCe", 0), ("TWiCe", 1),
        ]

    def test_mismatches_flag_config_and_grid_changes(self):
        spec = make_spec()
        other = make_spec(config=small_test_config(num_banks=2))
        assert "config_hash" in spec.mismatches(other)
        assert not spec.mismatches(make_spec())
        assert "seeds" in spec.mismatches(make_spec(seeds=(0,)))


class TestStore:
    def test_initialize_and_read_spec(self, tmp_path):
        store = CampaignStore(tmp_path / "ckpt")
        assert not store.exists
        with pytest.raises(CampaignStateError, match="no campaign checkpoint"):
            store.read_spec()
        spec = make_spec()
        store.initialize(spec)
        assert store.exists
        assert store.read_spec() == spec

    def test_ensure_matches_raises_with_clear_message(self, tmp_path):
        store = CampaignStore(tmp_path)
        store.initialize(make_spec())
        mismatched = make_spec(config=small_test_config(num_banks=2))
        with pytest.raises(CheckpointMismatchError, match="config_hash"):
            store.ensure_matches(mismatched)
        store.ensure_matches(make_spec())  # identical spec passes

    def test_shard_round_trip(self, tmp_path):
        store = CampaignStore(tmp_path)
        store.initialize(make_spec())
        record = ShardRecord(
            technique="PARA", seed=1, result=make_result(seed=1),
            attempts=2, metrics={"counters": {}},
        )
        store.write_shard(record)
        loaded = store.load_shards()[("PARA", 1)]
        assert loaded.attempts == 2
        assert loaded.result.as_dict(include_wall=True) == (
            record.result.as_dict(include_wall=True)
        )

    def test_load_shards_skips_corrupt_and_tmp_files(self, tmp_path):
        store = CampaignStore(tmp_path)
        store.initialize(make_spec())
        store.write_shard(
            ShardRecord(technique="PARA", seed=0, result=make_result())
        )
        (store.shard_dir / "TWiCe__s0.json").write_text("{not json", "utf-8")
        (store.shard_dir / "PARA__s1.json.12345.tmp").write_text("", "utf-8")
        assert set(store.load_shards()) == {("PARA", 0)}

    def test_failures_round_trip_and_missing_file(self, tmp_path):
        store = CampaignStore(tmp_path)
        assert store.read_failures() == []
        failure = ShardFailure(
            technique="PARA", seed=0, attempts=3, kind="timeout",
            error="ShardTimeout: exceeded 5s",
        )
        store.write_failures([failure])
        assert store.read_failures() == [failure]

    def test_status_partitions_completed_and_missing(self, tmp_path):
        store = CampaignStore(tmp_path)
        store.initialize(make_spec())
        store.write_shard(
            ShardRecord(technique="PARA", seed=0, result=make_result())
        )
        status = store.status()
        assert status.total == 4
        assert status.completed == [("PARA", 0)]
        assert ("TWiCe", 1) in status.missing
        assert not status.complete

    def test_writes_are_atomic_onto_existing_files(self, tmp_path):
        store = CampaignStore(tmp_path)
        store.initialize(make_spec())
        store.write_shard(
            ShardRecord(technique="PARA", seed=0, result=make_result())
        )
        updated = ShardRecord(
            technique="PARA", seed=0, result=make_result(), attempts=5
        )
        store.write_shard(updated)
        payload = json.loads(
            store.shard_path("PARA", 0).read_text(encoding="utf-8")
        )
        assert payload["attempts"] == 5
        # no temp litter left behind
        assert list(store.shard_dir.glob("*.tmp")) == []


class TestStoredLayout:
    """Shard files and queue results keep their JSON layout: ones an
    earlier release wrote load as :class:`ShardRecord` and resume."""

    KWARGS = dict(
        techniques=("PARA", "TWiCe"), seeds=(0,), workers=0,
        engine="fused",
    )

    @staticmethod
    def read(name):
        return json.loads((FIXTURE / name).read_text(encoding="utf-8"))

    def test_stored_files_load_as_shard_records(self):
        shard = self.read("shards/PARA__s0.json")
        assert ShardRecord.from_dict(shard).as_dict() == shard
        result = self.read("queue-result-TWiCe__s0.json")
        record = ShardRecord.from_dict(result)
        assert (record.technique, record.seed, record.attempts) == (
            "TWiCe", 0, 1,
        )
        assert record.as_dict() == {
            key: result[key] for key in record.as_dict()
        }

    def test_stored_checkpoint_resumes_bit_identically(self, tmp_path):
        config = small_test_config(num_banks=2)
        ckpt = tmp_path / "ckpt"
        shutil.copytree(
            FIXTURE, ckpt, ignore=shutil.ignore_patterns("queue-*"),
        )
        resumed = run_durable_campaign(
            config, 8, ckpt, resume=True, **self.KWARGS
        )
        fresh = run_durable_campaign(
            config, 8, tmp_path / "fresh", **self.KWARGS
        )
        canonical = lambda aggregates: {
            name: [result.as_dict() for result in aggregate.results]
            for name, aggregate in aggregates.items()
        }
        assert canonical(resumed) == canonical(fresh)
        # the stored shard was folded in as written, not recomputed
        shard = self.read("shards/PARA__s0.json")
        assert resumed["PARA"].results[0].as_dict(include_wall=True) == (
            shard["result"]
        )
        # the stored queue result is the shard this release computes
        queued = ShardRecord.from_dict(self.read("queue-result-TWiCe__s0.json"))
        assert queued.result.as_dict() == resumed["TWiCe"].results[0].as_dict()
