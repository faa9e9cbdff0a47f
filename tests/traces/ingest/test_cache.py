"""Tests for the digest-keyed ingest cache.

Covers the satellite checklist: digest stability across runs,
invalidation when the mapper spec changes, corrupted-entry recovery,
and gzip vs. plain-text byte-identical replay.
"""

import gzip

import pytest

from repro.config import ddr4_paper_config
from repro.telemetry.metrics import MetricsRegistry
from repro.traces.ingest import IngestCache, cache_key, file_digest, ingest_trace

CONFIG = ddr4_paper_config()


def write_dramsim(path, rows=(5, 6, 5, 7), bank=1, gzipped=False):
    lines = "".join(
        f"{index * 45},ACT,{(row << 15) | (bank << 13):#x}\n"
        for index, row in enumerate(rows)
    )
    if gzipped:
        with gzip.open(path, "wt") as handle:
            handle.write(lines)
    else:
        path.write_text(lines)
    return path


@pytest.fixture
def cache(tmp_path):
    return IngestCache(root=tmp_path / "cache", metrics=MetricsRegistry())


class TestDigests:
    def test_file_digest_stable_across_reads(self, tmp_path):
        path = write_dramsim(tmp_path / "t.trc")
        assert file_digest(path) == file_digest(path)

    def test_file_digest_tracks_content_not_name(self, tmp_path):
        a = write_dramsim(tmp_path / "a.trc")
        b = write_dramsim(tmp_path / "b.trc")
        c = write_dramsim(tmp_path / "c.trc", rows=(9, 9))
        assert file_digest(a) == file_digest(b)
        assert file_digest(a) != file_digest(c)

    def test_cache_key_deterministic(self):
        assert cache_key("s", "m") == cache_key("s", "m")
        assert cache_key("s", "m") != cache_key("s", "other")

    def test_ingest_key_stable_across_runs(self, tmp_path, cache):
        path = write_dramsim(tmp_path / "t.trc")
        first = ingest_trace(path, CONFIG, cache=cache)
        second = ingest_trace(path, CONFIG, cache=cache)
        assert (
            first.provenance["cache"]["key"]
            == second.provenance["cache"]["key"]
        )


class TestHitMiss:
    def test_second_ingest_is_a_hit_with_identical_records(
        self, tmp_path, cache
    ):
        path = write_dramsim(tmp_path / "t.trc")
        first = ingest_trace(path, CONFIG, cache=cache)
        second = ingest_trace(path, CONFIG, cache=cache)
        assert not first.cache_hit
        assert second.cache_hit
        assert second.trace.records == first.trace.records
        assert second.trace.meta == first.trace.meta
        counters = cache.metrics.counters
        assert counters["ingest.cache_misses"].value == 1
        assert counters["ingest.cache_hits"].value == 1

    def test_use_cache_false_never_touches_cache(self, tmp_path, cache):
        path = write_dramsim(tmp_path / "t.trc")
        result = ingest_trace(path, CONFIG, cache=cache, use_cache=False)
        assert not result.cache_hit
        assert not result.provenance["cache"]["enabled"]
        assert not cache.metrics.counters

    def test_source_edit_invalidates(self, tmp_path, cache):
        path = write_dramsim(tmp_path / "t.trc")
        ingest_trace(path, CONFIG, cache=cache)
        write_dramsim(path, rows=(8, 8, 8))
        result = ingest_trace(path, CONFIG, cache=cache)
        assert not result.cache_hit
        assert result.trace.count() == 3


class TestMapperInvalidation:
    def test_mapper_spec_change_misses(self, tmp_path, cache):
        path = write_dramsim(tmp_path / "t.trc")
        ingest_trace(path, CONFIG, cache=cache)
        relaid = ingest_trace(
            path, CONFIG, cache=cache,
            mapper="row:30-15 bank:14-13 column:12-0 ",  # same, reformatted
        )
        assert relaid.cache_hit  # canonicalisation: whitespace is not a change
        moved = ingest_trace(
            path, CONFIG, cache=cache, mapper="row:28-13 column:12-0",
        )
        assert not moved.cache_hit
        assert moved.trace.records != relaid.trace.records

    def test_other_spec_knobs_invalidate(self, tmp_path, cache):
        path = write_dramsim(tmp_path / "t.trc")
        base = ingest_trace(path, CONFIG, cache=cache)
        assert not ingest_trace(
            path, CONFIG, cache=cache, clock_ns=2.0
        ).cache_hit
        assert not ingest_trace(
            path, CONFIG, cache=cache, mark_attacks=True
        ).cache_hit
        assert ingest_trace(path, CONFIG, cache=cache).cache_hit
        assert base.provenance["spec_digest"]


class TestCorruptionRecovery:
    def test_truncated_npz_reingests_and_heals(self, tmp_path, cache):
        path = write_dramsim(tmp_path / "t.trc")
        first = ingest_trace(path, CONFIG, cache=cache)
        key = first.provenance["cache"]["key"]
        cache.entry_path(key).write_bytes(b"not an npz")
        second = ingest_trace(path, CONFIG, cache=cache)
        assert not second.cache_hit
        assert second.trace.records == first.trace.records
        assert cache.metrics.counters["ingest.cache_evictions"].value == 1
        third = ingest_trace(path, CONFIG, cache=cache)
        assert third.cache_hit

    def test_mismatched_columns_are_evicted_not_truncated(
        self, tmp_path, cache
    ):
        """An entry whose columns disagree in length is unreadable, not
        a shorter trace: the hit is refused, the entry evicted, and the
        re-ingest serves every record."""
        import zipfile

        from repro.traces.trace_io import _npy_bytes

        path = write_dramsim(tmp_path / "t.trc")
        first = ingest_trace(path, CONFIG, cache=cache)
        key = first.provenance["cache"]["key"]
        entry = cache.entry_path(key)
        with zipfile.ZipFile(entry) as archive:
            members = {name: archive.read(name) for name in archive.namelist()}
        banks = [record.bank for record in first.trace.records]
        members["banks.npy"] = _npy_bytes(banks[:-1], "<i2")
        with zipfile.ZipFile(entry, "w") as archive:
            for name, data in members.items():
                archive.writestr(name, data)
        second = ingest_trace(path, CONFIG, cache=cache)
        assert not second.cache_hit
        assert second.trace.records == first.trace.records
        counters = cache.metrics.counters
        assert counters["ingest.cache_evictions"].value == 1
        assert counters["ingest.cache_misses"].value == 2

    def test_missing_sidecar_is_a_miss(self, tmp_path, cache):
        path = write_dramsim(tmp_path / "t.trc")
        first = ingest_trace(path, CONFIG, cache=cache)
        key = first.provenance["cache"]["key"]
        (cache.root / f"{key}.json").unlink()
        assert not ingest_trace(path, CONFIG, cache=cache).cache_hit

    def test_mangled_sidecar_recovers(self, tmp_path, cache):
        path = write_dramsim(tmp_path / "t.trc")
        first = ingest_trace(path, CONFIG, cache=cache)
        key = first.provenance["cache"]["key"]
        (cache.root / f"{key}.json").write_text("{{{nope")
        second = ingest_trace(path, CONFIG, cache=cache)
        assert not second.cache_hit
        assert second.trace.records == first.trace.records


class TestGzipPlainEquivalence:
    def test_gzip_and_plain_replay_byte_identically(self, tmp_path, cache):
        plain = write_dramsim(tmp_path / "t.trc")
        zipped = write_dramsim(tmp_path / "t.trc.gz", gzipped=True)
        from_plain = ingest_trace(plain, CONFIG, cache=cache)
        from_gzip = ingest_trace(zipped, CONFIG, cache=cache)
        assert from_plain.trace.records == from_gzip.trace.records
        assert from_plain.trace.meta == from_gzip.trace.meta
        # different container bytes -> different cache entries, same replay
        assert (
            from_plain.provenance["source_digest"]
            != from_gzip.provenance["source_digest"]
        )
        assert (
            from_plain.provenance["spec_digest"]
            == from_gzip.provenance["spec_digest"]
        )
