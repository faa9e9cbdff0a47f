"""Tests for trace serialisation."""

import pickle
import struct

import pytest

from repro.config import small_test_config
from repro.traces import trace_io
from repro.traces.mixer import build_trace
from repro.traces.record import Trace, TraceMeta, TraceRecord
from repro.traces.trace_io import TraceFormatError, load_trace, save_trace
from repro.traces.workload import WorkloadParams


def sample_trace():
    meta = TraceMeta(total_intervals=4, interval_ns=7800, num_banks=2)
    records = [
        TraceRecord(0, 0, 10, False),
        TraceRecord(100, 1, 20, True),
        TraceRecord(7900, 0, 30, False),
    ]
    return Trace(meta=meta, records=records)


class TestRoundtrip:
    def test_save_returns_count(self, tmp_path):
        path = tmp_path / "trace.txt"
        assert save_trace(sample_trace(), path) == 3

    def test_roundtrip_preserves_everything(self, tmp_path):
        path = tmp_path / "trace.txt"
        original = sample_trace()
        save_trace(original, path)
        loaded = load_trace(path)
        assert loaded.meta == original.meta
        assert list(loaded) == list(original)

    def test_lazy_load_streams(self, tmp_path):
        path = tmp_path / "trace.txt"
        save_trace(sample_trace(), path)
        loaded = load_trace(path, lazy=True)
        assert not isinstance(loaded.records, list)
        assert len(list(loaded)) == 3

    def test_generated_trace_roundtrip(self, tmp_path):
        config = small_test_config()
        trace = build_trace(
            config,
            total_intervals=8,
            benign_params=WorkloadParams(avg_acts_per_interval=10),
            seed=2,
        ).materialize()
        path = tmp_path / "gen.txt"
        save_trace(trace, path)
        loaded = load_trace(path)
        assert list(loaded) == list(trace)


class TestErrors:
    def test_rejects_non_trace_file(self, tmp_path):
        path = tmp_path / "bogus.txt"
        path.write_text("not a trace\n")
        with pytest.raises(ValueError, match="not a repro trace"):
            load_trace(path)

    def test_reports_bad_record_line(self, tmp_path):
        path = tmp_path / "trace.txt"
        save_trace(sample_trace(), path)
        with path.open("a") as handle:
            handle.write("bad,line\n")
        with pytest.raises(ValueError, match="bad record"):
            load_trace(path)

    def test_blank_lines_ignored(self, tmp_path):
        path = tmp_path / "trace.txt"
        save_trace(sample_trace(), path)
        with path.open("a") as handle:
            handle.write("\n\n")
        assert load_trace(path).count() == 3


class TestTraceFormatError:
    """The typed error carries path + line number for precise reports."""

    def test_is_a_value_error(self):
        # pre-existing `except ValueError` call sites keep working
        assert issubclass(TraceFormatError, ValueError)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("")
        with pytest.raises(TraceFormatError, match="empty file"):
            load_trace(path)

    def test_wrong_header_prefix_points_at_line_1(self, tmp_path):
        path = tmp_path / "bogus.txt"
        path.write_text("not a trace\n")
        with pytest.raises(TraceFormatError) as excinfo:
            load_trace(path)
        error = excinfo.value
        assert error.path == str(path)
        assert error.line_no == 1
        assert "not a repro trace" in error.reason
        assert f"{path}:1" in str(error)

    def test_malformed_header_json(self, tmp_path):
        path = tmp_path / "trace.txt"
        path.write_text("#repro-trace:{broken\n")
        with pytest.raises(TraceFormatError, match="malformed header JSON"):
            load_trace(path)

    def test_header_must_be_object(self, tmp_path):
        path = tmp_path / "trace.txt"
        path.write_text("#repro-trace:[1, 2]\n")
        with pytest.raises(TraceFormatError, match="JSON object"):
            load_trace(path)

    @pytest.mark.parametrize(
        "missing", ["total_intervals", "interval_ns", "num_banks"]
    )
    def test_header_missing_field_named(self, tmp_path, missing):
        import json

        header = {"total_intervals": 4, "interval_ns": 7800, "num_banks": 2}
        del header[missing]
        path = tmp_path / "trace.txt"
        path.write_text(f"#repro-trace:{json.dumps(header)}\n")
        with pytest.raises(TraceFormatError, match=missing):
            load_trace(path)

    @pytest.mark.parametrize("bad", ["0", "-3", '"four"', "null"])
    def test_header_field_must_be_positive_integer(self, tmp_path, bad):
        path = tmp_path / "trace.txt"
        path.write_text(
            '#repro-trace:{"total_intervals": ' + bad +
            ', "interval_ns": 7800, "num_banks": 2}\n'
        )
        with pytest.raises(TraceFormatError, match="total_intervals"):
            load_trace(path)

    def test_bad_record_carries_exact_line_number(self, tmp_path):
        path = tmp_path / "trace.txt"
        save_trace(sample_trace(), path)  # header + 3 records
        with path.open("a") as handle:
            handle.write("bad,line\n")
        with pytest.raises(TraceFormatError) as excinfo:
            load_trace(path)
        assert excinfo.value.line_no == 5
        assert "bad record" in excinfo.value.reason

    def test_non_integer_record_field(self, tmp_path):
        path = tmp_path / "trace.txt"
        save_trace(sample_trace(), path)
        with path.open("a") as handle:
            handle.write("100,0,ten,0\n")
        with pytest.raises(TraceFormatError, match="integer fields"):
            load_trace(path)

    def test_lazy_load_raises_on_iteration(self, tmp_path):
        path = tmp_path / "trace.txt"
        save_trace(sample_trace(), path)
        with path.open("a") as handle:
            handle.write("bad,line\n")
        trace = load_trace(path, lazy=True)  # header is fine; no error yet
        with pytest.raises(TraceFormatError):
            list(trace)


class TestNpzRoundtrip:
    def test_roundtrip_preserves_everything(self, tmp_path):
        from repro.traces.trace_io import load_trace_npz, save_trace_npz

        path = tmp_path / "trace.npz"
        original = sample_trace()
        assert save_trace_npz(original, path) == 3
        loaded = load_trace_npz(path)
        assert loaded.meta == original.meta
        assert list(loaded) == list(original)

    def test_npz_smaller_than_text(self, tmp_path):
        from repro.traces.trace_io import save_trace_npz

        config = small_test_config()
        trace = build_trace(
            config,
            total_intervals=64,
            benign_params=WorkloadParams(avg_acts_per_interval=40),
            seed=2,
        ).materialize()
        text_path = tmp_path / "t.txt"
        npz_path = tmp_path / "t.npz"
        save_trace(trace, text_path)
        save_trace_npz(trace, npz_path)
        assert npz_path.stat().st_size < text_path.stat().st_size

    def test_generated_trace_roundtrip(self, tmp_path):
        from repro.traces.trace_io import load_trace_npz, save_trace_npz

        config = small_test_config()
        trace = build_trace(
            config,
            total_intervals=8,
            benign_params=WorkloadParams(avg_acts_per_interval=10),
            seed=3,
        ).materialize()
        path = tmp_path / "gen.npz"
        save_trace_npz(trace, path)
        assert list(load_trace_npz(path)) == list(trace)


class TestPurePythonNpzCodec:
    """The npy/npz codec is pure python and numpy's own format: its
    archives load through :func:`numpy.load`, and archives numpy writes
    with the same columns load through :func:`load_trace_npz`, so ingest
    caches written by earlier numpy-backed versions stay readable.
    """

    def generated(self):
        config = small_test_config()
        return build_trace(
            config,
            total_intervals=8,
            benign_params=WorkloadParams(avg_acts_per_interval=10),
            seed=3,
        ).materialize()

    def test_pure_roundtrip(self, tmp_path):
        from repro.traces.trace_io import load_trace_npz, save_trace_npz

        trace = self.generated()
        path = tmp_path / "pure.npz"
        save_trace_npz(trace, path)
        loaded = load_trace_npz(path)
        assert loaded.meta == trace.meta
        assert list(loaded) == list(trace)

    def test_pure_reader_loads_numpy_archives(self, tmp_path):
        np = pytest.importorskip("numpy", exc_type=ImportError)
        from repro.traces.trace_io import load_trace_npz

        trace = self.generated()
        records = trace.records
        path = tmp_path / "np.npz"
        np.savez_compressed(
            path,
            times=np.array([r.time_ns for r in records], dtype=np.int64),
            banks=np.array([r.bank for r in records], dtype=np.int16),
            rows=np.array([r.row for r in records], dtype=np.int32),
            attacks=np.array([r.is_attack for r in records], dtype=np.bool_),
            meta=np.array([
                trace.meta.total_intervals, trace.meta.interval_ns,
                trace.meta.num_banks,
            ], dtype=np.int64),
        )
        loaded = load_trace_npz(path)
        assert loaded.meta == trace.meta
        assert list(loaded) == list(trace)

    def test_numpy_reader_loads_pure_archives(self, tmp_path):
        np = pytest.importorskip("numpy", exc_type=ImportError)
        from repro.traces.trace_io import save_trace_npz

        trace = self.generated()
        path = tmp_path / "pure.npz"
        save_trace_npz(trace, path)
        with np.load(path) as data:
            assert data["times"].dtype == np.int64
            assert data["banks"].dtype == np.int16
            assert data["rows"].dtype == np.int32
            assert data["attacks"].dtype == np.bool_
            assert [int(v) for v in data["meta"]] == [
                trace.meta.total_intervals,
                trace.meta.interval_ns,
                trace.meta.num_banks,
            ]
            assert [int(t) for t in data["times"]] == \
                [r.time_ns for r in trace.records]

    def test_pure_reader_rejects_truncated_member(self, tmp_path):
        import zipfile

        from repro.traces.trace_io import (
            _npy_bytes,
            load_trace_npz,
            save_trace_npz,
        )

        trace = self.generated()
        path = tmp_path / "cut.npz"
        save_trace_npz(trace, path)
        with zipfile.ZipFile(path) as archive:
            members = {
                name: archive.read(name) for name in archive.namelist()
            }
        members["times.npy"] = members["times.npy"][:-4]
        with zipfile.ZipFile(path, "w") as archive:
            for name, data in members.items():
                archive.writestr(name, data)
        with pytest.raises(TraceFormatError, match="truncated"):
            load_trace_npz(path)
        # unsupported dtypes are named, not silently misread
        with zipfile.ZipFile(path, "w") as archive:
            archive.writestr("times.npy", _npy_bytes([1], "<i8").replace(
                b"'<i8'", b"'<f8'", 1))
        with pytest.raises(TraceFormatError, match="dtype"):
            load_trace_npz(path)

    def test_pure_reader_rejects_non_zip(self, tmp_path):
        from repro.traces.trace_io import load_trace_npz

        path = tmp_path / "bogus.npz"
        path.write_bytes(b"definitely not a zip archive")
        with pytest.raises(TraceFormatError, match="unreadable npz"):
            load_trace_npz(path)


def _write_npz(path, **overrides):
    """A trace spool built member by member; *overrides* replace a
    member's ``(values, descr)`` or, when ``None``, drop it."""
    import zipfile

    from repro.traces.trace_io import _npy_bytes

    members = {
        "times": ([0, 100, 200, 300, 400], "<i8"),
        "banks": ([0, 1, 0, 1, 0], "<i2"),
        "rows": ([10, 20, 30, 40, 50], "<i4"),
        "attacks": ([False, True, False, True, False], "|b1"),
        "meta": ([4, 7800, 2], "<i8"),
    }
    members.update(overrides)
    with zipfile.ZipFile(path, "w") as archive:
        for name, member in members.items():
            if member is not None:
                archive.writestr(f"{name}.npy", _npy_bytes(*member))
    return path


class TestNpzReaderIsStrict:
    """The npz reader refuses a malformed archive with a
    :class:`TraceFormatError` naming the file and the member, instead of
    truncating to the shortest column or leaking a raw zip, zlib or
    struct error."""

    def test_well_formed_archive_loads(self, tmp_path):
        trace = trace_io.load_trace_npz(_write_npz(tmp_path / "ok.npz"))
        assert trace.meta == TraceMeta(
            total_intervals=4, interval_ns=7800, num_banks=2
        )
        assert trace.records[1] == TraceRecord(100, 1, 20, True)
        assert trace.records[1].is_attack is True
        assert len(trace.records) == 5

    def test_mismatched_column_lengths(self, tmp_path):
        path = _write_npz(tmp_path / "cut.npz", banks=([0, 1, 0], "<i2"))
        with pytest.raises(TraceFormatError, match="'banks.npy': 3 values") \
                as refused:
            trace_io.load_trace_npz(path)
        assert str(path) in str(refused.value)

    def test_missing_member(self, tmp_path):
        path = _write_npz(tmp_path / "partial.npz", attacks=None)
        with pytest.raises(TraceFormatError, match="'attacks.npy' is missing") \
                as refused:
            trace_io.load_trace_npz(path)
        assert str(path) in str(refused.value)

    def test_short_meta(self, tmp_path):
        path = _write_npz(tmp_path / "meta.npz", meta=([4, 7800], "<i8"))
        with pytest.raises(TraceFormatError, match="'meta.npy': expected 3"):
            trace_io.load_trace_npz(path)

    @pytest.mark.parametrize("member, column", [
        pytest.param("attacks", ([0, 1, 0, 1, 0], "<i8"), id="int-attacks"),
        pytest.param("rows", ([1, 0, 1, 0, 1], "|b1"), id="bool-rows"),
    ])
    def test_wrong_column_dtype(self, tmp_path, member, column):
        path = _write_npz(tmp_path / "dtype.npz", **{member: column})
        with pytest.raises(TraceFormatError, match=f"'{member}.npy': dtype"):
            trace_io.load_trace_npz(path)

    @pytest.mark.parametrize("content", [
        pytest.param(b"definitely not a zip archive", id="text"),
        pytest.param(b"", id="empty"),
        pytest.param(pickle.dumps([1, 2, 3]), id="pickle"),
    ])
    def test_not_an_npz_archive(self, tmp_path, content):
        path = tmp_path / "bogus.npz"
        path.write_bytes(content)
        with pytest.raises(TraceFormatError, match="unreadable npz") \
                as refused:
            trace_io.load_trace_npz(path)
        assert str(path) in str(refused.value)

    def test_bare_npy_file(self, tmp_path):
        from repro.traces.trace_io import _npy_bytes

        path = tmp_path / "column.npz"
        path.write_bytes(_npy_bytes([1, 2, 3], "<i8"))
        with pytest.raises(TraceFormatError, match="unreadable npz"):
            trace_io.load_trace_npz(path)

    def test_corrupt_deflate_stream(self, tmp_path):
        """A member whose compressed bytes are damaged is named, not
        surfaced as a raw ``zlib.error``."""
        import zipfile

        path = tmp_path / "deflate.npz"
        trace_io.save_trace_npz(sample_trace(), path)
        with zipfile.ZipFile(path) as archive:
            info = archive.getinfo("rows.npy")
        raw = bytearray(path.read_bytes())
        name_len, extra_len = struct.unpack_from(
            "<HH", raw, info.header_offset + 26
        )
        start = info.header_offset + 30 + name_len + extra_len
        # a final block of the reserved type 3: "invalid block type"
        raw[start] = 0xFF
        path.write_bytes(bytes(raw))
        with pytest.raises(TraceFormatError, match="'rows.npy': corrupt") \
                as refused:
            trace_io.load_trace_npz(path)
        assert str(path) in str(refused.value)

    def test_pickled_and_2d_members(self, tmp_path):
        np = pytest.importorskip("numpy", exc_type=ImportError)

        columns = dict(
            times=np.arange(3, dtype=np.int64),
            banks=np.zeros(3, dtype=np.int16),
            rows=np.arange(3, dtype=np.int32),
            attacks=np.zeros(3, dtype=np.bool_),
            meta=np.array([4, 7800, 2], dtype=np.int64),
        )
        pickled = tmp_path / "pickled.npz"
        np.savez(pickled, **dict(columns, rows=np.array([1, "x"], dtype=object)))
        with pytest.raises(TraceFormatError, match="'rows.npy'"):
            trace_io.load_trace_npz(pickled)
        square = tmp_path / "square.npz"
        np.savez(square, **dict(columns, times=np.zeros((3, 3), np.int64)))
        with pytest.raises(TraceFormatError, match="'times.npy': expected a 1-D"):
            trace_io.load_trace_npz(square)
