"""Trace serialisation.

Two formats:

* **text** (:func:`save_trace` / :func:`load_trace`) -- a JSON header
  line followed by one CSV line per record; easy to inspect, diff, and
  stream.  This is the interchange point where externally captured
  traces (e.g. converted gem5 output) enter the pipeline.
* **npz** (:func:`save_trace_npz` / :func:`load_trace_npz`) -- columnar
  numpy-format arrays; ~10x smaller and far faster for the multi-
  million-record traces of full-scale runs.  A small pure-python codec
  reads and writes it (an npz is a zip archive of npy members), so the
  files are the same with or without numpy installed and load with
  :func:`numpy.load` too.

Externally captured traces in foreign formats (DRAMSim-style command
logs, litex-rowhammer-tester payload dumps) enter through
:mod:`repro.traces.ingest`, which reuses the parsing helpers here for
the native format and raises the same :class:`TraceFormatError` on
malformed input.
"""

from __future__ import annotations

import json
import zipfile
import zlib
from pathlib import Path
from typing import Iterator, Optional, TextIO, Tuple, Union

from repro.traces.record import Trace, TraceMeta, TraceRecord

_HEADER_PREFIX = "#repro-trace:"

#: header fields every native trace must declare
_HEADER_KEYS = ("total_intervals", "interval_ns", "num_banks")


class TraceFormatError(ValueError):
    """A trace file violates its format contract.

    Carries the offending ``path`` and (when known) 1-based ``line_no``
    so callers -- and the ``--on-parse-error`` policy of the ingest
    pipeline -- can point at the exact input line.  Subclasses
    :class:`ValueError` so pre-existing ``except ValueError`` callers
    keep working.
    """

    def __init__(self, path, message: str, line_no: Optional[int] = None):
        location = f"{path}:{line_no}" if line_no is not None else str(path)
        super().__init__(f"{location}: {message}")
        self.path = str(path)
        self.line_no = line_no
        self.reason = message


def parse_trace_header(line: str, path) -> TraceMeta:
    """Parse and validate the ``#repro-trace:`` header line.

    Raises :class:`TraceFormatError` (pointing at line 1 of *path*)
    when the prefix is missing, the JSON payload does not parse, a
    required field is absent, or a field is not a positive integer.
    """
    if not line:
        raise TraceFormatError(
            path, "empty file (expected a '#repro-trace:' header line)"
        )
    if not line.startswith(_HEADER_PREFIX):
        raise TraceFormatError(
            path,
            "not a repro trace file (first line must start with "
            f"{_HEADER_PREFIX!r})",
            line_no=1,
        )
    try:
        header = json.loads(line[len(_HEADER_PREFIX):])
    except (json.JSONDecodeError, RecursionError) as exc:
        raise TraceFormatError(
            path, f"malformed header JSON: {exc}", line_no=1
        ) from exc
    if not isinstance(header, dict):
        raise TraceFormatError(
            path, f"header must be a JSON object, got {type(header).__name__}",
            line_no=1,
        )
    values = {}
    for key in _HEADER_KEYS:
        if key not in header:
            raise TraceFormatError(
                path, f"header missing required field {key!r}", line_no=1
            )
        try:
            values[key] = int(header[key])
        except (TypeError, ValueError, OverflowError) as exc:
            raise TraceFormatError(
                path,
                f"header field {key!r} must be an integer, "
                f"got {header[key]!r}",
                line_no=1,
            ) from exc
        if values[key] < 1:
            raise TraceFormatError(
                path, f"header field {key!r} must be positive, "
                      f"got {values[key]}", line_no=1
            )
    return TraceMeta(**values)


def parse_trace_record(line: str, path, line_no: int) -> TraceRecord:
    """Parse one ``time_ns,bank,row,is_attack`` record line.

    Raises :class:`TraceFormatError` with *path* and *line_no* on a
    field-count or integer-conversion failure.
    """
    try:
        time_ns, bank, row, is_attack = line.split(",")
        return TraceRecord(
            int(time_ns), int(bank), int(row), bool(int(is_attack))
        )
    except ValueError as exc:
        raise TraceFormatError(
            path,
            f"bad record {line!r} (expected 'time_ns,bank,row,is_attack' "
            "with integer fields)",
            line_no=line_no,
        ) from exc


def read_trace_stream(handle: TextIO, path) -> Iterator[TraceRecord]:
    """Yield the records of an already-opened native trace *handle*.

    Assumes the header line has been consumed.  Blank lines are
    ignored; anything else must parse as a record.
    """
    for line_no, line in enumerate(handle, start=2):
        line = line.strip()
        if not line:
            continue
        yield parse_trace_record(line, path, line_no)


def save_trace(trace: Trace, path: Union[str, Path]) -> int:
    """Write *trace* to *path*; returns the number of records written."""
    path = Path(path)
    count = 0
    header = {
        "total_intervals": trace.meta.total_intervals,
        "interval_ns": trace.meta.interval_ns,
        "num_banks": trace.meta.num_banks,
    }
    with path.open("w", encoding="utf-8") as handle:
        handle.write(_HEADER_PREFIX + json.dumps(header) + "\n")
        for record in trace:
            handle.write(
                f"{record.time_ns},{record.bank},{record.row},"
                f"{int(record.is_attack)}\n"
            )
            count += 1
    return count


def load_trace(path: Union[str, Path], lazy: bool = False) -> Trace:
    """Read a trace written by :func:`save_trace`.

    With ``lazy=True`` records stream from disk on iteration (one pass
    only); otherwise they are materialised into a list.  Malformed
    input raises :class:`TraceFormatError` naming the file and line.
    """
    path = Path(path)
    with path.open("r", encoding="utf-8") as handle:
        header_line = handle.readline()
    meta = parse_trace_header(header_line, path)

    def read_records() -> Iterator[TraceRecord]:
        with path.open("r", encoding="utf-8") as handle:
            handle.readline()  # header
            yield from read_trace_stream(handle, path)

    trace = Trace(meta=meta, records=read_records())
    if not lazy:
        trace.materialize()
    return trace


def save_trace_npz(trace: Trace, path: Union[str, Path]) -> int:
    """Write *trace* as an ``.npz`` of columns; returns the record count.

    The archive is the zip of npy members :func:`numpy.load` reads
    (:func:`_npy_bytes`), written without numpy.
    """
    trace.materialize()
    records = trace.records
    columns = [
        ("times", (r.time_ns for r in records), "<i8"),
        ("banks", (r.bank for r in records), "<i2"),
        ("rows", (r.row for r in records), "<i4"),
        ("attacks", (r.is_attack for r in records), "|b1"),
        ("meta", [trace.meta.total_intervals, trace.meta.interval_ns,
                  trace.meta.num_banks], "<i8"),
    ]
    with zipfile.ZipFile(
        Path(path), "w", compression=zipfile.ZIP_DEFLATED
    ) as archive:
        for name, values, descr in columns:
            archive.writestr(f"{name}.npy", _npy_bytes(values, descr))
    return len(records)


#: the members of a trace ``.npz``: the record columns in
#: :class:`TraceRecord` field order, then ``meta``
_NPZ_MEMBERS = ("times", "banks", "rows", "attacks", "meta")


def load_trace_npz(path: Union[str, Path]) -> Trace:
    """Read a trace written by :func:`save_trace_npz` (or by numpy with
    the same columns).

    Raises :class:`TraceFormatError` naming the file and the member
    when the archive is not a trace ``.npz``: not a zip of npy members,
    a member missing, corrupt or of the wrong dtype or shape, columns
    of different lengths, or a ``meta`` member that is not three values.
    """
    path = Path(path)
    columns = {}
    try:
        with zipfile.ZipFile(path) as archive:
            for name in _NPZ_MEMBERS:
                member = f"{name}.npy"
                try:
                    data = archive.read(member)
                except KeyError:
                    raise TraceFormatError(
                        path, f"npz member {member!r} is missing"
                    ) from None
                except (zipfile.BadZipFile, zlib.error, EOFError) as exc:
                    raise TraceFormatError(
                        path, f"npz member {member!r}: corrupt data: {exc}"
                    ) from exc
                columns[name] = _parse_npy(
                    data, path, member,
                    _BOOL_DESCRS if name == "attacks" else _INT_DESCRS,
                )
    except zipfile.BadZipFile as exc:
        raise TraceFormatError(path, f"unreadable npz archive: {exc}") from exc
    return _trace_from_columns(path, columns)


def _trace_from_columns(path, columns) -> Trace:
    """Assemble a :class:`Trace` from decoded npz columns (python
    tuples), refusing columns of unequal length -- zipping them would
    silently truncate to the shortest -- and a malformed ``meta``."""
    meta_values = columns["meta"]
    if len(meta_values) != 3:
        raise TraceFormatError(
            path, "npz member 'meta.npy': expected 3 values (total_intervals, "
            f"interval_ns, num_banks), got {len(meta_values)}",
        )
    record_columns = [columns[name] for name in _NPZ_MEMBERS[:-1]]
    count = len(record_columns[0])
    for name, column in zip(_NPZ_MEMBERS[1:], record_columns[1:]):
        if len(column) != count:
            raise TraceFormatError(
                path, f"npz member '{name}.npy': {len(column)} values, but "
                f"'times.npy' has {count}",
            )
    total_intervals, interval_ns, num_banks = meta_values
    meta = TraceMeta(
        total_intervals=total_intervals,
        interval_ns=interval_ns,
        num_banks=num_banks,
    )
    return Trace(meta=meta, records=list(map(TraceRecord, *record_columns)))


# ---------------------------------------------------------------------------
# npy members
#
# An ``.npz`` file is a zip archive whose members are ``.npy`` files;
# an ``.npy`` file is a fixed magic + ascii header dict + raw
# little-endian column bytes.  Implementing the v1.0 subset a trace
# needs (1-D ``<i8``/``<i4``/``<i2``/``|b1`` columns) keeps the format
# numpy's own, so archives load with or without numpy installed.
# ---------------------------------------------------------------------------

_NPY_MAGIC = b"\x93NUMPY"

#: npy descr -> struct per-element format code for the dtypes we emit
_NPY_DESCRS = {"<i8": "q", "<i4": "i", "<i2": "h", "|b1": "?"}
#: the descrs a record column may have: ``attacks`` is boolean, every
#: other column (and ``meta``) integer
_INT_DESCRS = ("<i8", "<i4", "<i2")
_BOOL_DESCRS = ("|b1",)


def _npy_bytes(values, descr: str) -> bytes:
    """Serialise a 1-D column (any iterable) as an npy v1.0 member
    body."""
    import array
    import struct
    import sys

    code = _NPY_DESCRS[descr]
    # packed as it is built: no list or argument tuple of the values
    column = array.array("B" if code == "?" else code, values)
    if sys.byteorder == "big":
        column.byteswap()
    header = (
        "{'descr': '%s', 'fortran_order': False, 'shape': (%d,), }"
        % (descr, len(column))
    )
    # pad with spaces so magic+version+len+header is 64-byte aligned,
    # ending in newline, exactly as numpy.lib.format writes it
    unpadded = len(_NPY_MAGIC) + 2 + 2 + len(header) + 1
    header = header + " " * (-unpadded % 64) + "\n"
    return b"".join([
        _NPY_MAGIC, b"\x01\x00",
        struct.pack("<H", len(header)), header.encode("ascii"),
        column.tobytes(),
    ])


def _parse_npy(data: bytes, path, name: str, descrs: Tuple[str, ...]):
    """Decode an npy member of one of *descrs* into a tuple of python
    scalars."""
    import ast
    import struct

    def bad(reason: str):
        return TraceFormatError(path, f"npz member {name!r}: {reason}")

    if len(data) <= len(_NPY_MAGIC) or data[: len(_NPY_MAGIC)] != _NPY_MAGIC:
        raise bad("not an npy file (bad magic)")
    major = data[len(_NPY_MAGIC)]
    if major not in (1, 2, 3):
        raise bad(f"unsupported npy version {major}")
    size_format = "<H" if major == 1 else "<I"
    offset = len(_NPY_MAGIC) + 2 + struct.calcsize(size_format)
    try:
        (header_len,) = struct.unpack_from(
            size_format, data, len(_NPY_MAGIC) + 2
        )
        header = ast.literal_eval(
            data[offset:offset + header_len].decode("latin-1").strip()
        )
        descr = header["descr"]
        shape = header["shape"]
    except Exception as exc:
        raise bad(f"malformed header: {exc}") from exc
    offset += header_len
    if header.get("fortran_order") or not isinstance(shape, tuple) \
            or len(shape) != 1 or not isinstance(shape[0], int) \
            or shape[0] < 0:
        raise bad(f"expected a 1-D C-order column, got {header!r}")
    if descr not in descrs:
        raise bad(f"dtype {descr!r}, expected one of {', '.join(descrs)}")
    count = shape[0]
    code = _NPY_DESCRS[descr]
    body = data[offset:]
    expected = count * struct.calcsize("<" + code)
    if len(body) < expected:
        raise bad(f"truncated data ({len(body)} bytes, need {expected})")
    return struct.unpack_from("<%d%s" % (count, code), body)
