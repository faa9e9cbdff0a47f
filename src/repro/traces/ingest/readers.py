"""Streaming readers for the three supported external trace formats.

Every reader is a generator yielding :class:`TraceRecord` values in
file order, holding O(1) state -- files are never slurped into memory
(the litex payload reader holds the instruction list, which is tiny;
the *expansion* of its loops streams).  Gzip input is transparent:
:func:`open_trace_text` sniffs the two magic bytes instead of trusting
the file extension.

Malformed input raises :class:`TraceFormatError` naming file and line;
each reader routes record-level errors through a
:class:`ParseErrorPolicy` so callers choose between ``raise`` (default)
and ``skip`` (count, remember a sample, carry on).  Structural errors
-- a truncated gzip stream, unparseable JSON -- always raise: there is
no next line to skip to.

Format details live in ``docs/trace-formats.md``.
"""

from __future__ import annotations

import gzip
import io
import json
from pathlib import Path
from typing import (
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    TextIO,
    Tuple,
    Union,
)

from repro.config import SimConfig
from repro.traces.ingest.mapper import AddressMapper
from repro.traces.record import TraceRecord
from repro.traces.trace_io import (
    TraceFormatError,
    parse_trace_header,
    parse_trace_record,
)

#: supported ``--format`` values (``auto`` sniffs via :func:`detect_format`)
FORMAT_NAMES = ("dramsim", "litex", "native")

_GZIP_MAGIC = b"\x1f\x8b"

#: DRAMSim command mnemonics that open a row (everything else is ignored)
DEFAULT_ACT_COMMANDS = ("ACT", "ACTIVATE", "ACT0", "ACT1")


class ParseErrorPolicy:
    """What to do with a malformed record: ``raise`` or ``skip``.

    In ``skip`` mode malformed records are counted and the first few
    error messages retained for the provenance report; the reader keeps
    going.  One policy instance accompanies one ingest run.
    """

    def __init__(self, mode: str = "raise", sample_limit: int = 5):
        if mode not in ("raise", "skip"):
            raise ValueError(f"on_parse_error must be raise|skip, got {mode!r}")
        self.mode = mode
        self.sample_limit = sample_limit
        self.skipped = 0
        self.samples: List[str] = []

    def handle(self, error: TraceFormatError) -> None:
        if self.mode == "raise":
            raise error
        self.skipped += 1
        if len(self.samples) < self.sample_limit:
            self.samples.append(str(error))


def open_trace_text(path: Union[str, Path]) -> TextIO:
    """Open *path* for text reading, decompressing gzip transparently.

    Detection is by the 1f 8b magic bytes, not the filename, so
    ``trace.txt`` containing gzip data still works.
    """
    path = Path(path)
    raw = path.open("rb")
    try:
        magic = raw.read(2)
        raw.seek(0)
    except OSError:
        raw.close()
        raise
    if magic == _GZIP_MAGIC:
        return io.TextIOWrapper(gzip.GzipFile(fileobj=raw), encoding="utf-8")
    return io.TextIOWrapper(raw, encoding="utf-8")


def detect_format(path: Union[str, Path]) -> str:
    """Sniff which of the three formats *path* contains.

    ``#repro-trace:`` header -> native; a JSON object/array -> litex;
    anything else -> dramsim.
    """
    with open_trace_text(path) as handle:
        head = handle.read(4096)
    stripped = head.lstrip()
    if stripped.startswith("#repro-trace:"):
        return "native"
    if stripped[:1] in ("{", "["):
        return "litex"
    return "dramsim"


def dramsim_records(
    lines: Iterable[str],
    source: Union[str, Path],
    mapper: AddressMapper,
    config: SimConfig,
    policy: ParseErrorPolicy,
    clock_ns: float = 1.0,
    act_commands: Sequence[str] = DEFAULT_ACT_COMMANDS,
    mark_attacks: bool = False,
    start_line: int = 1,
) -> Iterator[TraceRecord]:
    """Parse DRAMSim/Ramulator ``cycle,cmd,addr`` *lines* into records.

    The line-granular core shared by the file reader
    (:func:`read_dramsim`) and the chunk-fed streaming sessions of
    ``repro serve``, which assemble lines with
    :class:`~repro.traces.ingest.streaming.ChunkDecoder`.  *source*
    names the origin in error messages; *start_line* seeds the error
    line numbering.
    """
    acts = frozenset(c.upper() for c in act_commands)
    num_banks = config.geometry.num_banks
    rows_per_bank = config.geometry.rows_per_bank
    for line_no, line in enumerate(lines, start=start_line):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = (
            [p.strip() for p in line.split(",")]
            if "," in line
            else line.split()
        )
        if len(parts) != 3:
            policy.handle(TraceFormatError(
                source,
                f"bad dramsim record {line!r} (expected "
                "'cycle,cmd,addr')",
                line_no=line_no,
            ))
            continue
        cycle_text, cmd, addr_text = parts
        try:
            cycle = int(cycle_text)
            if cycle < 0:
                raise ValueError("negative cycle")
        except ValueError:
            policy.handle(TraceFormatError(
                source,
                f"bad dramsim record {line!r} (cycle must be a "
                "non-negative integer)",
                line_no=line_no,
            ))
            continue
        if cmd.upper() not in acts:
            continue
        try:
            addr = int(addr_text, 0)
            if addr < 0:
                raise ValueError("negative addr")
        except ValueError:
            policy.handle(TraceFormatError(
                source,
                f"bad dramsim record {line!r} (addr must be a "
                "non-negative integer; 0x hex accepted)",
                line_no=line_no,
            ))
            continue
        decoded = mapper.decode(addr)
        bank = mapper.flat_bank(decoded)
        if bank >= num_banks or decoded.row >= rows_per_bank:
            policy.handle(TraceFormatError(
                source,
                f"address 0x{addr:x} decodes to bank {bank}, row "
                f"{decoded.row} outside the configured geometry "
                f"({num_banks} banks x {rows_per_bank} rows)",
                line_no=line_no,
            ))
            continue
        try:
            time_ns = int(round(cycle * clock_ns))
        except OverflowError:
            policy.handle(TraceFormatError(
                source,
                f"bad dramsim record {line!r} (cycle {cycle} at "
                f"{clock_ns} ns per cycle has no finite time)",
                line_no=line_no,
            ))
            continue
        yield TraceRecord(time_ns, bank, decoded.row, mark_attacks)


def read_dramsim(
    path: Union[str, Path],
    mapper: AddressMapper,
    config: SimConfig,
    policy: ParseErrorPolicy,
    clock_ns: float = 1.0,
    act_commands: Sequence[str] = DEFAULT_ACT_COMMANDS,
    mark_attacks: bool = False,
) -> Iterator[TraceRecord]:
    """Read a DRAMSim/Ramulator-style ``cycle,cmd,addr`` text trace.

    Fields may be comma- or whitespace-separated; ``addr`` accepts
    decimal or ``0x`` hex.  Commands outside *act_commands* (reads,
    precharges, refreshes) are silently ignored -- only activations
    drive Row-Hammer.  ``cycle`` is converted to nanoseconds via
    *clock_ns* and each address is decoded through *mapper*.
    """
    with open_trace_text(path) as handle:
        yield from dramsim_records(
            handle, path, mapper, config, policy,
            clock_ns=clock_ns, act_commands=act_commands,
            mark_attacks=mark_attacks,
        )


def read_litex(
    path: Union[str, Path],
    config: SimConfig,
    policy: ParseErrorPolicy,
    mark_attacks: bool = True,
) -> Iterator[TraceRecord]:
    """Read a litex-rowhammer-tester JSON dump.

    Two shapes are accepted (see ``docs/trace-formats.md``):

    * **row-sequence dump** -- ``{"row_sequence": [...], "bank": b,
      "iterations": n}`` (``"rows"`` is an alias): the row list is
      replayed *iterations* times with the configured act-to-act
      spacing, all on one bank.
    * **payload dump** -- ``{"timing": {"tick_ps": p}, "instrs":
      [...]}``: an instruction list mirroring the tester's DDR3/DDR4
      payload executor with ``ACT``/``NOP`` and backward ``JMP``
      (do-while: a count-``n`` loop body executes ``n`` times total).

    Rows-under-test come from hammer payloads, so records default to
    ``is_attack=True``.
    """
    with open_trace_text(path) as handle:
        try:
            payload = json.load(handle)
        except json.JSONDecodeError as exc:
            raise TraceFormatError(
                path, f"malformed JSON: {exc}", line_no=exc.lineno
            ) from exc
        except RecursionError as exc:
            raise TraceFormatError(path, f"malformed JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise TraceFormatError(
            path,
            f"litex dump must be a JSON object, got {type(payload).__name__}",
        )
    if "instrs" in payload:
        yield from _litex_payload(path, payload, config, policy, mark_attacks)
    elif "row_sequence" in payload or "rows" in payload:
        yield from _litex_rows(path, payload, config, policy, mark_attacks)
    else:
        raise TraceFormatError(
            path,
            "litex dump must contain either 'instrs' (payload dump) or "
            "'row_sequence'/'rows' (row-sequence dump)",
        )


def _litex_rows(
    path, payload: dict, config: SimConfig,
    policy: ParseErrorPolicy, mark_attacks: bool,
) -> Iterator[TraceRecord]:
    rows = payload.get("row_sequence", payload.get("rows"))
    if not isinstance(rows, list):
        raise TraceFormatError(
            path, "'row_sequence' must be a JSON array of row numbers"
        )
    bank = _json_int(path, payload, "bank", default=0)
    iterations = _json_int(path, payload, "iterations", default=1)
    if iterations < 1:
        raise TraceFormatError(path, "'iterations' must be >= 1")
    geometry = config.geometry
    if not 0 <= bank < geometry.num_banks:
        raise TraceFormatError(
            path, f"bank {bank} outside the configured geometry "
                  f"({geometry.num_banks} banks)"
        )
    step_ns = max(1, int(config.timing.act_to_act_ns))
    time_ns = 0
    for _ in range(iterations):
        for index, row in enumerate(rows):
            if not isinstance(row, int) or not (
                0 <= row < geometry.rows_per_bank
            ):
                policy.handle(TraceFormatError(
                    path,
                    f"row_sequence[{index}] = {row!r} is not a row in "
                    f"[0, {geometry.rows_per_bank})",
                ))
                continue
            yield TraceRecord(time_ns, bank, row, mark_attacks)
            time_ns += step_ns


def _litex_payload(
    path, payload: dict, config: SimConfig,
    policy: ParseErrorPolicy, mark_attacks: bool,
) -> Iterator[TraceRecord]:
    timing = payload.get("timing", {})
    if not isinstance(timing, dict):
        raise TraceFormatError(path, "'timing' must be a JSON object")
    tick_ps = _json_int(path, timing, "tick_ps", default=2500)
    if tick_ps < 1:
        raise TraceFormatError(path, "'timing.tick_ps' must be >= 1")
    instrs = payload["instrs"]
    if not isinstance(instrs, list):
        raise TraceFormatError(path, "'instrs' must be a JSON array")
    geometry = config.geometry
    time_ps = 0
    index = 0
    # remaining backward jumps per JMP site; do-while semantics mean a
    # count-n JMP takes its branch n-1 times (the first pass of the
    # body already happened when the JMP is reached)
    jumps_left: dict = {}
    while index < len(instrs):
        instr = instrs[index]
        if not isinstance(instr, dict):
            raise TraceFormatError(
                path, f"instrs[{index}] must be a JSON object"
            )
        op = str(instr.get("op", instr.get("opcode", ""))).upper()
        if op == "JMP":
            offset = _json_int(path, instr, "offset", index=index)
            count = _json_int(path, instr, "count", index=index)
            if offset < 1 or offset > index:
                raise TraceFormatError(
                    path,
                    f"instrs[{index}]: JMP offset {offset} does not land "
                    "inside the instruction list",
                )
            left = jumps_left.get(index)
            if left is None:
                left = count - 1
            if left > 0:
                jumps_left[index] = left - 1
                index -= offset
                continue
            jumps_left.pop(index, None)
            index += 1
            continue
        timeslice = _json_int(path, instr, "timeslice", default=1, index=index)
        if timeslice < 0:
            raise TraceFormatError(
                path, f"instrs[{index}]: timeslice must be >= 0"
            )
        if op in ("ACT", "ACTIVATE"):
            rank = _json_int(path, instr, "rank", default=0, index=index)
            bank = _json_int(path, instr, "bank", default=0, index=index)
            row = _json_int(
                path, instr, "addr",
                default=instr.get("row"), index=index,
            )
            flat = rank * geometry.num_banks + bank
            if (
                row is None or not 0 <= row < geometry.rows_per_bank
                or not 0 <= flat < geometry.num_banks
            ):
                policy.handle(TraceFormatError(
                    path,
                    f"instrs[{index}]: ACT targets bank {flat}, row "
                    f"{row!r} outside the configured geometry",
                ))
            else:
                yield TraceRecord(
                    time_ps // 1000, flat, row, mark_attacks
                )
        elif op in ("NOP", "NOOP", "RD", "READ", "WR", "WRITE", "PRE",
                    "REF", "ZQC", "LOOP_END"):
            pass  # advances time only
        else:
            policy.handle(TraceFormatError(
                path, f"instrs[{index}]: unknown opcode {op!r}"
            ))
        time_ps += timeslice * tick_ps
        index += 1


def _json_int(path, obj: dict, key: str, default=None, index=None):
    value = obj.get(key, default)
    if value is None:
        if default is None and key in ("offset", "count"):
            where = f"instrs[{index}]: " if index is not None else ""
            raise TraceFormatError(
                path, f"{where}missing required field {key!r}"
            )
        return value
    if isinstance(value, bool) or not isinstance(value, int):
        where = f"instrs[{index}]: " if index is not None else ""
        raise TraceFormatError(
            path, f"{where}field {key!r} must be an integer, got {value!r}"
        )
    return value


def native_records(
    lines: Iterable[str],
    source: Union[str, Path],
    policy: ParseErrorPolicy,
    start_line: int = 2,
) -> Iterator[TraceRecord]:
    """Parse native-format record *lines* (header already consumed).

    Line-granular core shared by :func:`read_native` and the chunk-fed
    streaming sessions; honours the skip *policy* per record.
    """
    for line_no, line in enumerate(lines, start=start_line):
        line = line.strip()
        if not line:
            continue
        try:
            yield parse_trace_record(line, source, line_no)
        except TraceFormatError as exc:
            policy.handle(exc)


def read_native(
    path: Union[str, Path],
    policy: ParseErrorPolicy,
) -> Tuple[Optional[object], Iterator[TraceRecord]]:
    """Read a native ``#repro-trace:`` file (possibly gzipped).

    Returns ``(meta, records)`` -- the parsed :class:`TraceMeta` plus a
    streaming record iterator.  Unlike :func:`repro.traces.trace_io.
    load_trace` this honours the skip policy and gzip input.
    """
    handle = open_trace_text(path)
    try:
        meta = parse_trace_header(handle.readline().rstrip("\n"), path)
    except TraceFormatError:
        handle.close()
        raise

    def records() -> Iterator[TraceRecord]:
        with handle:
            yield from native_records(handle, path, policy)

    return meta, records()
