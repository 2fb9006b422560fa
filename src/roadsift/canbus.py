"""CAN conversion and playback: DBC subset, signal codec, trace resampling.

Parses the message/signal subset of the DBC format, bit-packs physical
values into classic 8-byte CAN frames (Intel and Motorola byte orders),
converts labelled drive traces into timestamped playback records, and
streams them to a byte sink with optional real-time pacing.

Conversion works on arrays. A trace is the (steps, 9) float64 array of a
drive, its columns oracle.TRACE_COLUMNS. One searchsorted over its rounded
state times finds the row each sample instant holds; each mapped signal is
quantised over the held rows' column in one numpy pass, the same quantiser
encode_signal uses, and each mapped message's frames are packed as a
uint64 column, one frame per held state. convert_trace expands them into
records, ordered by timestamp, then can_id, then message name;
write_trace_playback writes the same playback CSV straight from them,
formatting each held frame's text once.

Wire framing: timestamp_ms (u32 LE) | can_id (u32 LE) | dlc (u8) | data.
"""

from __future__ import annotations

import io
import math
import re
import socket
import struct
import time
from dataclasses import dataclass, replace
from itertools import starmap
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .inputs import NUMBER, is_number, read_json, read_text
from .oracle import TRACE_KEYS

LITTLE_ENDIAN = "little"
BIG_ENDIAN = "big"
MAX_U32 = (1 << 32) - 1     # the wire's timestamp and can_id fields
SAMPLE_PERIOD_MS = 20       # resampling period of a trace, unless one is given


class DbcSyntaxError(ValueError):
    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


class OverlappingSignals(ValueError):
    """Two signals in one message claim the same bit."""


class SignalOutOfFrame(ValueError):
    """Signal bits extend past the message's dlc bytes."""


class ValueOutOfRange(ValueError):
    """Physical value outside [min, max] with clamping disabled."""


class MappingError(ValueError):
    """Trace field or target signal missing."""


class CsvFormatError(ValueError):
    def __init__(self, path: str | Path, line: int, message: str):
        super().__init__(f"{path}, line {line}: {message}")
        self.path = path
        self.line = line


class SinkError(RuntimeError):
    def __init__(self, message: str, frames_sent: int):
        super().__init__(message)
        self.frames_sent = frames_sent


@dataclass(frozen=True)
class CanSignalDef:
    name: str
    start_bit: int
    bit_length: int
    byte_order: str          # LITTLE_ENDIAN | BIG_ENDIAN
    signed: bool
    scale: float
    offset: float
    minimum: float
    maximum: float
    unit: str = ""

    def __post_init__(self):
        if not 1 <= self.bit_length <= 64:
            raise SignalOutOfFrame(
                f"{self.name}: bit_length {self.bit_length} outside 1..64")
        if not 0 <= self.start_bit <= 63:
            raise SignalOutOfFrame(
                f"{self.name}: start_bit {self.start_bit} outside 0..63")
        values = (self.scale, self.offset, self.minimum, self.maximum)
        if not (all(map(math.isfinite, values)) and self.scale != 0):
            raise ValueError(f"{self.name}: scale, offset, min and max must be "
                             f"finite numbers and scale not 0, got {values}")
        if self.minimum > self.maximum:
            raise ValueError(f"{self.name}: min > max")
        # a clamped value's raw field lies between these two
        if not all(math.isfinite((end - self.offset) / self.scale)
                   for end in (self.minimum, self.maximum)):
            raise ValueError(f"{self.name}: [min, max] has no finite raw "
                             "values at this scale and offset")

    def bit_positions(self) -> list[int]:
        """Frame bit indices (byte*8 + bit-in-byte, LSB=0) occupied by the
        signal, ordered raw-LSB first."""
        if self.byte_order == LITTLE_ENDIAN:
            return [self.start_bit + k for k in range(self.bit_length)]
        # Motorola: start_bit is the MSB; walk down within the byte, then on
        # to bit 7 of the next byte. Along that walk, index ^ 7 (byte*8 +
        # 7 - bit-in-byte) counts up by one
        return [((self.start_bit ^ 7) + k) ^ 7
                for k in reversed(range(self.bit_length))]


@dataclass(frozen=True)
class CanMessageDef:
    can_id: int
    name: str
    dlc: int
    signals: tuple[CanSignalDef, ...]

    def __post_init__(self):
        if not 0 <= self.can_id <= MAX_U32:
            raise ValueError(f"{self.name}: can_id {self.can_id} does not fit "
                             "the wire's 32 bits")
        if not 0 <= self.dlc <= 8:
            raise ValueError(f"{self.name}: dlc {self.dlc} outside 0..8")
        seen: dict[int, str] = {}
        for sig in self.signals:
            for pos in sig.bit_positions():
                if pos >= self.dlc * 8:
                    raise SignalOutOfFrame(
                        f"{self.name}.{sig.name}: bit {pos} outside dlc {self.dlc}")
                if pos in seen:
                    raise OverlappingSignals(
                        f"{self.name}: {sig.name} overlaps {seen[pos]} at bit {pos}")
                seen[pos] = sig.name

    def signal(self, name: str) -> CanSignalDef:
        for sig in self.signals:
            if sig.name == name:
                return sig
        raise MappingError(f"message {self.name} has no signal {name}")


@dataclass(frozen=True)
class CanDatabase:
    messages: tuple[CanMessageDef, ...]

    def by_name(self, name: str) -> CanMessageDef:
        for msg in self.messages:
            if msg.name == name:
                return msg
        raise MappingError(f"no message named {name}")


# a line's kind is its keyword, followed by ASCII whitespace: BO_TX_BU_ and
# the other keywords are not message or signal lines
_LINE_KINDS = {"BO_": "message", "SG_": "signal"}
_LINE_KIND_RE = re.compile(r"(BO_|SG_)\s", re.ASCII)
# the whitespace of re.ASCII's \s, the only space a line may be padded with
_ASCII_SPACE = " \t\n\r\f\v"
# ASCII digits, and the number text rule for scale, offset, min and max,
# since int() and float() take non-ASCII digits, "_" and spaces; names are
# C identifiers and spacing is ASCII, as re.ASCII makes \w and \s
_BO_RE = re.compile(r"^BO_\s+([0-9]+)\s+(\w+)\s*:\s*([0-9]+)\s+(\S+)\s*$",
                    re.ASCII)
_SG_RE = re.compile(
    r"^\s*SG_\s+(\w+)\s*:\s*([0-9]+)\|([0-9]+)@([01])([+-])\s*"
    rf"\(\s*({NUMBER})\s*,\s*({NUMBER})\s*\)\s*"
    rf"\[\s*({NUMBER})\s*\|\s*({NUMBER})\s*\]\s*\"([^\"]*)\"\s*(.*)$", re.ASCII)
# a DBC line ends at \n, \r\n or \r, not at \f, \x85 or U+2028 as in
# str.splitlines, and not inside a string: "[^"]*", as a char_string holds
# no " or \. Each match is a line and its end: a break, none, or an open "
_LINE_BREAK_RE = re.compile(r"\r\n?|\n")
_DBC_LINE_RE = re.compile(r'((?:[^"\r\n]+|"[^"]*")*)(\r\n?|\n|"|\Z)')


def read_dbc(path: str | Path) -> CanDatabase:
    """parse_dbc of a file; raises ValueError naming the file and, where it
    is known, the line."""
    text = read_text(path)
    try:
        return parse_dbc(text)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


_MAPPING_KEYS = {"field", "message", "signal", "factor"}


def read_mapping(path: str | Path) -> SignalMapping:
    """A SignalMapping from a JSON list of objects with exactly the keys
    field, message, signal and factor, a finite number. Raises ValueError
    naming the file, and the entry where known."""
    entries = read_json(path)
    if not (isinstance(entries, list) and all(
            isinstance(e, dict) and e.keys() >= _MAPPING_KEYS for e in entries)):
        raise ValueError(f"{path}: each mapping entry needs the keys "
                         f"{sorted(_MAPPING_KEYS)}")
    for i, e in enumerate(entries):
        unknown = sorted(e.keys() - _MAPPING_KEYS)
        if unknown:
            raise ValueError(f"{path}: entry {i}: unknown key {unknown[0]!r}")
        if not is_number(e["factor"]):
            raise ValueError(f"{path}: entry {i}: factor "
                             f"{e['factor']!r} is not a finite number")
    return SignalMapping(entries=tuple(
        (e["field"], e["message"], e["signal"], float(e["factor"]))
        for e in entries))


def parse_dbc(text: str) -> CanDatabase:
    """Parse the BO_/SG_ subset; other line kinds are ignored, and a line
    break inside a string does not end a line. A line that does not parse,
    or is padded with space outside ASCII, and a string not closed are a
    DbcSyntaxError; a message or signal that is out of range or overlaps
    another signal, a message that reuses a message name or can_id and a
    signal that reuses a name in its message raise their own error,
    prefixed with the line."""
    messages: dict[str, CanMessageDef] = {}     # by name, in file order
    names_by_id: dict[int, str] = {}
    last = None
    next_line = 1               # the file line the next DBC line starts on
    for raw, end in _DBC_LINE_RE.findall(text):
        lineno = next_line
        next_line += len(_LINE_BREAK_RE.findall(raw + end))
        if end == '"':          # next_line is the line where it opens
            raise DbcSyntaxError("string not closed", next_line)
        stripped = raw.strip()
        keyword = _LINE_KIND_RE.match(stripped)
        if keyword is None:
            continue
        kind = _LINE_KINDS[keyword.group(1)]
        if stripped != raw.strip(_ASCII_SPACE):
            raise DbcSyntaxError(f"{kind} line padded with space outside "
                                 f"ASCII: {raw!r}", lineno)
        m = (_BO_RE if kind == "message" else _SG_RE).match(stripped)
        if not m:
            raise DbcSyntaxError(f"bad {kind} line: {stripped!r}", lineno)
        if kind == "signal" and last is None:
            raise DbcSyntaxError("signal line before any message", lineno)
        try:
            if kind == "message":
                can_id, name = int(m.group(1)), m.group(2)
                if name in messages:
                    raise ValueError(f"message {name} is defined twice")
                if can_id in names_by_id:
                    raise ValueError(f"message {name} reuses can_id {can_id} "
                                     f"of message {names_by_id[can_id]}")
                names_by_id[can_id] = name
                last = CanMessageDef(can_id=can_id, name=name,
                                     dlc=int(m.group(3)), signals=())
            else:
                if any(sig.name == m.group(1) for sig in last.signals):
                    raise ValueError(f"signal {m.group(1)} is defined twice "
                                     f"in message {last.name}")
                sig = CanSignalDef(
                    name=m.group(1),
                    start_bit=int(m.group(2)),
                    bit_length=int(m.group(3)),
                    byte_order=LITTLE_ENDIAN if m.group(4) == "1" else BIG_ENDIAN,
                    signed=m.group(5) == "-",
                    scale=float(m.group(6)),
                    offset=float(m.group(7)),
                    minimum=float(m.group(8)),
                    maximum=float(m.group(9)),
                    unit=m.group(10))
                # the message checks its signals' bits again with each one
                last = replace(last, signals=last.signals + (sig,))
        except ValueError as exc:
            raise type(exc)(f"line {lineno}: {exc}") from None
        messages[last.name] = last
    return CanDatabase(messages=tuple(messages.values()))


# ---------------------------------------------------------------------------
# codec

# A frame is handled as one int read little-endian from its bytes, so frame
# bit index byte*8 + bit-in-byte is int bit index.

def _codec(sig: CanSignalDef) -> tuple:
    """What quantising a signal's values needs, computed once: its clamp
    bounds, offset and scale, the range of its raw field and the mask of
    the field's width."""
    width = (1 << sig.bit_length) - 1
    if sig.signed:
        raw_min, raw_max = -(1 << (sig.bit_length - 1)), width >> 1
    else:
        raw_min, raw_max = 0, width
    return (sig.minimum, sig.maximum, sig.offset, sig.scale,
            raw_min, raw_max, width)


def _quantise(columns: list[tuple[tuple, np.ndarray]]) -> list[np.ndarray]:
    """The raw fields, as uint64 arrays, of columns of physical values, each
    with its signal's codec: clamp to [min, max], round to the scale, half
    to even as round() does, saturate to the field's range, and take the
    two's complement when signed.

    Each clamp keeps the rule of the builtins: max(value, lo) is lo if
    lo > value else value, and min(value, hi) is hi if hi < value else
    value, so a tie, a NaN or a -0.0 gives what they give. Saturation is
    exact also for fields wider than float64's 53-bit mantissa, whose
    raw_max is not a float: a rounded value is compared with raw_min and
    with raw_max + 1, a power of two, both exact floats, and raw_max is set
    as an int. The first value, rows before columns, whose scaled form is
    not finite (a NaN) raises what round() raises for it."""
    scaled = []
    for (lo, hi, offset, scale, *_), values in columns:
        values = np.where(lo > values, lo, values)
        values = np.where(hi < values, hi, values)
        scaled.append((values - offset) / scale)
    if scaled:
        bad = ~np.isfinite(np.column_stack(scaled))
        if bad.any():
            row, col = divmod(int(bad.argmax()), len(scaled))
            round(float(scaled[col][row]))
    raws = []
    for (codec, _), x in zip(columns, scaled):
        *_, raw_min, raw_max, width = codec
        x = np.rint(x)
        x = np.where(raw_min > x, raw_min, x)
        over = x >= float(raw_max + 1)
        # the rest fit the field's int type; raw_max is set after the cast
        dtype = np.int64 if raw_min else np.uint64
        raw = np.where(over, dtype(raw_max), np.where(over, 0.0, x).astype(dtype))
        raws.append(raw.view(np.uint64) & np.uint64(width))
    return raws


def _place(raw, start_bit: int, positions: tuple[int, ...] | None):
    """The frame bits of a raw field: an int's, or of each of a uint64
    array's."""
    if positions is None:
        return raw << start_bit
    bits = 0
    for k, pos in enumerate(positions):
        bits |= (raw >> k & 1) << pos
    return bits


def _layout(sig: CanSignalDef) -> tuple[tuple[int, ...] | None, int]:
    """Where a signal's bits go: its bit positions, raw-LSB first, for a
    Motorola signal, or None for an Intel one, whose bits run upward from
    start_bit so that a shift places it; and the mask of those bits."""
    positions = (None if sig.byte_order == LITTLE_ENDIAN
                 else tuple(sig.bit_positions()))
    return positions, _place((1 << sig.bit_length) - 1, sig.start_bit, positions)


def encode_signal(sig: CanSignalDef, value: float, frame: bytearray,
                  clamp: bool = True) -> None:
    """Pack a physical value into the frame buffer, touching only the
    signal's own bits, the raw field as _quantise gives it; with clamp
    false, a value outside [min, max] raises instead."""
    if not (clamp or sig.minimum <= value <= sig.maximum):
        raise ValueOutOfRange(
            f"{sig.name}: {value} outside [{sig.minimum}, {sig.maximum}]")
    raw = int(_quantise([(_codec(sig), np.array([value], dtype=float))])[0][0])
    positions, mask = _layout(sig)
    bits = (int.from_bytes(frame, "little") & ~mask
            | _place(raw, sig.start_bit, positions))
    frame[:] = bits.to_bytes(len(frame), "little")


def decode_signal(sig: CanSignalDef, frame: bytes | bytearray) -> float:
    bits = int.from_bytes(frame, "little")
    positions, mask = _layout(sig)
    if positions is None:
        raw = (bits & mask) >> sig.start_bit
    else:
        raw = 0
        for k, pos in enumerate(positions):
            raw |= (bits >> pos & 1) << k
    if sig.signed and raw >> (sig.bit_length - 1):
        raw -= 1 << sig.bit_length
    return raw * sig.scale + sig.offset


# ---------------------------------------------------------------------------
# default database and trace mapping

DEFAULT_DBC = """\
BO_ 256 VEHICLE_DYNAMICS: 8 SIM
 SG_ speed_kmh : 0|16@1+ (0.01,0) [0|655.35] "km/h" DUT

BO_ 257 STEERING: 8 SIM
 SG_ angle_deg : 0|16@1- (0.1,0) [-3276.8|3276.7] "deg" DUT

BO_ 258 PEDALS: 8 SIM
 SG_ throttle_pct : 0|8@1+ (0.5,0) [0|100] "%" DUT
 SG_ brake_pct : 8|8@1+ (0.5,0) [0|100] "%" DUT
"""

MS_PER_KMH = 3.6


@dataclass(frozen=True)
class SignalMapping:
    """Pairs (trace field, message name, signal name, conversion factor)."""
    entries: tuple[tuple[str, str, str, float], ...]

    def validate(self, db: CanDatabase, trace_fields: tuple[str, ...]) -> None:
        for field_name, msg_name, sig_name, _ in self.entries:
            if field_name not in trace_fields:
                raise MappingError(f"trace has no field {field_name!r}")
            db.by_name(msg_name).signal(sig_name)


DEFAULT_MAPPING = SignalMapping(entries=(
    ("speed", "VEHICLE_DYNAMICS", "speed_kmh", MS_PER_KMH),
    ("steering", "STEERING", "angle_deg", 180.0 / math.pi),
    ("throttle", "PEDALS", "throttle_pct", 100.0),
    ("brake", "PEDALS", "brake_pct", 100.0),
))


class PlaybackRecord(NamedTuple):
    timestamp_ms: int
    can_id: int
    dlc: int
    data: bytes             # dlc bytes; the readers of outside input check it


def _compile(db: CanDatabase, mapping: SignalMapping) -> list[tuple]:
    """The layout of each mapped message, in (can_id, name) order:
    (can_id, dlc, signals), each signal (trace field, factor, codec, start
    bit, Motorola positions or None, uint64 mask clearing its bits), in
    mapping order."""
    mapping.validate(db, TRACE_KEYS)
    per_message: dict[str, list] = {}
    for field_name, msg_name, sig_name, factor in mapping.entries:
        sig = db.by_name(msg_name).signal(sig_name)
        positions, mask = _layout(sig)
        per_message.setdefault(msg_name, []).append(
            (field_name, factor, _codec(sig), sig.start_bit, positions,
             np.uint64(~mask & (1 << 64) - 1)))
    messages = sorted((db.by_name(name) for name in per_message),
                      key=lambda msg: (msg.can_id, msg.name))
    return [(msg.can_id, msg.dlc, per_message[msg.name]) for msg in messages]


def check_sample_period(sample_period_ms: int) -> None:
    if sample_period_ms < 1:
        raise ValueError(f"sample_period_ms must be >= 1, got {sample_period_ms}")


def _held_frames(trace, db: CanDatabase, mapping: SignalMapping,
                 sample_period_ms: int) -> tuple[list, list, list]:
    """The zero-order hold of a trace array: its sample instants in ms, the
    row of the held state at each instant, and each held state's frames,
    (can_id, dlc, data) in (can_id, name) order.

    The held states' rows are sliced out once, and each mapped field read
    as their column at its TRACE_KEYS index. Each mapped signal is
    quantised over the held states in one pass, and each message's frames
    are packed as a uint64 column; the first bad value in (instant,
    message, mapping entry) order raises."""
    check_sample_period(sample_period_ms)
    if not len(trace):
        raise MappingError("empty trace")
    plan = _compile(db, mapping)
    times_ms = list(map(round, (trace[:, 0] * 1000.0).tolist()))
    instants = np.arange(0, times_ms[-1] + 1, sample_period_ms)
    # an instant holds the last state before the first later one whose time
    # is past it, sorted or not: k states after the first are held once the
    # latest of their times is at or before the instant
    latest = np.maximum.accumulate(np.array(times_ms[1:], dtype=float))
    states, rows = np.unique(np.searchsorted(latest, instants, side="right"),
                             return_inverse=True)
    held = trace[states]
    # an infinity times 0 is a NaN, which quantising refuses, and an
    # overflow an infinity, which it clamps: no numpy warning for either
    with np.errstate(invalid="ignore", over="ignore"):
        values = [(codec, held[:, TRACE_KEYS.index(name)] * factor)
                  for _, _, signals in plan
                  for name, factor, codec, *_ in signals]
    raws = iter(_quantise(values))
    per_message = []
    for can_id, dlc, signals in plan:
        bits = np.zeros(len(held), np.uint64)
        for *_, start_bit, positions, clear in signals:
            bits = bits & clear | _place(next(raws), start_bit, positions)
        per_message.append([(can_id, dlc, frame.to_bytes(dlc, "little"))
                            for frame in bits.tolist()])
    # with no mapped message, each held state has no frames
    frames = list(zip(*per_message)) or [()] * len(held)
    return instants.tolist(), rows.tolist(), frames


def convert_trace(trace, db: CanDatabase, mapping: SignalMapping,
                  sample_period_ms: int = SAMPLE_PERIOD_MS) -> list[PlaybackRecord]:
    """Zero-order-hold resample of the trace, one record per mapped message
    per sample instant, ordered by timestamp, then can_id, then message
    name.

    Each held trace state's frames are packed once and reused at each
    instant that holds it. Within a frame, mapped signals are written in
    mapping order, so a signal mapped twice carries the later entry's
    value.

    trace: a (steps, len(oracle.TRACE_COLUMNS)) float64 array, as a drive
    or load_dataset gives it; its first column is the time in seconds.
    """
    instants, rows, frames = _held_frames(trace, db, mapping, sample_period_ms)
    return [PlaybackRecord(ms, *frame)
            for ms, row in zip(instants, rows) for frame in frames[row]]


# ---------------------------------------------------------------------------
# playback CSV

CSV_HEADER = "timestamp_ms,can_id_hex,dlc,data_hex"


def _frame_text(can_id: int, dlc: int, data: bytes) -> str:
    """A playback CSV line after its timestamp."""
    return f",{can_id:x},{dlc},{data.hex()}"


def _write_csv(path: str | Path, rows: str) -> None:
    """A playback CSV of rows, each a newline, then its line."""
    Path(path).write_text(f"{CSV_HEADER}{rows}\n")


def write_playback_csv(records: list[PlaybackRecord], path: str | Path) -> None:
    """One line per record, under CSV_HEADER."""
    _write_csv(path, "".join([f"\n{ts}{_frame_text(can_id, dlc, data)}"
                              for ts, can_id, dlc, data in records]))


def write_trace_playback(trace, db: CanDatabase, mapping: SignalMapping,
                         path: str | Path,
                         sample_period_ms: int = SAMPLE_PERIOD_MS) -> None:
    """The file write_playback_csv writes of convert_trace's records, and
    the same errors, without building the records: each held frame's text
    is formatted once, and each instant's lines are joined at once."""
    instants, rows, frames = _held_frames(trace, db, mapping, sample_period_ms)
    texts = [("", *starmap(_frame_text, state)) for state in frames]
    _write_csv(path, "".join([f"\n{ms}".join(texts[row])
                              for ms, row in zip(instants, rows)]))


# a row's fields as write_playback_csv writes them, in ASCII only, since
# int() and bytes.fromhex() take "_", spaces and non-ASCII digits
_PLAYBACK_ROW = re.compile(
    r"([0-9]+),([0-9a-fA-F]+),([0-9]+),((?:[0-9a-fA-F]{2})*)")


def read_playback_csv(path: str | Path) -> list[PlaybackRecord]:
    """Read a file written by write_playback_csv; a file holding only the
    header is an empty playback. Each line is read as written, only its
    newline removed, and an empty line is skipped. Raises ValueError
    naming the file, and the line where known, when it cannot be read or
    is not UTF-8, and CsvFormatError when it is empty, its header is wrong
    or a row is bad: a timestamp_ms or dlc that is not ASCII decimal
    digits, a can_id or data that is not ASCII hex digits (data in pairs),
    a timestamp or can_id outside the wire's u32, a dlc past classic CAN's
    8 bytes or unlike the data's length."""
    records = []
    prev_ts = None
    with io.StringIO(read_text(path), newline=None) as fh:
        first = fh.readline()
        header = first.rstrip("\n")
        if header != CSV_HEADER:
            raise CsvFormatError(path, 1, f"bad header {header!r}" if first
                                 else f"empty file, expected {CSV_HEADER!r}")
        for lineno, raw in enumerate(fh, start=2):
            line = raw.rstrip("\n")
            if not line:
                continue
            fields = _PLAYBACK_ROW.fullmatch(line)
            if fields is None:
                parts = line.split(",")
                raise CsvFormatError(path, lineno, (
                    f"expected 4 fields, got {len(parts)}" if len(parts) != 4
                    else f"{line!r} is not a decimal timestamp_ms, a hex "
                    "can_id, a decimal dlc and hex data bytes"))
            try:
                ts = int(fields[1])
                can_id = int(fields[2], 16)
                dlc = int(fields[3])
            except ValueError as exc:         # past int()'s digit limit
                raise CsvFormatError(path, lineno, str(exc)) from exc
            data = bytes.fromhex(fields[4])
            if not (ts <= MAX_U32 and can_id <= MAX_U32
                    and dlc == len(data) <= 8):
                raise CsvFormatError(
                    path, lineno, f"timestamp_ms {ts} and can_id {fields[2]} "
                    f"must fit the wire's u32, and dlc {dlc} be the data's "
                    f"{len(data)} bytes, at most 8")
            if prev_ts is not None and ts < prev_ts:
                raise CsvFormatError(path, lineno,
                                     f"timestamp {ts} decreases from {prev_ts}")
            prev_ts = ts
            records.append(PlaybackRecord(ts, can_id, dlc, data))
    return records


# ---------------------------------------------------------------------------
# playback to a byte sink

AS_FAST_AS_POSSIBLE = "fast"
REAL_TIME = "realtime"


@dataclass(frozen=True)
class TransmissionReport:
    frames_sent: int
    mean_latency_ms: float
    min_latency_ms: float
    max_latency_ms: float


# a host name or IPv4 address without a colon, or an IPv6 literal in
# brackets; then ASCII digits only, since int() takes spaces and non-ASCII
# digits
_TCP_TARGET = re.compile(r"tcp://(?:\[([^\[\]]+)\]|([^:\[\]]+)):([0-9]+)")


def open_sink(target: str):
    """file://path opens a binary file; tcp://host:port or
    tcp://[IPv6 address]:port opens a socket stream, for a non-empty host
    and a decimal port in 1..65535, checked before any connection is tried."""
    if target.startswith("file://"):
        return open(target[len("file://"):], "wb")
    if target.startswith("tcp://"):
        match = _TCP_TARGET.fullmatch(target)
        # getaddrinfo wraps a port past 65535 to 16 bits
        if not (match and 1 <= int(match[3]) <= 65535):
            raise ValueError(f"sink target {target!r} is not tcp://host:port "
                             "or tcp://[IPv6 address]:port with a port in "
                             "1..65535")
        sock = socket.create_connection((match[1] or match[2], int(match[3])))
        return sock.makefile("wb")
    raise ValueError(f"unsupported sink target {target!r}")


def playback(records: list[PlaybackRecord], sink,
             pacing: str = AS_FAST_AS_POSSIBLE) -> TransmissionReport:
    """Write frames to the sink in timestamp order; real-time pacing sends
    each frame at its timestamp's offset from the first one, measured from
    the start of playback, so write latency does not add up over a run.
    An unknown pacing, or a record the wire cannot carry or out of order,
    is a ValueError, raised before any frame is written: a record's
    timestamp_ms and can_id must fit the wire's u32, its dlc be its data's
    length, at most 8, and its timestamp_ms not be below the one before."""
    if pacing not in (AS_FAST_AS_POSSIBLE, REAL_TIME):
        raise ValueError(f"pacing must be 'fast' or 'realtime', got {pacing!r}")
    prev_ts = 0
    for i, (ts, can_id, dlc, data) in enumerate(records):
        if not (0 <= ts <= MAX_U32 and 0 <= can_id <= MAX_U32
                and dlc == len(data) <= 8):
            raise ValueError(
                f"record {i}: timestamp_ms {ts} and can_id {can_id} must fit "
                f"the wire's u32, and dlc {dlc} be the data's {len(data)} "
                "bytes, at most 8")
        if ts < prev_ts:
            raise ValueError(f"record {i}: timestamp_ms {ts} decreases from "
                             f"{prev_ts}")
        prev_ts = ts
    latencies = []
    sent = 0
    start_s = ts0 = None
    for rec in records:
        if pacing == REAL_TIME:
            if start_s is None:
                start_s, ts0 = time.perf_counter(), rec.timestamp_ms
            wait = start_s + (rec.timestamp_ms - ts0) / 1000.0 - time.perf_counter()
            if wait > 0:
                time.sleep(wait)
        frame = struct.pack("<IIB", rec.timestamp_ms, rec.can_id, rec.dlc) + rec.data
        start = time.perf_counter()
        try:
            sink.write(frame)
        except (OSError, ValueError) as exc:
            raise SinkError(f"sink failed after {sent} frames: {exc}", sent) from exc
        latencies.append((time.perf_counter() - start) * 1000.0)
        sent += 1
    if latencies:
        return TransmissionReport(
            frames_sent=sent,
            mean_latency_ms=sum(latencies) / len(latencies),
            min_latency_ms=min(latencies),
            max_latency_ms=max(latencies))
    return TransmissionReport(0, 0.0, 0.0, 0.0)


def read_frames(blob: bytes) -> list[PlaybackRecord]:
    """Inverse of the wire framing, for round-trip checks. A frame cut inside
    its 9-byte header or its payload is a ValueError naming its offset."""
    records = []
    offset = 0
    while offset < len(blob):
        left = len(blob) - offset
        size = 9 + blob[offset + 8] if left >= 9 else 9
        if left < size:
            raise ValueError(f"frame at byte {offset} cut after {left} of "
                             f"{size} bytes")
        ts, can_id, dlc = struct.unpack_from("<IIB", blob, offset)
        records.append(PlaybackRecord(ts, can_id, dlc, blob[offset + 9:offset + size]))
        offset += size
    return records
