"""CAN conversion and playback: DBC subset, signal codec, trace resampling.

Parses the message/signal subset of the DBC format, bit-packs physical
values into classic 8-byte CAN frames (Intel and Motorola byte orders),
converts labelled drive traces into timestamped playback records, and
streams them to a byte sink with optional real-time pacing.

Conversion compiles the mapped messages' layout and each signal's
quantisation once per trace and packs each frame as an int. Records come
out ordered by timestamp, then can_id, then message name; the frames of an
instant that holds the same trace state as the one before are reused, not
packed again.

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
from pathlib import Path
from typing import NamedTuple

from .inputs import NUMBER, is_number, read_json, read_text
from .oracle import TRACE_KEYS

LITTLE_ENDIAN = "little"
BIG_ENDIAN = "big"
MAX_U32 = (1 << 32) - 1     # the wire's timestamp and can_id fields


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
        # to bit 7 of the next byte
        positions = []
        byte_i, bit_i = divmod(self.start_bit, 8)
        for _ in range(self.bit_length):
            positions.append(byte_i * 8 + bit_i)
            bit_i -= 1
            if bit_i < 0:
                bit_i = 7
                byte_i += 1
        return positions[::-1]


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
# ASCII digits, and the number text rule for scale, offset, min and max,
# since int() and float() take non-ASCII digits, "_" and spaces; names are
# C identifiers and spacing is ASCII, as re.ASCII makes \w and \s
_BO_RE = re.compile(r"^BO_\s+([0-9]+)\s+(\w+)\s*:\s*([0-9]+)\s+(\S+)\s*$",
                    re.ASCII)
_SG_RE = re.compile(
    r"^\s*SG_\s+(\w+)\s*:\s*([0-9]+)\|([0-9]+)@([01])([+-])\s*"
    rf"\(\s*({NUMBER})\s*,\s*({NUMBER})\s*\)\s*"
    rf"\[\s*({NUMBER})\s*\|\s*({NUMBER})\s*\]\s*\"([^\"]*)\"\s*(.*)$", re.ASCII)


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
    """Parse the BO_/SG_ subset; other line kinds are ignored. A line that
    does not parse is a DbcSyntaxError; a message or signal that is out of
    range or overlaps another signal, a message that reuses a message name
    or can_id and a signal that reuses a name in its message raise their
    own error, prefixed with the line."""
    messages: dict[str, CanMessageDef] = {}     # by name, in file order
    names_by_id: dict[int, str] = {}
    last = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.strip()
        keyword = _LINE_KIND_RE.match(stripped)
        if keyword is None:
            continue
        kind = _LINE_KINDS[keyword.group(1)]
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


def _raw(codec: tuple, value: float) -> int:
    """The raw field of a physical value: clamp to [min, max], round to the
    scale, saturate to the field's range, and take the two's complement
    when signed. Each clamp keeps the rule of the builtins: max(value, lo)
    is lo if lo > value else value, and min(value, hi) is hi if hi < value
    else value, so a tie, a NaN or a -0.0 gives what they give."""
    lo, hi, offset, scale, raw_min, raw_max, width = codec
    value = lo if lo > value else value
    value = hi if hi < value else value
    raw = round((value - offset) / scale)
    raw = raw_min if raw_min > raw else raw
    raw = raw_max if raw_max < raw else raw
    return raw & width


def _place(raw: int, start_bit: int, positions: tuple[int, ...] | None) -> int:
    """The frame bits of a raw field."""
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
    signal's own bits, the raw field as _raw gives it; with clamp false, a
    value outside [min, max] raises instead."""
    if not (clamp or sig.minimum <= value <= sig.maximum):
        raise ValueOutOfRange(
            f"{sig.name}: {value} outside [{sig.minimum}, {sig.maximum}]")
    raw = _raw(_codec(sig), value)
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
    bit, Motorola positions or None, mask clearing its bits), in mapping
    order."""
    mapping.validate(db, TRACE_KEYS)
    per_message: dict[str, list] = {}
    for field_name, msg_name, sig_name, factor in mapping.entries:
        sig = db.by_name(msg_name).signal(sig_name)
        positions, mask = _layout(sig)
        per_message.setdefault(msg_name, []).append(
            (field_name, factor, _codec(sig), sig.start_bit, positions, ~mask))
    messages = sorted((db.by_name(name) for name in per_message),
                      key=lambda msg: (msg.can_id, msg.name))
    return [(msg.can_id, msg.dlc, per_message[msg.name]) for msg in messages]


def check_sample_period(sample_period_ms: int) -> None:
    if sample_period_ms < 1:
        raise ValueError(f"sample_period_ms must be >= 1, got {sample_period_ms}")


def convert_trace(trace, db: CanDatabase, mapping: SignalMapping,
                  sample_period_ms: int = 20) -> list[PlaybackRecord]:
    """Zero-order-hold resample of the trace, one record per mapped message
    per sample instant, ordered by timestamp, then can_id, then message
    name.

    The layout is compiled once per call, and the frames of an instant are
    reused for the following instants while they hold the same trace state.
    Within a frame, mapped signals are written in mapping order, so a signal
    mapped twice carries the later entry's value.

    trace: sequence of VehicleState-like objects (attribute access).
    """
    check_sample_period(sample_period_ms)
    if not trace:
        raise MappingError("empty trace")
    plan = _compile(db, mapping)
    times_ms = [round(state.t * 1000.0) for state in trace]
    last = len(trace) - 1
    # each record is built as a tuple, without PlaybackRecord's per-call
    # argument handling
    new = tuple.__new__
    records = []
    append = records.append
    idx = 0
    held = -1
    for ms in range(0, times_ms[-1] + 1, sample_period_ms):
        while idx < last and times_ms[idx + 1] <= ms:
            idx += 1
        if idx != held:
            held = idx
            state = trace[idx]
            frames = []
            for can_id, dlc, signals in plan:
                bits = 0
                for field_name, factor, codec, start_bit, positions, clear in signals:
                    raw = _raw(codec, getattr(state, field_name) * factor)
                    bits = bits & clear | _place(raw, start_bit, positions)
                frames.append((can_id, dlc, bits.to_bytes(dlc, "little")))
        for can_id, dlc, data in frames:
            append(new(PlaybackRecord, (ms, can_id, dlc, data)))
    return records


# ---------------------------------------------------------------------------
# playback CSV

CSV_HEADER = "timestamp_ms,can_id_hex,dlc,data_hex"


def write_playback_csv(records: list[PlaybackRecord], path: str | Path) -> None:
    """One line per record, under CSV_HEADER. The ",can_id,dlc,data" text
    of each distinct frame is formatted once per file, since a held trace
    state repeats its frames at several instants; a frame whose data cannot
    be hashed, a bytearray, is formatted at each of its records."""
    lines = [CSV_HEADER]
    append = lines.append
    frame_texts: dict[tuple, str] = {}
    for ts, can_id, dlc, data in records:
        frame = can_id, dlc, data
        try:
            text = frame_texts[frame]
        except KeyError:
            text = frame_texts[frame] = f",{can_id:x},{dlc},{data.hex()}"
        except TypeError:
            text = f",{can_id:x},{dlc},{data.hex()}"
        append(f"{ts}{text}")
    Path(path).write_text("\n".join(lines) + "\n")


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
    and a decimal port in 1..65535, checked before any connection is tried.
    Anything with a write() method is accepted directly."""
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
    An unknown pacing is a ValueError, raised before any frame is written."""
    if pacing not in (AS_FAST_AS_POSSIBLE, REAL_TIME):
        raise ValueError(f"pacing must be 'fast' or 'realtime', got {pacing!r}")
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
