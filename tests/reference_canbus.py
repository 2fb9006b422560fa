"""Per-record CAN conversion and playback CSV writing as first written.

The conversion re-sorts the message names at every sample instant, looks
each message and signal up by name, and packs every signal bit by bit. The
writer formats each record's line with one f-string. Kept as the references
that the compiled conversion in roadsift.canbus must match record for
record, and its CSV writer byte for byte.
"""

from pathlib import Path

from roadsift.canbus import CSV_HEADER, MappingError, PlaybackRecord
from roadsift.oracle import TRACE_KEYS


def encode_signal(sig, value, frame):
    """Clamp, round, saturate and pack one physical value, one bit at a
    time, into a bytearray."""
    value = min(max(value, sig.minimum), sig.maximum)
    raw = round((value - sig.offset) / sig.scale)
    if sig.signed:
        lo = -(1 << (sig.bit_length - 1))
        hi = (1 << (sig.bit_length - 1)) - 1
        raw = min(max(raw, lo), hi)
        raw &= (1 << sig.bit_length) - 1      # two's complement
    else:
        raw = min(max(raw, 0), (1 << sig.bit_length) - 1)
    for k, pos in enumerate(sig.bit_positions()):
        byte_i, bit_i = divmod(pos, 8)
        if raw >> k & 1:
            frame[byte_i] |= 1 << bit_i
        else:
            frame[byte_i] &= ~(1 << bit_i)


def convert_trace(trace, db, mapping, sample_period_ms=20):
    """Zero-order hold at each instant, messages in name order, then one
    stable sort by (timestamp, can_id)."""
    if not trace:
        raise MappingError("empty trace")
    mapping.validate(db, TRACE_KEYS)
    per_message = {}
    for entry in mapping.entries:
        per_message.setdefault(entry[1], []).append(entry)

    end_ms = round(trace[-1].t * 1000.0)
    records = []
    idx = 0
    for ms in range(0, end_ms + 1, sample_period_ms):
        while (idx + 1 < len(trace)
               and round(trace[idx + 1].t * 1000.0) <= ms):
            idx += 1
        state = trace[idx]
        for msg_name in sorted(per_message):
            msg = db.by_name(msg_name)
            frame = bytearray(msg.dlc)
            for field_name, _, sig_name, factor in per_message[msg_name]:
                value = getattr(state, field_name) * factor
                encode_signal(msg.signal(sig_name), value, frame)
            records.append(PlaybackRecord(
                timestamp_ms=ms, can_id=msg.can_id, dlc=msg.dlc,
                data=bytes(frame)))
    records.sort(key=lambda r: (r.timestamp_ms, r.can_id))
    return records


def write_playback_csv(records, path):
    """One line per record, each formatted whole."""
    lines = [CSV_HEADER]
    for rec in records:
        lines.append(f"{rec.timestamp_ms},{rec.can_id:x},{rec.dlc},{rec.data.hex()}")
    Path(path).write_text("\n".join(lines) + "\n")
