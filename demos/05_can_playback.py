#!/usr/bin/env python3
"""Convert a drive trace into CAN frames and play them to a byte sink.

Pipeline: simulate a road, resample the trace at 50 Hz, bit-pack each
mapped signal per the DBC definitions, write the playback CSV, stream the
binary frames to a file sink, and decode a frame back to physical units.
Both files are written in the working directory.
"""

from pathlib import Path

from roadsift.canbus import (
    DEFAULT_DBC,
    DEFAULT_MAPPING,
    convert_trace,
    decode_signal,
    open_sink,
    parse_dbc,
    playback,
    read_frames,
    write_playback_csv,
)
from roadsift.oracle import (
    TRACE_COLUMNS,
    DriverConfig,
    generate_road,
    simulate_drive,
)

db = parse_dbc(DEFAULT_DBC)
print("CAN database:")
for msg in db.messages:
    sigs = ", ".join(f"{s.name}({s.bit_length}b x{s.scale})" for s in msg.signals)
    print(f"  0x{msg.can_id:03x} {msg.name:18s} dlc {msg.dlc}: {sigs}")

road, _ = generate_road(rng_seed=5)
outcome = simulate_drive(road, DriverConfig(risk_factor=1.5))
print(f"\ndrove {outcome.duration:.1f} s ({outcome.label}), "
      f"{len(outcome.trace)} trace states")

records = convert_trace(outcome.trace, db, DEFAULT_MAPPING, sample_period_ms=20)
print(f"converted to {len(records)} playback records at 50 Hz")

out_csv = Path("demo.canplayback.csv")
write_playback_csv(records, out_csv)
print(f"playback CSV -> {out_csv}")

target = Path("demo_frames.bin")
sink = open_sink(f"file://{target}")
report = playback(records, sink)
sink.close()
print(f"streamed {report.frames_sent} frames -> {target} "
      f"(mean write latency {report.mean_latency_ms:.4f} ms)")

# decode the first dynamics frame back to km/h
start_speed = outcome.trace[0, TRACE_COLUMNS.index("speed")]
blob = target.read_bytes()
first_dyn = next(r for r in read_frames(blob) if r.can_id == 0x100)
speed_sig = db.by_name("VEHICLE_DYNAMICS").signal("speed_kmh")
kmh = decode_signal(speed_sig, first_dyn.data)
print(f"first VEHICLE_DYNAMICS frame at t={first_dyn.timestamp_ms} ms "
      f"decodes to {kmh:.2f} km/h "
      f"(trace start speed {start_speed * 3.6:.2f} km/h)")
