#!/usr/bin/env python3
"""Label roads safe/unsafe with the kinematic driving oracle and show how
the risk factor changes the verdict distribution.

The driver plans per-sample cornering speeds from the friction law
v = sqrt(mu * r * g) scaled by the risk factor, then tracks the spine with
pure pursuit. Aggressive settings corner faster and look ahead less, so
they run wide on tight turns.
"""

from roadsift.oracle import DriverConfig, build_dataset, simulate_drive, unsafe_fraction
from roadsift.oracle import generate_road

# one road, three driving styles
road, _ = generate_road(rng_seed=11)
for rf in (0.7, 1.5, 2.0):
    out = simulate_drive(road, DriverConfig(risk_factor=rf))
    print(f"risk factor {rf}: {out.label:6s}  drive {out.duration:5.1f} s, "
          f"max |lateral offset| {out.max_abs_lateral_offset:.2f} m, "
          f"{len(out.trace)} trace states")

# verdict distribution over a small population per risk factor
print("\nunsafe fraction over 150 roads:")
for rf in (0.7, 1.0, 1.5, 2.0):
    tests = build_dataset(150, DriverConfig(risk_factor=rf), rng_seed=3,
                          keep_traces=False)
    frac = unsafe_fraction(tests)
    bar = "#" * int(round(40 * frac))
    print(f"  rf {rf:3.1f}  {frac:5.1%}  {bar}")

# peek at one trace: one row per step, its columns oracle.TRACE_COLUMNS
out = simulate_drive(road, DriverConfig(risk_factor=2.0))
print(f"\nrf 2.0 trace tail (verdict: {out.label}):")
print("      t      x        y     speed   steer   offset")
for t, x, y, _, speed, steering, _, _, offset in out.trace[-5:].tolist():
    print(f"  {t:6.2f} {x:8.2f} {y:8.2f} {speed:7.2f} "
          f"{steering:7.3f} {offset:8.3f}")
