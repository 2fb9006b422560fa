#!/usr/bin/env python3
"""Build a road from control points, interpolate its spine, split it into
segments, and read off the 18 static features.

Run from the repo root:  python demos/01_roads_and_features.py
Saves road_demo.png in the working directory when matplotlib is available.
"""

from pathlib import Path

import numpy as np

from roadsift.features import FEATURE_NAMES, extract_features, features_from_segments
from roadsift.geometry import RoadPoints, interpolate_spine, segment_spine
from roadsift.oracle import generate_road

# --- a hand-made road: straight, left sweep, straight ---
points = [(60.0, 100.0), (90.0, 100.0), (120.0, 100.0)]
for a in np.linspace(-90, 0, 10)[1:]:
    points.append((120 + 30 * np.cos(np.radians(a)),
                   130 + 30 * np.sin(np.radians(a))))
points += [(150.0, 140.0), (150.0, 170.0), (150.0, 200.0)]
road = RoadPoints(points=tuple(points))

spine = interpolate_spine(road)
segments = segment_spine(spine)

print(f"spine: {len(spine)} samples over {spine.total_length:.1f} m")
print("segments:")
for seg in segments:
    radius = f"{seg.radius:7.1f} m" if seg.radius else "      --"
    print(f"  {seg.kind:8s} len {seg.length:6.1f} m  angle {seg.turn_angle:6.1f} deg"
          f"  radius {radius}  chord area {seg.chord_area:8.1f} m^2")

vec = features_from_segments(spine, segments)
print("\nfeature vector:")
for name in FEATURE_NAMES:
    print(f"  {name:22s} {getattr(vec, name):12.4f}")

# --- the same pipeline on a generated random road ---
random_road, random_spine = generate_road(rng_seed=7)
random_vec = extract_features(random_road)
print(f"\nrandom road (seed 7): length {random_vec.length:.1f} m, "
      f"{random_vec.num_l_turns} left / {random_vec.num_r_turns} right turns, "
      f"min radius {random_vec.min_radius:.1f} m")

try:
    import matplotlib
    matplotlib.use("Agg")
    import matplotlib.pyplot as plt

    fig, axes = plt.subplots(1, 2, figsize=(11, 5))
    for ax, (r, sp) in zip(axes, [(road, spine),
                                  (random_road, random_spine)]):
        xy = sp.xy
        ax.plot(xy[:, 0], xy[:, 1], "-", lw=2, label="spine")
        pts = np.asarray(r.points)
        ax.plot(pts[:, 0], pts[:, 1], "o", ms=4, label="control points")
        ax.set_aspect("equal")
        ax.legend()
    axes[0].set_title("hand-made road")
    axes[1].set_title("generated road (seed 7)")
    out = Path("road_demo.png")
    fig.savefig(out, dpi=110)
    print(f"\nplot saved to {out}")
except ImportError:
    print("\n(matplotlib not available, skipping the plot)")
