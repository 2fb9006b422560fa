"""Road spine interpolation and the self-intersection check as first
written, on scipy: CubicSpline(..., bc_type="natural") for the spine and
cKDTree.query_pairs for the close sample pairs. Kept as the reference that
roadsift.geometry's own spline and pair test must match bit for bit;
scipy is a test-only dependency. Also the merge of short curvature runs as
first written, which rescans every pair of runs after each merge.
"""

import math

import numpy as np
from scipy.interpolate import CubicSpline
from scipy.spatial import cKDTree

from roadsift.geometry import (
    GeometryConfig,
    RoadSpine,
    _centripetal_knots,
    _wrap_angle,
)


def interpolate_spine(road, config=None):
    cfg = config or GeometryConfig()
    pts = road.as_array()
    knots = _centripetal_knots(pts)
    spline = CubicSpline(knots, pts, bc_type="natural", axis=0)

    approx_len = float(np.sum(np.linalg.norm(np.diff(pts, axis=0), axis=1)))
    n_fine = max(32, int(math.ceil(approx_len / (cfg.sampling_step / 4.0))))
    tq_fine = np.linspace(knots[0], knots[-1], n_fine + 1)
    pos_fine = spline(tq_fine)
    arc_fine = np.concatenate(
        [[0.0], np.cumsum(np.linalg.norm(np.diff(pos_fine, axis=0), axis=1))])
    total = float(arc_fine[-1])

    n_out = max(2, int(math.ceil(total / (0.98 * cfg.sampling_step))))
    targets = np.linspace(0.0, total, n_out + 1)
    idx = np.clip(np.searchsorted(arc_fine, targets, side="right") - 1,
                  0, len(arc_fine) - 2)
    span = np.maximum(arc_fine[idx + 1] - arc_fine[idx], 1e-15)
    frac = (targets - arc_fine[idx]) / span
    tq = tq_fine[idx] + frac * (tq_fine[idx + 1] - tq_fine[idx])
    tq[0], tq[-1] = knots[0], knots[-1]

    pos, d1, d2 = spline(tq), spline(tq, 1), spline(tq, 2)
    heading = _wrap_angle(np.arctan2(d1[:, 1], d1[:, 0]))
    speed_sq = d1[:, 0] ** 2 + d1[:, 1] ** 2
    denom = np.maximum(speed_sq, 1e-12) ** 1.5
    kappa = (d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0]) / denom
    kappa = np.clip(kappa, -1.0 / cfg.min_radius, 1.0 / cfg.min_radius)

    s = np.concatenate(
        [[0.0], np.cumsum(np.linalg.norm(np.diff(pos, axis=0), axis=1))])
    return RoadSpine(s=s, xy=pos, heading=heading, curvature=kappa)


def self_intersects(spine, lane_width):
    proximity = 2.0 * lane_width
    exclusion = 2.0 * proximity
    pairs = cKDTree(spine.xy).query_pairs(r=proximity, output_type="ndarray")
    if len(pairs) == 0:
        return False
    s = spine.s
    return bool(np.any(np.abs(s[pairs[:, 0]] - s[pairs[:, 1]]) > exclusion))


def merge_short_runs(runs, s, min_length):
    def run_len(r):
        return s[r[2]] - s[r[1]]

    runs = [list(r) for r in runs]
    while len(runs) > 1:
        lengths = [run_len(r) for r in runs]
        shortest = min(range(len(runs)), key=lambda i: (lengths[i], i))
        if lengths[shortest] >= min_length:
            break
        left = runs[shortest - 1] if shortest > 0 else None
        right = runs[shortest + 1] if shortest < len(runs) - 1 else None
        # absorb into the longer neighbour; ties go left for determinism
        if right is None or (left is not None and run_len(left) >= run_len(right)):
            left[2] = runs[shortest][2]
            del runs[shortest]
        else:
            right[1] = runs[shortest][1]
            del runs[shortest]
        # adjacent runs of equal kind collapse
        i = 0
        while i < len(runs) - 1:
            if runs[i][0] == runs[i + 1][0]:
                runs[i][2] = runs[i + 1][2]
                del runs[i + 1]
            else:
                i += 1
    return runs
