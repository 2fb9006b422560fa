"""Road geometry: control points -> interpolated spine -> classified segments.

A road is described by sparse control points on a flat map. The spine is a
C2 interpolating cubic through those points on the centripetal (square-root
chord) parameter, resampled at a fixed arc-length step with heading and
curvature taken from the analytic spline derivatives. Segmentation
partitions the spine samples into maximal straight / left-turn / right-turn
runs by signed curvature.

Sign convention: positive curvature = left turn.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .inputs import is_vector, positive, read_json

STRAIGHT = "straight"
LEFT_TURN = "left"
RIGHT_TURN = "right"

_MIN_POINT_SPACING = 1e-9
LANE_WIDTH = 4.0      # m, lane of every generated road
MAP_SIZE = 500.0      # m, side of the square map


class DegenerateRoad(ValueError):
    """Road has too few control points or duplicate consecutive points."""


class SelfIntersecting(ValueError):
    """Road spine folds back onto itself closer than two lane widths."""


@dataclass(frozen=True)
class GeometryConfig:
    sampling_step: float = 1.0            # m, max spacing between spine samples
    straight_curvature_threshold: float = 0.005   # 1/m, |k| below = straight
    min_segment_length: float = 5.0       # m, shorter runs merge into a neighbour
    min_radius: float = 2.0               # m, curvature clamp = 1/min_radius
    straight_area_epsilon: float = 1e-3   # m^2, chord area of a true straight


@dataclass(frozen=True)
class RoadPoints:
    """Ordered road control points plus map metadata.

    Invariants (checked at construction): at least 3 points, consecutive
    points distinct, all points inside the [0, map_size]^2 square.
    """

    points: tuple[tuple[float, float], ...]
    lane_width: float = LANE_WIDTH
    map_size: float = MAP_SIZE

    def __post_init__(self):
        pts = [(float(x), float(y)) for x, y in self.points]
        object.__setattr__(self, "points", tuple(pts))
        if len(pts) < 3:
            raise DegenerateRoad(f"need at least 3 road points, got {len(pts)}")
        for (x0, y0), (x1, y1) in zip(pts, pts[1:]):
            if math.hypot(x1 - x0, y1 - y0) <= _MIN_POINT_SPACING:
                raise DegenerateRoad("duplicate consecutive road points")
        for x, y in pts:
            if not (0.0 <= x <= self.map_size and 0.0 <= y <= self.map_size):
                raise DegenerateRoad(
                    f"point ({x:.1f}, {y:.1f}) outside [0, {self.map_size}]^2")

    def as_array(self) -> np.ndarray:
        return np.asarray(self.points, dtype=np.float64)


@dataclass(frozen=True, eq=False)
class RoadSpine:
    """Arc-length sampled road centreline, one array per column.

    Not comparable with ==: the fields are numpy arrays.
    """

    s: np.ndarray           # (n,) arc length from road start, m
    xy: np.ndarray          # (n, 2) sample positions
    heading: np.ndarray     # (n,) rad, in (-pi, pi]
    curvature: np.ndarray   # (n,) 1/m, signed, positive = left

    @property
    def total_length(self) -> float:
        return float(self.s[-1])

    def __len__(self) -> int:
        return len(self.s)


@dataclass(frozen=True)
class RoadSegment:
    kind: str                 # STRAIGHT | LEFT_TURN | RIGHT_TURN
    start_index: int          # first spine sample index (inclusive)
    end_index: int            # last spine sample index (inclusive)
    length: float             # m
    turn_angle: float         # deg, |cumulative heading change|
    radius: float | None      # m, None for straights
    chord_area: float         # m^2, area between samples and closing chord;
                              # 0 when below straight_area_epsilon


def _wrap_angle(a):
    """Wrap angle(s) to (-pi, pi]."""
    w = np.mod(np.asarray(a) + np.pi, 2.0 * np.pi) - np.pi
    w = np.where(w <= -np.pi, w + 2.0 * np.pi, w)
    return w if w.ndim else float(w)


def _centripetal_knots(pts: np.ndarray) -> np.ndarray:
    d = np.sqrt(np.linalg.norm(np.diff(pts, axis=0), axis=1))
    return np.concatenate([[0.0], np.cumsum(d)])


def _gtsv(dl: list, d: list, du: list, *columns: list) -> None:
    """Solve the tridiagonal system with sub-, main and super-diagonal dl, d
    and du for each right-hand side column, in place, in the operation order
    of LAPACK's reference dgtsv: Gaussian elimination with partial pivoting,
    where a row interchange brings a second super-diagonal into dl, then
    back substitution."""
    n = len(d)
    for i in range(n - 1):
        if abs(d[i]) >= abs(dl[i]):
            fact = dl[i] / d[i]
            d[i + 1] = d[i + 1] - fact * du[i]
            for b in columns:
                b[i + 1] = b[i + 1] - fact * b[i]
            if i < n - 2:
                dl[i] = 0.0
        else:
            fact = d[i] / dl[i]
            d[i] = dl[i]
            temp = d[i + 1]
            d[i + 1] = du[i] - fact * temp
            if i < n - 2:
                dl[i] = du[i + 1]
                du[i + 1] = -fact * dl[i]
            du[i] = temp
            for b in columns:
                b[i], b[i + 1] = b[i + 1], b[i] - fact * b[i + 1]
    for b in columns:
        b[n - 1] = b[n - 1] / d[n - 1]
        b[n - 2] = (b[n - 2] - du[n - 2] * b[n - 1]) / d[n - 2]
        for i in range(n - 3, -1, -1):
            b[i] = (b[i] - du[i] * b[i + 1] - dl[i] * b[i + 2]) / d[i]


def _natural_spline(knots: np.ndarray, pts: np.ndarray) -> np.ndarray:
    """Coefficients (4, 2, n - 1) of the natural cubic through the n points
    pts (n, 2) at knots: power 3 down to 0, by coordinate, by piece.

    The bits are those of CubicSpline(knots, pts, bc_type="natural",
    axis=0): the same tridiagonal system for the slopes at the knots, with
    the terms of the zero end second derivatives, solved in dgtsv's order
    (its banded solve calls dgtsv), then the Hermite coefficients of each
    piece. The tests compare the two bit for bit."""
    dx = np.diff(knots)
    y = pts.T
    slope = np.diff(y) / dx
    b = np.empty(y.shape)
    b[:, 1:-1] = 3 * (dx[1:] * slope[:, :-1] + dx[:-1] * slope[:, 1:])
    b[:, 0] = -0.5 * 0.0 * dx[0] ** 2 + 3 * (y[:, 1] - y[:, 0])
    b[:, -1] = 0.5 * 0.0 * dx[-1] ** 2 + 3 * (y[:, -1] - y[:, -2])
    h = dx.tolist()
    diagonal = [2 * h[0], *(2 * (p + q) for p, q in zip(h, h[1:])), 2 * h[-1]]
    columns = b.tolist()
    _gtsv(h[1:] + h[-1:], diagonal, h[:1] + h[:-1], *columns)
    dydx = np.array(columns)
    t = (dydx[:, :-1] + dydx[:, 1:] - 2 * slope) / dx
    return np.stack((t / dx, (slope - dydx[:, :-1]) / dx - t, dydx[:, :-1], y[:, :-1]))


def _pieces(knots: np.ndarray, coeffs: np.ndarray, t: np.ndarray):
    """The coefficients (8, m) of the pieces that hold the m parameters t,
    in the rows of coeffs.reshape(8, -1), and t's offsets (m,) from their
    pieces' first knots. A t on an inner knot starts the next piece; the
    last knot closes the last piece."""
    i = np.clip(np.searchsorted(knots, t, side="right") - 1, 0, len(knots) - 2)
    return np.take(coeffs.reshape(8, -1), i, axis=1), t - knots[i]


def _value(c: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Positions (2, m) of the pieces c at offsets z, summed power by power
    from 0.0 (not by Horner's rule), as PPoly sums them."""
    z2 = z * z
    return 0.0 + c[6:] + c[4:6] * z + c[2:4] * z2 + c[:2] * (z2 * z)


def _derivatives(c: np.ndarray, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """First and second derivatives (2, m) of the pieces c at offsets z,
    each term formed as PPoly forms it: (c·z^p)·k."""
    d1 = 0.0 + c[4:6] + c[2:4] * z * 2.0 + c[:2] * (z * z) * 3.0
    d2 = 0.0 + c[2:4] * 2.0 + c[:2] * z * 6.0
    return d1, d2


def _arc_steps(xy: np.ndarray) -> np.ndarray:
    """Distances between consecutive positions xy (2, m)."""
    step = np.diff(xy)
    return np.sqrt(step[0] * step[0] + step[1] * step[1])


def interpolate_spine(road: RoadPoints, config: GeometryConfig | None = None) -> RoadSpine:
    """Interpolate control points into an arc-length sampled road spine.

    Natural C2 cubic through every control point on the centripetal
    parameter. Heading and curvature come from the analytic spline
    derivatives; curvature is clamped to +-1/min_radius.
    """
    cfg = config or GeometryConfig()
    pts = road.as_array()
    knots = _centripetal_knots(pts)
    coeffs = _natural_spline(knots, pts)

    # dense pre-pass to build the arc-length -> parameter map
    approx_len = float(np.sum(np.linalg.norm(np.diff(pts, axis=0), axis=1)))
    n_fine = max(32, int(math.ceil(approx_len / (cfg.sampling_step / 4.0))))
    tq_fine = np.linspace(knots[0], knots[-1], n_fine + 1)
    arc_fine = np.concatenate(
        [[0.0], np.cumsum(_arc_steps(_value(*_pieces(knots, coeffs, tq_fine))))])
    total = float(arc_fine[-1])

    # emit samples at uniform arc spacing strictly below the configured step
    n_out = max(2, int(math.ceil(total / (0.98 * cfg.sampling_step))))
    targets = np.linspace(0.0, total, n_out + 1)
    idx = np.clip(np.searchsorted(arc_fine, targets, side="right") - 1,
                  0, len(arc_fine) - 2)
    span = np.maximum(arc_fine[idx + 1] - arc_fine[idx], 1e-15)
    frac = (targets - arc_fine[idx]) / span
    tq = tq_fine[idx] + frac * (tq_fine[idx + 1] - tq_fine[idx])
    tq[0], tq[-1] = knots[0], knots[-1]

    # one piece search for the positions and both derivatives (rows x, y)
    c, z = _pieces(knots, coeffs, tq)
    pos = _value(c, z)
    d1, d2 = _derivatives(c, z)
    heading = _wrap_angle(np.arctan2(d1[1], d1[0]))
    speed_sq = d1[0] ** 2 + d1[1] ** 2
    denom = np.maximum(speed_sq, 1e-12) ** 1.5
    kappa = (d1[0] * d2[1] - d1[1] * d2[0]) / denom
    kappa = np.clip(kappa, -1.0 / cfg.min_radius, 1.0 / cfg.min_radius)

    s = np.concatenate([[0.0], np.cumsum(_arc_steps(pos))])
    # C order: a column dot product (the shoelace area) rounds by layout
    return RoadSpine(s=s, xy=np.ascontiguousarray(pos.T), heading=heading,
                     curvature=kappa)


_PAIR_BLOCK = 8          # consecutive spine samples pruned together
_PAIR_MARGIN = 1e-6      # m, widens the block test past any rounding


def self_intersects(spine: RoadSpine, lane_width: float) -> bool:
    """True iff two stretches of spine far apart in arc length come closer
    than 2 x lane_width in the plane.

    Pairs whose arc separation is within 2x the proximity threshold are the
    road's own continuity and are ignored; a legal single turn never trips
    the check for radii above roughly the lane width.

    Samples i < j are such a pair when d0*d0 + d1*d1 <= r*r for their
    coordinate differences d0, d1 and r = 2 x lane_width (the test, to the
    bit, of a k-d tree's pair query), and s[j] - s[i] > exclusion. Blocks of
    consecutive samples are pruned first: two blocks whose bounding boxes
    lie farther apart than r (plus a margin), or whose arc span stays within
    the exclusion, hold no such pair.
    """
    proximity = 2.0 * lane_width
    exclusion = 2.0 * proximity
    n = len(spine.s)
    n_blocks = -(-n // _PAIR_BLOCK)
    # the last block is filled up with the last sample, which adds no pair
    idx = np.minimum(np.arange(n_blocks * _PAIR_BLOCK), n - 1)
    x = spine.xy[idx, 0].reshape(n_blocks, _PAIR_BLOCK)
    y = spine.xy[idx, 1].reshape(n_blocks, _PAIR_BLOCK)
    s = spine.s[idx].reshape(n_blocks, _PAIR_BLOCK)

    # block a against block b; s does not decrease, so b < a spans no arc
    lo_x, hi_x, lo_y, hi_y = x.min(1), x.max(1), y.min(1), y.max(1)
    gap_x = np.maximum(np.maximum(lo_x - hi_x[:, None], lo_x[:, None] - hi_x), 0.0)
    gap_y = np.maximum(np.maximum(lo_y - hi_y[:, None], lo_y[:, None] - hi_y), 0.0)
    reach = proximity + _PAIR_MARGIN
    a, b = np.nonzero((gap_x * gap_x + gap_y * gap_y <= reach * reach)
                      & (s[:, -1] - s[:, :1] > exclusion))
    if len(a) == 0:
        return False
    d0 = x[a][:, :, None] - x[b][:, None, :]
    d1 = y[a][:, :, None] - y[b][:, None, :]
    return bool(np.any((d0 * d0 + d1 * d1 <= proximity * proximity)
                       & (s[b][:, None, :] - s[a][:, :, None] > exclusion)))


def checked_spine(road: RoadPoints, config: GeometryConfig | None = None) -> RoadSpine:
    """interpolate_spine of a road that may be measured or driven: raises
    SelfIntersecting when the spine folds back on itself."""
    spine = interpolate_spine(road, config)
    if self_intersects(spine, road.lane_width):
        raise SelfIntersecting("road spine passes too close to itself")
    return spine


def _classify(kappa: np.ndarray, threshold: float) -> np.ndarray:
    out = np.zeros(len(kappa), dtype=np.int8)
    out[kappa >= threshold] = 1
    out[kappa <= -threshold] = -1
    return out


def _runs(codes: np.ndarray) -> list[list[int]]:
    """Maximal runs of equal codes as [code, start, end_inclusive] triples."""
    starts = (np.flatnonzero(codes[1:] != codes[:-1]) + 1).tolist()
    ends = [start - 1 for start in starts] + [len(codes) - 1]
    starts.insert(0, 0)
    return [list(run) for run in zip(codes[starts].tolist(), starts, ends)]


def _merge_short_runs(runs: list[list[int]], s: np.ndarray,
                      min_length: float) -> list[list[int]]:
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
        else:
            right[1] = runs[shortest][1]
        del runs[shortest]
        # runs are maximal: only the two the merge made adjacent can share a kind
        if 0 < shortest < len(runs) and runs[shortest - 1][0] == runs[shortest][0]:
            runs[shortest - 1][2] = runs[shortest][2]
            del runs[shortest]
    return runs


def _shoelace_area(xy: np.ndarray) -> float:
    x, y = xy[:, 0], xy[:, 1]
    return 0.5 * abs(float(
        np.dot(x, np.roll(y, -1)) - np.dot(y, np.roll(x, -1))))


def segment_spine(spine: RoadSpine, config: GeometryConfig | None = None) -> list[RoadSegment]:
    """Partition the spine samples into maximal straight / left / right runs.

    Runs shorter than min_segment_length are merged into their longer
    neighbour. Turn angle is the absolute summed heading increment inside the
    segment (degrees); turn radius is length / angle. Chord area is the
    shoelace area between the segment's samples and its closing chord; an
    area below straight_area_epsilon is reported as 0, so the rounding
    residue of collinear samples does not count as diversity.
    """
    cfg = config or GeometryConfig()
    kappa = spine.curvature
    s = spine.s
    heading = spine.heading
    xy = spine.xy

    runs = _merge_short_runs(
        _runs(_classify(kappa, cfg.straight_curvature_threshold)),
        s, cfg.min_segment_length)

    n = len(s)
    segments = []
    for k, (code, a, b) in enumerate(runs):
        # reported length runs to the next segment's first sample so lengths
        # sum exactly to the spine total; angle and radius stay on the
        # segment's own samples (a boundary increment can have the opposite
        # sign at turn-to-turn transitions and would shave the angle)
        reach = runs[k + 1][1] if k + 1 < len(runs) else n - 1
        increments = _wrap_angle(np.diff(heading[a:b + 1]))
        angle_rad = abs(float(np.sum(increments))) if b > a else 0.0
        kind = {0: STRAIGHT, 1: LEFT_TURN, -1: RIGHT_TURN}[code]
        radius = None
        if kind != STRAIGHT:
            radius = float(s[b] - s[a]) / max(angle_rad, 1e-12)
        area = _shoelace_area(xy[a:b + 1]) if b - a >= 2 else 0.0
        if area < cfg.straight_area_epsilon:
            area = 0.0
        segments.append(RoadSegment(
            kind=kind, start_index=a, end_index=b,
            length=float(s[reach] - s[a]),
            turn_angle=math.degrees(angle_rad), radius=radius,
            chord_area=area))
    return segments


def road_from_json(obj: dict) -> RoadPoints:
    """The road of a road file or a dataset row, as json read it:
    "road_points", "lane_width" and an optional "map_size". A missing key
    raises KeyError; road_points that is not a list of [x, y] pairs of
    finite numbers, or a lane_width or map_size that is not a finite number
    > 0, ValueError."""
    points = obj["road_points"]
    if type(points) is not list:
        raise ValueError(f"road_points is not a list: {points!r}")
    if not all(is_vector(p, 2) for p in points):
        i = next(i for i, p in enumerate(points) if not is_vector(p, 2))
        raise ValueError(f"road point {i} is not a pair of numbers: {points[i]!r}")
    return RoadPoints(
        points=tuple((x, y) for x, y in points),
        lane_width=positive("lane_width", obj["lane_width"]),
        map_size=positive("map_size", obj.get("map_size", MAP_SIZE)))


def load_road(path: str | Path) -> tuple[str, RoadPoints]:
    """Read a road description file: {"id", "lane_width", "map_size", "road_points"}.

    Raises ValueError naming the file when it cannot be read or is not
    JSON, a key is missing, a value has the wrong type or is not finite, or
    the road is degenerate."""
    obj = read_json(path)
    try:
        return str(obj["id"]), road_from_json(obj)
    except KeyError as exc:
        raise ValueError(f"{path}: no key {exc}") from None
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{path}: {exc}") from None


def save_road(path: str | Path, road_id: str, road: RoadPoints) -> None:
    obj = {
        "id": road_id,
        "lane_width": road.lane_width,
        "map_size": road.map_size,
        "road_points": [[x, y] for x, y in road.points],
    }
    Path(path).write_text(json.dumps(obj, indent=2) + "\n")
