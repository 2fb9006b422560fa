"""Deterministic kinematic driving oracle and random road generator.

Labels a road safe/unsafe by driving it with a pure-pursuit bicycle model.
Cornering speed follows the flat-road friction law v = sqrt(mu * r * g),
scaled by a risk factor: aggressive styles corner faster and look ahead
less, cutting corners until the vehicle leaves its lane. The achievable yaw
rate is capped by a friction circle, so overdriving a turn makes the car run
wide instead of rotating in place.

Everything here is pure and seed-driven: identical inputs give bit-identical
traces, which the selection experiments rely on.
"""

from __future__ import annotations

import json
import math
import os
import re
from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from functools import cache
from itertools import chain, islice
from operator import attrgetter, itemgetter, le
from pathlib import Path
from typing import ClassVar

import numpy as np

from .features import (
    FEATURE_NAMES,
    SAFE,
    UNSAFE,
    FeatureVector,
    features_from_segments,
    label_code,
)
from .geometry import (
    MAP_SIZE,
    RoadPoints,
    RoadSpine,
    checked_spine,
    interpolate_spine,
    road_from_json,
    segment_spine,
    self_intersects,
)
from .inputs import (
    NUMBER,
    are_numbers,
    is_number,
    positive,
    read_json,
    read_json_cut,
)


class NonPositiveRadius(ValueError):
    """Cornering-speed formula needs a strictly positive radius."""


class GenerationExhausted(RuntimeError):
    """Rejection sampling failed to produce a valid road."""


class DriveTimeout(RuntimeError):
    """A drive reached its step cap without finishing or failing."""


@dataclass(frozen=True)
class DriverConfig:
    mu: float = 0.8                 # static friction coefficient
    risk_factor: float = 1.5        # cornering-speed multiplier
    v_max: float = 30.0             # m/s
    a_brake: float = 6.0            # m/s^2
    timestep: float = 0.05          # s
    oob_fraction: float = 0.5       # vehicle-width fraction outside = failure
    # constants of the simulated vehicle, the same in every experiment
    g: ClassVar[float] = 9.81                 # m/s^2
    a_accel: ClassVar[float] = 3.0            # m/s^2
    lookahead: ClassVar[float] = 3.0          # m, base pursuit distance (shrunk by rf)
    vehicle_width: ClassVar[float] = 2.0      # m
    wheelbase: ClassVar[float] = 2.5          # m
    max_steer: ClassVar[float] = 0.7          # rad
    max_steer_rate: ClassVar[float] = 0.18    # rad/s, wheel swing limit
    speed_gain: ClassVar[float] = 0.35        # s, speed-proportional lookahead growth
    grip_margin: ClassVar[float] = 2.3        # executed lateral grip = margin * mu * g

    def __post_init__(self):
        if not 0.0 < self.mu <= 2.0:
            raise ValueError(f"mu must be in (0, 2], got {self.mu}")
        if not 0.5 <= self.risk_factor <= 2.5:
            raise ValueError(f"risk_factor must be in [0.5, 2.5], got {self.risk_factor}")
        for name in ("v_max", "a_brake"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0.0):
                raise ValueError(f"{name} must be finite and > 0, got {value}")
        if not 0.0 < self.timestep <= 0.1:
            raise ValueError(f"timestep must be in (0, 0.1], got {self.timestep}")
        if not 0.0 < self.oob_fraction <= 1.0:
            raise ValueError(f"oob_fraction must be in (0, 1], got {self.oob_fraction}")


# the columns of a trace, one row per drive step. A dataset file keeps
# TRACE_KEYS for each row: all but the last column, lateral_offset, which
# is not written and which load_dataset fills with zeros
TRACE_KEYS = ("t", "x", "y", "heading", "speed", "steering", "throttle",
              "brake")
TRACE_COLUMNS = (*TRACE_KEYS, "lateral_offset")
# the trace of an outcome that keeps none: one shared read-only array
NO_TRACE = np.empty((0, len(TRACE_COLUMNS)))
NO_TRACE.flags.writeable = False


@dataclass(frozen=True)
class TestOutcome:
    """A drive's verdict. Its trace is a (steps, len(TRACE_COLUMNS))
    float64 array, or NO_TRACE when not kept; an array has no truth value
    and no == that gives one, so outcomes are not compared whole."""
    __test__ = False              # not a pytest class despite the name
    label: str                    # SAFE | UNSAFE
    duration: float               # s of simulated driving
    max_abs_lateral_offset: float
    trace: np.ndarray


@dataclass
class TestCase:
    __test__ = False              # not a pytest class despite the name
    id: str
    road: RoadPoints
    features: FeatureVector
    outcome: TestOutcome


def safe_speed(radius: float, cfg: DriverConfig) -> float:
    """Maximum cornering speed for a turn radius: rf * sqrt(mu * r * g),
    capped at v_max."""
    if radius <= 0.0:
        raise NonPositiveRadius(f"radius must be > 0, got {radius}")
    return min(cfg.v_max, cfg.risk_factor * math.sqrt(cfg.mu * radius * cfg.g))


def plan_speed_profile(spine: RoadSpine, cfg: DriverConfig) -> np.ndarray:
    """Per-sample target speed: cornering limit at each sample, then a
    backward pass bounding deceleration and a forward pass bounding
    acceleration. The first sample is a standing start."""
    kappa = np.abs(spine.curvature)
    v = np.full(len(kappa), cfg.v_max)
    turning = kappa > 1e-12
    v[turning] = np.minimum(
        cfg.v_max,
        cfg.risk_factor * np.sqrt(cfg.mu * cfg.g / kappa[turning]))
    # both passes index Python lists: numpy scalar indexing is slower. Each
    # min(v[i], w) is written out as a comparison, as in _simulate
    v = v.tolist()
    ds = np.diff(spine.s).tolist()
    sqrt = math.sqrt
    brake2 = 2.0 * cfg.a_brake
    accel2 = 2.0 * cfg.a_accel
    v[0] = 0.0
    for i in range(len(v) - 2, -1, -1):          # braking feasibility
        w = sqrt(v[i + 1] ** 2 + brake2 * ds[i])
        if w < v[i]:
            v[i] = w
    for i in range(len(v) - 1):                  # acceleration feasibility
        w = sqrt(v[i] ** 2 + accel2 * ds[i])
        if w < v[i + 1]:
            v[i + 1] = w
    return np.array(v)


def _simulate(spine: RoadSpine, cfg: DriverConfig, lane_width: float,
              keep_trace: bool = True) -> TestOutcome:
    """Drive the spine once from a standing start and return the verdict.

    Each step advances the progress pointer, measures the lateral offset,
    steers by pure pursuit and tracks the planned speed profile. The drive
    ends UNSAFE when the car leaves its lane, lane_width wide and centred on
    the spine, and SAFE within 0.5 m of the road's end.

    keep_trace=True adds each step's TRACE_COLUMNS values to one flat list,
    which becomes the outcome's trace array, a row per step; with False
    the trace is NO_TRACE and no step is recorded. Label, duration and
    max_abs_lateral_offset are the same either way.

    Raises DriveTimeout if neither end is reached within the step cap of
    (total_length / 1 m/s + 120 s) of simulated time.
    """
    # the loop reads Python lists and locals: numpy scalar indexing and
    # attribute lookups dominated its cost. Each clamp is a conditional
    # expression, not a call of min or max: min(a, y) is written
    # y if y < a else a, and max(a, y) is y if y > a else a, which keeps
    # the builtins' rule that a tie or a NaN y gives a
    sx = spine.xy[:, 0].tolist()
    sy = spine.xy[:, 1].tolist()
    s_arc = spine.s.tolist()
    spine_heading = spine.heading.tolist()
    profile = plan_speed_profile(spine, cfg).tolist()
    n = len(sx)
    last = n - 1
    # the last sample's v_ref is its own speed: profile[ptr + 1] is
    # profile[min(ptr + 1, last)] without a clamp
    profile.append(profile[last])

    dt = cfg.timestep
    half_lane = lane_width / 2.0
    half_width = cfg.vehicle_width / 2.0
    vehicle_width = cfg.vehicle_width
    oob_fraction = cfg.oob_fraction
    pursuit_base = cfg.lookahead / cfg.risk_factor
    speed_gain = cfg.speed_gain
    wheelbase = cfg.wheelbase
    max_steer = cfg.max_steer
    min_steer = -max_steer
    a_accel = cfg.a_accel
    a_brake = cfg.a_brake
    min_accel = -a_brake
    yaw_cap_acc = cfg.grip_margin * cfg.mu * cfg.g
    end_s = spine.total_length - 0.5
    cos, sin, tan, atan2, hypot = math.cos, math.sin, math.tan, math.atan2, math.hypot
    pi = math.pi
    two_pi = 2.0 * math.pi

    x, y = sx[0], sy[0]
    heading = spine_heading[0]
    speed = 0.0
    steer = steer_prev = throttle = brake = 0.0
    rate_step = cfg.max_steer_rate * dt
    ptr = 0
    look = 0
    # the cos and sin of spine_heading[ptr], recomputed when ptr moves
    hx = cos(spine_heading[0])
    hy = sin(spine_heading[0])
    hx_ptr = 0
    t = 0.0
    max_steps = int((spine.total_length / 1.0 + 120.0) / dt)

    trace: list[float] = []     # the steps' rows, one after another
    max_off = 0.0
    failed = False

    for _ in range(max_steps):
        # advance the progress pointer to the nearest sample (monotone)
        while ptr < last:
            dx0 = sx[ptr] - x
            dy0 = sy[ptr] - y
            dx1 = sx[ptr + 1] - x
            dy1 = sy[ptr + 1] - y
            if dx1 * dx1 + dy1 * dy1 < dx0 * dx0 + dy0 * dy0:
                ptr += 1
            else:
                break

        # signed lateral offset from the local tangent
        if ptr != hx_ptr:
            hx_ptr = ptr
            hx = cos(spine_heading[ptr])
            hy = sin(spine_heading[ptr])
        ex = x - sx[ptr]
        ey = y - sy[ptr]
        offset = hx * ey - hy * ex
        abs_off = abs(offset)
        if abs_off > max_off:
            max_off = abs_off

        oob = (abs_off + half_width - half_lane) / vehicle_width
        if oob >= oob_fraction:
            failed = True
            if keep_trace:
                trace += (t, x, y, heading, speed, steer, throttle, brake,
                          offset)
            break

        progress = s_arc[ptr] + hx * ex + hy * ey
        if progress >= end_s:
            break

        # pure pursuit toward the point lookahead distance ahead by arc
        pursuit = pursuit_base + speed_gain * speed
        target_s = progress + pursuit
        if look < ptr:
            look = ptr
        while look < last and s_arc[look] < target_s:
            look += 1
        tx, ty = sx[look], sy[look]
        alpha = atan2(ty - y, tx - x) - heading
        alpha = (alpha + pi) % two_pi - pi
        dist = hypot(tx - x, ty - y)
        if 1e-6 > dist:
            dist = 1e-6
        steer = atan2(2.0 * wheelbase * sin(alpha), dist)
        steer = steer if steer < max_steer else max_steer
        steer = steer if steer > min_steer else min_steer
        bound = steer_prev + rate_step
        steer = steer if steer < bound else bound
        bound = steer_prev - rate_step
        steer = steer if steer > bound else bound
        steer_prev = steer

        # longitudinal control toward the planned profile
        accel = (profile[ptr + 1] - speed) / dt
        accel = accel if accel < a_accel else a_accel
        accel = accel if accel > min_accel else min_accel
        throttle = accel / a_accel if accel > 0.0 else 0.0
        brake = -accel / a_brake if accel < 0.0 else 0.0

        if keep_trace:
            trace += (t, x, y, heading, speed, steer, throttle, brake, offset)

        # kinematic bicycle with a friction-circle yaw-rate cap: demanding
        # more lateral acceleration than the tyres have makes the car run wide
        yaw_rate = speed * tan(steer) / wheelbase
        if speed > 0.1:
            cap = yaw_cap_acc / speed
            yaw_rate = yaw_rate if yaw_rate < cap else cap
            yaw_rate = yaw_rate if yaw_rate > -cap else -cap
        x += speed * cos(heading) * dt
        y += speed * sin(heading) * dt
        heading = (heading + yaw_rate * dt + pi) % two_pi - pi
        speed += accel * dt
        speed = speed if speed > 0.0 else 0.0
        t += dt
    else:
        raise DriveTimeout(
            f"drive did not finish within {max_steps} steps "
            f"({max_steps * dt:.2f} s simulated)")

    duration = max(t, dt)
    return TestOutcome(
        label=UNSAFE if failed else SAFE,
        duration=duration,
        max_abs_lateral_offset=max_off,
        trace=(np.array(trace).reshape(-1, len(TRACE_COLUMNS)) if keep_trace
               else NO_TRACE))


def simulate_drive(road: RoadPoints, cfg: DriverConfig) -> TestOutcome:
    """Drive the road once and return the verdict with its state trace."""
    return _simulate(checked_spine(road), cfg, road.lane_width)


class GeneratorBounds:
    """Constants of the random road generator."""
    length_range: ClassVar[tuple[float, float]] = (55.0, 3300.0)
    max_attempts: ClassVar[int] = 1000
    min_primitives: ClassVar[int] = 2
    max_primitives: ClassVar[int] = 12
    straight_range: ClassVar[tuple[float, float]] = (20.0, 100.0)
    # primitive radii; spline blending inflates the measured segment radius,
    # so the cap sits below the 47 m the feature tables are allowed to reach
    radius_range: ClassVar[tuple[float, float]] = (7.0, 33.0)
    angle_range: ClassVar[tuple[float, float]] = (15.0, 270.0)   # degrees
    margin: ClassVar[float] = 8.0    # keep control points away from the edge


_PRIMITIVE_KINDS = ("straight", "turn")


def _candidate_points(rng: np.random.Generator) -> list[tuple[float, float]]:
    bounds = GeneratorBounds
    n_prim = int(rng.integers(bounds.min_primitives, bounds.max_primitives + 1))
    x = MAP_SIZE * float(rng.uniform(0.35, 0.65))
    y = MAP_SIZE * float(rng.uniform(0.35, 0.65))
    heading = float(rng.uniform(-math.pi, math.pi))
    pts = [(x, y)]

    # integers(0, 2) draws what rng.choice over the two kinds would, at a
    # fifth of its cost
    kinds = [_PRIMITIVE_KINDS[rng.integers(0, 2)] for _ in range(n_prim)]
    if "turn" not in kinds:                      # every road has a turn
        kinds[int(rng.integers(0, n_prim))] = "turn"

    for kind in kinds:
        if kind == "straight":
            length = float(rng.uniform(*bounds.straight_range))
            step = length / max(1, int(math.ceil(length / 25.0)))
            d = step
            while d <= length + 1e-9:
                x = pts[-1][0] + step * math.cos(heading)
                y = pts[-1][1] + step * math.sin(heading)
                pts.append((x, y))
                d += step
        else:
            radius = float(rng.uniform(*bounds.radius_range))
            angle = math.radians(float(rng.uniform(*bounds.angle_range)))
            side = 1.0 if rng.random() < 0.5 else -1.0
            cx = pts[-1][0] - side * radius * math.sin(heading)
            cy = pts[-1][1] + side * radius * math.cos(heading)
            n_steps = max(2, int(math.ceil(math.degrees(angle) / 12.0)))
            phi0 = math.atan2(pts[-1][1] - cy, pts[-1][0] - cx)
            for k in range(1, n_steps + 1):
                phi = phi0 + side * angle * k / n_steps
                pts.append((cx + radius * math.cos(phi),
                            cy + radius * math.sin(phi)))
            heading = (heading + side * angle + math.pi) % (2.0 * math.pi) - math.pi
    return pts


def generate_road(rng_seed: int) -> tuple[RoadPoints, RoadSpine]:
    """Sample a valid random road: chained straight/arc primitives, rejected
    until in-map, non-self-intersecting, and inside the length bounds.

    Returns the road together with the spine it was accepted on, so callers
    do not interpolate it again."""
    b = GeneratorBounds
    rng = np.random.default_rng(rng_seed)
    lo, hi = b.margin, MAP_SIZE - b.margin

    for _ in range(b.max_attempts):
        pts = _candidate_points(rng)
        if not all(lo <= px <= hi and lo <= py <= hi for px, py in pts):
            continue
        road = RoadPoints(points=tuple(pts))
        spine = interpolate_spine(road)
        if not b.length_range[0] <= spine.total_length <= b.length_range[1]:
            continue
        if self_intersects(spine, road.lane_width):
            continue
        return road, spine
    raise GenerationExhausted(
        f"no valid road after {b.max_attempts} attempts (seed {rng_seed})")


def road_seeds(rng_seed: int) -> Iterator[int]:
    """Per-road seeds, drawn in doubling blocks; generate_state is
    prefix-stable, so road i gets the same seed whatever the block size."""
    seed_seq = np.random.SeedSequence(rng_seed)
    drawn = 0
    while True:
        block = seed_seq.generate_state(max(64, 2 * drawn))
        yield from (int(seed) for seed in block[drawn:])
        drawn = len(block)


def label_road(seed: int, cfg: DriverConfig, keep_trace: bool
               ) -> tuple[RoadPoints, FeatureVector, TestOutcome]:
    """Generate the road of a seed, extract its features from the spine it
    was accepted on, and drive it: the one preparation of a labelled road."""
    road, spine = generate_road(seed)
    features = features_from_segments(spine, segment_spine(spine))
    return road, features, _simulate(spine, cfg, road.lane_width, keep_trace)


def labelled_tests(n: int, cfg: DriverConfig, rng_seed: int,
                   keep_traces: bool = True) -> Iterator[TestCase]:
    """Generate, feature-extract, and label n tests, one at a time as they
    are drawn. Test i takes seed 2i of road_seeds, every other seed as
    datasets always have, so it depends on the run's seed alone, not on n,
    and each seed's dataset is unchanged."""
    if n < 1:
        raise ValueError(f"dataset size must be >= 1, got {n}")
    seeds = islice(road_seeds(rng_seed), 0, 2 * n, 2)
    return (TestCase(f"test_{i:05d}", *label_road(seed, cfg, keep_traces))
            for i, seed in enumerate(seeds))


def build_dataset(n: int, cfg: DriverConfig, rng_seed: int,
                  keep_traces: bool = True) -> list[TestCase]:
    """The n tests of labelled_tests, as one list."""
    return list(labelled_tests(n, cfg, rng_seed, keep_traces))


def unsafe_fraction(tests: list[TestCase]) -> float:
    return sum(1 for t in tests if t.outcome.label == UNSAFE) / max(len(tests), 1)


def _json_array(items: list[str], depth: int) -> str:
    """The json.dumps(..., indent=1) text of a list whose items' texts are
    given, for a list nested depth levels deep."""
    if not items:
        return "[]"
    pad = "\n" + " " * (depth + 1)
    return "[" + pad + ("," + pad).join(items) + "\n" + " " * depth + "]"


def _json_object(keys: tuple[str, ...], depth: int) -> str:
    """The json.dumps(..., indent=1) text of an object with these keys,
    nested depth levels deep, with a %s in place of each value."""
    pad = "\n" + " " * (depth + 1)
    return ("{" + pad + ("," + pad).join(f"{json.dumps(k)}: %s" for k in keys)
            + "\n" + " " * depth + "}")


def _json_scalars(values: list) -> tuple[str, ...]:
    """The json text of each value. Finite floats are their repr, as in
    json; NaN, infinities and anything that is not a float go through
    json.dumps."""
    try:
        texts = tuple(map(float.__repr__, values))
    except TypeError:                 # an int, a bool, a string
        return tuple(map(json.dumps, values))
    if all(map(math.isfinite, values)):
        return texts
    return tuple(map(json.dumps, values))


# the text of one dataset row and its parts, as json.dumps(rows, indent=1)
# lays them out: a row is nested one level deep, a trace state three
_ROW = _json_object(("id", "road_points", "lane_width", "map_size",
                     "features", "label", "duration_s", "trace"), 1)
_FEATURES = _json_object(FEATURE_NAMES, 2)
_POINT = _json_array(["%s", "%s"], 3)
_STATE = _json_object(TRACE_KEYS, 3)
# a row's text before its trace, the last member: it starts with a raw
# newline, which no JSON string holds
_TRACE_AT = _ROW.rsplit("%s", 2)[1].encode()
# a saved trace state's TRACE_KEYS values
_STATE_VALUES = itemgetter(*TRACE_KEYS)
_FEATURE_VALUES = attrgetter(*FEATURE_NAMES)
# the text of a top-level list before, between and after its rows
_LIST_OPEN, _LIST_SEP, _LIST_CLOSE = _json_array(["%s", "%s"], 0).split("%s")


def _row_text(tc: TestCase) -> str:
    """A test's row in the text of json.dumps(rows, indent=1)."""
    road, outcome = tc.road, tc.outcome
    points = list(chain.from_iterable(road.points))
    trace = outcome.trace[:, :len(TRACE_KEYS)].ravel().tolist()
    return _ROW % (
        json.dumps(tc.id),
        _json_array([_POINT] * len(road.points), 2) % _json_scalars(points),
        json.dumps(road.lane_width),
        json.dumps(road.map_size),
        _FEATURES % tuple(map(json.dumps, _FEATURE_VALUES(tc.features))),
        json.dumps(outcome.label),
        json.dumps(outcome.duration),
        _json_array([_STATE] * len(outcome.trace), 2) % _json_scalars(trace),
    )


def save_dataset(path: str | Path, tests: Iterable[TestCase]) -> None:
    """Write the labelled-dataset JSON consumed by the CAN conversion step:
    the bytes of json.dumps(rows, indent=1) and a newline, built from
    fixed templates, since json's indenting encoder is pure Python.

    tests may be any iterable; each row is written as its test arrives, so
    a generator's tests are never held together. The rows go to a
    temporary sibling, path + ".tmp", which replaces path once the last
    row is in; on any exception, KeyboardInterrupt included, it is
    removed, so a failed write leaves no dataset file and an old one as it
    was."""
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "w") as fh:
            sep = _LIST_OPEN
            for tc in tests:
                fh.write(sep)
                fh.write(_row_text(tc))
                sep = _LIST_SEP
            fh.write("[]\n" if sep is _LIST_OPEN else _LIST_CLOSE + "\n")
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


@cache
def _saved_trace() -> re.Pattern:
    """The bytes of a row's trace member as save_dataset writes a
    non-empty trace: _TRACE_AT, then the writer's own templates with a
    number in place of each %s. A trace-free read replaces each match by
    _TRACE_AT and []. No JSON string holds the anchor's raw newline, so in
    a file that parses, a match is a member named trace whose value is
    such a list; outside a row it can sit only in a value load_dataset
    refuses, drops or ignores, so at most the repr of a value its error
    quotes changes. Compiled on first use."""
    state = re.escape(_STATE).replace("%s", NUMBER)
    head, sep, tail = re.escape(_json_array(["%s", "%s"], 2)).split("%s")
    return re.compile(re.escape(_TRACE_AT)
                      + f"{head}{state}(?:{sep}{state})*{tail}".encode())


def _read_trace(states, keep: bool) -> np.ndarray:
    """The trace array of a dataset row, its lateral_offsets 0, or NO_TRACE
    when not kept. Raises TypeError or ValueError unless states is a list
    and, when kept, each state an object whose TRACE_KEYS values are
    finite numbers, t never decreasing."""
    if type(states) is not list:
        raise TypeError(f"trace is not a list: {states!r}")
    if not keep:
        return NO_TRACE
    if not set(map(type, states)) <= {dict}:
        raise TypeError("a trace state is not an object")
    rows = list(map(_STATE_VALUES, states))
    if not are_numbers(list(chain.from_iterable(rows))):
        j, key, value = next((j, key, value) for j, row in enumerate(rows)
                             for key, value in zip(TRACE_KEYS, row)
                             if not is_number(value))
        raise ValueError(f"trace state {j}: {key} {value!r} is not a finite number")
    times = [row[0] for row in rows]          # t is the first trace key
    if not all(map(le, times, times[1:])):
        j = next(j for j in range(1, len(times)) if times[j] < times[j - 1])
        raise ValueError(f"trace state {j}: t {times[j]!r} is before "
                         f"{times[j - 1]!r}")
    trace = np.zeros((len(rows), len(TRACE_COLUMNS)))
    trace[:, :len(TRACE_KEYS)] = np.array(rows, float).reshape(
        -1, len(TRACE_KEYS))
    return trace


def load_dataset(path: str | Path, keep_traces: bool = True) -> list[TestCase]:
    """Read a file written by save_dataset. Trace rows get a zero
    lateral_offset and outcomes a zero max_abs_lateral_offset, since the
    file keeps neither; with keep_traces false every outcome's trace is
    NO_TRACE, and the trace states are not checked: a trace laid out as
    save_dataset writes it is cut from the file's bytes by _saved_trace
    and never built, any other trace is parsed and dropped. Raises
    ValueError naming the file, and the row where known, when the file
    cannot be read or is not a JSON list of objects, a key is missing, a
    value has the wrong type or is not finite, an id is not a string or
    repeats one before it, a duration is not > 0, a trace goes back in
    time or a label is neither "safe" nor "unsafe"."""
    rows = (read_json(path) if keep_traces
            else read_json_cut(path, _saved_trace(), _TRACE_AT + b"[]"))
    if not isinstance(rows, list):
        raise ValueError(f"{path}: top level is not a list of rows")
    tests = []
    seen = {}
    for i, row in enumerate(rows):
        try:
            if not isinstance(row, dict):
                raise TypeError("not an object")
            test_id = row["id"]
            if type(test_id) is not str:
                raise TypeError(f"id {test_id!r} is not a string")
            if test_id in seen:
                raise ValueError(f"id {test_id!r} is also row {seen[test_id]}'s")
            seen[test_id] = i
            trace = _read_trace(row.get("trace", []), keep_traces)
            label_code(row["label"])
            outcome = TestOutcome(
                label=row["label"],
                duration=positive("duration_s", row["duration_s"]),
                max_abs_lateral_offset=0.0, trace=trace)
            tests.append(TestCase(id=test_id, road=road_from_json(row),
                                  features=FeatureVector(**row["features"]),
                                  outcome=outcome))
        except KeyError as exc:
            raise ValueError(f"{path}, row {i}: no key {exc}") from None
        except (TypeError, ValueError) as exc:
            raise ValueError(f"{path}, row {i}: {exc}") from None
    return tests
