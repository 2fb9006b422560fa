"""Static road features: attributes, turn statistics, and diversity areas.

Eighteen numbers per road, all computable before any drive: global
attributes (distances, segment counts, cumulative turn angle), descriptive
statistics of per-turn angle and radius, and the chord-polygon areas that
measure how far each segment strays from its straight chord.
"""

from __future__ import annotations

import csv
import io
import re
from dataclasses import dataclass, fields
from pathlib import Path
from typing import get_type_hints

import numpy as np

from .geometry import (
    STRAIGHT,
    GeometryConfig,
    RoadPoints,
    RoadSegment,
    RoadSpine,
    checked_spine,
    segment_spine,
)
from .inputs import NUMBER, is_number, read_text

# the oracle's verdicts, the only labels a test carries; a verdict's class
# code, which the classifiers learn (unsafe is the positive class), is its
# index in LABELS
SAFE, UNSAFE = LABELS = ("safe", "unsafe")
SAFE_CODE, UNSAFE_CODE = 0, 1
_LABEL_CODES = {label: code for code, label in enumerate(LABELS)}


def label_code(label) -> int:
    """The class code of a verdict label. Raises ValueError for anything
    but "safe" or "unsafe", so no other value is taken for either class."""
    if isinstance(label, str) and label in _LABEL_CODES:
        return _LABEL_CODES[label]
    raise ValueError(f"label {label!r} is neither 'safe' nor 'unsafe'")


# the stratified draw of splits, folds and prune sets

def shuffled_classes(y, seed) -> list[np.ndarray]:
    """Each class's row indices in a seeded order, safe class first."""
    rng = np.random.default_rng(seed)
    classes = [np.flatnonzero(y == cls) for cls in (SAFE_CODE, UNSAFE_CODE)]
    return [idx[rng.permutation(len(idx))] for idx in classes]


def class_heads(y, seed, size) -> np.ndarray:
    """The mask of the first size(n) rows of each class of n rows, in
    shuffled_classes(y, seed) order."""
    mask = np.zeros(len(y), dtype=bool)
    for idx in shuffled_classes(y, seed):
        mask[idx[:size(len(idx))]] = True
    return mask


@dataclass(frozen=True)
class FeatureVector:
    direct_distance: float
    length: float
    num_l_turns: int
    num_r_turns: int
    num_straights: int
    total_angle: float
    median_angle: float
    std_angle: float
    max_angle: float
    min_angle: float
    mean_angle: float
    median_radius: float
    std_radius: float
    max_radius: float
    min_radius: float
    mean_radius: float
    full_road_diversity: float
    mean_road_diversity: float

    def __post_init__(self):
        # the counts are ints, every other feature a float or an int; all
        # finite, so no model is fed a NaN or an infinity
        for name in FEATURE_NAMES:
            value = getattr(self, name)
            if not (is_number(value)
                    and (type(value) is int or name not in _INT_FEATURES)):
                kind = "an int" if name in _INT_FEATURES else "a finite number"
                raise ValueError(f"feature {name} {value!r} is not {kind}")

    def as_dict(self) -> dict[str, float]:
        return {n: getattr(self, n) for n in FEATURE_NAMES}

    def as_array(self) -> np.ndarray:
        return np.array([getattr(self, n) for n in FEATURE_NAMES], dtype=np.float64)


FEATURE_NAMES = tuple(f.name for f in fields(FeatureVector))
# counts, written and read as integers
_INT_FEATURES = frozenset(
    n for n, t in get_type_hints(FeatureVector).items() if t is int)


def extract_attributes(spine: RoadSpine, segments: list[RoadSegment]) -> dict:
    """Global road attributes: endpoint distance, length, per-kind counts,
    cumulative turn angle."""
    (x0, y0), (x1, y1) = spine.xy[0], spine.xy[-1]
    kinds = [seg.kind for seg in segments]
    turn_angles = [seg.turn_angle for seg in segments if seg.kind != STRAIGHT]
    return {
        "direct_distance": float(np.hypot(x1 - x0, y1 - y0)),
        "length": spine.total_length,
        "num_l_turns": sum(1 for k in kinds if k == "left"),
        "num_r_turns": sum(1 for k in kinds if k == "right"),
        "num_straights": sum(1 for k in kinds if k == STRAIGHT),
        "total_angle": float(sum(turn_angles)),
    }


def extract_statistics(segments: list[RoadSegment]) -> dict:
    """Angle and radius statistics over turn segments.

    Population standard deviation; a road without turns reports zeros for
    all ten statistics.
    """
    turns = [seg for seg in segments if seg.kind != STRAIGHT]
    if not turns:
        return {n: 0.0 for n in FEATURE_NAMES[6:16]}
    angles = np.array([seg.turn_angle for seg in turns])
    radii = np.array([seg.radius for seg in turns])
    return {
        "median_angle": float(np.median(angles)),
        "std_angle": float(np.std(angles)),
        "max_angle": float(np.max(angles)),
        "min_angle": float(np.min(angles)),
        "mean_angle": float(np.mean(angles)),
        "median_radius": float(np.median(radii)),
        "std_radius": float(np.std(radii)),
        "max_radius": float(np.max(radii)),
        "min_radius": float(np.min(radii)),
        "mean_radius": float(np.mean(radii)),
    }


def extract_diversity(spine: RoadSpine, segments: list[RoadSegment]) -> dict:
    """Chord-polygon areas: full road diversity is the sum over segments,
    mean diversity divides by the segment count. segment_spine reports a
    chord area below straight_area_epsilon as 0, so a straight road has
    zero full and mean diversity."""
    areas = [seg.chord_area for seg in segments]
    full = float(sum(areas))
    return {
        "full_road_diversity": full,
        "mean_road_diversity": full / len(segments) if segments else 0.0,
    }


def features_from_segments(spine: RoadSpine, segments: list[RoadSegment]) -> FeatureVector:
    out: dict = {}
    out.update(extract_attributes(spine, segments))
    out.update(extract_statistics(segments))
    out.update(extract_diversity(spine, segments))
    return FeatureVector(**out)


def extract_features(road: RoadPoints, config: GeometryConfig | None = None) -> FeatureVector:
    """Full pipeline: interpolate, validate, segment, extract.

    Raises DegenerateRoad for bad control points and SelfIntersecting when
    the spine folds back on itself.
    """
    cfg = config or GeometryConfig()
    spine = checked_spine(road, cfg)
    segments = segment_spine(spine, cfg)
    return features_from_segments(spine, segments)


def _format_value(name: str, value: float) -> str:
    if name in _INT_FEATURES:
        return str(int(value))
    return format(float(value), ".12g")


def write_feature_csv(path: str | Path, rows: list[tuple[str, FeatureVector, str | None]]) -> None:
    """Write the feature matrix: test_id, 18 features, label (may be empty)."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["test_id", *FEATURE_NAMES, "label"])
        for test_id, vec, label in rows:
            d = vec.as_dict()
            writer.writerow(
                [test_id]
                + [_format_value(n, d[n]) for n in FEATURE_NAMES]
                + [label if label is not None else ""])


# the cells write_feature_csv writes; float() also takes "_", spaces,
# non-ASCII digits, "inf" and "nan"
_NUMBER_TEXT = re.compile(NUMBER)


def _feature_row(line: list[str]) -> tuple[str, FeatureVector, str | None]:
    if len(line) != len(FEATURE_NAMES) + 2:
        raise ValueError(f"{len(line)} columns, expected {len(FEATURE_NAMES) + 2}")
    test_id, *cells, label = line
    for n, v in zip(FEATURE_NAMES, cells):
        if not _NUMBER_TEXT.fullmatch(v):
            raise ValueError(f"{n} {v!r} is not a JSON number")
    values = {n: float(v) for n, v in zip(FEATURE_NAMES, cells)}
    for n in _INT_FEATURES:
        if not values[n].is_integer():
            raise ValueError(f"{n} {values[n]!r} is not a whole number")
        values[n] = int(values[n])
    if label:
        label_code(label)
    return test_id, FeatureVector(**values), label or None


def read_feature_csv(path: str | Path) -> list[tuple[str, FeatureVector, str | None]]:
    """Read a file written by write_feature_csv. Raises ValueError naming
    the file, and the line where known, when it cannot be read or is not
    UTF-8, on a missing or wrong header, a row of the wrong width, a value
    that is not a finite number (or not a whole number for a count), or a
    label other than empty, "safe" or "unsafe"."""
    reader = csv.reader(io.StringIO(read_text(path), newline=""))
    try:
        header = next(reader, None)
        if header != ["test_id", *FEATURE_NAMES, "label"]:
            raise ValueError(f"unexpected feature CSV header: {header}")
        return [_feature_row(line) for line in reader]
    except (ValueError, csv.Error) as exc:
        where = f", line {reader.line_num}" if reader.line_num else ""
        raise ValueError(f"{path}{where}: {exc}") from None
