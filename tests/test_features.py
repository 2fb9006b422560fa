import math
import os
import subprocess
import sys

import numpy as np
import pytest

from roadsift.features import (
    FEATURE_NAMES,
    LABELS,
    SAFE,
    SAFE_CODE,
    UNSAFE,
    UNSAFE_CODE,
    extract_attributes,
    extract_diversity,
    extract_features,
    extract_statistics,
    features_from_segments,
    read_feature_csv,
    write_feature_csv,
)
from roadsift.geometry import (
    GeometryConfig,
    RoadPoints,
    SelfIntersecting,
    interpolate_spine,
    segment_spine,
)
from roadsift.oracle import generate_road

from conftest import analytic_arc_spine, arc_between_straights, straight_points


def features_of(points, config=None):
    road = RoadPoints(points=points)
    return extract_features(road, config)


def s_curve_points(radius=20.0, arc_deg=90.0, lead=40.0, step_deg=3.0):
    """Left arc then right arc of equal radius, straight lead-in/out."""
    pts = [(60.0 + d, 200.0) for d in np.arange(0.0, lead + 1e-9, 10.0)]
    heading = 0.0
    for side in (1.0, -1.0):
        cx = pts[-1][0] - side * radius * math.sin(heading)
        cy = pts[-1][1] + side * radius * math.cos(heading)
        phi0 = math.atan2(pts[-1][1] - cy, pts[-1][0] - cx)
        n = int(round(arc_deg / step_deg))
        for k in range(1, n + 1):
            phi = phi0 + side * math.radians(arc_deg) * k / n
            pts.append((cx + radius * math.cos(phi), cy + radius * math.sin(phi)))
        heading += side * math.radians(arc_deg)
    ex, ey = pts[-1]
    pts.extend((ex + d * math.cos(heading), ey + d * math.sin(heading))
               for d in np.arange(10.0, lead + 1e-9, 10.0))
    return tuple(pts)


class TestAttributes:
    def test_straight_road(self):
        vec = features_of(straight_points(length=100.0))
        assert vec.direct_distance == pytest.approx(100.0, abs=0.1)
        assert vec.length == pytest.approx(100.0, abs=0.1)
        assert (vec.num_l_turns, vec.num_r_turns, vec.num_straights) == (0, 0, 1)
        assert vec.total_angle == pytest.approx(0.0, abs=0.05)

    def test_s_curve_counts_and_total_angle(self):
        # 0.5 m sampling halves the boundary quantization of the run split,
        # which otherwise eats ~1.5 deg per turn boundary at this radius
        vec = features_of(s_curve_points(), GeometryConfig(sampling_step=0.5))
        assert vec.num_l_turns == 1
        assert vec.num_r_turns == 1
        assert vec.total_angle == pytest.approx(180.0, abs=4.0)

    def test_length_at_least_direct_distance(self):
        for seed in range(15):
            road, _ = generate_road(seed)
            vec = extract_features(road)
            assert vec.length >= vec.direct_distance - 1e-9

    def test_counts_match_segments(self):
        for seed in range(10):
            _, spine = generate_road(seed)
            segs = segment_spine(spine)
            vec = features_from_segments(spine, segs)
            assert vec.num_l_turns + vec.num_r_turns + vec.num_straights == len(segs)

    def test_total_angle_is_sum_of_turn_angles(self):
        for seed in range(10):
            _, spine = generate_road(seed)
            segs = segment_spine(spine)
            vec = features_from_segments(spine, segs)
            expected = sum(s.turn_angle for s in segs if s.kind != "straight")
            assert vec.total_angle == pytest.approx(expected, rel=1e-6, abs=1e-9)


class TestStatistics:
    def test_single_turn(self):
        vec = features_of(arc_between_straights(radius=30.0, arc_deg=90.0))
        assert vec.median_angle == vec.mean_angle == vec.max_angle == vec.min_angle
        assert vec.median_angle == pytest.approx(90.0, abs=2.0)
        assert vec.std_angle == 0.0
        assert vec.median_radius == vec.mean_radius == vec.max_radius == vec.min_radius
        assert vec.median_radius == pytest.approx(30.0, rel=0.06)
        assert vec.std_radius == 0.0

    def test_two_turn_hand_statistics(self):
        # 60 and 120 degree turns; statistics computed by hand
        spine = interpolate_spine(RoadPoints(points=s_curve_points(arc_deg=60.0)))
        segs_60 = [s for s in segment_spine(spine) if s.kind != "straight"]
        assert len(segs_60) == 2
        angles = sorted(s.turn_angle for s in segs_60)
        stats = extract_statistics(segment_spine(spine))
        assert stats["mean_angle"] == pytest.approx(np.mean(angles), abs=1e-9)
        assert stats["std_angle"] == pytest.approx(np.std(angles), abs=1e-9)
        assert stats["max_angle"] == pytest.approx(max(angles), abs=1e-9)
        assert stats["min_angle"] == pytest.approx(min(angles), abs=1e-9)

    def test_mixed_angles_mean_and_std(self):
        angles = np.array([60.0, 120.0])
        assert np.mean(angles) == 90.0
        assert np.std(angles) == 30.0   # population convention used throughout

    def test_no_turns_all_zero(self):
        vec = features_of(straight_points())
        for name in FEATURE_NAMES[6:16]:
            assert getattr(vec, name) == 0.0

    def test_ordering_invariants(self):
        for seed in range(10):
            vec = extract_features(generate_road(seed)[0])
            if vec.num_l_turns + vec.num_r_turns >= 1:
                assert vec.min_angle <= vec.median_angle <= vec.max_angle
                assert vec.min_radius <= vec.median_radius <= vec.max_radius


class TestDiversity:
    def test_straight_segment_zero_area(self):
        vec = features_of(straight_points())
        assert vec.full_road_diversity == 0.0
        assert vec.mean_road_diversity == 0.0

    @pytest.mark.parametrize("points", [
        tuple((20.0 + 70.0 * i, 30.0 + 65.0 * i) for i in range(7)),
        tuple((400.0 - 50.0 * i, 60.0 + 45.0 * i) for i in range(5)),
    ], ids=["diagonal", "anti-diagonal"])
    def test_any_straight_road_zero_diversity(self, points):
        vec = features_of(points)
        assert vec.full_road_diversity == 0.0
        assert vec.mean_road_diversity == 0.0

    def test_straight_area_epsilon_is_read(self):
        spine = analytic_arc_spine(radius=10.0, arc_deg=180.0, step=1.0)
        default = extract_diversity(spine, segment_spine(spine))
        assert default["full_road_diversity"] == pytest.approx(
            math.pi * 100.0 / 2.0, rel=0.01)
        coarse = segment_spine(spine, GeometryConfig(straight_area_epsilon=1e3))
        assert extract_diversity(spine, coarse)["full_road_diversity"] == 0.0

    def test_half_disk_area(self):
        # 180-degree arc of radius 10: area between arc and chord = pi r^2 / 2
        spine = analytic_arc_spine(radius=10.0, arc_deg=180.0, step=1.0)
        segs = segment_spine(spine)
        assert len(segs) == 1
        div = extract_diversity(spine, segs)
        assert div["full_road_diversity"] == pytest.approx(
            math.pi * 100.0 / 2.0, rel=0.01)

    def test_straight_plus_half_circle(self):
        spine = analytic_arc_spine(radius=10.0, arc_deg=180.0, step=1.0, lead=40.0)
        segs = segment_spine(spine)
        assert len(segs) == 2
        div = extract_diversity(spine, segs)
        assert div["full_road_diversity"] == pytest.approx(157.08, rel=0.012)
        assert div["mean_road_diversity"] == pytest.approx(157.08 / 2.0, rel=0.012)

    def test_full_at_least_mean(self):
        for seed in range(10):
            vec = extract_features(generate_road(seed)[0])
            assert vec.full_road_diversity >= vec.mean_road_diversity >= 0.0

    def test_shoelace_against_monte_carlo(self):
        # point-in-polygon estimate of the chord polygon area, 50 segments
        rng = np.random.default_rng(5)

        def mc_area(poly, n=150_000):
            closed = np.vstack([poly, poly[:1]])
            lo = closed.min(axis=0)
            hi = closed.max(axis=0)
            span = np.maximum(hi - lo, 1e-12)
            pts = lo + rng.random((n, 2)) * span
            x0, y0 = closed[:-1, 0], closed[:-1, 1]
            x1, y1 = closed[1:, 0], closed[1:, 1]
            inside = np.zeros(n, dtype=bool)
            for xa, ya, xb, yb in zip(x0, y0, x1, y1):
                crosses = (ya > pts[:, 1]) != (yb > pts[:, 1])
                with np.errstate(divide="ignore", invalid="ignore"):
                    xi = xa + (pts[:, 1] - ya) * (xb - xa) / (yb - ya)
                inside ^= crosses & (pts[:, 0] < xi)
            return inside.mean() * span[0] * span[1]

        checked = 0
        seed = 0
        while checked < 50:
            _, spine = generate_road(seed)
            seed += 1
            for seg in segment_spine(spine):
                if seg.chord_area < 50.0 or checked >= 50:
                    continue
                poly = spine.xy[seg.start_index:seg.end_index + 1]
                estimate = mc_area(poly)
                assert estimate == pytest.approx(seg.chord_area, rel=0.02)
                checked += 1
        assert checked == 50


class TestExtractFeatures:
    def test_deterministic(self):
        road, _ = generate_road(9)
        a = extract_features(road)
        b = extract_features(road)
        assert a == b

    def test_self_intersection_rejected(self):
        t = np.linspace(0.0, 2.0 * math.pi, 25)[:-1]
        pts = tuple((250 + 60 * math.sin(a), 250 + 45 * math.sin(2 * a)) for a in t)
        with pytest.raises(SelfIntersecting):
            extract_features(RoadPoints(points=pts))

    def test_generated_lengths_in_expected_range(self):
        for seed in range(20):
            vec = extract_features(generate_road(seed)[0])
            assert 50.6 <= vec.length <= 3317.9

    def test_mirror_swaps_only_turn_counts(self):
        base = np.asarray(s_curve_points())
        mirrored = base.copy()
        mirrored[:, 1] = 400.0 - mirrored[:, 1]
        a = features_of(tuple(map(tuple, base)))
        b = features_of(tuple(map(tuple, mirrored)))
        assert (a.num_l_turns, a.num_r_turns) == (b.num_r_turns, b.num_l_turns)
        for name in FEATURE_NAMES:
            if name in ("num_l_turns", "num_r_turns"):
                continue
            assert getattr(a, name) == pytest.approx(getattr(b, name), abs=1e-9)

    def test_scaling_covariance(self):
        # scaling coordinates by c with config thresholds scaled to match:
        # lengths and radii scale by c, areas by c^2, counts and angles fixed
        base = np.asarray(arc_between_straights(radius=20.0, arc_deg=120.0))
        cfg0 = GeometryConfig()
        a = extract_features(RoadPoints(points=tuple(map(tuple, base))), cfg0)
        c = 1.7
        scaled = (base - base.min(axis=0)) * c + 30.0
        cfg1 = GeometryConfig(
            sampling_step=cfg0.sampling_step * c,
            straight_curvature_threshold=cfg0.straight_curvature_threshold / c,
            min_segment_length=cfg0.min_segment_length * c,
            min_radius=cfg0.min_radius * c,
            straight_area_epsilon=cfg0.straight_area_epsilon * c * c)
        b = extract_features(
            RoadPoints(points=tuple(map(tuple, scaled)), map_size=900.0), cfg1)
        assert (a.num_l_turns, a.num_r_turns, a.num_straights) == \
            (b.num_l_turns, b.num_r_turns, b.num_straights)
        assert b.total_angle == pytest.approx(a.total_angle, rel=1e-6)
        assert b.length == pytest.approx(a.length * c, rel=1e-6)
        assert b.mean_radius == pytest.approx(a.mean_radius * c, rel=1e-6)
        assert b.full_road_diversity == pytest.approx(
            a.full_road_diversity * c * c, rel=1e-6)


class TestFeatureCsv:
    def test_header_and_roundtrip(self, tmp_path):
        rows = [(f"t{i:03d}", extract_features(generate_road(i)[0]),
                 "unsafe" if i % 2 else "safe")
                for i in range(3)]
        rows.append(("t_unlabelled", rows[0][1], None))
        path = tmp_path / "features.csv"
        write_feature_csv(path, rows)

        header = path.read_text().splitlines()[0]
        assert header == "test_id," + ",".join(FEATURE_NAMES) + ",label"

        back = read_feature_csv(path)
        assert [r[0] for r in back] == [r[0] for r in rows]
        assert [r[2] for r in back] == [r[2] for r in rows]
        for (_, vec0, _), (_, vec1, _) in zip(rows, back):
            for name in FEATURE_NAMES:
                assert getattr(vec1, name) == pytest.approx(
                    getattr(vec0, name), rel=1e-9)

    def test_significant_digits(self, tmp_path):
        vec = extract_features(generate_road(0)[0])
        path = tmp_path / "f.csv"
        write_feature_csv(path, [("t0", vec, None)])
        line = path.read_text().splitlines()[1]
        value = line.split(",")[2]    # length column
        mantissa = value.replace(".", "").replace("-", "").lstrip("0")
        assert len(mantissa) >= 9

    # number text float() reads that the writer never writes
    @pytest.mark.parametrize("cell", ["1_0", "\u0661", " 2 ", "+2", ".5",
                                      "2.", "0x10", "1e999_0"])
    def test_number_text_outside_json_names_the_line(self, tmp_path, cell):
        path = tmp_path / "features.csv"
        write_feature_csv(path, [("t0", extract_features(generate_road(0)[0]),
                                  "safe")])
        header, row = path.read_text().splitlines()
        cells = row.split(",")
        cells[2] = cell                     # length
        path.write_text(f"{header}\n{','.join(cells)}\n")
        with pytest.raises(ValueError) as info:
            read_feature_csv(path)
        assert str(info.value).startswith(f"{path}, line 2: length {cell!r}")


class TestVerdictVocabulary:
    def test_codes_index_the_labels(self):
        assert LABELS[SAFE_CODE] == SAFE and LABELS[UNSAFE_CODE] == UNSAFE

    @pytest.mark.parametrize("module", ["roadsift.geometry", "roadsift.features",
                                        "roadsift.oracle", "roadsift.canbus"])
    def test_the_data_layer_loads_no_model_code(self, module):
        # a fresh interpreter, so modules other tests imported do not count
        loaded = subprocess.run(
            [sys.executable, "-c",
             f"import sys, {module}; print(*sorted(sys.modules))"],
            capture_output=True, text=True, check=True,
            env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
        ).stdout.split()
        assert module in loaded
        assert not [m for m in loaded if m.startswith("roadsift.ml")]
