import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from roadsift import geometry
from roadsift.features import FEATURE_NAMES, extract_features
from roadsift.geometry import (
    LEFT_TURN,
    RIGHT_TURN,
    STRAIGHT,
    DegenerateRoad,
    RoadPoints,
    SelfIntersecting,
    interpolate_spine,
    load_road,
    save_road,
    segment_spine,
    self_intersects,
)
from roadsift.oracle import DriverConfig, generate_road, simulate_drive

import reference_geometry
from conftest import arc_between_straights, straight_points


def loop_runs(codes):
    """geometry._runs as first written, one sample at a time: the reference."""
    runs = []
    start = 0
    for i in range(1, len(codes)):
        if codes[i] != codes[start]:
            runs.append([int(codes[start]), start, i - 1])
            start = i
    runs.append([int(codes[start]), start, len(codes) - 1])
    return runs


def make_spine(points, **road_kw):
    road = RoadPoints(points=points, lane_width=road_kw.pop("lane_width", 4.0),
                      map_size=road_kw.pop("map_size", 500.0))
    return interpolate_spine(road)


class TestRoadPoints:
    def test_two_points_rejected(self):
        with pytest.raises(DegenerateRoad):
            RoadPoints(points=((0.0, 0.0), (10.0, 0.0)))

    def test_duplicate_consecutive_rejected(self):
        with pytest.raises(DegenerateRoad):
            RoadPoints(points=((10.0, 10.0), (10.0, 10.0), (20.0, 10.0)))

    def test_out_of_map_rejected(self):
        with pytest.raises(DegenerateRoad):
            RoadPoints(points=((10.0, 10.0), (20.0, 10.0), (600.0, 10.0)))

    def test_road_file_roundtrip(self, tmp_path):
        road = RoadPoints(points=straight_points())
        save_road(tmp_path / "r.json", "road_1", road)
        rid, back = load_road(tmp_path / "r.json")
        assert rid == "road_1"
        assert back == road


class TestInterpolateSpine:
    def test_straight_line(self):
        spine = make_spine(straight_points(length=100.0))
        assert spine.total_length == pytest.approx(100.0, abs=0.01)
        assert np.max(np.abs(spine.curvature)) < 1e-6

    def test_circle_curvature_mid_arc(self):
        # 5 points on a radius-20 circle spanning 180 degrees
        ang = np.linspace(0.0, math.pi, 5)
        pts = tuple((100 + 20 * math.cos(a), 100 + 20 * math.sin(a)) for a in ang)
        spine = make_spine(pts)
        mid = spine.curvature[len(spine) // 2]
        assert mid == pytest.approx(1.0 / 20.0, rel=0.05)

    def test_passes_through_control_points(self):
        pts = arc_between_straights()
        spine = make_spine(pts)
        xy = spine.xy
        for px, py in pts:
            d = np.min(np.hypot(xy[:, 0] - px, xy[:, 1] - py))
            assert d < 1.0

    def test_sample_spacing_bounded(self):
        spine = make_spine(arc_between_straights(radius=12.0, arc_deg=200.0))
        assert np.max(np.diff(spine.s)) <= 1.0 + 1e-9

    def test_arc_length_strictly_increasing(self):
        spine = make_spine(arc_between_straights())
        assert spine.s[0] == 0.0
        assert np.all(np.diff(spine.s) > 0)
        assert spine.s[-1] == pytest.approx(spine.total_length)

    def test_curvature_clamped(self):
        # a kink between nearly antiparallel legs produces huge curvature
        pts = ((100.0, 100.0), (140.0, 100.0), (141.0, 100.8), (100.0, 102.0),
               (60.0, 103.0))
        spine = make_spine(pts)
        assert np.max(np.abs(spine.curvature)) <= 1.0 / 2.0 + 1e-12


class TestSelfIntersects:
    def test_straight_road(self):
        assert not self_intersects(make_spine(straight_points()), 4.0)

    def test_figure_eight(self):
        t = np.linspace(0.0, 2.0 * math.pi, 25)[:-1]
        pts = tuple((250 + 60 * math.sin(a), 250 + 45 * math.sin(2 * a)) for a in t)
        spine = make_spine(pts)
        assert self_intersects(spine, 4.0)

    def test_features_and_drive_refuse_alike(self):
        t = np.linspace(0.0, 2.0 * math.pi, 25)[:-1]
        road = RoadPoints(points=tuple(
            (250 + 60 * math.sin(a), 250 + 45 * math.sin(2 * a)) for a in t))
        with pytest.raises(SelfIntersecting) as measured:
            extract_features(road)
        with pytest.raises(SelfIntersecting) as driven:
            simulate_drive(road, DriverConfig())
        assert str(measured.value) == str(driven.value)

    def test_hairpin_legs_5m_apart(self):
        # two long antiparallel legs joined by a 180 turn, legs 5 m apart
        pts = [(60.0 + d, 100.0) for d in np.arange(0.0, 120.0 + 1e-9, 10.0)]
        cx, cy = pts[-1][0], pts[-1][1] + 2.5
        for k in range(1, 13):
            phi = -math.pi / 2 + math.pi * k / 12
            pts.append((cx + 2.5 * math.cos(phi), cy + 2.5 * math.sin(phi)))
        ex, ey = pts[-1]
        pts.extend((ex - d, ey) for d in np.arange(10.0, 120.0 + 1e-9, 10.0))
        spine = make_spine(tuple(pts))
        assert self_intersects(spine, 4.0)

    def test_matches_brute_force(self):
        # pairwise-distance oracle with the same arc exclusion window
        def brute(spine, lane_width):
            xy = spine.xy
            s = spine.s
            d = np.hypot(xy[:, None, 0] - xy[None, :, 0],
                         xy[:, None, 1] - xy[None, :, 1])
            sep = np.abs(s[:, None] - s[None, :])
            return bool(np.any((d < 2.0 * lane_width) & (sep > 4.0 * lane_width)))

        for seed in range(8):
            road, spine = generate_road(seed)
            assert self_intersects(spine, road.lane_width) == brute(spine, road.lane_width)


class TestSegmentSpine:
    @given(st.lists(st.sampled_from([-1, 0, 1]), min_size=1, max_size=300))
    def test_runs_match_the_loop(self, codes):
        codes = np.asarray(codes, dtype=np.int8)
        runs = geometry._runs(codes)
        assert runs == loop_runs(codes)
        assert all(type(v) is int for run in runs for v in run)

    @settings(max_examples=500)
    @given(data=st.data())
    def test_merge_matches_the_full_rescan(self, data):
        # spans of a few samples, some longer than min_length and some not;
        # with two kinds, the neighbours of every absorbed run share a kind.
        # Steps from a short list, so run lengths tie. The runs are maximal,
        # as _runs gives them
        kinds = data.draw(st.sampled_from([[0, 1], [-1, 0, 1]]))
        spans = data.draw(st.lists(st.tuples(st.sampled_from(kinds),
                                             st.integers(1, 12)),
                                   min_size=1, max_size=12))
        codes = np.repeat(np.array([k for k, _ in spans], dtype=np.int8),
                          [n for _, n in spans])
        steps = data.draw(st.lists(
            st.sampled_from([0.5, 1.0, 2.0]) | st.floats(0.0, 3.0),
            min_size=len(codes) - 1, max_size=len(codes) - 1))
        s = np.concatenate([[0.0], np.cumsum(steps)])
        min_length = data.draw(st.floats(0.0, 12.0))
        runs = geometry._runs(codes)
        assert (geometry._merge_short_runs(runs, s, min_length)
                == reference_geometry.merge_short_runs(runs, s, min_length))

    def test_straight_road_single_segment(self):
        spine = make_spine(straight_points())
        segs = segment_spine(spine)
        assert len(segs) == 1
        assert segs[0].kind == STRAIGHT
        assert segs[0].length == pytest.approx(100.0, abs=0.1)
        assert segs[0].turn_angle == pytest.approx(0.0, abs=0.01)

    def test_arc_between_straights(self):
        spine = make_spine(arc_between_straights(radius=30.0, arc_deg=90.0))
        segs = segment_spine(spine)
        assert [s.kind for s in segs] == [STRAIGHT, LEFT_TURN, STRAIGHT]
        mid = segs[1]
        assert mid.turn_angle == pytest.approx(90.0, abs=2.0)
        assert mid.radius == pytest.approx(30.0, rel=0.05)

    def test_right_turn_sign(self):
        spine = make_spine(arc_between_straights(side=-1.0))
        segs = segment_spine(spine)
        assert segs[1].kind == RIGHT_TURN

    def test_partition_covers_all_samples(self):
        spine = make_spine(arc_between_straights(radius=14.0, arc_deg=150.0))
        segs = segment_spine(spine)
        assert segs[0].start_index == 0
        assert segs[-1].end_index == len(spine) - 1
        for a, b in zip(segs, segs[1:]):
            assert b.start_index == a.end_index + 1

    def test_generated_road_radii_in_expected_range(self):
        for seed in range(25):
            _, spine = generate_road(seed)
            for seg in segment_spine(spine):
                if seg.kind != STRAIGHT:
                    assert 2.0 <= seg.radius <= 47.0

    def test_turn_mean_curvature_sign(self):
        for seed in range(10):
            _, spine = generate_road(seed)
            kappa = spine.curvature
            for seg in segment_spine(spine):
                mean_k = float(np.mean(kappa[seg.start_index:seg.end_index + 1]))
                if seg.kind == LEFT_TURN:
                    assert mean_k > 0
                elif seg.kind == RIGHT_TURN:
                    assert mean_k < 0


# motions of the map square onto itself, as maps of (x, y, map size)
MAP_MOTIONS = {
    "quarter_turn": lambda x, y, c: (c - y, x),
    "half_turn": lambda x, y, c: (c - x, c - y),
    "mirror": lambda x, y, c: (c - x, y),
}


def moved_road(road, motion):
    move = MAP_MOTIONS[motion]
    return RoadPoints(points=tuple(move(x, y, road.map_size)
                                   for x, y in road.points),
                      lane_width=road.lane_width, map_size=road.map_size)


class TestMapMotions:
    """Metamorphic relations: a quarter or half turn about the map centre
    and a mirror image are the same road to the features, the drive and
    the self-intersection check, up to rounding; a mirror image swaps the
    left and right turn counts."""

    # a verdict is compared only when the drive's largest lateral offset is
    # this far from the offset at which the car leaves its lane, since a
    # moved road is equal to its original only up to rounding
    MARGIN = 1e-6

    @settings(max_examples=4)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_features_and_verdict_kept(self, seed):
        road, _ = generate_road(seed)
        before = extract_features(road)
        # a calm and a risky driver, so that both verdicts occur
        configs = [DriverConfig(risk_factor=rf) for rf in (0.7, 1.5)]
        drives = [simulate_drive(road, cfg) for cfg in configs]
        for motion in MAP_MOTIONS:
            moved = moved_road(road, motion)
            assert not self_intersects(interpolate_spine(moved),
                                       moved.lane_width)
            expected = before.as_dict()
            if motion == "mirror":
                expected["num_l_turns"], expected["num_r_turns"] = (
                    before.num_r_turns, before.num_l_turns)
            got = extract_features(moved).as_dict()
            for name in FEATURE_NAMES:
                assert got[name] == pytest.approx(expected[name], rel=0,
                                                  abs=1e-6), (motion, name)
            for cfg, drive in zip(configs, drives):
                limit = (cfg.oob_fraction * cfg.vehicle_width
                         + (road.lane_width - cfg.vehicle_width) / 2.0)
                if abs(drive.max_abs_lateral_offset - limit) > self.MARGIN:
                    assert (simulate_drive(moved, cfg).label
                            == drive.label), (motion, cfg.risk_factor)

    @settings(max_examples=10)
    @given(points=st.lists(st.tuples(st.floats(20.0, 180.0),
                                     st.floats(20.0, 180.0)),
                           min_size=3, max_size=7))
    def test_self_intersection_kept(self, points):
        # free control points, so some roads cross themselves
        try:
            road = RoadPoints(points=tuple(points))
        except DegenerateRoad:
            return
        crosses = self_intersects(interpolate_spine(road), road.lane_width)
        for motion in MAP_MOTIONS:
            moved = moved_road(road, motion)
            assert self_intersects(interpolate_spine(moved),
                                   moved.lane_width) == crosses, motion


class TestSpineRelations:
    """On generated roads, the sampled spine starts at the first control
    point and ends at the last, and the segments cover its samples in order,
    each starting one sample after the one before it ends. The spine does
    not sample the inner control points, so they are not asserted."""

    @settings(max_examples=10)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_spine_ends_at_end_control_points(self, seed):
        road, spine = generate_road(seed)
        ends = road.as_array()[[0, -1]]
        assert np.hypot(*(spine.xy[[0, -1]] - ends).T).max() <= 1e-9

    @settings(max_examples=10)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_segments_cover_the_samples(self, seed):
        _, spine = generate_road(seed)
        segs = segment_spine(spine)
        assert segs[0].start_index == 0
        assert segs[-1].end_index == len(spine) - 1
        for a, b in zip(segs, segs[1:]):
            assert b.start_index == a.end_index + 1


class TestInvariants:
    def test_arc_length_additivity(self):
        for seed in range(10):
            _, spine = generate_road(seed)
            segs = segment_spine(spine)
            total = sum(s.length for s in segs)
            assert total == pytest.approx(spine.total_length, rel=1e-6)

    def test_rigid_motion_invariance(self):
        base = arc_between_straights(radius=20.0, arc_deg=120.0)
        spine0 = make_spine(base)
        segs0 = segment_spine(spine0)

        theta = 0.7
        rot = np.array([[math.cos(theta), -math.sin(theta)],
                        [math.sin(theta), math.cos(theta)]])
        arr = np.asarray(base) - np.mean(base, axis=0)
        moved = arr @ rot.T + np.array([230.0, 260.0])
        spine1 = make_spine(tuple(map(tuple, moved)))
        segs1 = segment_spine(spine1)

        assert spine1.total_length == pytest.approx(spine0.total_length, rel=1e-6)
        assert [s.kind for s in segs1] == [s.kind for s in segs0]
        for a, b in zip(segs0, segs1):
            assert b.turn_angle == pytest.approx(a.turn_angle, rel=1e-6, abs=1e-6)
            if a.radius is not None:
                assert b.radius == pytest.approx(a.radius, rel=1e-6)

    def test_mirror_swaps_turn_kinds(self):
        base = np.asarray(arc_between_straights(radius=18.0, arc_deg=140.0))
        spine0 = make_spine(tuple(map(tuple, base)))
        mirrored = base.copy()
        mirrored[:, 1] = 400.0 - mirrored[:, 1]     # reflect inside the map
        spine1 = make_spine(tuple(map(tuple, mirrored)))

        segs0 = segment_spine(spine0)
        segs1 = segment_spine(spine1)
        swap = {LEFT_TURN: RIGHT_TURN, RIGHT_TURN: LEFT_TURN, STRAIGHT: STRAIGHT}
        assert [swap[s.kind] for s in segs0] == [s.kind for s in segs1]
        for a, b in zip(segs0, segs1):
            assert b.turn_angle == pytest.approx(a.turn_angle, abs=1e-9)
            assert b.length == pytest.approx(a.length, abs=1e-9)
            assert b.chord_area == pytest.approx(a.chord_area, abs=1e-9)

    @staticmethod
    def _fd_errors(spine):
        xy = spine.xy
        s = spine.s
        dx = xy[2:, 0] - xy[:-2, 0]
        dy = xy[2:, 1] - xy[:-2, 1]
        heading_fd = np.arctan2(dy, dx)
        h_err = np.abs(np.mod(heading_fd - spine.heading[1:-1] + np.pi,
                              2.0 * np.pi) - np.pi)
        dh = np.mod(np.diff(spine.heading) + np.pi, 2.0 * np.pi) - np.pi
        kappa_fd = dh / np.diff(s)
        k_err = np.abs(kappa_fd - 0.5 * (spine.curvature[:-1] + spine.curvature[1:]))
        return h_err, k_err

    def test_heading_curvature_match_finite_differences(self, monkeypatch):
        # central differences converge O(h^2); 0.15 m sampling keeps the
        # discretization error itself below the 1e-3 agreement bound
        monkeypatch.setattr(geometry, "SAMPLING_STEP", 0.15)
        for pts in (arc_between_straights(radius=20.0, arc_deg=120.0),
                    arc_between_straights(radius=30.0, arc_deg=90.0, side=-1.0)):
            spine = interpolate_spine(RoadPoints(points=pts))
            h_err, k_err = self._fd_errors(spine)
            assert np.max(h_err) < 1e-3
            assert np.max(k_err) < 1e-3

    def test_finite_difference_agreement_generated_roads(self, monkeypatch):
        # primitive junctions put curvature-slope kinks in the spline, where
        # finite differences lag; bulk agreement still has to hold. The
        # roads are generated at the default step, then sampled finer
        roads = [generate_road(seed)[0] for seed in (3, 11)]
        monkeypatch.setattr(geometry, "SAMPLING_STEP", 0.2)
        for road in roads:
            spine = interpolate_spine(road)
            h_err, k_err = self._fd_errors(spine)
            assert np.quantile(h_err, 0.99) < 1e-3
            assert np.max(h_err) < 1e-2
            assert np.quantile(k_err, 0.99) < 2e-3
            assert np.max(k_err) < 2e-2
