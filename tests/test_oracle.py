import json
import math
from itertools import islice

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from roadsift.features import (
    FEATURE_NAMES,
    _INT_FEATURES,
    FeatureVector,
    extract_features,
)
from roadsift.geometry import RoadPoints, RoadSpine, interpolate_spine
from roadsift.oracle import (
    NO_TRACE,
    SAFE,
    TRACE_COLUMNS,
    TRACE_KEYS,
    UNSAFE,
    DriveTimeout,
    DriverConfig,
    GenerationExhausted,
    GeneratorBounds,
    NonPositiveRadius,
    TestCase,
    TestOutcome,
    build_dataset,
    generate_road,
    labelled_tests,
    load_dataset,
    plan_speed_profile,
    road_seeds,
    safe_speed,
    save_dataset,
    simulate_drive,
    unsafe_fraction,
)
from roadsift import oracle
from roadsift.oracle import _simulate

import reference_drive
from conftest import (
    arc_between_straights,
    case_bits,
    outcome_bits,
    straight_points,
)

SPEED, THROTTLE, BRAKE, OFFSET = map(TRACE_COLUMNS.index, (
    "speed", "throttle", "brake", "lateral_offset"))


class TestSafeSpeed:
    def test_friction_law(self):
        cfg = DriverConfig(mu=0.6, risk_factor=1.0, v_max=1e9)
        v = safe_speed(50.0, cfg)
        assert v == pytest.approx(math.sqrt(0.6 * 50.0 * 9.81), abs=1e-12)
        assert v == pytest.approx(17.157, abs=5e-3)

    def test_arranged_identity(self):
        cfg = DriverConfig(mu=1.0, risk_factor=1.0, v_max=1e9)
        assert safe_speed(1.0 / 9.81, cfg) == pytest.approx(1.0, abs=1e-12)

    def test_linear_in_risk_factor(self):
        reckless = DriverConfig(risk_factor=1.2, v_max=1e9)
        cautious = DriverConfig(risk_factor=0.7, v_max=1e9)
        ratio = safe_speed(25.0, reckless) / safe_speed(25.0, cautious)
        assert ratio == pytest.approx(12.0 / 7.0, abs=1e-12)

    def test_v_max_cap(self):
        cfg = DriverConfig(v_max=10.0, risk_factor=2.0)
        assert safe_speed(1000.0, cfg) == 10.0

    def test_non_positive_radius(self):
        with pytest.raises(NonPositiveRadius):
            safe_speed(0.0, DriverConfig())
        with pytest.raises(NonPositiveRadius):
            safe_speed(-5.0, DriverConfig())


class TestConfigValidation:
    @pytest.mark.parametrize("kw", [
        {"mu": 0.0}, {"mu": 2.5},
        {"risk_factor": 0.4}, {"risk_factor": 2.6},
        {"timestep": 0.0}, {"timestep": 0.2},
        {"oob_fraction": 0.0}, {"oob_fraction": 1.2},
        {"v_max": math.nan}, {"v_max": math.inf}, {"v_max": 0.0},
        {"v_max": -1.0},
        {"a_brake": math.nan}, {"a_brake": math.inf}, {"a_brake": 0.0},
        {"a_brake": -1.0},
    ])
    def test_rejects_out_of_range(self, kw):
        with pytest.raises(ValueError):
            DriverConfig(**kw)


class TestSpeedProfile:
    def test_straight_road_ramps_to_v_max(self):
        spine = interpolate_spine(
            RoadPoints(points=straight_points(length=380.0, n=5, x0=60.0)))
        cfg = DriverConfig()
        profile = plan_speed_profile(spine, cfg)
        assert profile[0] == 0.0
        # kinematic ramp: v = sqrt(2 a s) until the cap
        s = spine.s
        expected = np.minimum(np.sqrt(2.0 * cfg.a_accel * s), cfg.v_max)
        assert np.allclose(profile, expected, atol=1e-9)
        assert profile[-1] == cfg.v_max

    def test_local_minimum_at_tight_turn(self):
        pts = arc_between_straights(radius=12.0, arc_deg=120.0, lead=200.0,
                                    origin=(40.0, 100.0))
        spine = interpolate_spine(RoadPoints(points=pts))
        cfg = DriverConfig()
        profile = plan_speed_profile(spine, cfg)
        kappa = np.abs(spine.curvature)
        inside = kappa > 0.95 / 12.0
        target = cfg.risk_factor * math.sqrt(cfg.mu * cfg.g / np.max(kappa))
        assert np.min(profile[inside]) == pytest.approx(target, rel=0.05)
        # monotone braking ramp just ahead of the turn entry
        entry = int(np.argmax(inside))
        ramp = profile[max(0, entry - 30):entry]
        assert np.all(np.diff(ramp) <= 1e-9)

    def test_both_pass_inequalities_hold(self):
        for seed in (0, 4):
            _, spine = generate_road(seed)
            cfg = DriverConfig()
            v = plan_speed_profile(spine, cfg)
            ds = np.diff(spine.s)
            assert np.all(v[:-1] ** 2 <= v[1:] ** 2 + 2 * cfg.a_brake * ds + 1e-9)
            assert np.all(v[1:] ** 2 <= v[:-1] ** 2 + 2 * cfg.a_accel * ds + 1e-9)


class TestSimulateDrive:
    def test_gentle_road_cautious_is_safe(self):
        pts = arc_between_straights(radius=40.0, arc_deg=90.0, lead=60.0)
        out = simulate_drive(RoadPoints(points=pts),
                             DriverConfig(risk_factor=0.7))
        assert out.label == SAFE
        assert out.duration > 0

    @staticmethod
    def hairpin(lane_width):
        # long run-up to v_max into a 2 m hairpin
        pts = [(20.0 + d, 100.0) for d in np.arange(0.0, 160.0 + 1e-9, 10.0)]
        cx, cy = pts[-1][0], pts[-1][1] + 2.0
        for k in range(1, 13):
            phi = -math.pi / 2 + math.pi * k / 12
            pts.append((cx + 2.0 * math.cos(phi), cy + 2.0 * math.sin(phi)))
        ex, ey = pts[-1]
        pts.extend((ex - d, ey) for d in np.arange(10.0, 40.0 + 1e-9, 10.0))
        return RoadPoints(points=tuple(pts), lane_width=lane_width)

    def test_forced_departure_on_hairpin(self):
        # brake disabled
        out = simulate_drive(self.hairpin(1.8),
                             DriverConfig(risk_factor=2.5, a_brake=1e-9))
        assert out.label == UNSAFE

    def test_road_lane_width_is_driven(self):
        # a narrower lane is left sooner; wider than 2 m the hairpin
        # self-intersects
        cfg = DriverConfig(risk_factor=2.5, a_brake=1e-9)
        narrow = simulate_drive(self.hairpin(1.0), cfg)
        wide = simulate_drive(self.hairpin(1.8), cfg)
        assert narrow.label == wide.label == UNSAFE
        assert narrow.duration < wide.duration

    def test_deterministic_trace(self):
        road, _ = generate_road(3)
        cfg = DriverConfig(risk_factor=1.5)
        a = simulate_drive(road, cfg)
        b = simulate_drive(road, cfg)
        assert outcome_bits(a) == outcome_bits(b)

    def test_trace_sanity(self):
        road, _ = generate_road(8)
        cfg = DriverConfig()
        out = simulate_drive(road, cfg)
        trace = out.trace
        assert len(trace) > 10
        dv = np.diff(trace[:, SPEED])
        limit = max(cfg.a_accel, cfg.a_brake) * cfg.timestep + 1e-9
        assert np.max(np.abs(dv)) <= limit
        offs = trace[:, OFFSET]
        speeds = trace[:, SPEED]
        assert np.all(np.abs(np.diff(offs)) <= speeds[:-1] * cfg.timestep + 0.05)

    def test_throttle_brake_mutually_exclusive(self):
        out = simulate_drive(generate_road(8)[0], DriverConfig())
        for throttle, brake in out.trace[:, [THROTTLE, BRAKE]].tolist():
            assert throttle * brake == 0.0
            assert 0.0 <= throttle <= 1.0
            assert 0.0 <= brake <= 1.0

    def test_label_recheckable_from_trace(self):
        cfg = DriverConfig()
        for seed in range(12):
            road = generate_road(seed)[0]
            threshold = (road.lane_width / 2.0 - cfg.vehicle_width / 2.0
                         + cfg.oob_fraction * cfg.vehicle_width)
            out = simulate_drive(road, cfg)
            max_off = np.abs(out.trace[:, OFFSET]).max()
            fired = max_off >= threshold - 1e-9
            assert fired == (out.label == UNSAFE)

    def test_step_cap_raises(self):
        # at 0.5 m/s this road needs more simulated time than the cap allows
        with pytest.raises(DriveTimeout):
            simulate_drive(generate_road(3)[0], DriverConfig(v_max=0.5))

    @settings(max_examples=30)
    @given(seed=st.integers(0, 2**32 - 1), rf=st.floats(0.5, 2.5))
    def test_trace_free_drive_matches_traced(self, seed, rf):
        road, spine = generate_road(seed)
        cfg = DriverConfig(risk_factor=rf)
        traced = _simulate(spine, cfg, road.lane_width, keep_trace=True)
        bare = _simulate(spine, cfg, road.lane_width, keep_trace=False)
        assert bare.label == traced.label
        assert bare.duration == traced.duration
        assert bare.max_abs_lateral_offset == traced.max_abs_lateral_offset
        assert bare.trace is NO_TRACE
        assert len(traced.trace)
        assert traced.trace[-1, 0] <= traced.duration

    @settings(max_examples=40)
    @given(seed=st.integers(0, 2**32 - 1), rf=st.floats(0.5, 2.5),
           timestep=st.floats(0.01, 0.1), keep_trace=st.booleans(),
           poison=st.none() | st.tuples(
               st.sampled_from(["x", "y", "s", "heading", "curvature"]),
               st.floats(0.0, 1.0),
               st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -0.0])))
    # a NaN sample that the look-ahead point reaches makes the steering
    # angle NaN, and one in s makes both passes of the speed profile meet
    # NaN speeds; there only the builtins' tie rule decides the clamps
    @example(seed=7, rf=1.5, timestep=0.05, keep_trace=True,
             poison=("x", 0.05, math.nan))
    @example(seed=7, rf=1.5, timestep=0.05, keep_trace=True,
             poison=("s", 0.5, math.nan))
    @example(seed=3, rf=0.5, timestep=0.1, keep_trace=False, poison=None)
    def test_drive_matches_reference(self, seed, rf, timestep, keep_trace,
                                     poison):
        """The drive and its speed profile equal the one written with the
        builtins min and max, bit for bit: label, duration, offset and
        every trace field, NaNs and signed zeros included. Shorter steps
        than 0.01 s only lengthen the drive. A poisoned spine, with one
        value no generated road holds, makes the clamps meet NaNs,
        infinities and zeros of either sign."""
        road, spine = generate_road(seed)
        spine = _poisoned(spine, poison)
        cfg = DriverConfig(risk_factor=rf, timestep=timestep)
        args = (spine, cfg, road.lane_width, keep_trace)
        assert (_drive_bits(_simulate, *args)
                == _drive_bits(reference_drive._simulate, *args))
        assert (_result_or_error(lambda: plan_speed_profile(spine, cfg).tobytes())
                == _result_or_error(lambda: reference_drive.plan_speed_profile(
                    spine, cfg).tobytes()))

    def test_risk_monotonicity(self):
        counts = []
        for rf in (0.7, 1.0, 1.5, 2.0):
            tests = build_dataset(60, DriverConfig(risk_factor=rf),
                                  rng_seed=55, keep_traces=False)
            counts.append(sum(1 for t in tests if t.outcome.label == UNSAFE))
        assert counts == sorted(counts)
        assert counts[-1] > counts[0]


def _poisoned(spine, poison):
    """The spine with one value replaced: poison is the column (x, y, s,
    heading or curvature), the sample as a fraction of the spine's length
    in samples, and the value; None leaves the spine as it is."""
    if poison is None:
        return spine
    column, where, value = poison
    arrays = {"s": spine.s.copy(), "xy": spine.xy.copy(),
              "heading": spine.heading.copy(),
              "curvature": spine.curvature.copy()}
    i = int(where * (len(spine) - 1))
    if column in ("x", "y"):
        arrays["xy"][i, "xy".index(column)] = value
    else:
        arrays[column][i] = value
    return RoadSpine(**arrays)


def _result_or_error(call):
    """What call returns, or the type and text of what it raises."""
    try:
        return call()
    except Exception as exc:       # a poisoned spine may stop either drive
        return type(exc), str(exc)


def _drive_bits(drive, spine, cfg, lane_width, keep_trace):
    """A drive's outcome with every float as float.hex text, so that -0.0
    differs from 0.0; or the error the drive raises. The trace may be an
    array or the reference's states, one row each."""
    def bits():
        out = drive(spine, cfg, lane_width, keep_trace=keep_trace)
        return (out.label, out.duration.hex(),
                out.max_abs_lateral_offset.hex(),
                [tuple(map(float.hex, row)) for row in
                 np.reshape(out.trace, (-1, len(TRACE_COLUMNS))).tolist()])
    return _result_or_error(bits)


class TestGenerator:
    def test_seed_reproducibility(self):
        assert generate_road(42)[0] == generate_road(42)[0]
        assert generate_road(42)[0] != generate_road(43)[0]

    def test_validity_of_generated_roads(self):
        from roadsift.geometry import self_intersects
        for seed in range(30):
            road, spine = generate_road(seed)
            assert not self_intersects(spine, road.lane_width)
            for x, y in road.points:
                assert 0.0 <= x <= road.map_size
                assert 0.0 <= y <= road.map_size
            assert 55.0 <= spine.total_length <= 3300.0

    def test_median_radius_in_expected_range(self):
        from roadsift.geometry import STRAIGHT, segment_spine
        for seed in range(20):
            _, spine = generate_road(seed)
            radii = [s.radius for s in segment_spine(spine) if s.kind != STRAIGHT]
            assert radii
            assert 7.0 <= float(np.median(radii)) <= 47.0

    def test_returns_the_accepted_spine(self):
        for seed in range(5):
            road, spine = generate_road(seed)
            fresh = interpolate_spine(road)
            for column in ("s", "xy", "heading", "curvature"):
                assert np.array_equal(getattr(spine, column),
                                      getattr(fresh, column))

    def test_exhaustion(self, monkeypatch):
        monkeypatch.setattr(GeneratorBounds, "length_range", (3000.0, 3001.0))
        monkeypatch.setattr(GeneratorBounds, "max_attempts", 5)
        with pytest.raises(GenerationExhausted):
            generate_road(0)


class TestBuildDataset:
    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            build_dataset(0, DriverConfig(), rng_seed=1)
        with pytest.raises(ValueError):         # when called, not when drawn
            labelled_tests(0, DriverConfig(), rng_seed=1)

    def test_labelled_tests_draws_one_test_at_a_time(self, monkeypatch):
        cfg = DriverConfig()
        whole = build_dataset(3, cfg, rng_seed=8)
        calls = []
        label_road = oracle.label_road
        monkeypatch.setattr(oracle, "label_road",
                            lambda *a: calls.append(a) or label_road(*a))
        lazy = labelled_tests(3, cfg, rng_seed=8)
        assert calls == []
        first = next(lazy)
        assert len(calls) == 1
        assert (list(map(case_bits, [first, *lazy]))
                == list(map(case_bits, whole)))

    def test_moderate_fraction_in_window(self, moderate_tests):
        frac = unsafe_fraction(moderate_tests)
        assert 0.2 < frac < 0.8

    @pytest.mark.parametrize("n, longer_n", [(4, 7), (30, 40)])
    def test_prefix_stability(self, n, longer_n):
        # test i depends only on the master seed, not on n
        short = build_dataset(n, DriverConfig(), rng_seed=99, keep_traces=False)
        longer = build_dataset(longer_n, DriverConfig(), rng_seed=99,
                               keep_traces=False)
        for a, b in zip(short, longer):
            assert a.road == b.road
            assert a.outcome.label == b.outcome.label

    @pytest.mark.parametrize("n", [1, 31, 32, 33, 300])
    def test_road_seeds_give_the_dataset_seeds(self, n):
        # road_seeds draws 64 words first; build_dataset takes every other
        # seed, which must be generate_state(2 * n)[::2] on either side of it
        for s in (0, 1, 7, 12345):
            expected = np.random.SeedSequence(s).generate_state(2 * n)[::2]
            assert (list(islice(road_seeds(s), 0, 2 * n, 2))
                    == [int(seed) for seed in expected])

    def test_one_road_preparation_path(self):
        # build_dataset works on the spine generate_road accepted; features
        # and drive must match a fresh interpolation of the stored road
        cfg = DriverConfig()
        for tc in build_dataset(12, cfg, rng_seed=17):
            assert tc.features == extract_features(tc.road)
            fresh = simulate_drive(tc.road, cfg)
            assert tc.outcome.label == fresh.label
            assert tc.outcome.duration == fresh.duration
            assert outcome_bits(tc.outcome) == outcome_bits(fresh)

    def test_duration_scale(self, moderate_tests):
        durations = [t.outcome.duration for t in moderate_tests[:50]]
        assert 5.0 < float(np.mean(durations)) < 120.0

    def test_dataset_roundtrip(self, tmp_path):
        tests = build_dataset(3, DriverConfig(), rng_seed=5)
        path = tmp_path / "simulation.full.json"
        save_dataset(path, tests)
        back = load_dataset(path)
        assert [t.id for t in back] == [t.id for t in tests]
        for a, b in zip(tests, back):
            assert b.road == a.road
            assert b.outcome.label == a.outcome.label
            assert b.outcome.duration == pytest.approx(a.outcome.duration)
            # the file keeps every column but lateral_offset, which loads as 0
            expected = a.outcome.trace.copy()
            expected[:, OFFSET] = 0.0
            assert b.outcome.trace.tobytes() == expected.tobytes()
            assert all(trace.dtype == np.float64
                       and trace.shape == (len(trace), len(TRACE_COLUMNS))
                       for trace in (a.outcome.trace, b.outcome.trace))
            assert b.features == a.features
        assert TRACE_COLUMNS == (
            "t", "x", "y", "heading", "speed", "steering", "throttle", "brake",
            "lateral_offset")
        assert TRACE_KEYS == TRACE_COLUMNS[:-1]

    def test_dataset_read_without_traces(self, tmp_path):
        path = tmp_path / "simulation.full.json"
        save_dataset(path, build_dataset(4, DriverConfig(), rng_seed=6))
        full = load_dataset(path)
        lean = load_dataset(path, keep_traces=False)
        assert all(len(t.outcome.trace) for t in full)
        assert all(t.outcome.trace is NO_TRACE for t in lean)
        assert ([(t.id, t.road, t.features, t.outcome.label, t.outcome.duration)
                 for t in lean]
                == [(t.id, t.road, t.features, t.outcome.label, t.outcome.duration)
                    for t in full])

    def test_a_trace_state_that_is_not_an_object_is_named(self, tmp_path):
        path = tmp_path / "simulation.full.json"
        save_dataset(path, build_dataset(2, DriverConfig(), rng_seed=6))
        rows = json.loads(path.read_text())
        rows[1]["trace"][0] = [0.0] * len(TRACE_KEYS)
        path.write_text(json.dumps(rows))
        with pytest.raises(ValueError) as err:
            load_dataset(path)
        assert str(err.value) == f"{path}, row 1: a trace state is not an object"
        assert len(load_dataset(path, keep_traces=False)) == 2


def _json_reference(tests):
    """A dataset file as json.dumps(rows, indent=1) lays it out."""
    rows = [{"id": tc.id,
             "road_points": [[x, y] for x, y in tc.road.points],
             "lane_width": tc.road.lane_width,
             "map_size": tc.road.map_size,
             "features": tc.features.as_dict(),
             "label": tc.outcome.label,
             "duration_s": tc.outcome.duration,
             "trace": [dict(zip(TRACE_KEYS, row))
                       for row in tc.outcome.trace.tolist()]}
            for tc in tests]
    return json.dumps(rows, indent=1) + "\n"


# floats that json writes in its own words, or at the ends of their range
_EDGE_FLOATS = (math.nan, math.inf, -math.inf, -0.0, 5e-324, 1.7e308)


@st.composite
def _test_cases(draw, floats, readable=False):
    """One to three tests with drawn values in every field save_dataset
    writes; a trace may be empty, the counts are ints and the other
    features finite, as FeatureVector requires. Readable tests are ones
    load_dataset takes back: distinct ids, durations and lane widths > 0
    and traces in time order."""
    finite = floats.filter(math.isfinite)
    positive = floats.filter(lambda v: v > 0) if readable else floats
    tests = []
    for test_id in draw(st.lists(st.text(max_size=6), min_size=1, max_size=3,
                                 unique=readable)):
        points = tuple((10.0 * k + draw(st.floats(0.0, 5.0)),
                        draw(st.floats(0.0, 200.0)))
                       for k in range(draw(st.integers(3, 5))))
        features = FeatureVector(**{
            name: draw(st.integers(0, 10**6) if name in _INT_FEATURES
                       else finite)
            for name in FEATURE_NAMES})
        states = [draw(st.lists(floats, min_size=8, max_size=8))
                  for _ in range(draw(st.integers(0, 3)))]
        if readable:
            states.sort(key=lambda values: values[0])    # by t
        outcome = TestOutcome(label=draw(st.sampled_from([SAFE, UNSAFE])),
                              duration=draw(positive),
                              max_abs_lateral_offset=0.0,
                              trace=np.array(
                                  [(*values, 0.0) for values in states],
                                  float).reshape(-1, len(TRACE_COLUMNS)))
        tests.append(TestCase(
            id=test_id,
            road=RoadPoints(points=points, lane_width=draw(positive)),
            features=features, outcome=outcome))
    return tests


def _edge_case():
    finite = [v for v in _EDGE_FLOATS if math.isfinite(v)]
    values = (finite * 6)[:len(FEATURE_NAMES)]
    features = FeatureVector(**{
        name: 7 if name in _INT_FEATURES else value
        for name, value in zip(FEATURE_NAMES, values)})
    trace = np.array([(*_EDGE_FLOATS, 0.5, -2.0, 0.0)])
    road = RoadPoints(points=((0.0, 5e-324), (10.0, 200.0), (20.0, 1.5)))
    return [TestCase(id="edge", road=road, features=features,
                     outcome=TestOutcome(UNSAFE, math.inf, 0.0, trace)),
            TestCase(id="bare", road=road, features=features,
                     outcome=TestOutcome(SAFE, -0.0, 0.0, NO_TRACE))]


class TestDatasetWriter:
    @settings(max_examples=25)
    @given(tests=_test_cases(st.one_of(st.sampled_from(_EDGE_FLOATS),
                                       st.floats())))
    @example(tests=_edge_case())
    def test_bytes_match_json(self, tmp_path_factory, tests):
        path = tmp_path_factory.mktemp("writer") / "simulation.full.json"
        save_dataset(path, tests)
        assert path.read_text() == _json_reference(tests)

    def test_no_tests(self, tmp_path):
        save_dataset(tmp_path / "d.json", [])
        assert (tmp_path / "d.json").read_text() == _json_reference([])

    @pytest.mark.parametrize("given", ["generator", "list", "no_rows"])
    def test_any_iterable_of_tests(self, tmp_path, given):
        tests = [] if given == "no_rows" else build_dataset(3, DriverConfig(), 5)
        path = tmp_path / "d.json"
        save_dataset(path, tests if given == "list" else (tc for tc in tests))
        assert path.read_text() == _json_reference(tests)
        assert [p.name for p in tmp_path.iterdir()] == ["d.json"]

    @pytest.mark.parametrize("error", [KeyboardInterrupt, RuntimeError])
    def test_a_failed_write_leaves_the_old_file(self, tmp_path, error):
        path = tmp_path / "d.json"
        path.write_text("old")

        def tests():
            yield from build_dataset(2, DriverConfig(), 5)
            raise error("stopped")

        with pytest.raises(error):
            save_dataset(path, tests())
        assert [p.name for p in tmp_path.iterdir()] == ["d.json"]
        assert path.read_text() == "old"

    @settings(max_examples=15)
    @given(tests=_test_cases(st.floats(allow_nan=False, allow_infinity=False),
                             readable=True))
    def test_finite_values_read_back(self, tmp_path_factory, tests):
        path = tmp_path_factory.mktemp("writer") / "simulation.full.json"
        save_dataset(path, tests)
        back = load_dataset(path)
        assert [t.id for t in back] == [t.id for t in tests]
        for a, b in zip(tests, back):
            assert b.road == a.road
            assert b.features == a.features
            assert b.outcome.label == a.outcome.label
            assert b.outcome.duration == a.outcome.duration
            assert (b.outcome.trace[:, :len(TRACE_KEYS)].tolist()
                    == a.outcome.trace[:, :len(TRACE_KEYS)].tolist())
