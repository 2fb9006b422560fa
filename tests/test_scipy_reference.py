"""The package's own numerics against scipy, their test-only reference.

roadsift imports no scipy: geometry solves and evaluates its natural cubic
spline itself and finds close sample pairs without a k-d tree, and the
logistic loss takes its sigmoid from libm's exp. Each must give scipy's
bits, so that spines, features and grid CSVs stay what they were; a scipy
upgrade that changes its arithmetic fails here first.
"""

import os
import subprocess
import sys

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.interpolate import CubicSpline
from scipy.special import expit

from roadsift import geometry
from roadsift.geometry import (
    DegenerateRoad,
    RoadPoints,
    interpolate_spine,
    self_intersects,
)
from roadsift.ml.linear import _log_loss_derivatives
from roadsift.oracle import _candidate_points

import reference_geometry

LANE_WIDTHS = (1.0, 2.0, 3.0, 4.0, 6.0, 10.0)


@st.composite
def uneven_splines(draw):
    """Knots whose steps spread over four decades, so that a step often
    exceeds twice the one before it and the solve interchanges rows, the
    points through them, and fractions of each piece to evaluate at."""
    n = draw(st.integers(3, 10))
    steps = draw(st.lists(st.floats(0.01, 100.0), min_size=n - 1, max_size=n - 1))
    coords = st.floats(-500.0, 500.0, allow_subnormal=False)
    pts = draw(st.lists(st.tuples(coords, coords), min_size=n, max_size=n))
    fracs = draw(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=4))
    return np.concatenate([[0.0], np.cumsum(steps)]), np.array(pts), fracs


def candidate_road(seed):
    """The generator's next candidate road for the seed, kept even when it
    leaves the map or crosses itself."""
    rng = np.random.default_rng(seed)
    while True:
        pts = _candidate_points(rng)
        try:
            return RoadPoints(points=tuple(pts), map_size=1e9)
        except DegenerateRoad:
            continue


def same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


class TestNaturalSpline:
    @settings(max_examples=40)
    @given(data=uneven_splines())
    # steps 1, 10, 1, 100: the first and third eliminations interchange rows
    @example(data=(np.array([0.0, 1.0, 11.0, 12.0, 112.0]),
                   np.array([[0.0, 0.0], [1.0, 2.0], [5.0, -3.0], [6.0, 1.0],
                             [9.0, 9.0]]), [0.5]))
    @example(data=(np.array([0.0, 0.5, 9.0]),
                   np.array([[3.0, 1.0], [4.0, -2.0], [-1.0, 7.5]]), [0.0, 0.3]))
    def test_coefficients_values_and_derivatives(self, data):
        knots, pts, fracs = data
        ref = CubicSpline(knots, pts, bc_type="natural", axis=0)
        coeffs = geometry._natural_spline(knots, pts)
        assert same_bits(np.ascontiguousarray(coeffs.transpose(0, 2, 1)), ref.c)

        between = (knots[:-1, None] + np.diff(knots)[:, None] * fracs).ravel()
        t = np.concatenate([knots, between])
        c, z = geometry._pieces(knots, coeffs, t)
        d1, d2 = geometry._derivatives(c, z)
        for nu, got in enumerate((geometry._value(c, z), d1, d2)):
            assert same_bits(np.ascontiguousarray(got.T), ref(t, nu)), nu

    def test_uneven_steps_interchange_rows(self):
        # the first example's steps: in column 0 the sub-diagonal 10
        # outweighs the diagonal 2, so the elimination swaps rows 0 and 1
        # and leaves the fill-in in dl[0], where no swap leaves 0
        h = [1.0, 10.0, 1.0, 100.0]
        dl, du = h[1:] + h[-1:], h[:1] + h[:-1]
        d = [2 * h[0], *(2 * (p + q) for p, q in zip(h, h[1:])), 2 * h[-1]]
        geometry._gtsv(dl, d, du, [1.0] * 5)
        assert dl[0] != 0.0 and dl[2] != 0.0 and dl[1] == 0.0

    @settings(max_examples=25)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_candidate_spine_is_the_reference_spine(self, seed):
        road = candidate_road(seed)
        got = interpolate_spine(road)
        ref = reference_geometry.interpolate_spine(road)
        for name in ("s", "xy", "heading", "curvature"):
            assert same_bits(getattr(got, name), getattr(ref, name)), name
        assert got.xy.flags.c_contiguous

    @settings(max_examples=25)
    @given(points=st.lists(st.tuples(st.floats(20.0, 180.0),
                                     st.floats(20.0, 180.0)),
                           min_size=3, max_size=5))
    def test_free_road_spine_is_the_reference_spine(self, points):
        # three-point roads included: one inner knot, a 3 x 3 system
        try:
            road = RoadPoints(points=tuple(points))
        except DegenerateRoad:
            return
        got = interpolate_spine(road)
        ref = reference_geometry.interpolate_spine(road)
        for name in ("s", "xy", "heading", "curvature"):
            assert same_bits(getattr(got, name), getattr(ref, name)), name


class TestPairTest:
    @settings(max_examples=25)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_candidate_roads_agree_with_the_kd_tree(self, seed):
        spine = interpolate_spine(candidate_road(seed))
        for lane_width in LANE_WIDTHS:
            assert (self_intersects(spine, lane_width)
                    == reference_geometry.self_intersects(spine, lane_width)), lane_width

    @settings(max_examples=25)
    @given(points=st.lists(st.tuples(st.floats(20.0, 180.0),
                                     st.floats(20.0, 180.0)),
                           min_size=3, max_size=7))
    def test_free_roads_agree_with_the_kd_tree(self, points):
        # free control points, so many of these roads cross themselves
        try:
            road = RoadPoints(points=tuple(points))
        except DegenerateRoad:
            return
        spine = interpolate_spine(road)
        for lane_width in LANE_WIDTHS:
            assert (self_intersects(spine, lane_width)
                    == reference_geometry.self_intersects(spine, lane_width)), lane_width


class TestLogistic:
    EDGES = [0.0, -0.0, 709.0, -709.0, 709.8, -709.8, 710.0, -710.0, 745.2,
             -745.2, 1e308, -1e308, np.inf, -np.inf, np.nan]

    @settings(max_examples=30)
    @given(values=st.lists(st.floats(allow_nan=True, allow_infinity=True),
                           min_size=1, max_size=40))
    @example(values=EDGES)
    def test_sigmoid_is_expit(self, values):
        s = np.array(values, dtype=np.float64)
        q, curvature = _log_loss_derivatives(s)
        ref = expit(s)
        assert np.array_equal(q, ref, equal_nan=True)
        assert np.array_equal(curvature, ref * (1.0 - ref), equal_nan=True)

    def test_moderate_scores_are_expit(self):
        # scores as fits see them, where numpy's own exp rounds differently
        s = np.random.default_rng(5).normal(0.0, 8.0, 20000)
        assert same_bits(_log_loss_derivatives(s)[0], expit(s))


def test_importing_the_package_loads_no_scipy():
    code = ("import sys, roadsift, roadsift.cli, roadsift.ml; "
            "sys.exit(sorted(m for m in sys.modules "
            "if m == 'scipy' or m.startswith('scipy.')) or None)")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    result = subprocess.run([sys.executable, "-c", code], env=env,
                            capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
