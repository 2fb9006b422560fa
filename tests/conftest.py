"""Shared road constructions, trace helpers and a small labelled dataset
fixture."""

import math
from collections import namedtuple

import numpy as np
import pytest
from hypothesis import settings

from roadsift.geometry import RoadSpine
from roadsift.ml import (
    UNSAFE_CODE,
    ClassifierSpec,
    dataset_from_tests,
    fit,
    oversample_minority,
)
from roadsift.oracle import TRACE_COLUMNS, DriverConfig, build_dataset
from roadsift.selection import RandomStrategy

# Tier-1 runs the same examples every time, and fit-heavy examples are not
# failed for running slowly on a loaded machine.
settings.register_profile("tier1", deadline=None, derandomize=True)
settings.load_profile("tier1")


# a trace row with its values by name, as the reference drive records a
# step and the reference CAN converter reads one
TraceState = namedtuple("TraceState", TRACE_COLUMNS)


def trace_states(trace):
    """The rows of a trace array as TraceStates."""
    return [TraceState(*row) for row in trace.tolist()]


def outcome_bits(outcome):
    """An outcome's fields with its trace as shape and bytes, so that two
    outcomes compare equal only when every trace value is the same float,
    -0.0 and 0.0 apart."""
    return (outcome.label, outcome.duration, outcome.max_abs_lateral_offset,
            outcome.trace.shape, outcome.trace.tobytes())


def case_bits(tc):
    """A test's fields, its outcome as outcome_bits."""
    return tc.id, tc.road, tc.features, outcome_bits(tc.outcome)


def straight_points(length=100.0, n=3, y=100.0, x0=100.0):
    xs = np.linspace(x0, x0 + length, n)
    return tuple((float(x), y) for x in xs)


def arc_between_straights(radius=30.0, arc_deg=90.0, arc_step_deg=5.0,
                          lead=60.0, side=1.0, origin=(50.0, 100.0)):
    """Lead-in straight along +x, a turn of the given radius/angle, exit
    straight; dense control points keep the spline close to the arc."""
    x0, y0 = origin
    pts = [(x0 + d, y0) for d in np.arange(0.0, lead + 1e-9, 10.0)]
    cx, cy = pts[-1][0], pts[-1][1] + side * radius
    n = max(2, int(round(arc_deg / arc_step_deg)))
    phi0 = math.atan2(pts[-1][1] - cy, pts[-1][0] - cx)
    for k in range(1, n + 1):
        phi = phi0 + side * math.radians(arc_deg) * k / n
        pts.append((cx + radius * math.cos(phi), cy + radius * math.sin(phi)))
    heading = math.radians(arc_deg) * side
    ex, ey = pts[-1]
    for d in np.arange(10.0, lead + 1e-9, 10.0):
        pts.append((ex + d * math.cos(heading), ey + d * math.sin(heading)))
    return tuple(pts)


def analytic_arc_spine(radius=10.0, arc_deg=180.0, step=1.0, lead=0.0):
    """Spine sampled directly from exact arc geometry (optionally with a
    straight lead-in), bypassing the spline. Curvature positive (left)."""
    rows = []
    s = 0.0
    if lead > 0.0:
        n_lead = int(math.ceil(lead / step))
        for i in range(n_lead):
            si = lead * i / n_lead
            rows.append((si, si, 0.0, 0.0, 0.0))
        s = lead
    arc_len = radius * math.radians(arc_deg)
    n_arc = int(math.ceil(arc_len / step))
    cx, cy = lead, radius
    for i in range(n_arc + 1):
        a = math.radians(arc_deg) * i / n_arc
        x = cx + radius * math.sin(a)
        y = cy - radius * math.cos(a)
        heading = a
        heading = (heading + math.pi) % (2.0 * math.pi) - math.pi
        rows.append((s + arc_len * i / n_arc, x, y, heading, 1.0 / radius))
    cols = np.array(rows)
    return RoadSpine(s=cols[:, 0], xy=cols[:, 1:3], heading=cols[:, 3],
                     curvature=cols[:, 4])


class StubStrategy(RandomStrategy):
    """Selector with a precomputed id -> prediction table."""

    def __init__(self, predictions: dict[str, int]):
        self.predictions = predictions

    def accepts(self, test) -> bool:
        return self.predictions[test.id] == UNSAFE_CODE


@pytest.fixture(scope="session")
def moderate_tests():
    """500 labelled tests at the moderate risk factor, shared across tests."""
    return build_dataset(500, DriverConfig(), rng_seed=424, keep_traces=False)


@pytest.fixture(scope="session")
def moderate_model(moderate_tests):
    """Logistic model trained on the first 200 moderate tests (balanced)."""
    ds = dataset_from_tests(moderate_tests[:200])
    train = oversample_minority(ds, 7)
    model = fit(ClassifierSpec("logistic"), train.X, train.y,
                ds.feature_names, rng_seed=7)
    return model, {t.id for t in moderate_tests[:200]}
