"""The drive as first written for the Python-list loop: plan_speed_profile
and _simulate clamp with the builtins min and max. Kept as the reference
that roadsift.oracle's drive must match bit for bit, in every outcome and
trace field, NaNs and signed zeros included.
"""

import math

import numpy as np

from roadsift.geometry import RoadSpine
from roadsift.oracle import (
    SAFE,
    UNSAFE,
    DriveTimeout,
    DriverConfig,
    TestOutcome,
)

from conftest import TraceState as VehicleState


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
    # both passes index Python lists: numpy scalar indexing is slower
    v = v.tolist()
    ds = np.diff(spine.s).tolist()
    v[0] = 0.0
    for i in range(len(v) - 2, -1, -1):          # braking feasibility
        v[i] = min(v[i], math.sqrt(v[i + 1] ** 2 + 2.0 * cfg.a_brake * ds[i]))
    for i in range(len(v) - 1):                  # acceleration feasibility
        v[i + 1] = min(v[i + 1], math.sqrt(v[i] ** 2 + 2.0 * cfg.a_accel * ds[i]))
    return np.array(v)


def _simulate(spine: RoadSpine, cfg: DriverConfig, lane_width: float,
              keep_trace: bool = True) -> TestOutcome:
    """Drive the spine once from a standing start and return the verdict.

    Each step advances the progress pointer, measures the lateral offset,
    steers by pure pursuit and tracks the planned speed profile. The drive
    ends UNSAFE when the car leaves its lane, lane_width wide and centred on
    the spine, and SAFE within 0.5 m of the road's end.

    keep_trace=True records one VehicleState per step; with False the
    outcome's trace is empty and no state is built. Label, duration and
    max_abs_lateral_offset are the same either way.

    Raises DriveTimeout if neither end is reached within the step cap of
    (total_length / 1 m/s + 120 s) of simulated time.
    """
    # the loop reads Python lists and locals: numpy scalar indexing and
    # attribute lookups dominated its cost
    sx = spine.xy[:, 0].tolist()
    sy = spine.xy[:, 1].tolist()
    s_arc = spine.s.tolist()
    spine_heading = spine.heading.tolist()
    profile = plan_speed_profile(spine, cfg).tolist()
    n = len(sx)

    dt = cfg.timestep
    half_lane = lane_width / 2.0
    half_width = cfg.vehicle_width / 2.0
    vehicle_width = cfg.vehicle_width
    oob_fraction = cfg.oob_fraction
    pursuit_base = cfg.lookahead / cfg.risk_factor
    speed_gain = cfg.speed_gain
    wheelbase = cfg.wheelbase
    max_steer = cfg.max_steer
    a_accel = cfg.a_accel
    a_brake = cfg.a_brake
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
    t = 0.0
    max_steps = int((spine.total_length / 1.0 + 120.0) / dt)

    trace: list[VehicleState] = []
    max_off = 0.0
    failed = False

    for _ in range(max_steps):
        # advance the progress pointer to the nearest sample (monotone)
        while ptr < n - 1:
            dx0 = sx[ptr] - x
            dy0 = sy[ptr] - y
            dx1 = sx[ptr + 1] - x
            dy1 = sy[ptr + 1] - y
            if dx1 * dx1 + dy1 * dy1 < dx0 * dx0 + dy0 * dy0:
                ptr += 1
            else:
                break

        # signed lateral offset from the local tangent
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
                trace.append(VehicleState(t, x, y, heading, speed, steer,
                                          throttle, brake, offset))
            break

        progress = s_arc[ptr] + hx * ex + hy * ey
        if progress >= end_s:
            break

        # pure pursuit toward the point lookahead distance ahead by arc
        pursuit = pursuit_base + speed_gain * speed
        target_s = progress + pursuit
        if look < ptr:
            look = ptr
        while look < n - 1 and s_arc[look] < target_s:
            look += 1
        tx, ty = sx[look], sy[look]
        alpha = atan2(ty - y, tx - x) - heading
        alpha = (alpha + pi) % two_pi - pi
        dist = max(hypot(tx - x, ty - y), 1e-6)
        steer = atan2(2.0 * wheelbase * sin(alpha), dist)
        steer = max(-max_steer, min(max_steer, steer))
        steer = max(steer_prev - rate_step, min(steer_prev + rate_step, steer))
        steer_prev = steer

        # longitudinal control toward the planned profile
        v_ref = profile[min(ptr + 1, n - 1)]
        accel = (v_ref - speed) / dt
        accel = max(-a_brake, min(a_accel, accel))
        throttle = accel / a_accel if accel > 0.0 else 0.0
        brake = -accel / a_brake if accel < 0.0 else 0.0

        if keep_trace:
            trace.append(VehicleState(t, x, y, heading, speed, steer,
                                      throttle, brake, offset))

        # kinematic bicycle with a friction-circle yaw-rate cap: demanding
        # more lateral acceleration than the tyres have makes the car run wide
        yaw_rate = speed * tan(steer) / wheelbase
        if speed > 0.1:
            cap = yaw_cap_acc / speed
            yaw_rate = max(-cap, min(cap, yaw_rate))
        x += speed * cos(heading) * dt
        y += speed * sin(heading) * dt
        heading = (heading + yaw_rate * dt + pi) % two_pi - pi
        speed = max(0.0, speed + accel * dt)
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
        trace=tuple(trace))
