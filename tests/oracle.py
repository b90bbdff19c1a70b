"""Reference implementations that tests compare the pipeline against.

Each one is the plain per-element form of a computation the package does in
bulk, kept here so that a faster version can be checked against it. All of
them evaluate the package's sensor models (ekf.sensor_models) one position
at a time.
"""

from __future__ import annotations

import math

import numpy as np

from tunnelplan import ekf, planner
from tunnelplan.errors import FilterSingularityError
from tunnelplan.montecarlo import SensorReadings

# ---------------------------------------------------------------------------
# the scalar reference filter: one belief, one step or reading at a time


def predict(b: ekf.BeliefState, cfg: ekf.NoiseConfig) -> ekf.BeliefState:
    """One constant-velocity step: position integrates velocity, P inflates."""
    x = b.x.copy()
    x[3:] += cfg.ts * x[:3]
    phi = np.eye(6)
    phi[3:, :3] = cfg.ts * np.eye(3)
    P = phi @ b.P @ phi.T + np.diag(cfg.q_diag)
    return ekf.BeliefState(x=x, P=P, t=b.t + cfg.ts)


def _update(b, pred: ekf.Prediction, z, R) -> ekf.BeliefState:
    """Joseph update of b by reading z against pred, the sensor's model at
    b's position, with R scaled by the model's noise scale. A reading a
    guard refuses raises FilterSingularityError with the guard's reason."""
    for why, refused in pred.refused.items():
        if refused[0]:
            raise FilterSingularityError(why)
    zp = pred.z[0]
    H = np.zeros((np.size(zp), 6))
    H[:, 3:] = np.eye(3) if pred.Hr is None else pred.Hr[0]
    scale = pred.scale if np.ndim(pred.scale) == 0 else pred.scale[0]
    return ekf.joseph_update(b, H, scale * np.atleast_2d(R),
                             np.atleast_1d(np.asarray(z, float) - zp))


def altimeter_update(b, z: float, att: ekf.Attitude, cfg: ekf.NoiseConfig):
    return _update(b, ekf.altimeter(b.x[None, 3:], att), z, cfg.r_alt)


def uwb_update(b, z: float, cfg: ekf.NoiseConfig):
    return _update(b, ekf.uwb(b.x[None, 3:]), z, cfg.r_uwb)


def camera_update(b, z, cfg: ekf.NoiseConfig):
    return _update(b, ekf.camera(b.x[None, 3:]), z, cfg.r_cam)


def lidar_update(b, z, cfg: ekf.NoiseConfig, gamma: float = 1.0):
    if gamma < 1.0:
        raise ValueError(f"gamma must be at least 1, got {gamma}")
    return _update(b, ekf.lidar(b.x[None, 3:])._replace(scale=gamma), z, cfg.r_lidar)


# ---------------------------------------------------------------------------
# measurement synthesis


def synthesize_measurements(truth, env, rates, noise, attitude, rng, mode="noisy",
                            dropout=0.0, outlier_prob=0.0, outlier_scale=10.0):
    """montecarlo.synthesize_measurements, one reading at a time.

    Walks the sensor ticks in order and, at each, the sensors in the fire
    table's order to find where each sensor delivers a reading. Then, sensor
    by sensor in that order, it draws the sensor's arrays from rng, its
    noise normals (noisy mode), its outlier uniforms (noisy mode,
    outlier_prob > 0) and its dropout uniforms (dropout > 0), and builds its
    readings one at a time from them into its SensorReadings.
    """
    n = truth.commanded.steps
    table = rates.fire_table(n)
    noisy = mode == "noisy"
    models = ekf.sensor_models(attitude, env.rig.position, noise.lidar_gamma)
    R = noise.R

    fires = {sensor: steps.copy() for sensor, steps in table.items()}
    for sensor, gate in (("cam", env.camera_sees_many), ("lidar", env.lidar_sees_many)):
        steps = np.flatnonzero(table[sensor])
        fires[sensor][steps] = gate(truth.pos[steps])

    found = {sensor: [] for sensor in models}
    for k in planner.sensor_ticks(table).tolist():
        for sensor, model in models.items():
            if fires[sensor][k]:
                pred = model(truth.pos[k][None])
                if pred.ok[0]:
                    found[sensor].append((k, pred))

    out = {}
    for sensor, sites in found.items():
        count = len(sites)
        shape = (count, 3) if sensor in ("cam", "lidar") else count
        normals = rng.standard_normal(shape) if noisy else None
        outlier_u = rng.random(count) if noisy and outlier_prob > 0.0 else None
        dropout_u = rng.random(count) if dropout > 0.0 else None
        readings = []
        for i, (k, pred) in enumerate(sites):
            z = pred.z[0]
            outlier = False
            if noisy:
                if z.ndim:
                    w = math.sqrt(pred.scale[0]) * (np.linalg.cholesky(R[sensor]) @ normals[i])
                else:
                    w = math.sqrt(pred.scale * R[sensor]) * normals[i]
                z = z + w
                outlier = bool(outlier_u is not None and outlier_u[i] < outlier_prob)
                if outlier:
                    z = z + (outlier_scale - 1.0) * w
                if sensor == "cam":
                    z = z / np.linalg.norm(z)
            dropped = bool(dropout_u is not None and dropout_u[i] < dropout)
            readings.append((k, z, float(pred.scale[0]) if sensor == "lidar" else None,
                             dropped, outlier))
        steps, z, scale, dropped, outlier = zip(*readings) if readings else ((),) * 5
        out[sensor] = SensorReadings(
            np.array(steps, dtype=int), np.array(z, dtype=float).reshape(shape),
            np.array(scale, dtype=float) if sensor == "lidar" else None,
            np.array(dropped, dtype=bool), np.array(outlier, dtype=bool))
    return out


def readings_in_order(readings) -> list:
    """The undropped readings of a run's {sensor: SensorReadings}, one at a
    time as (step, sensor, z, scale) in step order and, at one step, in the
    fire table's sensor order; scale is None for all but the lidar."""
    out = []
    for sensor in planner.SENSOR_ORDER:
        r = readings[sensor]
        for i in np.flatnonzero(~r.dropped).tolist():
            out.append((int(r.steps[i]), sensor, r.z[i],
                        None if r.scale is None else float(r.scale[i])))
    # a stable sort keeps the sensor order within a step
    return sorted(out, key=lambda reading: reading[0])
