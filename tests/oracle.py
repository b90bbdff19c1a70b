"""Reference implementations that tests compare the pipeline against.

Each one is the plain per-element form of a computation the package does in
bulk, kept here so that a faster version can be checked against it.
"""

from __future__ import annotations

import math

import numpy as np

from tunnelplan import ekf, planner
from tunnelplan.errors import FilterSingularityError
from tunnelplan.montecarlo import MeasurementEvent


def synthesize_measurements(truth, env, rates, noise, attitude, rng, mode="noisy",
                            dropout=0.0, outlier_prob=0.0, outlier_scale=10.0):
    """montecarlo.synthesize_measurements, one reading at a time.

    Walks the sensor ticks in order and, at each, the sensors in the fire
    table's order; every reading takes its draws from rng as it is made:
    its noise normals (noisy mode), then its outlier uniform (noisy mode,
    outlier_prob > 0), then its dropout uniform (dropout > 0).
    """
    n = truth.commanded.steps
    ts = truth.commanded.ts
    table = rates.fire_table(n)
    noisy = mode == "noisy"

    try:
        ekf.altimeter_model(np.zeros(6), attitude)
        alt_ok = True
    except FilterSingularityError:
        alt_ok = False

    fires = {sensor: steps.copy() for sensor, steps in table.items()}
    for sensor, gate in (("cam", env.camera_sees_many), ("lidar", env.lidar_sees_many)):
        steps = np.flatnonzero(table[sensor])
        fires[sensor][steps] = gate(truth.pos[steps])
    dist, sin_elev = ekf.sight_geometry(truth.pos)
    in_range = ekf.range_ok(dist)
    fires["alt"] &= alt_ok
    fires["uwb"] &= in_range
    fires["cam"] &= in_range & ekf.elevation_ok(sin_elev)

    sd_alt = math.sqrt(noise.r_alt)
    sd_uwb = math.sqrt(noise.r_uwb)
    chol = {"cam": np.linalg.cholesky(noise.r_cam), "lidar": np.linalg.cholesky(noise.r_lidar)}
    cos_tilt = math.cos(attitude.roll) * math.cos(attitude.pitch)

    events = []
    for k in planner.sensor_ticks(table).tolist():
        r = truth.pos[k]
        d = float(dist[k])
        for sensor, fire in fires.items():
            if not fire[k]:
                continue
            gamma = None
            if sensor == "alt":
                z, sd = -r[2] / cos_tilt, sd_alt
            elif sensor == "uwb":
                z, sd = d, sd_uwb
            elif sensor == "cam":
                z, sd = r / d, math.sqrt(1.0 / abs(sin_elev[k]))
            else:
                gamma = noise.lidar_gamma.gamma(float(np.linalg.norm(r - env.rig.position)))
                z, sd = r, math.sqrt(gamma)
            outlier = False
            if noisy:
                L = chol.get(sensor)
                w = sd * (rng.standard_normal() if L is None else L @ rng.standard_normal(3))
                z = z + w
                outlier = bool(outlier_prob > 0.0 and rng.random() < outlier_prob)
                if outlier:
                    z = z + (outlier_scale - 1.0) * w
                if sensor == "cam":
                    z = z / np.linalg.norm(z)
            dropped = bool(dropout > 0.0 and rng.random() < dropout)
            events.append(MeasurementEvent(step=k, t=k * ts, sensor=sensor, value=z,
                                           gamma=gamma, dropped=dropped, outlier=outlier))
    return events
