"""Measurement-replay validation of planned coverage circuits.

Generates jittered truth trajectories around the commanded path, synthesizes
rate-scheduled sensor measurements from the truth (with the same
field-of-view gating the planner applies), replays them through the online
filter, and reduces each run to table-ready error statistics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import NamedTuple

import numpy as np

from . import config, ekf, planner

DOWN = np.array([0.0, 0.0, 1.0])


def _gauss_markov(n: int, ts: float, tau: float, sigma: float, rng) -> np.ndarray:
    """First-order Gauss-Markov series, stationary start.

    a[k+1] = phi * a[k] + sigma * sqrt(1 - phi^2) * w, phi = exp(-ts / tau).
    """
    if tau <= 0.0 or ts <= 0.0:
        raise ValueError("tau and ts must be positive")
    draws = rng.standard_normal(n)
    if n == 0:
        return draws
    phi = math.exp(-ts / tau)
    drive = sigma * math.sqrt(1.0 - phi * phi)
    # the recurrence runs on Python floats, which round exactly as float64
    # scalars do at a fraction of their cost per operation
    acc = sigma * float(draws[0])
    out = [acc]
    for w in (drive * draws[1:]).tolist():
        acc = phi * acc + w
        out.append(acc)
    return np.array(out)


# ---------------------------------------------------------------------------
# truth trajectories


@dataclass
class TruthTrajectory:
    """Actual flown positions beside the commanded trajectory they jitter."""

    pos: np.ndarray
    commanded: planner.NominalTrajectory
    circuit_index: int = 0
    run_index: int = 0


def simulate_truth(nominal: planner.NominalTrajectory, rng,
                   cross_track_sigma: float = 0.3, cross_track_tau: float = 2.0,
                   speed_sigma: float = 0.05, circuit_index: int = 0,
                   run_index: int = 0) -> TruthTrajectory:
    """Jitter the commanded trajectory with correlated tracking error.

    Two independent Gauss-Markov offsets act in the plane perpendicular to
    the commanded direction of travel (cross-track), a third acts along it
    with standard deviation speed_sigma * cross_track_tau, the position lag
    a speed error of that size sustains over one correlation time. Zero
    sigmas reproduce the commanded positions exactly.
    """
    n = nominal.steps
    if n == 0 or (cross_track_sigma == 0.0 and speed_sigma == 0.0):
        return TruthTrajectory(pos=nominal.pos.copy(), commanded=nominal,
                               circuit_index=circuit_index, run_index=run_index)
    ts = nominal.ts
    a1 = _gauss_markov(n + 1, ts, cross_track_tau, cross_track_sigma, rng)
    a2 = _gauss_markov(n + 1, ts, cross_track_tau, cross_track_sigma, rng)
    a3 = _gauss_markov(n + 1, ts, cross_track_tau, speed_sigma * cross_track_tau, rng)

    speeds = np.linalg.norm(nominal.vel, axis=1)
    u = nominal.vel / np.where(speeds > 0.0, speeds, 1.0)[:, None]
    u = np.vstack([u, u[-1:]])
    p1 = np.cross(u, DOWN)
    p1n = np.linalg.norm(p1, axis=1)
    vertical = p1n < 1e-9
    if vertical.any():
        p1[vertical] = [1.0, 0.0, 0.0]
        p1n[vertical] = 1.0
    p1 /= p1n[:, None]
    p2 = np.cross(u, p1)

    offsets = a1[:, None] * p1 + a2[:, None] * p2 + a3[:, None] * u
    return TruthTrajectory(pos=nominal.pos + offsets, commanded=nominal,
                           circuit_index=circuit_index, run_index=run_index)


# ---------------------------------------------------------------------------
# measurement synthesis


class SensorReadings(NamedTuple):
    """One sensor's readings of one run, in step order.

    steps (n,) are the prediction steps it read at and z the readings, (n,)
    for a scalar sensor and (n, 3) for a vector one. scale (n,) is the
    lidar's noise scale at each reading, which replay reads; it is None for
    the other sensors, whose scale replay takes from the model at the
    estimate. dropped marks readings lost on the way, which replay skips and
    statistics still count; outlier marks readings whose noise draw was
    scaled by outlier_scale.
    """

    steps: np.ndarray
    z: np.ndarray
    scale: np.ndarray | None
    dropped: np.ndarray
    outlier: np.ndarray


def _covariance_root(R: np.ndarray) -> np.ndarray:
    """A matrix L with L @ L.T == R: R's Cholesky factor where R is positive
    definite, else the square root of its eigendecomposition, which an exact
    or partly exact sensor's semi-definite R also has."""
    try:
        return np.linalg.cholesky(R)
    except np.linalg.LinAlgError:
        vals, vecs = np.linalg.eigh(R)
        return vecs * np.sqrt(np.clip(vals, 0.0, None))


def _sensor_readings(truth: TruthTrajectory, env, rates, noise, attitude, rng, mode: str,
                     dropout: float, outlier_prob: float,
                     outlier_scale: float) -> dict[str, SensorReadings]:
    """Sensor readings a real flight along the truth path would deliver, as
    {sensor: SensorReadings} in the fire table's sensor order.

    Field-of-view gating and the lidar noise scale come from the truth
    positions. In perfect mode values equal the measurement models exactly
    and no reading is an outlier; noisy mode adds draws matching each
    sensor's configured covariance, and an outlier scales its draw by
    outlier_scale. Dropout marks readings as lost without removing them.

    The draws from rng come sensor by sensor in the fire table's order, each
    sensor's in bulk over its readings in step order: its noise normals
    (noisy mode; (n,) for a scalar sensor, (n, 3) for a vector one), then
    its n outlier uniforms (noisy mode, outlier_prob > 0), then its n
    dropout uniforms (dropout > 0).
    """
    if mode not in ("noisy", "perfect"):
        raise ValueError(f"unknown mode {mode!r}; expected 'noisy' or 'perfect'")
    if not 0.0 <= dropout <= 1.0:
        raise ValueError("dropout must be within [0, 1]")
    if not 0.0 <= outlier_prob <= 1.0:
        raise ValueError("outlier_prob must be within [0, 1]")
    if not outlier_scale >= 0.0:
        raise ValueError("outlier_scale must be non-negative")
    sites = planner.reading_sites(env, attitude, noise)
    readings = {}
    for sensor, fire in rates.fire_table(truth.commanded.steps).items():
        # where the sensor delivers a reading (its schedule, its field-of-view
        # gate and its guards), the exact value there and its noise scale
        steps = np.flatnonzero(fire)
        rows, m = sites(sensor, truth.pos[steps])
        keep = m.ok
        steps, m = steps[rows][keep], m.take(keep)
        z, n = m.z, len(steps)
        outlier = np.zeros(n, dtype=bool)
        if mode == "noisy":
            # a scalar reading's standard deviation, a factor on a square
            # root of a vector one's covariance
            R = noise.R[sensor]
            if z.ndim == 2:
                draws = rng.standard_normal((n, 3))
                w = np.sqrt(m.scale)[:, None] * (_covariance_root(R) @ draws[:, :, None])[:, :, 0]
            else:
                w = np.sqrt(m.scale * R) * rng.standard_normal(n)
            z = z + w
            if outlier_prob > 0.0:
                outlier = rng.random(n) < outlier_prob
                z[outlier] += (outlier_scale - 1.0) * w[outlier]
            if sensor == "cam":
                z = z / ekf.row_norms(z)[:, None]
        dropped = rng.random(n) < dropout if dropout > 0.0 else np.zeros(n, dtype=bool)
        readings[sensor] = SensorReadings(steps, z, m.scale if sensor == "lidar" else None,
                                          dropped, outlier)
    return readings


def synthesize_measurements(truth: TruthTrajectory, env, rates, noise, attitude, rng,
                            mode: str = "noisy", dropout: float = 0.0, outlier_prob: float = 0.0,
                            outlier_scale: float = 10.0) -> dict[str, SensorReadings]:
    """_sensor_readings with keyword defaults. bench/tracing.py wraps this name
    with an observer of event lists, so run_trial_sets does not call it."""
    return _sensor_readings(truth, env, rates, noise, attitude, rng, mode, dropout,
                            outlier_prob, outlier_scale)


# ---------------------------------------------------------------------------
# replay


def replay_runs(truths, readings, rates, noise, attitude) -> list:
    """Replay each run's readings through the filter along its circuit.

    readings holds each run's {sensor: SensorReadings}, which one
    planner.run_batch call lays out and replays; a run's result does not
    depend on the others replayed with it. The commanded trajectory is the
    control input and the filter estimates the offset from it. Dropped
    readings are skipped.
    """
    return planner.run_batch(rates, noise, attitude, [truth.commanded for truth in truths],
                             readings=readings)


def run_online_ekf(truth: TruthTrajectory, readings, rates, noise, attitude):
    """Replay one run's {sensor: SensorReadings}; see replay_runs, which the CLI
    calls: bench/tracing.py wraps this name with an observer of event lists."""
    return replay_runs([truth], [readings], rates, noise, attitude)[0]


# ---------------------------------------------------------------------------
# statistics


@dataclass
class RunStats:
    """Error and bookkeeping summary of one replayed flight."""

    circuit_index: int
    run_index: int
    mode: str
    flight_time: float
    rms_n: float
    rms_e: float
    rms_d: float
    rms_3d: float
    err_mean: float
    err_median: float
    err_sigma: float
    mpe: float
    pec_total: float
    pec_max: float
    alt_updates: int
    uwb_updates: int
    cam_updates: int
    lidar_updates: int
    dropped_events: int


def compute_stats(truth: TruthTrajectory, result, readings=None,
                  mode: str = "") -> RunStats:
    """Reduce one replay to scalar error statistics against the truth;
    readings, the run's {sensor: SensorReadings}, gives the dropped count."""
    est = result.est
    if est is None:
        raise ValueError("result carries no state estimates; run in replay mode")
    err = est - truth.pos[1:]
    if len(err):
        sq = err * err
        rms_axis = np.sqrt(sq.mean(axis=0))
        dist = np.sqrt(sq.sum(axis=1))
        rms_3d = float(np.sqrt(sq.sum(axis=1).mean()))
        err_mean = float(dist.mean())
        err_median = float(np.median(dist))
        err_sigma = float(dist.std())
        mpe = float(dist.max())
    else:
        rms_axis = np.zeros(3)
        rms_3d = err_mean = err_median = err_sigma = mpe = 0.0
    series = result.pec
    return RunStats(
        circuit_index=truth.circuit_index,
        run_index=truth.run_index,
        mode=mode,
        flight_time=float(result.t[-1]) if len(result.t) else 0.0,
        rms_n=float(rms_axis[0]),
        rms_e=float(rms_axis[1]),
        rms_d=float(rms_axis[2]),
        rms_3d=rms_3d,
        err_mean=err_mean,
        err_median=err_median,
        err_sigma=err_sigma,
        mpe=mpe,
        pec_total=float(series.sum()) if len(series) else 0.0,
        pec_max=float(series.max()) if len(series) else 0.0,
        alt_updates=result.alt_updates,
        uwb_updates=result.uwb_updates,
        cam_updates=result.cam_updates,
        lidar_updates=result.lidar_updates,
        dropped_events=sum(int(r.dropped.sum()) for r in readings.values()) if readings else 0,
    )


# RunStats fields that identify a run rather than measure it
ID_FIELDS = {"circuit_index", "run_index", "mode"}


def aggregate_trials(stats_list) -> dict:
    """Fieldwise mean and median over a set of runs."""
    stats_list = list(stats_list)
    if not stats_list:
        raise ValueError("no runs to aggregate")
    out: dict = {"runs": len(stats_list)}
    for f in fields(RunStats):
        if f.name in ID_FIELDS:
            continue
        values = np.array([getattr(s, f.name) for s in stats_list], dtype=float)
        out[f"{f.name}_mean"] = float(values.mean())
        out[f"{f.name}_median"] = float(np.median(values))
    return out


# ---------------------------------------------------------------------------
# trial orchestration


@dataclass
class TrialRecord:
    """Everything produced by one Monte Carlo run of one circuit."""

    truth: TruthTrajectory
    readings: dict
    result: object
    stats: RunStats


def run_seed_rngs(master_seed: int, circuit_index: int, run_index: int):
    """Independent truth and measurement generators for one run."""
    ss = np.random.SeedSequence(
        master_seed, spawn_key=(config.STREAM_MONTECARLO, circuit_index, run_index)
    )
    truth_ss, meas_ss = ss.spawn(2)
    return np.random.default_rng(truth_ss), np.random.default_rng(meas_ss)


def run_trial_sets(selected, graph, env, kin, rates, noise, master_seed: int,
                   sim: config.SimulateSection) -> list[list[TrialRecord]]:
    """Monte Carlo replay of several circuits: simulate, measure, filter, score.

    selected lists (circuit, circuit_index) pairs; the result holds one list
    of runs per pair, sim.runs each, flown and measured as sim sets out.
    Every run of every circuit is filtered in one sweep.
    """
    # a perfect run is the exact reference, so it drops no reading either
    dropout = sim.dropout if sim.mode == "noisy" else 0.0
    truths, readings = [], []
    for circuit, circuit_index in selected:
        nominal = planner.build_nominal_trajectory(circuit, graph, kin.cruise, noise.ts)
        for run_index in range(sim.runs):
            truth_rng, meas_rng = run_seed_rngs(master_seed, circuit_index, run_index)
            truth = simulate_truth(nominal, truth_rng,
                                   cross_track_sigma=sim.cross_track_sigma_m,
                                   cross_track_tau=sim.cross_track_tau_s,
                                   speed_sigma=sim.speed_sigma_mps,
                                   circuit_index=circuit_index, run_index=run_index)
            truths.append(truth)
            readings.append(_sensor_readings(
                truth, env, rates, noise, kin.attitude, meas_rng, sim.mode, dropout,
                sim.outlier_prob, sim.outlier_scale))
    results = replay_runs(truths, readings, rates, noise, kin.attitude)
    records = [
        TrialRecord(truth=truth, readings=run, result=result,
                    stats=compute_stats(truth, result, readings=run, mode=sim.mode))
        for truth, run, result in zip(truths, readings, results)
    ]
    return [records[i * sim.runs:(i + 1) * sim.runs] for i in range(len(selected))]
