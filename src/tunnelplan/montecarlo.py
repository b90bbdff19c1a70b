"""Measurement-replay validation of planned coverage circuits.

Generates jittered truth trajectories around the commanded path, synthesizes
rate-scheduled sensor measurements from the truth (with the same
field-of-view gating the planner applies), replays them through the online
filter, and reduces each run to table-ready error statistics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

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


@dataclass
class MeasurementEvent:
    """One synthesized sensor reading tagged with its prediction step."""

    step: int
    t: float
    sensor: str
    value: object
    gamma: float | None = None
    dropped: bool = False
    outlier: bool = False


def _sensor_readings(truth: TruthTrajectory, env, rates, noise, attitude, rng, noisy: bool,
                     dropout: float, outlier_prob: float, outlier_scale: float):
    """Each sensor's readings as arrays over the steps where it fires.

    Returns {sensor: (steps, values, noise scale, dropped, outlier)} in the
    fire table's sensor order, and takes the draws from rng in that order,
    sensor by sensor (see synthesize_measurements).
    """
    pos = truth.pos
    models = ekf.sensor_models(attitude, env.rig.position, noise.lidar_gamma)
    gates = {"cam": env.camera_sees_many, "lidar": env.lidar_sees_many}
    readings = {}
    for sensor, fire in rates.fire_table(truth.commanded.steps).items():
        # where the sensor delivers a reading (its schedule, its field-of-view
        # gate and its guards), the exact value there and its noise scale
        steps = np.flatnonzero(fire)
        if sensor in gates:
            steps = steps[gates[sensor](pos[steps])]
        m = models[sensor](pos[steps])
        keep = m.ok
        steps, m = steps[keep], m.take(keep)
        z, n = m.z, len(steps)
        outlier = np.zeros(n, dtype=bool)
        if noisy:
            # a scalar reading's standard deviation, a factor on the Cholesky
            # factor of a vector one's covariance
            R = noise.R[sensor]
            if z.ndim == 2:
                draws = rng.standard_normal((n, 3))
                w = np.sqrt(m.scale)[:, None] * (np.linalg.cholesky(R) @ draws[:, :, None])[:, :, 0]
            else:
                w = np.sqrt(m.scale * R) * rng.standard_normal(n)
            z = z + w
            if outlier_prob > 0.0:
                outlier = rng.random(n) < outlier_prob
                z[outlier] += (outlier_scale - 1.0) * w[outlier]
            if sensor == "cam":
                z = z / ekf.row_norms(z)[:, None]
        dropped = rng.random(n) < dropout if dropout > 0.0 else np.zeros(n, dtype=bool)
        readings[sensor] = (steps, z, m.scale, dropped, outlier)
    return readings


def synthesize_measurements(truth: TruthTrajectory, env, rates, noise, attitude,
                            rng, mode: str = "noisy", dropout: float = 0.0,
                            outlier_prob: float = 0.0,
                            outlier_scale: float = 10.0) -> list[MeasurementEvent]:
    """Sensor readings a real flight along the truth path would deliver.

    Field-of-view gating and the lidar noise scale come from the truth
    positions. In perfect mode values equal the measurement models exactly
    and no event is an outlier; noisy mode adds draws matching each
    sensor's configured covariance, and an outlier scales its draw by
    outlier_scale. Dropout marks events as lost without removing them, so
    replay can skip them while statistics still count them.

    Events come in step order and, at one step, in the fire table's sensor
    order. The draws from rng come sensor by sensor in that order, each
    sensor's in bulk over its readings in step order: its noise normals
    (noisy mode; (n,) for a scalar sensor, (n, 3) for a vector one), then
    its n outlier uniforms (noisy mode, outlier_prob > 0), then its n
    dropout uniforms (dropout > 0).
    """
    if mode not in ("noisy", "perfect"):
        raise ValueError(f"unknown mode {mode!r}; expected 'noisy' or 'perfect'")
    if not 0.0 <= dropout <= 1.0:
        raise ValueError("dropout must be within [0, 1]")
    # the arrays are built and dropped before any event exists, so the
    # events do not sit among their freed temporaries
    readings = _sensor_readings(truth, env, rates, noise, attitude, rng, mode == "noisy",
                                dropout, outlier_prob, outlier_scale)
    events: list = []
    for sensor, (steps, z, scale, dropped, outlier) in readings.items():
        n = len(steps)
        events += map(MeasurementEvent, steps.tolist(), (steps * truth.commanded.ts).tolist(),
                      [sensor] * n, z.tolist() if z.ndim == 1 else list(z),
                      scale.tolist() if sensor == "lidar" else [None] * n,
                      dropped.tolist(), outlier.tolist())
    # a stable sort keeps the sensor order within a step
    events.sort(key=lambda ev: ev.step)
    return events


# ---------------------------------------------------------------------------
# replay


def _readings(events_list, n: int, rates) -> planner.Readings:
    """Undropped events of each run laid out on the schedule's tick axis."""
    ticks = planner.sensor_ticks(rates.fire_table(n))
    tick_of = np.full(n + 2, -1)
    tick_of[ticks] = np.arange(len(ticks))
    shape = (len(events_list), len(ticks))
    offered = {s: np.zeros(shape, dtype=bool) for s in planner.SENSOR_ORDER}
    value = {"alt": np.zeros(shape), "uwb": np.zeros(shape),
             "cam": np.zeros(shape + (3,)), "lidar": np.zeros(shape + (3,))}
    gamma = np.ones(shape)
    for b, events in enumerate(events_list):
        steps = np.array([ev.step for ev in events], dtype=int)
        off_tick = tick_of[np.clip(steps, 0, n + 1)] < 0
        if off_tick.any():
            raise ValueError(f"measurement event at step {steps[off_tick][0]} is not a "
                             f"sensor tick of steps 1..{n}")
        kept: dict = {s: [] for s in planner.SENSOR_ORDER}
        for ev in events:
            if not ev.dropped:
                kept[ev.sensor].append(ev)
        for sensor, evs in kept.items():
            if not evs:
                continue
            ti = tick_of[np.array([ev.step for ev in evs], dtype=int)]
            at, count = np.unique(ti, return_counts=True)
            if (count > 1).any():
                raise ValueError(f"two {sensor} events at step {ticks[at[count > 1][0]]}")
            offered[sensor][b, ti] = True
            value[sensor][b, ti] = [ev.value for ev in evs]
            if sensor == "lidar":
                gamma[b, ti] = [ev.gamma for ev in evs]
    return planner.Readings(offered=offered, value=value, gamma=gamma)


def replay_runs(truths, events_list, rates, noise, attitude) -> list:
    """Replay each run's measurements through the filter along its circuit.

    Runs with equal step counts are filtered together in one batched sweep;
    a run's result does not depend on the others in its batch. The
    commanded trajectory is the control input and the filter estimates the
    offset from it (see planner.run_batch). Dropped events are skipped.
    """
    noms = [truth.commanded for truth in truths]
    results: list = [None] * len(noms)
    for idxs in planner.step_groups(noms):
        n = noms[idxs[0]].steps
        readings = _readings([events_list[i] for i in idxs], n, rates)
        batch = planner.run_batch(n, rates, noise, attitude, noms=[noms[i] for i in idxs],
                                  readings=readings)
        for i, res in zip(idxs, batch):
            results[i] = res
    return results


def run_online_ekf(truth: TruthTrajectory, events, rates, noise, attitude):
    """Replay one run's synthesized measurements; see replay_runs."""
    return replay_runs([truth], [events], rates, noise, attitude)[0]


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


def compute_stats(truth: TruthTrajectory, result, events=None,
                  mode: str = "") -> RunStats:
    """Reduce one replay to scalar error statistics against the truth."""
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
        dropped_events=sum(1 for ev in events if ev.dropped) if events else 0,
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
    events: list
    result: object
    stats: RunStats


def run_seed_rngs(master_seed: int, circuit_index: int, run_index: int):
    """Independent truth and measurement generators for one run."""
    ss = np.random.SeedSequence(
        master_seed, spawn_key=(config.STREAM_MONTECARLO, circuit_index, run_index)
    )
    truth_ss, meas_ss = ss.spawn(2)
    return np.random.default_rng(truth_ss), np.random.default_rng(meas_ss)


def run_trial_sets(selected, graph, env, kin, rates, noise,
                   master_seed: int, runs: int, mode: str = "noisy",
                   cross_track_sigma: float = 0.3, cross_track_tau: float = 2.0,
                   speed_sigma: float = 0.05, dropout: float = 0.0,
                   outlier_prob: float = 0.0,
                   outlier_scale: float = 10.0) -> list[list[TrialRecord]]:
    """Monte Carlo replay of several circuits: simulate, measure, filter, score.

    selected lists (circuit, circuit_index) pairs; the result holds one list
    of runs per pair. Every run of every circuit is filtered in one sweep.
    """
    truths, events_list = [], []
    for circuit, circuit_index in selected:
        nominal = planner.build_nominal_trajectory(circuit, graph, kin.cruise, noise.ts)
        for run_index in range(runs):
            truth_rng, meas_rng = run_seed_rngs(master_seed, circuit_index, run_index)
            truth = simulate_truth(nominal, truth_rng,
                                   cross_track_sigma=cross_track_sigma,
                                   cross_track_tau=cross_track_tau,
                                   speed_sigma=speed_sigma,
                                   circuit_index=circuit_index, run_index=run_index)
            truths.append(truth)
            events_list.append(synthesize_measurements(
                truth, env, rates, noise, kin.attitude, meas_rng, mode=mode,
                dropout=dropout, outlier_prob=outlier_prob,
                outlier_scale=outlier_scale))
    results = replay_runs(truths, events_list, rates, noise, kin.attitude)
    records = [
        TrialRecord(truth=truth, events=events, result=result,
                    stats=compute_stats(truth, result, events=events, mode=mode))
        for truth, events, result in zip(truths, events_list, results)
    ]
    return [records[i * runs:(i + 1) * runs] for i in range(len(selected))]
