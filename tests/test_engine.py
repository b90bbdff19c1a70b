"""The batched belief engine against the scalar filter, and the sensor guards
at their exact boundaries."""

import errno
import math
import multiprocessing
import os
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import oracle
from tunnelplan import circuits, config, ekf, mapenv, montecarlo, planner, roadmap
from tunnelplan.errors import FilterSingularityError

# a camera on the ground with a long reach sees down to the horizon, so the
# elevation guard, not the field of view, decides near-horizon updates
LOW_CAMERA = mapenv.UgvRig(camera_mount_height=0.0, camera_max_range=30.0)
# positions exactly on the guard boundaries
AT_MIN_RANGE = np.array([ekf.MIN_RANGE, 0.0, 0.0])
AT_MIN_ELEVATION = 0.25 * np.array([math.sqrt(399.0), 0.0, -1.0])


def open_env(rig=LOW_CAMERA):
    return mapenv.EnvironmentMap(bounds_min=[-30.0, -10.0, -8.0],
                                 bounds_max=[30.0, 10.0, 0.0], rig=rig)


def hover(point, steps=20, ts=0.02):
    """A nominal trajectory that holds one position."""
    return planner.NominalTrajectory(pos=np.repeat(point[None], steps + 1, axis=0),
                                     vel=np.zeros((steps, 3)), ts=ts, length=0.0)


def plan_one(nom, rates, noise, env):
    """Planning pass of a batch of one along nom."""
    return planner.run_batch(rates, noise, ekf.Attitude(), [nom], env=env)[0]


def with_readings(readings, sensor, steps, z, dropped=False):
    """A run's {sensor: SensorReadings} with readings z of sensor added at
    steps, after its own, each dropped or not as dropped says; an added
    lidar reading has noise scale 1."""
    r, k = readings[sensor], len(steps)
    return {**readings, sensor: montecarlo.SensorReadings(
        np.append(r.steps, steps), np.concatenate([r.z, np.reshape(z, (k,) + r.z.shape[1:])]),
        None if r.scale is None else np.append(r.scale, np.ones(k)),
        np.append(r.dropped, np.full(k, dropped)), np.append(r.outlier, np.zeros(k, dtype=bool)))}


# ---------------------------------------------------------------------------
# guards


def test_boundary_points_are_exact():
    d, _ = ekf.sight_geometry(AT_MIN_RANGE)
    assert d == ekf.MIN_RANGE
    d, u = ekf.sight_geometry(AT_MIN_ELEVATION)
    assert abs(u[2]) == ekf.MIN_SIN_ELEVATION
    assert d > ekf.MIN_RANGE


def test_scalar_models_reject_the_boundary():
    assert ekf.uwb(AT_MIN_RANGE[None]).refused[ekf.NEAR_ORIGIN].tolist() == [True]
    assert ekf.camera(AT_MIN_ELEVATION[None]).refused[ekf.BELOW_HORIZON].tolist() == [True]
    noise = ekf.NoiseConfig()
    with pytest.raises(FilterSingularityError, match=ekf.NEAR_ORIGIN):
        oracle.uwb_update(ekf.BeliefState(x=np.concatenate([np.zeros(3), AT_MIN_RANGE]),
                                          P=np.eye(6)), ekf.MIN_RANGE, noise)
    with pytest.raises(FilterSingularityError, match=ekf.BELOW_HORIZON):
        oracle.camera_update(ekf.BeliefState(x=np.concatenate([np.zeros(3), AT_MIN_ELEVATION]),
                                             P=np.eye(6)), AT_MIN_ELEVATION / 5.0, noise)


@pytest.mark.parametrize("point, sensor", [(AT_MIN_RANGE, "uwb"),
                                           (AT_MIN_ELEVATION, "cam")])
def test_planning_rejects_the_boundary(point, sensor):
    env, rates = open_env(), planner.RateSchedule()
    nom = hover(point)
    assert sensor != "cam" or env.camera_sees_many([point])[0]
    res = plan_one(nom, rates, ekf.NoiseConfig(), env)
    fires = np.flatnonzero(rates.fire_table(nom.steps)[sensor]).tolist()
    assert getattr(res, f"{sensor}_updates") == 0
    assert [s[:2] for s in res.skipped] == [(k, sensor) for k in fires]


@pytest.mark.parametrize("point, sensor", [(AT_MIN_RANGE, "uwb"),
                                           (AT_MIN_ELEVATION, "cam")])
def test_synthesis_and_replay_reject_the_boundary(point, sensor):
    env, rates, noise, att = open_env(), planner.RateSchedule(), ekf.NoiseConfig(), ekf.Attitude()
    nom = hover(point)
    truth = montecarlo.TruthTrajectory(pos=nom.pos.copy(), commanded=nom)
    readings = montecarlo.synthesize_measurements(truth, env, rates, noise, att,
                                                  np.random.default_rng(0), mode="perfect")
    assert not len(readings[sensor].steps)
    # a reading offered anyway is refused at the estimate, which stays put
    d = float(np.linalg.norm(point))
    readings = with_readings(readings, sensor, [5], d if sensor == "uwb" else point / d)
    res = montecarlo.run_online_ekf(truth, readings, rates, noise, att)
    assert getattr(res, f"{sensor}_updates") == 0
    assert (5, sensor) in [s[:2] for s in res.skipped]


# an exact lidar and process noise on the east position alone, 1e15 m^2 per
# step: at every lidar tick S is worse conditioned than ekf.CONDITION_LIMIT.
# alt reads d only, and uwb at these points n and d only, so neither bounds
# the east variance.
EAST_UNBOUNDED = ekf.NoiseConfig(q_diag=[0.0, 0.0, 0.0, 0.0, 1e15, 0.0],
                                 r_lidar=np.zeros((3, 3)))


def test_singular_vector_update_is_skipped():
    point = np.array([10.0, 0.0, -2.0])
    # the shipped rig's camera does not reach the point, so no camera update
    # reads the east axis either
    env = open_env(mapenv.UgvRig())
    assert env.lidar_sees_many([point])[0] and not env.camera_sees_many([point])[0]
    res = plan_one(hover(point), planner.RateSchedule(), EAST_UNBOUNDED, env)
    assert res.lidar_updates == 0
    assert [s[1:] for s in res.skipped] == [("lidar", "innovation covariance singular")] * 4


@pytest.mark.parametrize("bad", [np.inf, np.nan])
def test_non_finite_vector_update_is_skipped(bad):
    # a member whose covariance left the float range is skipped as singular,
    # and the others update
    P, x = random_members(np.random.default_rng(23), 3)
    P[1, 4, 4] = bad
    P0 = P.copy()
    skipped = [[] for _ in range(3)]
    Reff = np.repeat(1e-2 * np.eye(3)[None], 3, axis=0)
    applied = planner._vector_update(P, x, slice(None), None, Reff, np.full(3, 1e-2), None,
                                     skipped, 9, "lidar")
    assert applied.tolist() == [0, 2]
    assert skipped == [[], [(9, "lidar", "innovation covariance singular")], []]
    assert np.array_equal(P[1], P0[1], equal_nan=True)


def test_skip_log_is_in_step_and_sensor_order():
    # uwb's guard refuses every reading when its block is listed and the
    # lidar's kernel skips each one later, tick by tick
    env, rates = open_env(), planner.RateSchedule()
    assert env.lidar_sees_many([AT_MIN_RANGE])[0]
    res = plan_one(hover(AT_MIN_RANGE), rates, EAST_UNBOUNDED, env)
    fires = np.flatnonzero(rates.fire_table(20)["lidar"]).tolist()
    assert res.skipped == [entry for k in fires for entry in (
        (k, "uwb", ekf.NEAR_ORIGIN), (k, "lidar", "innovation covariance singular"))]


# ---------------------------------------------------------------------------
# structured Joseph kernels against the dense Joseph form


def dense_joseph(P, H, R):
    """(I - K H) P (I - K H)' + K R K' with K = P H' inv(H P H' + R)."""
    K = P @ H.T @ np.linalg.inv(H @ P @ H.T + R)
    IKH = np.eye(6) - K @ H
    return IKH @ P @ IKH.T + K @ R @ K.T, K


def random_members(rng, n):
    """PSD covariances, the first with a zero position block, and means."""
    A = rng.normal(size=(n, 6, 6))
    P = A @ A.transpose(0, 2, 1) + 1e-3 * np.eye(6)
    P[0, 3:, :] = P[0, :, 3:] = 0.0
    return P, rng.normal(size=(n, 6))


def check_update(ref, P, x, P0, x0, idx, innov, applied, skipped, want_skips):
    """Skipped members are untouched, the others match ref(member, row)."""
    assert applied.tolist() == [b for b in idx.tolist() if b not in want_skips]
    assert [b for b in range(len(P)) if skipped[b]] == want_skips
    for i, b in enumerate(idx.tolist()):
        if b in want_skips:
            assert np.array_equal(P[b], P0[b]) and np.array_equal(x[b], x0[b])
            continue
        want, K = ref(b, i)
        assert np.abs(P[b] - want).max() <= 1e-12 * np.abs(want).max()
        assert np.array_equal(P[b], P[b].T)
        dx = np.zeros(6) if innov is None else K @ np.atleast_1d(innov[i])
        assert np.abs(x[b] - (x0[b] + dx)).max() <= 1e-12 * (1.0 + np.abs(dx).max())


@pytest.mark.parametrize("with_innov", [False, True])
@pytest.mark.parametrize("r", [0.01, 0.0])
def test_scalar_kernel_matches_dense_joseph(with_innov, r):
    rng = np.random.default_rng(21)
    P, x = random_members(rng, 8)
    P0, x0 = P.copy(), x.copy()
    idx = np.array([0, 2, 3, 5, 6, 7])
    H = np.zeros((len(idx), 6))
    H[:, 3:] = rng.normal(size=(len(idx), 3))
    # member 0 has no position variance and member 5 a zero row: with r == 0
    # their innovation variance is zero and both are skipped
    H[3] = 0.0
    innov = rng.normal(size=len(idx)) if with_innov else None
    skipped = [[] for _ in range(8)]
    applied = planner._scalar_update(P, x, idx, H, r, innov, skipped, 7, "uwb")
    want_skips = [0, 5] if r == 0.0 else []
    assert all(s == [(7, "uwb", "innovation variance not positive")]
               for s in skipped if s)
    check_update(lambda b, i: dense_joseph(P0[b], H[i][None], np.array([[r]])),
                 P, x, P0, x0, idx, innov, applied, skipped, want_skips)


@pytest.mark.parametrize("with_innov", [False, True])
def test_vector_kernel_matches_dense_joseph(with_innov):
    check_vector_kernel(with_innov, identity=False)


@pytest.mark.parametrize("with_innov", [False, True])
def test_vector_kernel_with_identity_jacobian_matches_dense_joseph(with_innov):
    check_vector_kernel(with_innov, identity=True)


def check_vector_kernel(with_innov, identity):
    rng = np.random.default_rng(22)
    P, x = random_members(rng, 8)
    if identity:
        # with H = I, member 4 needs no position variance for S = Reff
        P[4, 3:, :] = P[4, :, 3:] = 0.0
    P0, x0 = P.copy(), x.copy()
    idx = np.array([0, 1, 3, 4, 6, 7])
    # camera-like (I - z z') / d and lidar-like I position blocks, or the
    # lidar's identity for every member, passed as None
    z = rng.normal(size=(len(idx), 3))
    z /= np.linalg.norm(z, axis=1)[:, None]
    Hr = (np.eye(3) - z[:, :, None] * z[:, None, :]) / rng.uniform(1.0, 10.0, len(idx))[:, None, None]
    Hr[::2] = np.eye(3)
    if identity:
        Hr[:] = np.eye(3)
    scale = rng.uniform(1.0, 5.0, len(idx))
    R = 1e-2 * np.eye(3)
    Reff = scale[:, None, None] * R
    rmin = scale * 1e-2
    # member 0 with no position variance and no noise has S == 0; member 4
    # gets noise so anisotropic that S is worse conditioned than the limit
    Reff[0] = 0.0
    rmin[0] = 0.0
    if not identity:
        Hr[3] = 0.0
    Reff[3] = np.diag([1.0, 1.0, 1e-13])
    rmin[3] = 1e-13
    innov = rng.normal(size=(len(idx), 3)) if with_innov else None
    skipped = [[] for _ in range(8)]
    applied = planner._vector_update(P, x, idx, None if identity else Hr, Reff, rmin,
                                     innov, skipped, 9, "cam")
    H = np.zeros((len(idx), 3, 6))
    H[:, :, 3:] = Hr
    want_skips = []
    for i, b in enumerate(idx.tolist()):
        eig = np.linalg.eigvalsh(H[i] @ P0[b] @ H[i].T + Reff[i])
        if not (eig[0] > 0.0 and eig[-1] / eig[0] <= ekf.CONDITION_LIMIT):
            want_skips.append(b)
    assert want_skips == [0, 4]
    assert all(s == [(9, "cam", "innovation covariance singular")] for s in skipped if s)
    check_update(lambda b, i: dense_joseph(P0[b], H[i], Reff[i]),
                 P, x, P0, x0, idx, innov, applied, skipped, want_skips)


# ---------------------------------------------------------------------------
# replay of several runs in one batch against the scalar filter


def scalar_replay(truth, readings, rates, noise, att):
    """Per-step oracle.predict and oracle.*_update, pinning the commanded velocity
    at sensor ticks, this run's own turns and the last step. Returns the
    estimated positions, pec, update counts and skips."""
    nom = truth.commanded
    n = nom.steps
    table = rates.fire_table(n)
    bounds = set(np.flatnonzero(table["alt"] | table["uwb"] | table["cam"] | table["lidar"]).tolist())
    bounds |= set((np.flatnonzero(np.any(nom.vel[1:] != nom.vel[:-1], axis=1)) + 1).tolist())
    bounds.add(n)
    by_step = {}
    for reading in oracle.readings_in_order(readings):
        by_step.setdefault(reading[0], []).append(reading[1:])
    update = {
        "alt": lambda b, z, _: oracle.altimeter_update(b, z, att, noise),
        "uwb": lambda b, z, _: oracle.uwb_update(b, z, noise),
        "cam": lambda b, z, _: oracle.camera_update(b, z, noise),
        "lidar": lambda b, z, gamma: oracle.lidar_update(b, z, noise, gamma),
    }
    b = ekf.BeliefState(x=np.concatenate([nom.vel[0], nom.pos[0]]), P=np.eye(6))
    est, pec = np.empty((n, 3)), np.empty(n)
    counts = dict.fromkeys(update, 0)
    skipped = []
    for k in range(1, n + 1):
        b = oracle.predict(b, noise)
        if k in bounds:
            b.x[:3] = nom.vel[min(k, n - 1)]
        for sensor, z, gamma in by_step.get(k, ()):
            try:
                b = update[sensor](b, z, gamma)
                counts[sensor] += 1
            except FilterSingularityError:
                skipped.append((k, sensor))
        est[k - 1] = b.x[3:]
        pec[k - 1] = np.linalg.eigvalsh(b.P[3:, 3:])[-1]
    return est, pec, counts, skipped


# a triangle with one leg close to the camera's horizon
TRIANGLE = np.array([[1.5, 0.0, -1.5], [6.0, 2.5, -0.35], [9.0, -2.0, -0.5]])


def near_horizon_runs():
    """Two runs each of a triangle flown both ways, replayed in one batch.

    One leg runs close to the camera's horizon, so truth and estimate fall
    on different sides of the elevation guard now and then.
    """
    env = open_env()
    nodes = TRIANGLE
    lengths = [float(np.linalg.norm(nodes[i] - nodes[j])) for i, j in ((0, 1), (1, 2), (2, 0))]
    g = roadmap.RoadmapGraph(nodes=nodes, source=0, edges=[
        roadmap.Edge(0, 1, lengths[0]), roadmap.Edge(1, 2, lengths[1]),
        roadmap.Edge(2, 0, lengths[2])])
    total = sum(lengths)
    forward = circuits.Circuit(nodes=[0, 1, 2, 0], edge_refs=[(0, 0), (1, 0), (2, 0)],
                               length=total, flight_time=total / 0.5)
    backward = circuits.Circuit(nodes=[0, 2, 1, 0], edge_refs=[(2, 0), (1, 0), (0, 0)],
                                length=total, flight_time=total / 0.5)
    kin, rates, noise = planner.KinematicProfile(), planner.RateSchedule(), ekf.NoiseConfig()
    records = montecarlo.run_trial_sets(
        [(forward, 0), (backward, 1)], g, env, kin, rates, noise,
        master_seed=3, sim=config.SimulateSection(runs=2, dropout=0.2, outlier_prob=0.05))
    return [rec for recs in records for rec in recs], kin, rates, noise


def test_batched_replay_matches_scalar_filter():
    runs, kin, rates, noise = near_horizon_runs()
    turns = [tuple(np.flatnonzero(np.any(np.diff(r.truth.commanded.vel, axis=0), axis=1)))
             for r in runs]
    assert turns[0] != turns[2]

    horizon_skips = 0
    for rec in runs:
        est, pec, counts, skipped = scalar_replay(rec.truth, rec.readings, rates, noise,
                                                  kin.attitude)
        res = rec.result
        assert np.abs(res.est - est).max() < 1e-8
        assert np.abs(res.pec / pec - 1.0).max() < 1e-9
        assert (res.alt_updates, res.uwb_updates, res.cam_updates, res.lidar_updates) == (
            counts["alt"], counts["uwb"], counts["cam"], counts["lidar"])
        assert [s[:2] for s in res.skipped] == skipped
        horizon_skips += sum(1 for _, sensor, why in res.skipped
                             if sensor == "cam" and "horizon" in why)
    assert horizon_skips >= 1


# ---------------------------------------------------------------------------
# a batch against each of its members alone


def assert_same_result(got, want):
    """Bitwise the same engine outputs."""
    assert np.array_equal(got.pec, want.pec)
    assert (got.est is None) == (want.est is None)
    assert got.est is None or np.array_equal(got.est, want.est)
    assert np.array_equal(got.cam_fired, want.cam_fired)
    assert np.array_equal(got.lidar_fired, want.lidar_fired)
    counts = ("alt_updates", "uwb_updates", "cam_updates", "lidar_updates")
    assert [getattr(got, c) for c in counts] == [getattr(want, c) for c in counts]
    assert got.skipped == want.skipped


def offered_shares(offered):
    """Whether some tick offers a sensor to every member, and whether some
    offers it to only part of them."""
    counts = np.concatenate([o.sum(axis=0) for o in offered.values()])
    B = len(next(iter(offered.values())))
    return bool((counts == B).any()), bool(((counts > 0) & (counts < B)).any())


def tunnel_candidates(tunnel):
    """Six candidates over one small roadmap of the shipped tunnel: their
    step count, polylines and models."""
    pts = roadmap.sample_nodes(tunnel, 8, np.random.default_rng(5))
    g = roadmap.eulerize(roadmap.connect_knn(pts, 4, tunnel), tunnel)
    cands = circuits.generate_candidates(g, 6, np.random.default_rng(6), 0.5)
    kin, rates, noise = planner.KinematicProfile(), planner.RateSchedule(), ekf.NoiseConfig()
    lines = [planner.Polyline.of(c, g, kin.cruise, noise.ts) for c in cands]
    n = lines[0].steps
    assert all(line.steps == n for line in lines)
    ticks = planner.sensor_ticks(rates.fire_table(n))
    # the camera's gate splits the candidates at some ticks
    cam = rates.fire_table(n)["cam"][ticks] & tunnel.camera_sees_many(
        planner._positions(lines, ticks).reshape(-1, 3)).reshape(len(cands), -1)
    assert offered_shares({"cam": cam}) == (True, True)
    return n, lines, kin, rates, noise


def test_planning_batch_equals_each_candidate_alone(tunnel):
    _, lines, kin, rates, noise = tunnel_candidates(tunnel)
    batch = planner.run_batch(rates, noise, kin.attitude, lines, env=tunnel)
    for b in range(len(lines)):
        alone = planner.run_batch(rates, noise, kin.attitude, lines[b:b + 1], env=tunnel)[0]
        assert_same_result(batch[b], alone)


def test_replay_batch_equals_each_run_alone():
    # two circuits that turn at different steps, two runs each
    runs, kin, rates, noise = near_horizon_runs()
    n = runs[0].truth.commanded.steps
    ticks = planner.sensor_ticks(rates.fire_table(n))
    laid = planner._tick_rows([rec.readings for rec in runs], n, ticks)
    offered = {sensor: np.zeros((len(runs), len(ticks)), dtype=bool)
               for sensor in planner.SENSOR_ORDER}
    for sensor, (tick, member, _, _) in laid.items():
        offered[sensor][member, tick] = True
    assert offered_shares(offered) == (True, True)
    assert any(rec.result.skipped for rec in runs)
    for rec in runs:
        alone = montecarlo.replay_runs([rec.truth], [rec.readings], rates, noise,
                                       kin.attitude)[0]
        assert_same_result(rec.result, alone)


def mixed_length_circuits():
    """The near-horizon triangle flown both ways and two out-and-backs of
    other lengths, interleaved: their graph, circuits and open map."""
    g = roadmap.RoadmapGraph(nodes=TRIANGLE, source=0, edges=[
        roadmap.Edge(i, j, float(np.linalg.norm(TRIANGLE[i] - TRIANGLE[j])), 2)
        for i, j in ((0, 1), (1, 2), (2, 0))])

    def circuit(path, refs):
        length = sum(g.edges[k].length for k, _ in refs)
        return circuits.Circuit(nodes=path, edge_refs=refs, length=length,
                                flight_time=length / 0.5)

    return g, [circuit([0, 1, 2, 0], [(0, 0), (1, 0), (2, 0)]),
               circuit([0, 1, 0], [(0, 0), (0, 1)]),
               circuit([0, 2, 1, 0], [(2, 0), (1, 0), (0, 0)]),
               circuit([0, 2, 0], [(2, 0), (2, 1)])], open_env()


def test_mixed_length_batch_equals_each_member_alone():
    g, cands, env = mixed_length_circuits()
    kin, rates, noise = planner.KinematicProfile(), planner.RateSchedule(), ekf.NoiseConfig()
    lines = [planner.Polyline.of(c, g, kin.cruise, noise.ts) for c in cands]
    steps = [line.steps for line in lines]
    # three step counts, not in ascending order
    assert len(set(steps)) == 3 and steps != sorted(steps)
    batch = planner.run_batch(rates, noise, kin.attitude, lines, env=env)
    for line, res in zip(lines, batch, strict=True):
        assert len(res.pec) == line.steps
        assert_same_result(res, planner.run_batch(rates, noise, kin.attitude, [line],
                                                  env=env)[0])

    # replay: every run of every circuit in one batch (run_trial_sets)
    sets = montecarlo.run_trial_sets(
        [(c, i) for i, c in enumerate(cands)], g, env, kin, rates, noise, master_seed=3,
        sim=config.SimulateSection(runs=2, dropout=0.2, outlier_prob=0.05))
    records = [rec for recs in sets for rec in recs]
    assert [len(rec.result.pec) for rec in records] == [k for k in steps for _ in range(2)]
    for rec in records:
        alone = montecarlo.replay_runs([rec.truth], [rec.readings], rates, noise,
                                       kin.attitude)[0]
        assert_same_result(rec.result, alone)


def test_empty_batch_returns_no_results():
    rates, noise = planner.RateSchedule(), ekf.NoiseConfig()
    assert planner.run_batch(rates, noise, ekf.Attitude(), [], env=open_env()) == []
    assert montecarlo.replay_runs([], [], rates, noise, ekf.Attitude()) == []


def guard_batch():
    """Hovers on the uwb and camera guard boundaries beside two that pass
    every guard: their positions, rates, noise and open map."""
    points = [AT_MIN_RANGE, np.array([4.0, 1.0, -2.0]), AT_MIN_ELEVATION,
              np.array([6.0, -1.0, -3.0])]
    return [hover(p) for p in points], planner.RateSchedule(), ekf.NoiseConfig(), open_env()


def test_planning_batch_with_guard_refusals_equals_each_member_alone():
    noms, rates, noise, env = guard_batch()
    batch = planner.run_batch(rates, noise, ekf.Attitude(), noms, env=env)
    # the boundary members are refused at ticks where the others update
    assert [sorted({s[1] for s in res.skipped}) for res in batch] == [["uwb"], [], ["cam"], []]
    assert all(res.uwb_updates and res.cam_updates for res in batch[1::2])
    for b, res in enumerate(batch):
        assert_same_result(res, planner.run_batch(rates, noise, ekf.Attitude(), noms[b:b + 1],
                                                  env=env)[0])


def test_replay_batch_with_guard_refusals_equals_each_member_alone():
    noms, rates, noise, env = guard_batch()
    att = ekf.Attitude()
    truths, runs = [], []
    for nom in noms:
        truth = montecarlo.TruthTrajectory(pos=nom.pos.copy(), commanded=nom)
        readings = montecarlo.synthesize_measurements(truth, env, rates, noise, att,
                                                      np.random.default_rng(0), mode="perfect")
        # a reading of each guarded sensor at one tick, in place of any the
        # flight delivered there, which the guard refuses at the boundary
        # estimates and passes at the others
        point = nom.pos[0]
        d = float(np.linalg.norm(point))
        for sensor, z in (("uwb", d), ("cam", point / d)):
            r = readings[sensor]
            keep = r.steps != 5
            readings[sensor] = montecarlo.SensorReadings(
                *(None if a is None else a[keep] for a in r))
            readings = with_readings(readings, sensor, [5], z)
        truths.append(truth)
        runs.append(readings)
    batch = montecarlo.replay_runs(truths, runs, rates, noise, att)
    refused = [sorted({s[1] for s in res.skipped if s[0] == 5}) for res in batch]
    # the camera's range guard also refuses the estimate at AT_MIN_RANGE
    assert refused == [["cam", "uwb"], [], ["cam"], []]
    for truth, readings, res in zip(truths, runs, batch):
        assert_same_result(res, montecarlo.run_online_ekf(truth, readings, rates, noise, att))


# ---------------------------------------------------------------------------
# update lists built in blocks of any size


@pytest.mark.parametrize("ticks", [1, 7])
def test_update_list_blocks_do_not_change_the_bits(tunnel, monkeypatch, ticks):
    """Blocks of one tick and of a few against one block of all ticks, in
    planning and in replay."""
    n, lines, _, _, _ = tunnel_candidates(tunnel)
    runs, kin, rates, noise = near_horizon_runs()
    truths, readings = [rec.truth for rec in runs], [rec.readings for rec in runs]
    all_ticks = max(len(planner.sensor_ticks(rates.fire_table(steps)))
                    for steps in (n, truths[0].commanded.steps))
    results = {}
    for size in (all_ticks, ticks):
        monkeypatch.setattr(planner, "_LIST_TICKS", size)
        results[size] = (
            planner.run_batch(rates, noise, kin.attitude, lines, env=tunnel)
            + montecarlo.replay_runs(truths, readings, rates, noise, kin.attitude))
    for got, want in zip(results[ticks], results[all_ticks], strict=True):
        assert_same_result(got, want)


# ---------------------------------------------------------------------------
# a batch split across worker processes against the serial sweep


@pytest.fixture
def split(monkeypatch):
    """Split every batch across three CPUs; returns the worker counts used."""
    monkeypatch.setattr(planner, "_SPLIT_MEMBERS", 0)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
    used = []
    process_count = planner._process_count

    def counted(B):
        used.append(process_count(B))
        return used[-1]

    monkeypatch.setattr(planner, "_process_count", counted)
    return used


def test_split_planning_equals_serial(tunnel, split):
    _, lines, kin, rates, noise = tunnel_candidates(tunnel)
    got = planner.run_batch(rates, noise, kin.attitude, lines, env=tunnel)
    assert split == [3] and not multiprocessing.active_children()
    split.clear()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(planner, "_SPLIT_MEMBERS", 10**12)
        want = planner.run_batch(rates, noise, kin.attitude, lines, env=tunnel)
    assert split == [1]
    for g, w in zip(got, want, strict=True):
        assert_same_result(g, w)


def test_split_replay_equals_serial(split):
    # built serially: near_horizon_runs() replays its runs before the split
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(planner, "_SPLIT_MEMBERS", 10**12)
        runs, kin, rates, noise = near_horizon_runs()
    split.clear()
    got = montecarlo.replay_runs([rec.truth for rec in runs], [rec.readings for rec in runs],
                                 rates, noise, kin.attitude)
    # four runs on three CPUs: chunks of one, one and two members
    assert split == [3] and not multiprocessing.active_children()
    for g, rec in zip(got, runs, strict=True):
        assert_same_result(g, rec.result)


def failing_altimeter(where):
    """An altimeter model that fails in the calling process or in a worker."""
    caller = os.getpid()
    altimeter = ekf.altimeter

    def model(r, att):
        if (os.getpid() == caller) == (where == "caller"):
            if where == "worker exits":
                os._exit(3)
            raise ValueError("altimeter failed")
        return altimeter(r, att)

    return model


@pytest.mark.parametrize("where, error", [("caller", ValueError), ("worker", ValueError),
                                          ("worker exits", RuntimeError)])
def test_split_failure_leaves_no_worker(split, monkeypatch, where, error):
    runs, kin, rates, noise = near_horizon_runs()
    monkeypatch.setattr(ekf, "altimeter", failing_altimeter(where))
    with pytest.raises(error, match="altimeter failed|exit code 3"):
        montecarlo.replay_runs([rec.truth for rec in runs], [rec.readings for rec in runs],
                               rates, noise, kin.attitude)
    assert split[-1] == 3
    assert not multiprocessing.active_children()


def test_caller_sweeps_a_chunk_whose_worker_cannot_start(split, monkeypatch):
    runs, kin, rates, noise = near_horizon_runs()
    fork = os.fork
    forks = []

    def second_fork_fails():
        forks.append(len(forks))
        if len(forks) == 2:
            raise BlockingIOError(errno.EAGAIN, "Resource temporarily unavailable")
        return fork()

    monkeypatch.setattr(os, "fork", second_fork_fails)
    got = montecarlo.replay_runs([rec.truth for rec in runs], [rec.readings for rec in runs],
                                 rates, noise, kin.attitude)
    assert forks == [0, 1] and not multiprocessing.active_children()
    for g, rec in zip(got, runs, strict=True):
        assert_same_result(g, rec.result)


def test_one_cpu_starts_no_process(split, monkeypatch):
    runs, kin, rates, noise = near_horizon_runs()
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    split.clear()

    def no_fork():
        raise AssertionError("a process was started")

    monkeypatch.setattr(os, "fork", no_fork)
    got = montecarlo.replay_runs([rec.truth for rec in runs], [rec.readings for rec in runs],
                                 rates, noise, kin.attitude)
    assert split == [1]
    for g, rec in zip(got, runs, strict=True):
        assert_same_result(g, rec.result)


# ---------------------------------------------------------------------------
# planning against zero-jitter perfect replay on random maps


@st.composite
def random_flights(draw):
    """An open map with up to three random boxes, a rig with a random lidar
    pitch and half-angle, and a closed flight through 2-3 random waypoints."""
    corner = st.tuples(st.floats(-12.0, 10.0), st.floats(-5.0, 4.0), st.floats(-7.5, -1.0))
    size = st.tuples(*[st.floats(0.2, 3.0)] * 3)
    boxes = [mapenv.BoxObstacle(lo, np.add(lo, extent))
             for lo, extent in draw(st.lists(st.tuples(corner, size), max_size=3))]
    rig = mapenv.UgvRig(lidar_pitch=math.radians(draw(st.floats(0.0, 60.0))),
                        lidar_halfangle=math.radians(draw(st.floats(5.0, 40.0))))
    env = mapenv.EnvironmentMap(bounds_min=[-15.0, -6.0, -8.0], bounds_max=[15.0, 6.0, 0.0],
                                obstacles=boxes, rig=rig)
    waypoint = st.tuples(st.floats(-10.0, 10.0), st.floats(-5.0, 5.0), st.floats(-6.0, -0.3))
    wp = np.array(draw(st.lists(waypoint, min_size=2, max_size=3)))
    assume(np.linalg.norm(np.diff(wp, axis=0, append=wp[:1]), axis=1).min() > 0.5)
    circuit = SimpleNamespace(nodes=list(range(len(wp))) + [0])
    return env, planner.build_nominal_trajectory(circuit, SimpleNamespace(nodes=wp), 2.0, 0.02)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(flight=random_flights())
def test_planning_predicts_the_readings_a_flight_delivers(flight):
    """Planning and synthesis share one rule for where a sensor reads, so a
    zero-jitter flight replays exactly the updates planning predicted."""
    env, nom = flight
    rates, noise, att = planner.RateSchedule(), ekf.NoiseConfig(), ekf.Attitude()
    planned = planner.run_batch(rates, noise, att, [nom], env=env)[0]
    truth = montecarlo.simulate_truth(nom, np.random.default_rng(0), cross_track_sigma=0.0,
                                      speed_sigma=0.0)
    readings = montecarlo.synthesize_measurements(truth, env, rates, noise, att,
                                                  np.random.default_rng(1), mode="perfect")
    replayed = montecarlo.run_online_ekf(truth, readings, rates, noise, att)
    assert np.array_equal(planned.cam_fired, replayed.cam_fired)
    assert np.array_equal(planned.lidar_fired, replayed.lidar_fired)
    for sensor in planner.SENSOR_ORDER:
        assert getattr(planned, f"{sensor}_updates") == getattr(replayed, f"{sensor}_updates")
    assert np.abs(planned.pec - replayed.pec).max() <= 1e-6
