"""Tests for truth synthesis, measurement replay, and run statistics."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle
from test_engine import assert_same_result, with_readings
from tunnelplan import circuits, config, ekf, mapenv, montecarlo, planner, roadmap
from tunnelplan.errors import CovarianceOverflowError


def empty_env(bounds_max=(20.0, 5.0, 0.0), rig=None):
    return mapenv.EnvironmentMap(
        bounds_min=[-20.0, -5.0, -8.0],
        bounds_max=list(bounds_max),
        rig=rig if rig is not None else mapenv.UgvRig(),
    )


def out_and_back(a, b):
    nodes = np.array([a, b], dtype=float)
    length = float(np.linalg.norm(nodes[1] - nodes[0]))
    g = roadmap.RoadmapGraph(
        nodes=nodes, edges=[roadmap.Edge(0, 1, length, multiplicity=2)], source=0
    )
    c = circuits.random_euler_circuit(g, np.random.default_rng(0))
    return g, c


def tunnel_fixture(tunnel, graph_seed=5, circuit_seed=6, nodes=8, knn=4):
    pts = roadmap.sample_nodes(tunnel, nodes, np.random.default_rng(graph_seed))
    g = roadmap.eulerize(roadmap.connect_knn(pts, knn, tunnel), tunnel)
    c = circuits.random_euler_circuit(g, np.random.default_rng(circuit_seed))
    return g, c


# ---------------------------------------------------------------------------
# Gauss-Markov generator


class TestGaussMarkov:
    def test_stationary_std(self):
        rng = np.random.default_rng(1)
        series = montecarlo._gauss_markov(200_000, 0.02, 2.0, 0.3, rng)
        assert series.std() == pytest.approx(0.3, rel=0.05)

    def test_autocorrelation_time(self):
        rng = np.random.default_rng(2)
        ts, tau = 0.02, 2.0
        series = montecarlo._gauss_markov(400_000, ts, tau, 1.0, rng)
        lag = int(round(tau / ts))
        a = series[:-lag] - series.mean()
        b = series[lag:] - series.mean()
        rho = float((a * b).mean() / series.var())
        assert rho == pytest.approx(math.exp(-1.0), abs=0.05)

    def test_zero_sigma_is_identically_zero(self):
        rng = np.random.default_rng(3)
        series = montecarlo._gauss_markov(1000, 0.02, 2.0, 0.0, rng)
        assert np.all(series == 0.0)

    def test_matches_float64_recurrence_bitwise(self):
        ts, tau, sigma = 0.02, 2.0, 0.3
        draws = np.random.default_rng(4).standard_normal(5000)
        phi = math.exp(-ts / tau)
        drive = sigma * math.sqrt(1.0 - phi * phi)
        want = np.empty(len(draws))
        want[0] = sigma * draws[0]
        for k in range(1, len(draws)):
            want[k] = phi * want[k - 1] + drive * draws[k]
        got = montecarlo._gauss_markov(len(draws), ts, tau, sigma, np.random.default_rng(4))
        assert np.array_equal(got, want)


# ---------------------------------------------------------------------------
# truth trajectories


class TestSimulateTruth:
    def test_zero_jitter_reproduces_nominal_bitwise(self, tunnel):
        g, c = tunnel_fixture(tunnel)
        nom = planner.build_nominal_trajectory(c, g, 0.5, 0.02)
        truth = montecarlo.simulate_truth(nom, np.random.default_rng(4),
                                          cross_track_sigma=0.0, speed_sigma=0.0)
        assert np.array_equal(truth.pos, nom.pos)

    def test_cross_track_perpendicular_on_straight_leg(self):
        g, c = out_and_back([0.0, 0.0, -2.0], [15.0, 0.0, -2.0])
        nom = planner.build_nominal_trajectory(c, g, 0.5, 0.02)
        truth = montecarlo.simulate_truth(nom, np.random.default_rng(5),
                                          cross_track_sigma=0.3, speed_sigma=0.0)
        # with no along-track noise the offset lives in the (e, d) plane
        offsets = truth.pos - nom.pos
        assert np.abs(offsets[:, 0]).max() < 1e-9
        assert np.abs(offsets[:, 1:]).max() > 1e-3

    def test_offset_magnitude_plausible(self, tunnel):
        g, c = tunnel_fixture(tunnel)
        nom = planner.build_nominal_trajectory(c, g, 0.5, 0.02)
        truth = montecarlo.simulate_truth(nom, np.random.default_rng(6),
                                          cross_track_sigma=0.3, speed_sigma=0.05)
        offsets = np.linalg.norm(truth.pos - nom.pos, axis=1)
        assert offsets.max() < 6 * 0.5
        assert offsets.std() > 0.05

    def test_deterministic(self, tunnel):
        g, c = tunnel_fixture(tunnel)
        nom = planner.build_nominal_trajectory(c, g, 0.5, 0.02)
        a = montecarlo.simulate_truth(nom, np.random.default_rng(7))
        b = montecarlo.simulate_truth(nom, np.random.default_rng(7))
        assert np.array_equal(a.pos, b.pos)

    def test_identity_fields(self, tunnel):
        g, c = tunnel_fixture(tunnel)
        nom = planner.build_nominal_trajectory(c, g, 0.5, 0.02)
        truth = montecarlo.simulate_truth(nom, np.random.default_rng(8),
                                          circuit_index=3, run_index=9)
        assert truth.circuit_index == 3
        assert truth.run_index == 9
        assert truth.commanded is nom


# ---------------------------------------------------------------------------
# measurement synthesis


def straight_run_readings(mode="noisy", n_len=260.0, seed=10, dropout=0.0,
                          sigma=0.0, rates=None, outlier_prob=0.0, outlier_scale=10.0):
    env = empty_env(bounds_max=(300.0, 5.0, 0.0))
    g, c = out_and_back([3.0, 1.0, -2.0], [n_len, 1.0, -2.0])
    nom = planner.build_nominal_trajectory(c, g, 0.5, 0.02)
    truth = montecarlo.simulate_truth(nom, np.random.default_rng(seed),
                                      cross_track_sigma=sigma, speed_sigma=0.0)
    rates = rates or planner.RateSchedule()
    readings = montecarlo.synthesize_measurements(
        truth, env, rates, ekf.NoiseConfig(), ekf.Attitude(),
        np.random.default_rng(seed + 1), mode=mode, dropout=dropout,
        outlier_prob=outlier_prob, outlier_scale=outlier_scale)
    return env, truth, readings


def assert_same_readings(got, want):
    """Two runs' {sensor: SensorReadings} hold the same sensors and bits."""
    assert list(got) == list(want)
    for sensor in got:
        for a, b in zip(got[sensor], want[sensor], strict=True):
            assert (a is None and b is None) or np.array_equal(a, b), sensor


class TestSynthesis:
    def test_uwb_noise_variance(self):
        env, truth, readings = straight_run_readings(mode="noisy")
        r = readings["uwb"]
        errors = r.z - np.linalg.norm(truth.pos[r.steps], axis=1)
        assert len(errors) >= 10_000
        assert errors.var() == pytest.approx(0.01, rel=0.05)

    def test_perfect_mode_matches_truth_models(self):
        env, truth, readings = straight_run_readings(mode="perfect")
        for sensor, r in readings.items():
            pos = truth.pos[r.steps[::37]]
            d = np.linalg.norm(pos, axis=1)
            want = {"alt": -pos[:, 2], "uwb": d, "cam": pos / d[:, None], "lidar": pos}[sensor]
            assert len(pos), sensor
            assert np.allclose(r.z[::37], want, rtol=0.0, atol=1e-12), sensor

    def test_perfect_mode_factors_no_covariance(self):
        # exact readings take no draws, so a singular noise covariance is
        # never factored
        env = empty_env()
        g, c = out_and_back([3.0, 1.0, -2.0], [12.0, 1.0, -2.0])
        nom = planner.build_nominal_trajectory(c, g, 0.5, 0.02)
        truth = montecarlo.simulate_truth(nom, np.random.default_rng(1))
        noise = ekf.NoiseConfig(r_cam=np.zeros((3, 3)), r_lidar=np.zeros((3, 3)))
        readings = montecarlo.synthesize_measurements(
            truth, env, planner.RateSchedule(), noise, ekf.Attitude(),
            np.random.default_rng(2), mode="perfect")
        assert [sensor for sensor, r in readings.items() if len(r.steps)] == [
            "alt", "uwb", "cam", "lidar"]

    @pytest.mark.parametrize("r_lidar, exact_axes", [
        (np.zeros((3, 3)), [0, 1, 2]),
        (np.diag([0.0225, 0.0225, 0.0]), [2]),
    ], ids=["exact", "exact_down"])
    def test_noisy_mode_reads_exact_axes_exactly(self, r_lidar, exact_axes):
        # a semi-definite covariance has a square root if not a Cholesky
        # factor; noise draws leave the axes it does not span at the truth
        env = empty_env()
        g, c = out_and_back([3.0, 1.0, -2.0], [12.0, 1.0, -2.0])
        nom = planner.build_nominal_trajectory(c, g, 0.5, 0.02)
        truth = montecarlo.simulate_truth(nom, np.random.default_rng(1))
        noise = ekf.NoiseConfig(r_lidar=r_lidar)
        lidar = {}
        for mode in ("perfect", "noisy"):
            lidar[mode] = montecarlo.synthesize_measurements(
                truth, env, planner.RateSchedule(), noise, ekf.Attitude(),
                np.random.default_rng(2), mode=mode)["lidar"].z
        assert len(lidar["noisy"]) > 10 and lidar["noisy"].shape == lidar["perfect"].shape
        residual = lidar["noisy"] - lidar["perfect"]
        assert np.abs(residual[:, exact_axes]).max() < 1e-12
        assert np.all(np.delete(residual, exact_axes, axis=1) != 0.0)

    @pytest.mark.parametrize("options, message", [
        (dict(outlier_prob=1.5), "outlier_prob"),
        (dict(outlier_prob=-0.1), "outlier_prob"),
        (dict(outlier_prob=math.nan), "outlier_prob"),
        (dict(outlier_prob=0.1, outlier_scale=-3.0), "outlier_scale"),
        (dict(dropout=1.5), "dropout"),
    ])
    def test_out_of_range_arguments_rejected(self, options, message):
        with pytest.raises(ValueError, match=message):
            straight_run_readings(n_len=20.0, **options)

    def test_perfect_mode_ignores_outlier_probability(self):
        # no outlier is drawn, so the readings and their dropout draws are
        # those of a run without outliers
        _, _, clean = straight_run_readings(mode="perfect", dropout=0.3)
        _, _, readings = straight_run_readings(mode="perfect", dropout=0.3, outlier_prob=0.2)
        assert not any(r.outlier.any() for r in readings.values())
        assert any(r.dropped.any() for r in readings.values())
        assert_same_readings(readings, clean)

    @pytest.mark.parametrize("scale", [0.5, 10.0])
    def test_outlier_scales_the_noise_draw(self, scale):
        # every reading an outlier and the same draws: the residual against
        # the exact value grows by outlier_scale, camera values stay unit
        _, _, exact = straight_run_readings(mode="perfect")
        _, _, unit = straight_run_readings(outlier_prob=1.0, outlier_scale=1.0)
        _, _, scaled = straight_run_readings(outlier_prob=1.0, outlier_scale=scale)
        for sensor in planner.SENSOR_ORDER:
            ex, u, s = exact[sensor], unit[sensor], scaled[sensor]
            assert len(ex.steps), sensor
            assert np.array_equal(ex.steps, u.steps) and np.array_equal(ex.steps, s.steps)
            assert u.outlier.all() and s.outlier.all()
            if sensor == "cam":
                assert np.allclose(ekf.row_norms(s.z), 1.0, rtol=0.0, atol=1e-12)
                continue
            assert np.allclose(s.z - ex.z, scale * (u.z - ex.z), rtol=1e-9, atol=1e-12)

    def test_lidar_gating_matches_environment(self, tunnel):
        g, c = tunnel_fixture(tunnel)
        nom = planner.build_nominal_trajectory(c, g, 0.5, 0.02)
        truth = montecarlo.simulate_truth(nom, np.random.default_rng(11),
                                          cross_track_sigma=0.3)
        rates = planner.RateSchedule()
        readings = montecarlo.synthesize_measurements(
            truth, tunnel, rates, ekf.NoiseConfig(), ekf.Attitude(),
            np.random.default_rng(12))
        lidar_steps = set(readings["lidar"].steps.tolist())
        fire = rates.fire_steps(rates.lidar_hz, nom.steps)
        for k in range(1, nom.steps + 1, 97):
            if not fire[k]:
                continue
            assert (k in lidar_steps) == tunnel.lidar_sees_many([truth.pos[k]])[0], k

    def test_gamma_from_truth_range(self, tunnel):
        g, c = tunnel_fixture(tunnel)
        nom = planner.build_nominal_trajectory(c, g, 0.5, 0.02)
        truth = montecarlo.simulate_truth(nom, np.random.default_rng(13))
        lidar = montecarlo.synthesize_measurements(
            truth, tunnel, planner.RateSchedule(), ekf.NoiseConfig(), ekf.Attitude(),
            np.random.default_rng(14))["lidar"]
        model = ekf.LidarGammaModel()
        assert len(lidar.steps) > 10
        for step, gamma in zip(lidar.steps.tolist(), lidar.scale.tolist()):
            rng_true = float(np.linalg.norm(truth.pos[step] - tunnel.rig.position))
            assert gamma == pytest.approx(model.gamma(rng_true), rel=1e-12)

    @pytest.mark.parametrize("circuit_seed", [6, 9])
    @pytest.mark.parametrize("mode", ["noisy", "perfect"])
    @pytest.mark.parametrize("dropout", [0.0, 0.3])
    @pytest.mark.parametrize("outlier_prob", [0.0, 0.2])
    def test_matches_per_reading_oracle(self, tunnel, circuit_seed, mode, dropout,
                                        outlier_prob):
        g, c = tunnel_fixture(tunnel, circuit_seed=circuit_seed)
        nom = planner.build_nominal_trajectory(c, g, 0.5, 0.02)
        truth = montecarlo.simulate_truth(nom, np.random.default_rng(circuit_seed))
        args = (truth, tunnel, planner.RateSchedule(), ekf.NoiseConfig(), ekf.Attitude())
        options = dict(mode=mode, dropout=dropout, outlier_prob=outlier_prob)
        got_rng, want_rng = np.random.default_rng(15), np.random.default_rng(15)
        got = montecarlo.synthesize_measurements(*args, got_rng, **options)
        want = oracle.synthesize_measurements(*args, want_rng, **options)
        assert_same_readings(got, want)
        assert all(len(r.steps) for r in got.values())
        # both took the same draws, so both streams stand at one place
        assert got_rng.random() == want_rng.random()
        assert any(r.dropped.any() for r in got.values()) == (dropout > 0.0)
        assert any(r.outlier.any() for r in got.values()) == (
            mode == "noisy" and outlier_prob > 0.0)

    def test_lidar_noise_matches_its_covariance(self):
        # residuals over sqrt(gamma) are draws of the configured covariance,
        # off-diagonal terms included; bounds are five standard errors
        R = np.array([[0.0225, 0.009, 0.0], [0.009, 0.04, -0.006], [0.0, -0.006, 0.01]])
        noise = ekf.NoiseConfig(r_lidar=R)
        env = empty_env(bounds_max=(300.0, 5.0, 0.0))
        g, c = out_and_back([3.0, 1.0, -2.0], [260.0, 1.0, -2.0])
        nom = planner.build_nominal_trajectory(c, g, 0.5, 0.02)
        truth = montecarlo.simulate_truth(nom, np.random.default_rng(40))
        lidar = montecarlo.synthesize_measurements(
            truth, env, planner.RateSchedule(), noise, ekf.Attitude(),
            np.random.default_rng(41))["lidar"]
        assert len(lidar.steps) > 1000
        res = (lidar.z - truth.pos[lidar.steps]) / np.sqrt(lidar.scale)[:, None]
        assert np.ptp(lidar.scale) > 0.1
        cov = res.T @ res / len(res)
        d = np.diag(R)
        assert np.all(np.abs(cov - R) <= 5.0 * np.sqrt((np.outer(d, d) + R * R) / len(res)))

    def test_flag_fractions_per_sensor(self):
        dropout, outlier_prob = 0.3, 0.2
        _, _, readings = straight_run_readings(dropout=dropout, outlier_prob=outlier_prob)
        for sensor, r in readings.items():
            n = len(r.steps)
            assert n > 100, sensor
            for p, frac in ((dropout, r.dropped.mean()), (outlier_prob, r.outlier.mean())):
                # five standard deviations of a binomial fraction
                assert abs(frac - p) <= 5.0 * math.sqrt(p * (1.0 - p) / n), (sensor, p, frac)

    def test_dropout_flags(self):
        _, _, readings = straight_run_readings(mode="noisy", dropout=1.0)
        assert all(len(r.dropped) and r.dropped.all() for r in readings.values())
        _, _, readings = straight_run_readings(mode="noisy", dropout=0.0)
        assert not any(r.dropped.any() for r in readings.values())

    def test_deterministic(self):
        _, _, a = straight_run_readings(mode="noisy", seed=20)
        _, _, b = straight_run_readings(mode="noisy", seed=20)
        assert_same_readings(a, b)

    def test_altimeter_noise_variance(self):
        env, truth, readings = straight_run_readings(mode="noisy", seed=21)
        alt = readings["alt"]
        errs = alt.z + truth.pos[alt.steps, 2]
        assert errs.var() == pytest.approx(0.01, rel=0.10)


# ---------------------------------------------------------------------------
# replay


class TestReplay:
    def test_zero_jitter_perfect_replay_matches_plan(self, tunnel):
        g, c = tunnel_fixture(tunnel)
        kin = planner.KinematicProfile()
        rates = planner.RateSchedule()
        noise = ekf.NoiseConfig()
        plan = planner.propagate_paths([c], g, tunnel, kin, rates, noise)[0]

        nom = planner.build_nominal_trajectory(c, g, kin.cruise, noise.ts)
        truth = montecarlo.simulate_truth(nom, np.random.default_rng(30),
                                          cross_track_sigma=0.0, speed_sigma=0.0)
        readings = montecarlo.synthesize_measurements(
            truth, tunnel, rates, noise, kin.attitude,
            np.random.default_rng(31), mode="perfect", dropout=0.0)
        result = montecarlo.run_online_ekf(truth, readings, rates, noise, kin.attitude)
        assert len(result.pec) == len(plan.pec)
        assert np.abs(result.pec - plan.pec).max() < 1e-6
        assert np.abs(result.est - truth.pos[1:]).max() < 1e-6
        assert np.array_equal(result.cam_fired, plan.cam_fired)
        assert np.array_equal(result.lidar_fired, plan.lidar_fired)

    @pytest.mark.parametrize("step, dropped, message", [
        (0, False, "not a sensor tick"),
        (3, True, "not a sensor tick"),
        (10_000, False, "not a sensor tick"),
        (5, False, "two uwb events at step 5"),
    ])
    def test_replay_refuses_off_tick_and_repeated_events(self, step, dropped, message):
        _, truth, readings = straight_run_readings(mode="perfect", n_len=20.0)
        assert 5 in readings["uwb"].steps
        rates, noise = planner.RateSchedule(), ekf.NoiseConfig()
        with pytest.raises(ValueError, match=message):
            montecarlo.run_online_ekf(truth, with_readings(readings, "uwb", [step], [1.0],
                                                           dropped=dropped),
                                      rates, noise, ekf.Attitude())
        # a dropped reading may repeat an undropped one
        if step == 5:
            montecarlo.run_online_ekf(truth, with_readings(readings, "uwb", [step], [1.0],
                                                           dropped=True),
                                      rates, noise, ekf.Attitude())

    def test_replay_refuses_a_lidar_event_without_gamma(self):
        _, truth, readings = straight_run_readings(mode="perfect", n_len=20.0)
        assert len(readings["lidar"].steps)
        readings["lidar"] = readings["lidar"]._replace(scale=None)
        with pytest.raises(TypeError):
            montecarlo.run_online_ekf(truth, readings, planner.RateSchedule(),
                                      ekf.NoiseConfig(), ekf.Attitude())

    def test_flight_time_tracks_length(self, tunnel):
        g, c = tunnel_fixture(tunnel, graph_seed=9, circuit_seed=2)
        nom = planner.build_nominal_trajectory(c, g, 0.5, 0.02)
        truth = montecarlo.simulate_truth(nom, np.random.default_rng(32))
        readings = montecarlo.synthesize_measurements(
            truth, tunnel, planner.RateSchedule(), ekf.NoiseConfig(), ekf.Attitude(),
            np.random.default_rng(33))
        result = montecarlo.run_online_ekf(truth, readings, planner.RateSchedule(),
                                           ekf.NoiseConfig(), ekf.Attitude())
        assert abs(result.t[-1] - c.length / 0.5) < 0.02

    def test_all_dropped_equals_pure_prediction(self, tunnel):
        g, c = tunnel_fixture(tunnel)
        noise = ekf.NoiseConfig()
        nom = planner.build_nominal_trajectory(c, g, 0.5, noise.ts)
        truth = montecarlo.simulate_truth(nom, np.random.default_rng(36),
                                          cross_track_sigma=0.0, speed_sigma=0.0)
        readings = montecarlo.synthesize_measurements(
            truth, tunnel, planner.RateSchedule(), noise, ekf.Attitude(),
            np.random.default_rng(37), dropout=1.0)
        result = montecarlo.run_online_ekf(truth, readings, planner.RateSchedule(),
                                           noise, ekf.Attitude())
        assert result.alt_updates == 0
        assert result.lidar_updates == 0
        b0 = ekf.BeliefState(x=np.zeros(6), P=np.eye(6), t=0.0)
        _, blocks = ekf.predict_span(b0, noise, nom.steps)
        want = ekf.sym3_max(blocks)
        assert np.allclose(result.pec, want, rtol=1e-9)

    def test_noisy_errors_stay_bounded(self, tunnel):
        g, c = tunnel_fixture(tunnel)
        noise = ekf.NoiseConfig()
        nom = planner.build_nominal_trajectory(c, g, 0.5, noise.ts)
        truth = montecarlo.simulate_truth(nom, np.random.default_rng(38))
        readings = montecarlo.synthesize_measurements(
            truth, tunnel, planner.RateSchedule(), noise, ekf.Attitude(),
            np.random.default_rng(39), mode="noisy", dropout=0.1)
        result = montecarlo.run_online_ekf(truth, readings, planner.RateSchedule(),
                                           noise, ekf.Attitude())
        err = np.linalg.norm(result.est - truth.pos[1:], axis=1)
        assert np.isfinite(err).all()
        assert err.mean() < 50.0


# ---------------------------------------------------------------------------
# trial sets, and the readings on the tick axis


class TestTrialSets:
    def test_records_match_each_run_replayed_alone(self, tunnel):
        g, first = tunnel_fixture(tunnel, circuit_seed=6)
        _, second = tunnel_fixture(tunnel, circuit_seed=9)
        kin, rates, noise = planner.KinematicProfile(), planner.RateSchedule(), ekf.NoiseConfig()
        sim = config.SimulateSection(runs=2, dropout=0.2, outlier_prob=0.05)
        sets = montecarlo.run_trial_sets([(first, 0), (second, 1)], g, tunnel, kin, rates,
                                         noise, 8, sim)
        records = [rec for recs in sets for rec in recs]
        assert len(records) == 4
        for rec in records:
            _, meas_rng = montecarlo.run_seed_rngs(8, rec.truth.circuit_index,
                                                   rec.truth.run_index)
            readings = montecarlo.synthesize_measurements(
                rec.truth, tunnel, rates, noise, kin.attitude, meas_rng, dropout=sim.dropout,
                outlier_prob=sim.outlier_prob, outlier_scale=sim.outlier_scale)
            assert any(r.dropped.any() for r in readings.values())
            assert any(r.outlier.any() for r in readings.values())
            assert_same_readings(rec.readings, readings)
            want = montecarlo.run_online_ekf(rec.truth, readings, rates, noise, kin.attitude)
            assert_same_result(rec.result, want)
            assert rec.stats == dataclasses.replace(
                montecarlo.compute_stats(rec.truth, want, mode=sim.mode),
                dropped_events=sum(int(r.dropped.sum()) for r in readings.values()))


def empty_layout(n, rates):
    """One run's tick-axis tables with no reading: per sensor, (1, T) flags
    offered and values value, and the lidar's gamma."""
    shape = (1, len(planner.sensor_ticks(rates.fire_table(n))))
    return ({s: np.zeros(shape, dtype=bool) for s in planner.SENSOR_ORDER},
            {"alt": np.zeros(shape), "uwb": np.zeros(shape),
             "cam": np.zeros(shape + (3,)), "lidar": np.zeros(shape + (3,))},
            np.ones(shape))


def reading_layout(run, n, rates):
    """A run's undropped readings on the schedule's tick axis, one reading
    at a time, in empty_layout's tables."""
    col = {k: i for i, k in enumerate(planner.sensor_ticks(rates.fire_table(n)).tolist())}
    offered, value, gamma = empty_layout(n, rates)
    for step, sensor, z, scale in oracle.readings_in_order(run):
        offered[sensor][0, col[step]] = True
        value[sensor][0, col[step]] = z
        if sensor == "lidar":
            gamma[0, col[step]] = scale
    return offered, value, gamma


def tick_layout(run, n, rates):
    """A run's undropped readings where planner._tick_rows puts them, in
    empty_layout's tables."""
    offered, value, gamma = empty_layout(n, rates)
    laid = planner._tick_rows([run], n, planner.sensor_ticks(rates.fire_table(n)))
    for sensor, (tick, _, z, scale) in laid.items():
        offered[sensor][0, tick] = True
        value[sensor][0, tick] = z
        if sensor == "lidar":
            gamma[0, tick] = scale
    return offered, value, gamma


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(hz=st.tuples(*[st.floats(0.5, 50.0)] * 4), dropout=st.floats(0.0, 1.0),
       outlier_prob=st.floats(0.0, 1.0), seed=st.integers(0, 2**32 - 1))
def test_reading_arrays_lay_out_one_reading_at_a_time(hz, dropout, outlier_prob, seed):
    env = empty_env()
    g, c = out_and_back([3.0, 1.0, -2.0], [8.0, 1.0, -2.0])
    nom = planner.build_nominal_trajectory(c, g, 0.5, 0.02)
    truth = montecarlo.simulate_truth(nom, np.random.default_rng(seed))
    rates = planner.RateSchedule(**dict(zip(("alt_hz", "uwb_hz", "cam_hz", "lidar_hz"), hz)))
    noise, att = ekf.NoiseConfig(), ekf.Attitude()
    readings = montecarlo.synthesize_measurements(
        truth, env, rates, noise, att, np.random.default_rng(seed), mode="noisy",
        dropout=dropout, outlier_prob=outlier_prob, outlier_scale=10.0)
    n = nom.steps
    want = reading_layout(readings, n, rates)
    offered, value, gamma = tick_layout(readings, n, rates)
    for sensor in planner.SENSOR_ORDER:
        assert np.array_equal(offered[sensor], want[0][sensor])
        assert np.array_equal(value[sensor], want[1][sensor])
    assert np.array_equal(gamma, want[2])

    # a reading off the sensor ticks and two readings of one sensor at one
    # tick
    first = int(readings["uwb"].steps[0])
    for steps, message in (([0], "not a sensor tick"), ([n + 1], "not a sensor tick"),
                           ([first, first], f"two uwb events at step {first}")):
        with pytest.raises(ValueError, match=message):
            montecarlo.replay_runs([truth], [with_readings(readings, "uwb", steps,
                                                           np.ones(len(steps)))],
                                   rates, noise, att)


# ---------------------------------------------------------------------------
# statistics


def toy_run(err_rows, ts=0.02):
    """Build a truth/result pair whose position errors are exactly err_rows."""
    n = len(err_rows)
    pos = np.zeros((n + 1, 3))
    nom = planner.NominalTrajectory(pos=pos, vel=np.zeros((n, 3)), ts=ts, length=0.0)
    truth = montecarlo.TruthTrajectory(pos=pos, commanded=nom,
                                       circuit_index=0, run_index=0)
    est = pos[1:] + np.asarray(err_rows, dtype=float)
    result = planner.EngineResult(
        t=np.arange(1, n + 1) * ts, pec=np.full(n, 2.0),
        cam_fired=np.zeros(n, bool), lidar_fired=np.zeros(n, bool), est=est,
        alt_updates=4, uwb_updates=3, cam_updates=2, lidar_updates=1, skipped=[])
    return truth, result


class TestStats:
    def test_hand_computed_errors(self):
        truth, result = toy_run([[3.0, 0.0, 0.0], [0.0, 4.0, 0.0]])
        stats = montecarlo.compute_stats(truth, result, mode="perfect")
        assert stats.rms_n == pytest.approx(3.0 / math.sqrt(2.0))
        assert stats.rms_e == pytest.approx(4.0 / math.sqrt(2.0))
        assert stats.rms_d == 0.0
        assert stats.rms_3d == pytest.approx(math.sqrt(12.5))
        assert stats.err_mean == pytest.approx(3.5)
        assert stats.err_median == pytest.approx(3.5)
        assert stats.mpe == pytest.approx(4.0)
        assert stats.pec_total == pytest.approx(4.0)
        assert stats.pec_max == pytest.approx(2.0)
        assert stats.cam_updates == 2
        assert stats.flight_time == pytest.approx(0.04)

    def test_rms_3d_combines_axes(self):
        rng = np.random.default_rng(40)
        rows = rng.normal(size=(500, 3))
        truth, result = toy_run(rows)
        stats = montecarlo.compute_stats(truth, result, mode="noisy")
        combined = math.sqrt(stats.rms_n**2 + stats.rms_e**2 + stats.rms_d**2)
        assert stats.rms_3d == pytest.approx(combined, rel=1e-12)

    def test_empty_series(self):
        truth, result = toy_run(np.zeros((0, 3)))
        stats = montecarlo.compute_stats(truth, result, mode="perfect")
        assert stats.rms_3d == 0.0
        assert stats.mpe == 0.0

    def test_non_finite_pec_names_circuit_and_run(self):
        truth, result = toy_run([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        truth.circuit_index, truth.run_index = 7, 3
        result.pec[1] = np.nan
        with pytest.raises(CovarianceOverflowError,
                           match="circuit 7 run 3: replayed pec total nan is not finite"):
            montecarlo.compute_stats(truth, result, mode="noisy")

    def test_aggregate_fields(self):
        truth, r1 = toy_run([[1.0, 0.0, 0.0]])
        truth2, r2 = toy_run([[3.0, 0.0, 0.0]])
        s1 = montecarlo.compute_stats(truth, r1, mode="noisy")
        s2 = montecarlo.compute_stats(truth2, r2, mode="noisy")
        agg = montecarlo.aggregate_trials([s1, s2])
        assert agg["rms_3d_mean"] == pytest.approx(2.0)
        assert agg["rms_3d_median"] == pytest.approx(2.0)
        assert agg["mpe_mean"] == pytest.approx(2.0)
        assert agg["runs"] == 2

    def test_aggregate_empty_rejected(self):
        with pytest.raises(ValueError):
            montecarlo.aggregate_trials([])


# ---------------------------------------------------------------------------
# seed derivation


class TestSeeds:
    def test_repeatable(self):
        a1, b1 = montecarlo.run_seed_rngs(99, 2, 3)
        a2, b2 = montecarlo.run_seed_rngs(99, 2, 3)
        assert a1.integers(0, 2**32) == a2.integers(0, 2**32)
        assert b1.integers(0, 2**32) == b2.integers(0, 2**32)

    def test_distinct_streams(self):
        seen = set()
        for ci in range(3):
            for ri in range(3):
                a, b = montecarlo.run_seed_rngs(99, ci, ri)
                seen.add((int(a.integers(0, 2**63)), int(b.integers(0, 2**63))))
        assert len(seen) == 9
