"""Tests for truth synthesis, measurement replay, and run statistics."""

import math

import numpy as np
import pytest

import oracle
from tunnelplan import circuits, ekf, mapenv, montecarlo, planner, roadmap


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


def straight_run_events(mode="noisy", n_len=260.0, seed=10, dropout=0.0,
                        sigma=0.0, rates=None, outlier_prob=0.0, outlier_scale=10.0):
    env = empty_env(bounds_max=(300.0, 5.0, 0.0))
    g, c = out_and_back([3.0, 1.0, -2.0], [n_len, 1.0, -2.0])
    nom = planner.build_nominal_trajectory(c, g, 0.5, 0.02)
    truth = montecarlo.simulate_truth(nom, np.random.default_rng(seed),
                                      cross_track_sigma=sigma, speed_sigma=0.0)
    rates = rates or planner.RateSchedule()
    events = montecarlo.synthesize_measurements(
        truth, env, rates, ekf.NoiseConfig(), ekf.Attitude(),
        np.random.default_rng(seed + 1), mode=mode, dropout=dropout,
        outlier_prob=outlier_prob, outlier_scale=outlier_scale)
    return env, truth, events


class TestSynthesis:
    def test_uwb_noise_variance(self):
        env, truth, events = straight_run_events(mode="noisy")
        errors = []
        for ev in events:
            if ev.sensor != "uwb":
                continue
            d_true = float(np.linalg.norm(truth.pos[ev.step]))
            errors.append(ev.value - d_true)
        errors = np.array(errors)
        assert len(errors) >= 10_000
        assert errors.var() == pytest.approx(0.01, rel=0.05)

    def test_perfect_mode_matches_truth_models(self):
        env, truth, events = straight_run_events(mode="perfect")
        for ev in events[::37]:
            r = truth.pos[ev.step]
            d = float(np.linalg.norm(r))
            if ev.sensor == "uwb":
                assert ev.value == pytest.approx(d, abs=1e-12)
            elif ev.sensor == "alt":
                assert ev.value == pytest.approx(-r[2], abs=1e-12)
            elif ev.sensor == "cam":
                assert np.allclose(ev.value, r / d, atol=1e-12)
            elif ev.sensor == "lidar":
                assert np.allclose(ev.value, r, atol=1e-12)

    def test_perfect_mode_factors_no_covariance(self):
        # exact readings take no draws, so a singular noise covariance is
        # never factored
        env = empty_env()
        g, c = out_and_back([3.0, 1.0, -2.0], [12.0, 1.0, -2.0])
        nom = planner.build_nominal_trajectory(c, g, 0.5, 0.02)
        truth = montecarlo.simulate_truth(nom, np.random.default_rng(1))
        noise = ekf.NoiseConfig(r_cam=np.zeros((3, 3)), r_lidar=np.zeros((3, 3)))
        events = montecarlo.synthesize_measurements(
            truth, env, planner.RateSchedule(), noise, ekf.Attitude(),
            np.random.default_rng(2), mode="perfect")
        assert {ev.sensor for ev in events} == {"alt", "uwb", "cam", "lidar"}

    def test_perfect_mode_ignores_outlier_probability(self):
        # no outlier is drawn, so the events and their dropout draws are
        # those of a run without outliers
        _, _, clean = straight_run_events(mode="perfect", dropout=0.3)
        _, _, events = straight_run_events(mode="perfect", dropout=0.3, outlier_prob=0.2)
        assert not any(ev.outlier for ev in events)
        assert any(ev.dropped for ev in events)
        assert len(events) == len(clean)
        for ev, want in zip(events, clean):
            assert (ev.step, ev.sensor, ev.dropped) == (want.step, want.sensor, want.dropped)
            assert np.array_equal(ev.value, want.value)

    @pytest.mark.parametrize("scale", [0.5, 10.0])
    def test_outlier_scales_the_noise_draw(self, scale):
        # every reading an outlier and the same draws: the residual against
        # the exact value grows by outlier_scale, camera values stay unit
        _, _, exact = straight_run_events(mode="perfect")
        _, _, unit = straight_run_events(outlier_prob=1.0, outlier_scale=1.0)
        _, _, scaled = straight_run_events(outlier_prob=1.0, outlier_scale=scale)
        assert len(exact) == len(unit) == len(scaled)
        seen = set()
        for ex, u, s in zip(exact, unit, scaled):
            assert (ex.step, ex.sensor) == (u.step, u.sensor) == (s.step, s.sensor)
            assert u.outlier and s.outlier
            seen.add(s.sensor)
            if s.sensor == "cam":
                assert np.linalg.norm(s.value) == pytest.approx(1.0, abs=1e-12)
                continue
            residual = np.asarray(s.value) - ex.value
            assert np.allclose(residual, scale * (np.asarray(u.value) - ex.value),
                               rtol=1e-9, atol=1e-12)
        assert seen == {"alt", "uwb", "cam", "lidar"}

    def test_lidar_gating_matches_environment(self, tunnel):
        g, c = tunnel_fixture(tunnel)
        nom = planner.build_nominal_trajectory(c, g, 0.5, 0.02)
        truth = montecarlo.simulate_truth(nom, np.random.default_rng(11),
                                          cross_track_sigma=0.3)
        rates = planner.RateSchedule()
        events = montecarlo.synthesize_measurements(
            truth, tunnel, rates, ekf.NoiseConfig(), ekf.Attitude(),
            np.random.default_rng(12))
        lidar_steps = {ev.step for ev in events if ev.sensor == "lidar"}
        fire = rates.fire_steps(rates.lidar_hz, nom.steps)
        for k in range(1, nom.steps + 1, 97):
            if not fire[k]:
                continue
            assert (k in lidar_steps) == tunnel.lidar_sees(truth.pos[k]), k

    def test_gamma_from_truth_range(self, tunnel):
        g, c = tunnel_fixture(tunnel)
        nom = planner.build_nominal_trajectory(c, g, 0.5, 0.02)
        truth = montecarlo.simulate_truth(nom, np.random.default_rng(13))
        events = montecarlo.synthesize_measurements(
            truth, tunnel, planner.RateSchedule(), ekf.NoiseConfig(), ekf.Attitude(),
            np.random.default_rng(14))
        model = ekf.LidarGammaModel()
        checked = 0
        for ev in events:
            if ev.sensor != "lidar":
                continue
            rng_true = float(np.linalg.norm(truth.pos[ev.step] - tunnel.rig.position))
            assert ev.gamma == pytest.approx(model.gamma(rng_true), rel=1e-12)
            checked += 1
        assert checked > 10

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
        assert len(got) == len(want)
        assert {ev.sensor for ev in got} == {"alt", "uwb", "cam", "lidar"}
        for ev, ref in zip(got, want):
            assert (ev.step, ev.t, ev.sensor, ev.dropped, ev.outlier) == (
                ref.step, ref.t, ref.sensor, ref.dropped, ref.outlier)
            assert np.array_equal(ev.value, ref.value)
            assert ev.gamma == ref.gamma
        # both took the same draws, so both streams stand at one place
        assert got_rng.random() == want_rng.random()
        flags = [(ev.dropped, ev.outlier) for ev in got]
        assert any(d for d, _ in flags) == (dropout > 0.0)
        assert any(o for _, o in flags) == (mode == "noisy" and outlier_prob > 0.0)

    def test_lidar_noise_matches_its_covariance(self):
        # residuals over sqrt(gamma) are draws of the configured covariance,
        # off-diagonal terms included; bounds are five standard errors
        R = np.array([[0.0225, 0.009, 0.0], [0.009, 0.04, -0.006], [0.0, -0.006, 0.01]])
        noise = ekf.NoiseConfig(r_lidar=R)
        env = empty_env(bounds_max=(300.0, 5.0, 0.0))
        g, c = out_and_back([3.0, 1.0, -2.0], [260.0, 1.0, -2.0])
        nom = planner.build_nominal_trajectory(c, g, 0.5, 0.02)
        truth = montecarlo.simulate_truth(nom, np.random.default_rng(40))
        events = montecarlo.synthesize_measurements(
            truth, env, planner.RateSchedule(), noise, ekf.Attitude(),
            np.random.default_rng(41))
        lidar = [ev for ev in events if ev.sensor == "lidar"]
        assert len(lidar) > 1000
        res = np.array([(ev.value - truth.pos[ev.step]) / math.sqrt(ev.gamma) for ev in lidar])
        assert np.ptp([ev.gamma for ev in lidar]) > 0.1
        cov = res.T @ res / len(res)
        d = np.diag(R)
        assert np.all(np.abs(cov - R) <= 5.0 * np.sqrt((np.outer(d, d) + R * R) / len(res)))

    def test_flag_fractions_per_sensor(self):
        dropout, outlier_prob = 0.3, 0.2
        _, _, events = straight_run_events(dropout=dropout, outlier_prob=outlier_prob)
        for sensor in ("alt", "uwb", "cam", "lidar"):
            evs = [ev for ev in events if ev.sensor == sensor]
            n = len(evs)
            assert n > 100, sensor
            for p, frac in ((dropout, np.mean([ev.dropped for ev in evs])),
                            (outlier_prob, np.mean([ev.outlier for ev in evs]))):
                # five standard deviations of a binomial fraction
                assert abs(frac - p) <= 5.0 * math.sqrt(p * (1.0 - p) / n), (sensor, p, frac)

    def test_dropout_flags(self):
        env, truth, events = straight_run_events(mode="noisy", dropout=1.0)
        assert events
        assert all(ev.dropped for ev in events)
        env, truth, events = straight_run_events(mode="noisy", dropout=0.0)
        assert not any(ev.dropped for ev in events)

    def test_deterministic(self):
        _, _, a = straight_run_events(mode="noisy", seed=20)
        _, _, b = straight_run_events(mode="noisy", seed=20)
        assert len(a) == len(b)
        for ea, eb in zip(a, b):
            assert ea.sensor == eb.sensor and ea.step == eb.step
            assert np.array_equal(np.asarray(ea.value), np.asarray(eb.value))

    def test_altimeter_noise_variance(self):
        env, truth, events = straight_run_events(mode="noisy", seed=21)
        errs = np.array([ev.value - (-truth.pos[ev.step][2])
                         for ev in events if ev.sensor == "alt"])
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
        events = montecarlo.synthesize_measurements(
            truth, tunnel, rates, noise, kin.attitude,
            np.random.default_rng(31), mode="perfect", dropout=0.0)
        result = montecarlo.run_online_ekf(truth, events, rates, noise, kin.attitude)
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
        _, truth, events = straight_run_events(mode="perfect", n_len=20.0)
        assert any(ev.step == 5 and ev.sensor == "uwb" for ev in events)
        events.append(montecarlo.MeasurementEvent(step=step, t=step * 0.02, sensor="uwb",
                                                  value=1.0, dropped=dropped))
        rates, noise = planner.RateSchedule(), ekf.NoiseConfig()
        with pytest.raises(ValueError, match=message):
            montecarlo.run_online_ekf(truth, events, rates, noise, ekf.Attitude())
        # a dropped reading may repeat an undropped one
        if step == 5:
            events[-1].dropped = True
            montecarlo.run_online_ekf(truth, events, rates, noise, ekf.Attitude())

    def test_flight_time_tracks_length(self, tunnel):
        g, c = tunnel_fixture(tunnel, graph_seed=9, circuit_seed=2)
        nom = planner.build_nominal_trajectory(c, g, 0.5, 0.02)
        truth = montecarlo.simulate_truth(nom, np.random.default_rng(32))
        events = montecarlo.synthesize_measurements(
            truth, tunnel, planner.RateSchedule(), ekf.NoiseConfig(), ekf.Attitude(),
            np.random.default_rng(33))
        result = montecarlo.run_online_ekf(truth, events, planner.RateSchedule(),
                                           ekf.NoiseConfig(), ekf.Attitude())
        assert abs(result.t[-1] - c.length / 0.5) < 0.02

    def test_all_dropped_equals_pure_prediction(self, tunnel):
        g, c = tunnel_fixture(tunnel)
        noise = ekf.NoiseConfig()
        nom = planner.build_nominal_trajectory(c, g, 0.5, noise.ts)
        truth = montecarlo.simulate_truth(nom, np.random.default_rng(36),
                                          cross_track_sigma=0.0, speed_sigma=0.0)
        events = montecarlo.synthesize_measurements(
            truth, tunnel, planner.RateSchedule(), noise, ekf.Attitude(),
            np.random.default_rng(37), dropout=1.0)
        result = montecarlo.run_online_ekf(truth, events, planner.RateSchedule(),
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
        events = montecarlo.synthesize_measurements(
            truth, tunnel, planner.RateSchedule(), noise, ekf.Attitude(),
            np.random.default_rng(39), mode="noisy", dropout=0.1)
        result = montecarlo.run_online_ekf(truth, events, planner.RateSchedule(),
                                           noise, ekf.Attitude())
        err = np.linalg.norm(result.est - truth.pos[1:], axis=1)
        assert np.isfinite(err).all()
        assert err.mean() < 50.0


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
