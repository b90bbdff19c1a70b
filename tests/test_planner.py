"""Tests for nominal trajectories, belief propagation along circuits, and ranking."""

import csv
import math
import tracemalloc

import numpy as np
import pytest

from tunnelplan import circuits, cli, config, ekf, mapenv, planner, roadmap
from tunnelplan.errors import ConfigError, InvalidCircuitError


def empty_env(rig=None):
    return mapenv.EnvironmentMap(
        bounds_min=[-20.0, -5.0, -8.0],
        bounds_max=[20.0, 5.0, 0.0],
        rig=rig if rig is not None else mapenv.UgvRig(),
    )


def out_and_back_graph(a, b):
    nodes = np.array([a, b], dtype=float)
    length = float(np.linalg.norm(nodes[1] - nodes[0]))
    g = roadmap.RoadmapGraph(
        nodes=nodes, edges=[roadmap.Edge(0, 1, length, multiplicity=2)], source=0
    )
    c = circuits.random_euler_circuit(g, np.random.default_rng(0))
    return g, c


def pec(P):
    """pec of the position block of a full 6x6 covariance."""
    return float(ekf.sym3_max(np.asarray(P, dtype=float)[3:, 3:][np.triu_indices(3)][None])[0])


def propagate_path(circuit, graph, env, kin, rates, noise):
    """Score of one circuit propagated alone."""
    return planner.propagate_paths([circuit], graph, env, kin, rates, noise)[0]


def polyline_point(waypoints, s):
    """Independent arc-length interpolation used as the position oracle."""
    seglen = [np.linalg.norm(waypoints[i + 1] - waypoints[i]) for i in range(len(waypoints) - 1)]
    for i, L in enumerate(seglen):
        if s <= L + 1e-12:
            f = 0.0 if L == 0 else s / L
            return waypoints[i] + f * (waypoints[i + 1] - waypoints[i])
        s -= L
    return waypoints[-1]


# ---------------------------------------------------------------------------
# pec


class TestPec:
    def test_identity(self):
        assert pec(np.eye(6)) == pytest.approx(1.0)

    def test_dominant_axis(self):
        P = np.diag([9.0, 9.0, 9.0, 4.0, 1.0, 1.0])
        assert pec(P) == pytest.approx(4.0)

    def test_matches_eigvalsh_oracle(self):
        rng = np.random.default_rng(3)
        for _ in range(300):
            A = rng.normal(size=(3, 3)) * 10.0 ** rng.integers(-3, 4)
            block = A @ A.T
            P = np.zeros((6, 6))
            P[3:, 3:] = block
            want = float(np.linalg.eigvalsh(block)[-1])
            assert pec(P) == pytest.approx(want, rel=1e-9, abs=1e-12)


# ---------------------------------------------------------------------------
# rate schedule


class TestRateSchedule:
    def test_default_fire_pattern(self):
        rates = planner.RateSchedule()
        table = rates.fire_table(100)
        for k in range(1, 101):
            assert table["alt"][k] == (k % 10 == 0)
            assert table["uwb"][k] == (k % 5 == 0)
            assert table["cam"][k] == (k % 5 == 0)
            assert table["lidar"][k] == (k % 5 == 0)
        assert not table["alt"][0]

    def test_counts_scale_with_rate(self):
        rates = planner.RateSchedule(alt_hz=25.0)
        table = rates.fire_table(1000)
        assert int(table["alt"].sum()) == 500

    def test_sensor_faster_than_predict_rejected(self):
        with pytest.raises(ValueError):
            planner.RateSchedule(lidar_hz=100.0)

    def test_nonpositive_rate_rejected(self):
        with pytest.raises(ValueError):
            planner.RateSchedule(uwb_hz=0.0)


# ---------------------------------------------------------------------------
# nominal trajectory


class TestNominalTrajectory:
    def test_out_and_back_grid(self):
        g, c = out_and_back_graph([0.0, 0.0, -2.0], [5.0, 0.0, -2.0])
        nom = planner.build_nominal_trajectory(c, g, cruise=0.5, ts=0.02)
        assert nom.steps == 1000
        assert np.allclose(nom.pos[0], [0.0, 0.0, -2.0])
        assert np.allclose(nom.pos[500], [5.0, 0.0, -2.0])
        assert np.allclose(nom.pos[-1], [0.0, 0.0, -2.0], atol=1e-9)
        assert nom.flight_time == pytest.approx(20.0)

    def test_speed_at_cruise_within_segments(self):
        g, c = out_and_back_graph([0.0, 0.0, -2.0], [4.98, 1.0, -3.0])
        nom = planner.build_nominal_trajectory(c, g, cruise=0.5, ts=0.02)
        speeds = np.linalg.norm(nom.vel, axis=1)
        assert speeds.max() <= 0.5 + 1e-9
        assert np.median(speeds) == pytest.approx(0.5, abs=1e-9)

    def test_positions_stay_on_polyline(self, tunnel):
        nodes = roadmap.sample_nodes(tunnel, 8, np.random.default_rng(5))
        g = roadmap.eulerize(roadmap.connect_knn(nodes, 4, tunnel), tunnel)
        c = circuits.random_euler_circuit(g, np.random.default_rng(6))
        nom = planner.build_nominal_trajectory(c, g, cruise=0.5, ts=0.02)
        waypoints = [g.nodes[i] for i in c.nodes]
        for k in range(0, nom.steps + 1, 37):
            s = min(k * 0.5 * 0.02, c.length)
            want = polyline_point(waypoints, s)
            assert np.allclose(nom.pos[k], want, atol=1e-9), k

    def test_euler_consistency_between_steps(self):
        # each commanded velocity integrates one step position change exactly
        g, c = out_and_back_graph([1.0, -2.0, -1.0], [3.0, 4.0, -5.0])
        nom = planner.build_nominal_trajectory(c, g, cruise=0.5, ts=0.02)
        stepped = nom.pos[:-1] + 0.02 * nom.vel
        assert np.allclose(stepped, nom.pos[1:], atol=1e-12)

    def test_flight_time_vs_length_bound(self, tunnel):
        nodes = roadmap.sample_nodes(tunnel, 10, np.random.default_rng(7))
        g = roadmap.eulerize(roadmap.connect_knn(nodes, 5, tunnel), tunnel)
        c = circuits.random_euler_circuit(g, np.random.default_rng(8))
        nom = planner.build_nominal_trajectory(c, g, cruise=0.5, ts=0.02)
        assert 0.0 <= nom.flight_time - c.length / 0.5 < 0.02 + 1e-12

    def test_zero_length_circuit(self):
        g = roadmap.RoadmapGraph(nodes=np.array([[1.0, 0.0, -1.0]]), edges=[], source=0)
        c = circuits.random_euler_circuit(g, np.random.default_rng(9))
        nom = planner.build_nominal_trajectory(c, g, cruise=0.5, ts=0.02)
        assert nom.steps == 0
        assert nom.flight_time == 0.0

    def test_tick_samples_equal_full_rate_bitwise(self, tunnel):
        nodes = roadmap.sample_nodes(tunnel, 8, np.random.default_rng(5))
        g = roadmap.eulerize(roadmap.connect_knn(nodes, 4, tunnel), tunnel)
        c = circuits.random_euler_circuit(g, np.random.default_rng(6))
        nom = planner.build_nominal_trajectory(c, g, cruise=0.5, ts=0.02)
        line = planner.Polyline.of(c, g, 0.5, 0.02)
        assert (line.steps, line.length, line.flight_time) == (
            nom.steps, nom.length, nom.flight_time)
        # the first step past the first corner, and the last step, which is
        # shortened to land on the closing waypoint
        corner = int(math.ceil(line.cum[1] / line.ds))
        assert corner * line.ds > line.cum[1]
        assert line.steps * line.ds > line.length
        ticks = planner.sensor_ticks(planner.RateSchedule().fire_table(nom.steps))
        for steps in (ticks, np.array([corner, line.steps]), np.arange(nom.steps + 1)):
            assert np.array_equal(line.at(steps)[0], nom.pos[steps])


# ---------------------------------------------------------------------------
# belief propagation along a path


def boresight_fixture():
    """Out-and-back run straight along the lidar boresight in an empty map."""
    t15 = math.tan(math.radians(15.0))
    g, c = out_and_back_graph([3.0, 0.0, -3.0 * t15 - 0.02], [10.0, 0.0, -10.0 * t15 - 0.02])
    return empty_env(), g, c


class TestPropagatePath:
    def test_zero_length_circuit_scores_empty(self):
        env = empty_env()
        g = roadmap.RoadmapGraph(nodes=np.array([[1.0, 0.0, -1.0]]), edges=[], source=0)
        c = circuits.random_euler_circuit(g, np.random.default_rng(1))
        score = propagate_path(c, g, env, planner.KinematicProfile(),
                               planner.RateSchedule(), ekf.NoiseConfig())
        assert len(score.pec) == 0
        assert score.total == 0.0

    def test_series_shape_and_positivity(self, tunnel):
        nodes = roadmap.sample_nodes(tunnel, 8, np.random.default_rng(11))
        g = roadmap.eulerize(roadmap.connect_knn(nodes, 4, tunnel), tunnel)
        c = circuits.random_euler_circuit(g, np.random.default_rng(12))
        score = propagate_path(c, g, tunnel, planner.KinematicProfile(),
                               planner.RateSchedule(), ekf.NoiseConfig())
        nom = planner.build_nominal_trajectory(c, g, 0.5, 0.02)
        assert len(score.pec) == nom.steps
        assert abs(len(score.pec) - math.floor(score.flight_time * 50.0)) <= 1
        assert np.all(score.pec > 0.0)
        assert np.all(np.isfinite(score.pec))
        assert score.total == pytest.approx(float(score.pec.sum()))
        assert score.max_pec == pytest.approx(float(score.pec.max()))

    def test_lidar_coverage_on_boresight(self):
        env, g, c = boresight_fixture()
        score = propagate_path(c, g, env, planner.KinematicProfile(),
                               planner.RateSchedule(), ekf.NoiseConfig())
        n = len(score.pec)
        assert score.lidar_updates == n // 5
        assert score.lidar_fired[4::5].all()
        # camera reaches only the near part of the leg
        assert score.cam_fired.any()
        assert not score.cam_fired.all()
        assert score.cam_updates == int(score.cam_fired.sum())

    def test_sensor_coverage_reduces_accumulated_pec(self):
        env, g, c = boresight_fixture()
        blind_rig = mapenv.UgvRig(lidar_max_range=1e-6, camera_max_range=1e-6)
        blind = empty_env(rig=blind_rig)
        kin = planner.KinematicProfile()
        rates = planner.RateSchedule()
        noise = ekf.NoiseConfig()
        covered = propagate_path(c, g, env, kin, rates, noise)
        uncovered = propagate_path(c, g, blind, kin, rates, noise)
        assert covered.total < uncovered.total
        assert covered.lidar_updates > 0
        assert uncovered.lidar_updates == 0

    def test_deterministic(self, tunnel):
        nodes = roadmap.sample_nodes(tunnel, 8, np.random.default_rng(13))
        g = roadmap.eulerize(roadmap.connect_knn(nodes, 4, tunnel), tunnel)
        c = circuits.random_euler_circuit(g, np.random.default_rng(14))
        args = (c, g, tunnel, planner.KinematicProfile(), planner.RateSchedule(), ekf.NoiseConfig())
        a = propagate_path(*args)
        b = propagate_path(*args)
        assert np.array_equal(a.pec, b.pec)
        assert np.array_equal(a.t, b.t)
        assert a.total == b.total

    def test_tampered_circuit_rejected(self, tunnel):
        nodes = roadmap.sample_nodes(tunnel, 8, np.random.default_rng(15))
        g = roadmap.eulerize(roadmap.connect_knn(nodes, 4, tunnel), tunnel)
        c = circuits.random_euler_circuit(g, np.random.default_rng(16))
        c.nodes[1] = c.nodes[2]
        with pytest.raises(InvalidCircuitError):
            propagate_path(c, g, tunnel, planner.KinematicProfile(),
                           planner.RateSchedule(), ekf.NoiseConfig())

    def test_gimbal_attitude_skips_altimeter(self):
        env, g, c = boresight_fixture()
        kin = planner.KinematicProfile(pitch_deg=89.9)
        score = propagate_path(c, g, env, kin, planner.RateSchedule(), ekf.NoiseConfig())
        assert score.skipped
        assert all(s[1] == "alt" for s in score.skipped)

    def test_stats_fields_consistent(self):
        env, g, c = boresight_fixture()
        score = propagate_path(c, g, env, planner.KinematicProfile(),
                               planner.RateSchedule(), ekf.NoiseConfig())
        assert score.mean == pytest.approx(float(np.mean(score.pec)))
        assert score.median == pytest.approx(float(np.median(score.pec)))
        assert score.sigma == pytest.approx(float(np.std(score.pec)))
        assert score.rms == pytest.approx(float(np.sqrt(np.mean(score.pec**2))))


# ---------------------------------------------------------------------------
# a batch of candidates must reproduce each candidate propagated alone


class TestBatchedPropagation:
    def test_matches_scalar_engine(self, tunnel):
        nodes = roadmap.sample_nodes(tunnel, 6, np.random.default_rng(21))
        g = roadmap.eulerize(roadmap.connect_knn(nodes, 4, tunnel), tunnel)
        cands = circuits.generate_candidates(g, 3, np.random.default_rng(22))
        kin = planner.KinematicProfile()
        rates = planner.RateSchedule()
        noise = ekf.NoiseConfig()
        batch = planner.propagate_paths(cands, g, tunnel, kin, rates, noise)
        for c, got in zip(cands, batch):
            want = propagate_path(c, g, tunnel, kin, rates, noise)
            assert np.array_equal(got.cam_fired, want.cam_fired)
            assert np.array_equal(got.lidar_fired, want.lidar_fired)
            assert got.cam_updates == want.cam_updates
            assert got.lidar_updates == want.lidar_updates
            assert np.allclose(got.pec, want.pec, rtol=1e-9, atol=1e-12)
            assert got.total == pytest.approx(want.total, rel=1e-9)
            assert got.flight_time == want.flight_time

    def test_mixed_lengths_grouped(self, tunnel):
        g1 = roadmap.RoadmapGraph(nodes=np.array([[1.0, 0.0, -1.0]]), edges=[], source=0)
        trivial = circuits.random_euler_circuit(g1, np.random.default_rng(1))
        score = planner.propagate_paths([trivial], g1, tunnel, planner.KinematicProfile(),
                                        planner.RateSchedule(), ekf.NoiseConfig())[0]
        assert len(score.pec) == 0
        assert score.total == 0.0

    def test_gimbal_skip_parity(self):
        env, g, c = boresight_fixture()
        kin = planner.KinematicProfile(pitch_deg=89.9)
        rates = planner.RateSchedule()
        noise = ekf.NoiseConfig()
        got = planner.propagate_paths([c], g, env, kin, rates, noise)[0]
        want = propagate_path(c, g, env, kin, rates, noise)
        assert len(got.skipped) == len(want.skipped)
        assert got.skipped[0][1] == "alt"
        assert np.allclose(got.pec, want.pec, rtol=1e-9)


class TestPlanningMemory:
    def test_peak_below_full_rate_trajectories(self):
        # 32 candidates over a 120 m out-and-back flight: 12,000 steps, and
        # sensors at 1 Hz keep the traced tick loop short
        env = empty_env()
        g, c = out_and_back_graph([3.0, 1.0, -2.0], [63.0, 1.0, -2.0])
        kin, noise = planner.KinematicProfile(), ekf.NoiseConfig()
        rates = planner.RateSchedule(alt_hz=1.0, uwb_hz=1.0, cam_hz=1.0, lidar_hz=1.0)
        cands = [c] * 32
        steps = planner.Polyline.of(c, g, kin.cruise_mps, noise.ts).steps
        # nominal pos (steps + 1, 3) and vel (steps, 3) of every candidate
        full_rate_bytes = len(cands) * (2 * steps + 1) * 3 * 8
        tracemalloc.start()
        try:
            scores = planner.propagate_paths(cands, g, env, kin, rates, noise)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(scores[0].pec) == steps
        assert scores[0].lidar_updates > 0
        assert peak < full_rate_bytes

    def test_peak_grows_by_outputs_and_one_list_block_per_candidate(self, monkeypatch):
        # every sensor at the prediction rate: each of the 2,000 steps of a
        # 20 m out-and-back flight is a sensor tick, so a table of every
        # candidate's tick positions would add 24 B per candidate-step
        monkeypatch.setattr(planner, "_SPLIT_MEMBERS", 10**12)
        env = empty_env()
        g, c = out_and_back_graph([3.0, 1.0, -2.0], [13.0, 1.0, -2.0])
        kin, noise = planner.KinematicProfile(), ekf.NoiseConfig()
        rates = planner.RateSchedule(alt_hz=50.0, uwb_hz=50.0, cam_hz=50.0, lidar_hz=50.0)
        steps = planner.Polyline.of(c, g, kin.cruise_mps, noise.ts).steps
        # lazy imports and caches of a first pass are not per candidate
        planner.propagate_paths([c], g, env, kin, planner.RateSchedule(), noise)
        peaks = {}
        for count in (4, 16):
            tracemalloc.start()
            try:
                scores = planner.propagate_paths([c] * count, g, env, kin, rates, noise)
                peaks[count] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert len(scores[0].pec) == steps == 2000
        assert scores[0].cam_updates > 0 and scores[0].lidar_updates == steps
        # a pair's kernel terms take at most 160 B (a camera pair's Jacobian
        # block, noise and bound) and its member index 8 B, so one block of
        # four sensors' update lists stays under 512 B per member and tick
        list_block = planner._LIST_TICKS * 512
        # the pec row and the camera and lidar fired rows
        outputs = steps * 8 + 2 * (steps + 1)
        assert (peaks[16] - peaks[4]) / 12 <= outputs + list_block


# ---------------------------------------------------------------------------
# ranking and threshold


def make_score(idx, total):
    return planner.PathScore(
        circuit_index=idx, t=np.zeros(0), pec=np.zeros(0), cam_fired=np.zeros(0, bool),
        lidar_fired=np.zeros(0, bool), est=None, total=total, max_pec=total, mean=0.0,
        median=0.0, sigma=0.0, rms=0.0, alt_updates=0, uwb_updates=0, cam_updates=0,
        lidar_updates=0, skipped=[], flight_time=0.0, length=0.0,
    )


class TestRanking:
    def test_basic_order(self):
        report = planner.score_and_select([make_score(0, 5.0), make_score(1, 2.0), make_score(2, 9.0)])
        assert report.best == 1
        assert report.worst == 2
        assert report.second_best == 0
        assert report.second_worst == 0
        assert report.order == [1, 0, 2]
        assert not report.degenerate

    def test_tie_breaks_to_lower_index(self):
        report = planner.score_and_select([make_score(i, 7.0) for i in range(4)])
        assert report.best == 0
        assert report.worst == 0
        assert report.degenerate

    def test_single_candidate(self):
        report = planner.score_and_select([make_score(0, 3.0)])
        assert report.best == 0
        assert report.worst == 0
        assert report.second_best is None
        assert report.second_worst is None

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            planner.score_and_select([])

    def test_selection_lookup(self):
        report = planner.score_and_select(
            [make_score(0, 5.0), make_score(1, 2.0), make_score(2, 9.0), make_score(3, 7.0)])
        ranking = {"totals": report.totals, "best": report.best, "worst": report.worst,
                   "second_best": report.second_best, "second_worst": report.second_worst}
        assert cli._resolve_selection(ranking, "best") == 1
        assert cli._resolve_selection(ranking, "worst") == 2
        assert cli._resolve_selection(ranking, "second_best") == 0
        assert cli._resolve_selection(ranking, "second_worst") == 3
        assert cli._resolve_selection(ranking, "2") == 2
        assert cli._resolve_selection(ranking, 3) == 3
        for bad in ("4", 4):
            with pytest.raises(ConfigError):
                cli._resolve_selection(ranking, bad)
        # a name the ranking cannot define is refused by the config
        with pytest.raises(ValueError, match="bad entry 'tenth'"):
            config.SimulateSection(selections=["tenth"])


def plan_rows(out, threshold):
    """path_scores.csv rows of a small plan with the given pec threshold."""
    rc = cli.main(["plan", "--seed", "3", "--out", str(out), "--set", "plan.nodes=10",
                   "--set", "plan.knn=4", "--set", "plan.candidates=12",
                   "--set", f"plan.pec_threshold_m2={threshold!r}"])
    assert rc == 0
    with (out / "path_scores.csv").open(newline="") as fh:
        return list(csv.DictReader(fh))


def assert_threshold_rule(rows, threshold):
    """threshold_ok is pec_max_m2 < threshold in every row."""
    for row in rows:
        assert row["threshold_ok"] == ("true" if float(row["pec_max_m2"]) < threshold
                                       else "false")


class TestThreshold:
    """plan writes threshold_ok as pec_max < plan.pec_threshold_m2, which is
    every pec sample below it."""

    @pytest.fixture(scope="class")
    def generous(self, tmp_path_factory):
        return plan_rows(tmp_path_factory.mktemp("generous"), 1e9)

    def test_generous_threshold_passes(self, generous):
        assert_threshold_rule(generous, 1e9)
        assert {row["threshold_ok"] for row in generous} == {"true"}

    def test_tight_threshold_fails(self, generous, tmp_path):
        # halfway between two candidates' pec maxima, far from either's
        # nine-digit rounding, so both verdicts occur
        maxima = sorted({float(row["pec_max_m2"]) for row in generous})
        assert len(maxima) >= 2
        k = len(maxima) // 2
        threshold = 0.5 * (maxima[k - 1] + maxima[k])
        rows = plan_rows(tmp_path, threshold)
        assert [row["pec_max_m2"] for row in rows] == [row["pec_max_m2"] for row in generous]
        assert_threshold_rule(rows, threshold)
        assert {row["threshold_ok"] for row in rows} == {"true", "false"}
