"""Tests for the six-state belief filter and its sensor models.

State order is [v_n, v_e, v_d, r_n, r_e, r_d]; measurement Jacobians are
checked against central finite differences of the predicted-measurement
functions, recomputed independently here. Single-step prediction and the
per-reading updates are the scalar reference filter in oracle.py, built on
the package's sensor models and Joseph update.
"""

import math

import numpy as np
import pytest

import oracle
from tunnelplan import ekf
from tunnelplan.errors import FilterSingularityError, SingularInnovationError


def finite_difference(h, x, eps=1e-6):
    """Central-difference Jacobian of h at x."""
    z0 = np.atleast_1d(np.asarray(h(x), float))
    J = np.zeros((z0.size, x.size))
    for k in range(x.size):
        hi = x.copy()
        lo = x.copy()
        hi[k] += eps
        lo[k] -= eps
        J[:, k] = (np.atleast_1d(h(hi)) - np.atleast_1d(h(lo))) / (2 * eps)
    return J


def random_psd(rng, n=6, scale=1.0):
    A = rng.normal(size=(n, n))
    return scale * (A @ A.T) + 1e-6 * np.eye(n)


def belief(x=None, P=None, t=0.0):
    return ekf.BeliefState(
        x=np.zeros(6) if x is None else np.asarray(x, float),
        P=np.eye(6) if P is None else np.asarray(P, float),
        t=t,
    )


# ---------------------------------------------------------------------------
# noise


class TestNoiseConfig:
    @pytest.mark.parametrize("settings, name", [
        ({"r_lidar": -1.0}, "r_lidar"),
        ({"r_lidar": np.inf}, "r_lidar"),
        ({"r_cam": np.nan}, "r_cam"),
        # finite, but not once scaled by the sensor's largest noise scale:
        # 1 / MIN_SIN_ELEVATION for the camera, lidar_gamma_max for the lidar
        ({"r_cam": 1e308}, "r_cam"),
        ({"r_lidar": 100.0, "lidar_gamma_max": 1e308}, "r_lidar"),
    ], ids=["negative", "infinite", "nan", "cam_overflows_when_scaled",
            "lidar_overflows_when_scaled"])
    def test_vector_noise_must_be_a_covariance(self, settings, name):
        with pytest.raises(ValueError, match=name):
            ekf.NoiseConfig(**settings)

    def test_noise_whose_largest_scaled_form_is_finite_is_allowed(self):
        cfg = ekf.NoiseConfig(r_cam=5e306, r_lidar=1.0, lidar_gamma_max=1e308)
        assert cfg.r_cam == 5e306 and cfg.lidar_gamma_max == 1e308


# ---------------------------------------------------------------------------
# prediction


class TestPredict:
    def test_identity_covariance_one_step(self):
        cfg = ekf.NoiseConfig()
        out = oracle.predict(belief(), cfg)
        eye = np.eye(3)
        want = np.block(
            [[1.01 * eye, 0.02 * eye], [0.02 * eye, 2.0004 * eye]]
        )
        assert np.allclose(out.P, want, atol=1e-12)
        assert out.t == pytest.approx(0.02)

    def test_mean_kinematics(self):
        cfg = ekf.NoiseConfig()
        out = oracle.predict(belief(x=[1, 2, 3, 4, 5, 6]), cfg)
        assert np.allclose(out.x, [1, 2, 3, 4.02, 5.04, 6.06], atol=1e-12)

    def test_default_process_noise(self):
        cfg = ekf.NoiseConfig()
        assert (cfg.q_vel, cfg.q_pos) == (0.01, 1.0)
        assert cfg.ts == pytest.approx(0.02)

    def test_input_not_mutated(self):
        cfg = ekf.NoiseConfig()
        b = belief(x=[1, 2, 3, 4, 5, 6])
        x0 = b.x.copy()
        P0 = b.P.copy()
        oracle.predict(b, cfg)
        assert np.array_equal(b.x, x0)
        assert np.array_equal(b.P, P0)

    def test_span_matches_sequential(self):
        cfg = ekf.NoiseConfig()
        rng = np.random.default_rng(5)
        b = belief(x=rng.normal(size=6), P=random_psd(rng))
        seq = b
        blocks = []
        for _ in range(7):
            seq = oracle.predict(seq, cfg)
            blocks.append(seq.P[3:, 3:].copy())
        spanned, pos_blocks = ekf.predict_span(b, cfg, 7)
        assert np.allclose(spanned.P, seq.P, atol=1e-11)
        assert np.allclose(spanned.x, seq.x, atol=1e-11)
        assert np.allclose(pos_blocks, packed(np.stack(blocks)), atol=1e-11)

    def test_span_zero_steps(self):
        cfg = ekf.NoiseConfig()
        b = belief()
        spanned, blocks = ekf.predict_span(b, cfg, 0)
        assert np.array_equal(spanned.P, b.P)
        assert blocks.shape == (0, 6)


# ---------------------------------------------------------------------------
# closed-form 3x3 eigenvalues


def blocks_with_eigenvalues(lams, rng):
    """Symmetric 3x3 blocks Q diag(lams) Q' with random rotations Q."""
    Q, _ = np.linalg.qr(rng.normal(size=(len(lams), 3, 3)))
    B = Q @ (lams[:, :, None] * Q.transpose(0, 2, 1))
    return 0.5 * (B + B.transpose(0, 2, 1))


def packed(B):
    """The upper triangles of symmetric 3x3 blocks B (..., 3, 3), row by row,
    as sym3_max reads them."""
    return B[(..., *np.triu_indices(3))]


class TestSym3Eigenvalues:
    """Near a double eigenvalue the cubic blurs the pair to about
    sqrt(machine epsilon); a near-double largest pair takes the deflation
    branch of sym3_max, a near-double smallest pair must not disturb it."""

    @pytest.mark.parametrize("gap", [1e-4, 1e-6, 1e-8, 1e-10, 1e-12])
    @pytest.mark.parametrize("pair", ["top", "bottom", "rank_deficient"])
    def test_near_double_pairs_match_eigvalsh(self, pair, gap):
        rng = np.random.default_rng(int(-math.log10(gap)))
        n = 200
        s = 10.0 ** rng.uniform(-3.0, 4.0, n)
        lams = {
            "top": [s * rng.uniform(0.01, 0.5, n), s, s * (1.0 + gap)],
            "bottom": [s, s * (1.0 + gap), s * rng.uniform(2.0, 100.0, n)],
            # a zero eigenvalue next to a gap times the norm
            "rank_deficient": [0.0 * s, s * gap, s],
        }[pair]
        B = blocks_with_eigenvalues(np.stack(lams, axis=1), rng)
        want = np.linalg.eigvalsh(B)
        lmax = ekf.sym3_max(packed(B))
        assert np.abs(lmax / want[:, -1] - 1.0).max() < 1e-12

    def test_rank_one_and_multiples_of_identity(self):
        rng = np.random.default_rng(4)
        s = 10.0 ** rng.uniform(-3.0, 4.0, 50)
        B = blocks_with_eigenvalues(np.stack([0 * s, 0 * s, s], axis=1), rng)
        assert np.abs(ekf.sym3_max(packed(B)) / s - 1.0).max() < 1e-12
        # p == 0 in the cubic: no division by zero, the largest eigenvalue is s
        qI = s[:, None, None] * np.eye(3)
        assert np.abs(ekf.sym3_max(packed(qI)) / s - 1.0).max() < 1e-15


# ---------------------------------------------------------------------------
# gain and covariance update


class TestGainAndJoseph:
    def test_scalar_altimeter_gain(self):
        H = np.array([[0.0, 0, 0, 0, 0, -1.0]])
        K = ekf.kalman_gain(np.eye(6), H, np.array([[0.01]]))
        want = np.zeros((6, 1))
        want[5, 0] = -1.0 / 1.01
        assert np.allclose(K, want, atol=1e-12)

    def test_huge_noise_kills_gain(self):
        H = np.array([[0.0, 0, 0, 0, 0, -1.0]])
        K = ekf.kalman_gain(np.eye(6), H, np.array([[1e12]]))
        assert np.all(np.abs(K) < 1e-11)

    def test_zero_covariance_zero_gain(self):
        H = np.array([[0.0, 0, 0, 1.0, 0, 0]])
        K = ekf.kalman_gain(np.zeros((6, 6)), H, np.array([[0.01]]))
        assert np.all(K == 0.0)

    def test_singular_innovation_raises(self):
        H = np.zeros((1, 6))
        with pytest.raises(SingularInnovationError):
            ekf.kalman_gain(np.eye(6), H, np.array([[0.0]]))

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_non_finite_innovation_raises(self, bad):
        H = np.zeros((3, 6))
        H[:, 3:] = np.eye(3)
        P = np.eye(6)
        P[3, 3] = bad
        with np.errstate(invalid="ignore"), pytest.raises(SingularInnovationError,
                                                          match="not finite"):
            ekf.kalman_gain(P, H, np.eye(3))

    def test_ill_conditioned_raises(self):
        H = np.zeros((2, 6))
        H[0, 3] = 1.0
        H[1, 4] = 1.0
        R = np.diag([1.0, 1e-14])
        P = np.zeros((6, 6))
        P[3, 3] = 1.0
        with pytest.raises(SingularInnovationError):
            ekf.kalman_gain(P, H, R)
        # a 3-vector reading takes the same route
        H3 = np.zeros((3, 6))
        H3[:, 3:] = np.eye(3)
        with pytest.raises(SingularInnovationError):
            ekf.kalman_gain(P, H3, np.diag([1.0, 1.0, 1e-14]))

    def test_joseph_scalar_case(self):
        b = belief()
        H = np.array([[0.0, 0, 0, 0, 0, -1.0]])
        out = ekf.joseph_update(b, H, np.array([[0.01]]), np.zeros(1))
        assert out.P[5, 5] == pytest.approx(0.01 / 1.01, rel=1e-12)
        # untouched directions keep unit variance
        assert out.P[0, 0] == pytest.approx(1.0)
        assert out.P[3, 3] == pytest.approx(1.0)

    def test_zero_measurement_matrix_is_identity(self):
        rng = np.random.default_rng(7)
        b = belief(x=rng.normal(size=6), P=random_psd(rng))
        H = np.zeros((1, 6))
        out = ekf.joseph_update(b, H, np.array([[2.0]]), np.array([3.0]))
        assert np.allclose(out.P, b.P, atol=1e-14)
        assert np.allclose(out.x, b.x, atol=1e-14)

    def test_symmetry_and_trace_contraction(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            b = belief(x=rng.normal(size=6), P=random_psd(rng, scale=4.0))
            H = rng.normal(size=(3, 6))
            R = random_psd(rng, n=3, scale=0.1)
            out = ekf.joseph_update(b, H, R, rng.normal(size=3))
            assert np.allclose(out.P, out.P.T, atol=1e-12)
            assert np.trace(out.P) <= np.trace(b.P) + 1e-10
            assert np.linalg.eigvalsh(out.P).min() >= -1e-10


# ---------------------------------------------------------------------------
# sensor models


class TestAltimeter:
    def test_level_attitude_prediction(self):
        m = ekf.altimeter(np.array([[1.0, 1.0, -2.0]]), ekf.Attitude())
        assert m.z[0] == pytest.approx(2.0)
        assert np.allclose(m.Hr[0], [0, 0, -1.0])
        assert m.ok.all()

    def test_tilted_attitude_projection(self):
        att = ekf.Attitude(roll=math.pi / 4, pitch=math.pi / 4)
        m = ekf.altimeter(np.array([[0, 0, -2.0]]), att)
        assert m.z[0] == pytest.approx(4.0)
        assert m.Hr[0, 2] == pytest.approx(-2.0)

    def test_gimbal_guard(self):
        att = ekf.Attitude(pitch=math.radians(89.9))
        m = ekf.altimeter(np.array([[0, 0, -2.0], [1.0, 2.0, -3.0]]), att)
        assert [mask.tolist() for mask in m.refused.values()] == [[True, True]]
        with pytest.raises(FilterSingularityError, match="beam projection"):
            oracle.altimeter_update(belief(x=[0, 0, 0, 0, 0, -2.0]), 2.0, att,
                                    ekf.NoiseConfig())

    def test_update_moves_altitude_only_for_diagonal_p(self):
        cfg = ekf.NoiseConfig()
        b = belief(x=[0, 0, 0, 0, 0, -2.0])
        out = oracle.altimeter_update(b, 2.5, ekf.Attitude(), cfg)
        assert out.x[5] < -2.0
        assert np.allclose(out.x[:5], 0.0)
        assert out.P[5, 5] < 1.0


class TestUwb:
    def test_range_prediction_and_jacobian(self):
        m = ekf.uwb(np.array([[3.0, 4.0, 0.0]]))
        assert m.z[0] == pytest.approx(5.0)
        assert np.allclose(m.Hr[0], [0.6, 0.8, 0.0], atol=1e-12)

    def test_near_origin_guard(self):
        m = ekf.uwb(np.array([[0.05, 0.0, 0.0], [0.0, 0.0, 0.0], [3.0, 4.0, 0.0]]))
        assert list(m.refused) == [ekf.NEAR_ORIGIN]
        assert m.refused[ekf.NEAR_ORIGIN].tolist() == [True, True, False]
        with pytest.raises(FilterSingularityError, match=ekf.NEAR_ORIGIN):
            oracle.uwb_update(belief(x=[0, 0, 0, 0.05, 0.0, 0.0]), 1.0, ekf.NoiseConfig())

    def test_exact_range_leaves_mean(self):
        cfg = ekf.NoiseConfig()
        b = belief(x=[0, 0, 0, 3.0, 4.0, 0.0])
        out = oracle.uwb_update(b, 5.0, cfg)
        assert np.allclose(out.x, b.x, atol=1e-12)
        assert np.trace(out.P) < np.trace(b.P)

    def test_long_range_pulls_outward(self):
        cfg = ekf.NoiseConfig()
        b = belief(x=[0, 0, 0, 3.0, 4.0, 0.0])
        out = oracle.uwb_update(b, 6.0, cfg)
        assert np.linalg.norm(out.x[3:]) > 5.0


class TestCamera:
    def test_overhead_unit_vector(self):
        m = ekf.camera(np.array([[0.0, 0.0, -5.0]]))
        assert np.allclose(m.z[0], [0, 0, -1.0])
        assert m.scale[0] == pytest.approx(1.0)

    def test_horizon_guard(self):
        m = ekf.camera(np.array([[3.0, 4.0, 0.0]]))
        assert (m.refused[ekf.NEAR_ORIGIN][0], m.refused[ekf.BELOW_HORIZON][0]) == (False, True)
        with pytest.raises(FilterSingularityError, match=ekf.BELOW_HORIZON):
            oracle.camera_update(belief(x=[0, 0, 0, 3.0, 4.0, 0.0]), [0.6, 0.8, 0.0],
                                 ekf.NoiseConfig())

    def test_near_origin_guard(self):
        # below the minimum range the horizon guard no longer applies
        m = ekf.camera(np.array([[0.01, 0.0, -0.05], [0.05, 0.0, 0.0]]))
        assert m.refused[ekf.NEAR_ORIGIN].tolist() == [True, True]
        assert m.refused[ekf.BELOW_HORIZON].tolist() == [False, False]
        with pytest.raises(FilterSingularityError, match=ekf.NEAR_ORIGIN):
            oracle.camera_update(belief(x=[0, 0, 0, 0.01, 0.0, -0.05]), [0, 0, -1.0],
                                 ekf.NoiseConfig())

    def test_elevation_noise_scale(self):
        # 30 degrees above the horizon doubles the effective noise
        horiz = 5.0 * math.cos(math.radians(30.0))
        up = 5.0 * math.sin(math.radians(30.0))
        m = ekf.camera(np.array([[horiz, 0.0, -up]]))
        assert m.scale[0] == pytest.approx(2.0, rel=1e-12)

    def test_exact_bearing_leaves_mean(self):
        cfg = ekf.NoiseConfig()
        x = np.array([0, 0, 0, 2.0, 1.0, -4.0])
        z = x[3:] / np.linalg.norm(x[3:])
        out = oracle.camera_update(belief(x=x), z, cfg)
        assert np.allclose(out.x, x, atol=1e-12)


class TestLidar:
    def test_position_prediction(self):
        rig = np.array([1.0, 2.0, 7.0])
        m = ekf.lidar(np.array([[1.0, 2.0, -3.0]]), rig, ekf.NoiseSettings())
        assert np.allclose(m.z[0], [1.0, 2.0, -3.0])
        # the identity Jacobian
        assert m.Hr is None
        assert m.scale[0] == pytest.approx(4.0)
        assert m.ok.all()
        assert ekf.lidar(m.z).scale is None

    def test_unit_gamma_tightens_position(self):
        cfg = ekf.NoiseConfig(r_lidar=0.01)
        b = belief(x=[0, 0, 0, 1.0, 2.0, -3.0])
        out = oracle.lidar_update(b, b.x[3:].copy(), cfg, gamma=1.0)
        for i in (3, 4, 5):
            assert out.P[i, i] == pytest.approx(0.01 / 1.01, rel=1e-10)
        assert np.allclose(out.x, b.x, atol=1e-12)

    def test_large_gamma_weakens_update(self):
        cfg = ekf.NoiseConfig()
        b = belief(x=[0, 0, 0, 1.0, 2.0, -3.0])
        tight = oracle.lidar_update(b, b.x[3:].copy(), cfg, gamma=1.0)
        loose = oracle.lidar_update(b, b.x[3:].copy(), cfg, gamma=50.0)
        assert np.trace(loose.P) > np.trace(tight.P)

    def test_gamma_below_one_rejected(self):
        cfg = ekf.NoiseConfig()
        with pytest.raises(ValueError):
            oracle.lidar_update(belief(), np.zeros(3), cfg, gamma=0.5)


class TestGammaModel:
    def test_reference_range(self):
        gm = ekf.NoiseSettings()
        assert gm.gamma(5.0) == pytest.approx(1.0)

    def test_inverse_square_growth(self):
        gm = ekf.NoiseSettings()
        assert gm.gamma(10.0) == pytest.approx(4.0)
        assert gm.gamma(20.0) == pytest.approx(16.0)

    def test_clamped_both_ends(self):
        gm = ekf.NoiseSettings()
        assert gm.gamma(1.0) == pytest.approx(1.0)
        assert gm.gamma(500.0) == pytest.approx(100.0)


# ---------------------------------------------------------------------------
# Jacobians against finite differences


class TestJacobians:
    def _states(self, n=100):
        rng = np.random.default_rng(77)
        out = []
        while len(out) < n:
            x = rng.normal(size=6) * np.array([1, 1, 1, 8, 3, 2.5])
            r = x[3:]
            d = np.linalg.norm(r)
            alpha = math.atan2(-r[2], math.hypot(r[0], r[1]))
            if d > 0.5 and abs(math.sin(alpha)) > 0.1:
                out.append(x)
        return out

    def _check(self, model, rtol, atol):
        for x in self._states():
            m = model(x[None, 3:])
            assert m.ok.all()
            H = np.zeros((np.size(m.z[0]), 6))
            H[:, 3:] = np.eye(3) if m.Hr is None else m.Hr[0]
            J = finite_difference(lambda s: model(s[None, 3:]).z[0], x)
            assert np.allclose(H, J, rtol=rtol, atol=atol)

    def test_altimeter_jacobian(self):
        att = ekf.Attitude(roll=0.1, pitch=-0.2)
        self._check(lambda r: ekf.altimeter(r, att), 1e-5, 1e-8)

    def test_uwb_jacobian(self):
        self._check(ekf.uwb, 1e-5, 1e-8)

    def test_camera_jacobian(self):
        self._check(ekf.camera, 1e-5, 1e-7)

    def test_lidar_jacobian(self):
        self._check(ekf.lidar, 1e-5, 1e-9)


# ---------------------------------------------------------------------------
# longer-run health and the plain-KF cross-check


class TestFilterHealth:
    def test_interleaved_soak(self):
        cfg = ekf.NoiseConfig()
        rng = np.random.default_rng(99)
        b = belief(x=[0.5, 0, 0, 4.0, 1.0, -3.0])
        att = ekf.Attitude()
        for step in range(1, 1501):
            b = oracle.predict(b, cfg)
            r = b.x[3:]
            if step % 10 == 0:
                pre = np.trace(b.P)
                b = oracle.altimeter_update(b, -r[2] + rng.normal(0, 0.1), att, cfg)
                assert np.trace(b.P) <= pre + 1e-9
            if step % 5 == 0:
                pre = np.trace(b.P)
                b = oracle.uwb_update(b, np.linalg.norm(r) + rng.normal(0, 0.1), cfg)
                assert np.trace(b.P) <= pre + 1e-9
            if step % 5 == 0:
                pre = np.trace(b.P)
                b = oracle.lidar_update(b, r + rng.normal(0, 0.1, 3), cfg, gamma=2.0)
                assert np.trace(b.P) <= pre + 1e-9
            assert np.abs(b.P - b.P.T).max() <= 1e-9
        assert np.linalg.eigvalsh(b.P).min() >= -1e-9

    def test_lidar_only_matches_plain_kf(self):
        # independently coded linear Kalman filter over the same measurements
        cfg = ekf.NoiseConfig()
        rng = np.random.default_rng(111)
        ts = cfg.ts
        F = np.eye(6)
        F[3, 0] = F[4, 1] = F[5, 2] = ts
        Hm = np.zeros((3, 6))
        Hm[:, 3:] = np.eye(3)
        Q = np.diag([0.01, 0.01, 0.01, 1.0, 1.0, 1.0])

        x_ref = np.array([0.5, 0, 0, 1.0, 0.0, -2.0])
        P_ref = np.eye(6)
        b = belief(x=x_ref.copy(), P=P_ref.copy())

        truth = np.array([1.0, 0.0, -2.0])
        vel = np.array([0.5, 0.0, 0.0])
        for step in range(300):
            truth = truth + vel * ts
            z = truth + rng.normal(0, 0.15, 3)
            gamma = 1.0 + (step % 7)

            x_ref = F @ x_ref
            P_ref = F @ P_ref @ F.T + Q
            R = gamma * cfg.r_lidar * np.eye(3)
            S = Hm @ P_ref @ Hm.T + R
            K = P_ref @ Hm.T @ np.linalg.inv(S)
            x_ref = x_ref + K @ (z - Hm @ x_ref)
            IKH = np.eye(6) - K @ Hm
            P_ref = IKH @ P_ref @ IKH.T + K @ R @ K.T
            P_ref = 0.5 * (P_ref + P_ref.T)

            b = oracle.predict(b, cfg)
            b = oracle.lidar_update(b, z, cfg, gamma=gamma)

            assert np.allclose(b.x, x_ref, atol=1e-10)
            assert np.allclose(b.P, P_ref, atol=1e-10)
