"""Six-state belief filter for UAV position error propagation.

State is [v_n, v_e, v_d, r_n, r_e, r_d] in the NED navigation frame.
Dynamics are constant-velocity; measurements are nonlinear functions of
position, linearized at the current estimate.  Covariance updates use the
Joseph form followed by re-symmetrization.  Innovations are measured minus
predicted, and every Jacobian is the derivative of the predicted-measurement
function, so central finite differences reproduce them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import mapenv
from .errors import SingularInnovationError

CONDITION_LIMIT = 1e12
MIN_TILT_COS = 0.01
MIN_RANGE = 0.1
MIN_SIN_ELEVATION = 0.05
# sym3_max: how close to a double eigenvalue the closed form gives way to
# deflation, and the relative anisotropy below which it is exact enough
_PAIR_TOL = 1e-5

_I3 = np.eye(3)
_I6 = np.eye(6)
# upper triangle of a symmetric 3x3 block, row by row, and where its
# diagonal sits in that packing: a packed row holds a, d, e, b, f, c of
# [[a, d, e], [d, b, f], [e, f, c]]
_UPPER = np.triu_indices(3)
_UPPER_DIAG = np.array([0, 3, 5])
# flat indices into a 6x6 covariance of the upper triangles of its position
# block, its two velocity-position cross blocks and its velocity block
_TRIANGLES = [6 * (r + _UPPER[0]) + c + _UPPER[1] for r, c in ((3, 3), (0, 3), (3, 0), (0, 0))]


def sight_geometry(r) -> tuple[np.ndarray, np.ndarray]:
    """Range from the anchor at the origin and the unit sight line (zero at
    the anchor), for positions r of shape (..., 3). The sine of the
    elevation angle is -u[..., 2]."""
    r = np.asarray(r, dtype=float)
    d = np.sqrt((r * r).sum(axis=-1))
    return d, r / np.where(d > 0.0, d, 1.0)[..., None]


@dataclass
class BeliefState:
    """Mean, covariance, and time of the six-dimensional belief."""

    x: np.ndarray
    P: np.ndarray
    t: float = 0.0


@dataclass
class Attitude:
    """UAV roll and pitch in radians, used by the altimeter projection."""

    roll: float = 0.0
    pitch: float = 0.0


@dataclass
class NoiseSettings:
    """The filter's noise, one scalar per setting; the config's noise
    section is this class.

    q_vel and q_pos are the per-step process noise variances of each
    velocity and position axis. A vector sensor's noise covariance is its
    variance times the identity, and the engine scales the variance per
    reading: the camera's by up to 1 / MIN_SIN_ELEVATION, the lidar's by
    gamma, whose point count falls off with the inverse square of range.
    """

    q_vel: float = mapenv.bounded(0.01, minimum=0.0)
    q_pos: float = mapenv.bounded(1.0, minimum=0.0)
    r_alt: float = mapenv.bounded(0.01, minimum=0.0)
    r_uwb: float = mapenv.bounded(0.01, minimum=0.0)
    # a vector reading's noise keeps its innovation covariance invertible
    r_cam: float = mapenv.bounded(1e-4, above=0.0)
    r_lidar: float = mapenv.bounded(0.0225, above=0.0)
    lidar_ref_range_m: float = mapenv.bounded(5.0, above=0.0)
    lidar_gamma_max: float = mapenv.bounded(100.0, minimum=1.0)

    def __post_init__(self):
        mapenv.check_fields(self)
        for name, top in (("r_cam", 1.0 / MIN_SIN_ELEVATION), ("r_lidar", self.lidar_gamma_max)):
            if not math.isfinite(top * float(getattr(self, name))):
                raise ValueError(f"{name} overflows when scaled by its largest noise "
                                 f"scale, {top:.6g}")

    def gamma(self, rng):
        """The lidar's noise scale at a scalar range or an array of ranges:
        (range / lidar_ref_range_m)^2 clamped to [1, lidar_gamma_max]."""
        out = np.clip((rng / self.lidar_ref_range_m) ** 2, 1.0, self.lidar_gamma_max)
        return float(out) if np.ndim(out) == 0 else out


@dataclass
class NoiseConfig(NoiseSettings):
    """The noise settings plus the prediction step size."""

    ts: float = mapenv.bounded(0.02, above=0.0)


# ---------------------------------------------------------------------------
# prediction


def span_transition(cfg: NoiseConfig, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Transition A_n = phi^n and accumulated noise Q_n of n prediction steps,
    where one step's phi adds ts times the velocity to the position and its
    noise Q is q_vel on each velocity axis and q_pos on each position axis.

    n steps map P to A_n P A_n' + Q_n. Closed form, valid because phi is
    block-unipotent and Q is diagonal.
    """
    tau = cfg.ts
    A = np.eye(6)
    A[3:, :3] = n * tau * np.eye(3)
    Q = np.zeros((6, 6))
    Q[:3, :3] = np.diag([n * cfg.q_vel] * 3)
    Q[:3, 3:] = Q[3:, :3] = np.diag([tau * (n * (n - 1) / 2.0) * cfg.q_vel] * 3)
    # the position block n steps after a zero covariance is Q_n's own
    Q[3:, 3:] = np.diag(position_blocks(np.zeros((3, 6)), n, cfg)[_UPPER_DIAG])
    return A, Q


def packed_triangles(P: np.ndarray) -> np.ndarray:
    """The three upper triangles position_blocks reads from covariances P
    (..., 6, 6), packed (3, ..., 6): the position block, the sum of the two
    velocity-position cross blocks, and the velocity block."""
    flat = P.reshape(P.shape[:-2] + (36,))
    pos, cross, cross_t, vel = (flat[..., rows] for rows in _TRIANGLES)
    return np.stack([pos, cross + cross_t, vel])


def position_blocks(tri: np.ndarray, k: np.ndarray, cfg: NoiseConfig) -> np.ndarray:
    """Position covariance block k prediction steps after the covariance
    whose packed_triangles are tri, as its packed upper triangle.

    tri has shape (3, ..., 6) and k broadcasts against the leading axes of
    tri[0]; the result has shape (..., 6). k == 0 returns the position
    block itself.
    """
    tau = cfg.ts
    ks = np.asarray(k, dtype=float)[..., None]
    # spread over the triangle's entries, kt multiplies them elementwise
    kt = np.repeat(ks * tau, 6, axis=-1)
    up = tri[0] + kt * tri[1] + kt * kt * tri[2]
    s2 = (ks - 1.0) * ks * (2.0 * ks - 1.0) / 6.0
    diag = ks[..., 0] * cfg.q_pos + (tau * tau) * s2[..., 0] * cfg.q_vel
    for entry in _UPPER_DIAG:
        up[..., entry] += diag
    return up


def predict_span(
    b: BeliefState, cfg: NoiseConfig, n: int
) -> tuple[BeliefState, np.ndarray]:
    """n prediction steps in closed form, plus the packed position
    covariance block after each intermediate step (shape (n, 6)).

    Agrees with n single steps (position integrates velocity, P becomes
    phi P phi' + Q) to rounding error.
    """
    A, Q = span_transition(cfg, n)
    x = A @ b.x
    P = A @ b.P @ A.T + Q
    blocks = position_blocks(packed_triangles(b.P), np.arange(1, n + 1), cfg)
    return BeliefState(x=x, P=P, t=b.t + n * cfg.ts), blocks


# ---------------------------------------------------------------------------
# gain and covariance update


def _sym3_cubic(rows: np.ndarray):
    """Trigonometric solution of the characteristic cubic of symmetric 3x3
    blocks packed as rows (..., 6): the largest (k = 0) and smallest (k = 1)
    eigenvalue are q + 2 p cos(phi + 2 pi k / 3). Also returns r = cos(3 phi)
    and the mask of blocks anisotropic enough for deflation to matter."""
    a, d, e, b, f, c = np.moveaxis(rows, -1, 0)
    q = (a + b + c) / 3.0
    a, b, c = a - q, b - q, c - q
    ff = f * f
    p = np.sqrt(np.maximum(a * a + b * b + c * c + 2.0 * (d * d + e * e + ff), 0.0) / 6.0)
    det = a * (b * c - ff) - d * (d * c - f * e) + e * (d * f - b * e)
    # p == 0 means the block is q * I; guard the division
    r = det / (2.0 * np.where(p > 0.0, p, 1.0) ** 3)
    np.clip(r, -1.0, 1.0, out=r)
    return q, p, np.arccos(r) / 3.0, r, p > _PAIR_TOL * np.abs(q)


def _sym3_root(q, p, phi, k: int) -> np.ndarray:
    return q + 2.0 * p * np.cos(phi + (2.0 * np.pi / 3.0) * k)


def sym3_max(rows: np.ndarray) -> np.ndarray:
    """Largest eigenvalue of symmetric 3x3 blocks given as packed upper
    triangles rows (..., 6), closed form; the result has shape (...).

    The pec route. Near r = -1 the two largest eigenvalues almost coincide
    and the cubic fixes them only to about sqrt(machine epsilon); the
    smallest stays exact, so its eigenvector is deflated and the remaining
    2x2 solved. A near-double smallest pair blurs only the smallest.
    """
    q, p, phi, r, aniso = _sym3_cubic(rows)
    lmax = _sym3_root(q, p, phi, 0)
    top = (r < -1.0 + _PAIR_TOL) & aniso
    if top.any():
        lmin = _sym3_root(q[top], p[top], phi[top], 1)
        lmax[top] = _deflated_max(rows[top], lmin)
    return lmax


def _deflated_max(rows: np.ndarray, lmin: np.ndarray) -> np.ndarray:
    """Largest eigenvalue of symmetric 3x3 blocks, packed as in sym3_max,
    given their well-separated smallest eigenvalue lmin."""
    a, d, e, b, f, c = np.moveaxis(rows, -1, 0)
    (x1, y1, z1), (x2, y2, z2) = _normal_plane(*_null_vector(a - lmin, b - lmin, c - lmin, d, e, f))
    # the block restricted to that plane: [[s11, s12], [s12, s22]]
    bx, by, bz = a * x2 + d * y2 + e * z2, d * x2 + b * y2 + f * z2, e * x2 + f * y2 + c * z2
    s22 = x2 * bx + y2 * by + z2 * bz
    s12 = x1 * bx + y1 * by + z1 * bz
    s11 = (x1 * (a * x1 + d * y1 + e * z1) + y1 * (d * x1 + b * y1 + f * z1)
           + z1 * (e * x1 + f * y1 + c * z1))
    return 0.5 * (s11 + s22) + np.hypot(0.5 * (s11 - s22), s12)


def _null_vector(a, b, c, d, e, f):
    """Unit vector spanning the null space of rank-2 symmetric 3x3 blocks
    [[a, d, e], [d, b, f], [e, f, c]]: the longest cross product of two of
    their rows."""
    rows = ((d * f - e * b, e * d - a * f, a * b - d * d),
            (d * c - e * f, e * e - a * c, a * f - d * e),
            (b * c - f * f, f * e - d * c, d * f - b * e))
    n0, n1, n2 = (x * x + y * y + z * z for x, y, z in rows)
    pick0 = (n0 >= n1) & (n0 >= n2)
    pick1 = ~pick0 & (n1 >= n2)
    norm = np.sqrt(np.where(pick0, n0, np.where(pick1, n1, n2)))
    return [np.where(pick0, r0, np.where(pick1, r1, r2)) / norm for r0, r1, r2 in zip(*rows)]


def _normal_plane(v0, v1, v2):
    """Orthonormal u1, u2 normal to unit vectors v: u1 = v x (the axis v is
    least aligned with), u2 = v x u1."""
    w0, w1, w2 = np.abs(v0), np.abs(v1), np.abs(v2)
    ax0 = (w0 <= w1) & (w0 <= w2)
    ax1 = ~ax0 & (w1 <= w2)
    x1 = np.where(ax0, 0.0, np.where(ax1, -v2, v1))
    y1 = np.where(ax0, v2, np.where(ax1, 0.0, -v0))
    z1 = np.where(ax0, -v1, np.where(ax1, v0, 0.0))
    norm = np.sqrt(x1 * x1 + y1 * y1 + z1 * z1)
    x1, y1, z1 = x1 / norm, y1 / norm, z1 / norm
    return (x1, y1, z1), (v1 * z1 - v2 * y1, v2 * x1 - v0 * z1, v0 * y1 - v1 * x1)


def kalman_gain(P: np.ndarray, H: np.ndarray, R: np.ndarray) -> np.ndarray:
    """K = P H' inv(H P H' + R), rejecting singular or non-finite innovation
    covariance."""
    S = H @ P @ H.T + R
    if S.shape == (1, 1):
        s = S[0, 0]
        if not (s > 0.0) or not math.isfinite(s):
            raise SingularInnovationError(f"innovation variance {s} not positive")
        return (P @ H.T) / s
    if not np.isfinite(S).all():
        raise SingularInnovationError("innovation covariance not finite")
    eigs = np.linalg.eigvalsh(S)
    lmin, lmax = float(eigs[0]), float(eigs[-1])
    if lmin <= 0.0 or lmax / lmin > CONDITION_LIMIT:
        raise SingularInnovationError(
            f"innovation covariance condition {lmax:.3g}/{lmin:.3g} too high"
        )
    return np.linalg.solve(S, H @ P).T


def joseph_update(
    b: BeliefState, H: np.ndarray, R_eff: np.ndarray, innovation: np.ndarray
) -> BeliefState:
    """Measurement update in Joseph form, re-symmetrized."""
    R_eff = np.atleast_2d(np.asarray(R_eff, dtype=float))
    K = kalman_gain(b.P, H, R_eff)
    x = b.x + K @ np.atleast_1d(innovation)
    IKH = _I6 - K @ H
    P = IKH @ b.P @ IKH.T + K @ R_eff @ K.T
    P = 0.5 * (P + P.T)
    return BeliefState(x=x, P=P, t=b.t)


# ---------------------------------------------------------------------------
# sensor models
#
# One model per sensor, over positions r of shape (n, 3). The engine
# evaluates it at the estimate (replay) or the nominal position (planning),
# synthesis at the truth. The predicted reading stays smooth across the
# guards; a refused row's Jacobian and noise scale may be finite
# placeholders, so no row raises a numpy warning.

NEAR_ORIGIN = "estimate within minimum anchor range"
BELOW_HORIZON = "sight line too close to the horizon"


class Prediction(NamedTuple):
    """A sensor model evaluated at n positions.

    z is the predicted reading, (n,) for a scalar sensor and (n, 3) for a
    vector one. Hr is the position block of the Jacobian, (n, 3) or
    (n, 3, 3); its velocity block is zero, and None stands for the identity.
    scale multiplies the sensor's noise covariance, per row or 1.0 for all
    (None where the caller supplies it). refused is empty when every row
    passes the guards, else it maps each guard's skip reason to the rows it
    refuses; the masks are disjoint.
    """

    z: np.ndarray
    Hr: np.ndarray | None
    scale: np.ndarray | float | None
    refused: dict

    @property
    def ok(self) -> np.ndarray:
        """Rows every guard passes."""
        ok = np.ones(len(self.z), dtype=bool)
        for mask in self.refused.values():
            ok &= ~mask
        return ok

    def take(self, keep) -> "Prediction":
        """The rows selected by keep."""
        def rows(a):
            return a if a is None or np.ndim(a) == 0 else a[keep]
        return Prediction(rows(self.z), rows(self.Hr), rows(self.scale),
                          {why: mask[keep] for why, mask in self.refused.items()})


def row_norms(v: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row of v (n, 3), bit for bit as
    np.linalg.norm of that row alone computes it (a dot product)."""
    return np.sqrt((v[:, None, :] @ v[:, :, None])[:, 0, 0])


def altimeter(r: np.ndarray, att: Attitude) -> Prediction:
    """Tilt-compensated laser range to the floor, z = -r_d / (cos pitch cos
    roll). Every row is refused when the attitude tips the beam too far."""
    c = math.cos(att.pitch) * math.cos(att.roll)
    h = -1.0 / max(c, MIN_TILT_COS)
    Hr = np.zeros((len(r), 3))
    Hr[:, 2] = h
    refused = ({f"beam projection cos {c:.4f} below limit": np.ones(len(r), dtype=bool)}
               if c <= MIN_TILT_COS else {})
    return Prediction(r[:, 2] * h, Hr, 1.0, refused)


def uwb(r: np.ndarray) -> Prediction:
    """Range from the UGV anchor at the origin."""
    d, u = sight_geometry(r)
    ok = d > MIN_RANGE
    return Prediction(d, u, 1.0, {} if ok.all() else {NEAR_ORIGIN: ~ok})


def camera(r: np.ndarray) -> Prediction:
    """Unit line-of-sight vector from the origin.

    The noise scale grows as 1 / |sin(elevation)| toward the horizon;
    readings too close to the horizon are refused outright.
    """
    d, zhat = sight_geometry(r)
    abs_sin = np.abs(zhat[:, 2])
    in_range = d > MIN_RANGE
    ok = in_range & (abs_sin > MIN_SIN_ELEVATION)
    Hr = ((_I3 - zhat[:, :, None] * zhat[:, None, :])
          / np.maximum(d, MIN_RANGE)[:, None, None])
    refused = {} if ok.all() else {NEAR_ORIGIN: ~in_range, BELOW_HORIZON: in_range & ~ok}
    return Prediction(zhat, Hr, 1.0 / np.maximum(abs_sin, MIN_SIN_ELEVATION), refused)


def lidar(r: np.ndarray, rig: np.ndarray | None = None,
          noise: NoiseSettings | None = None) -> Prediction:
    """Direct position fix from the cloud-registration pipeline; z is r
    itself. The noise scale is noise.gamma at the range to the rig, or None
    without a rig."""
    scale = None if rig is None else noise.gamma(row_norms(r - rig))
    return Prediction(r, None, scale, {})


def sensor_models(att: Attitude, rig: np.ndarray | None = None,
                  noise: NoiseSettings | None = None) -> dict:
    """Each sensor's model over positions, by name in update order."""
    return {"alt": lambda r: altimeter(r, att), "uwb": uwb, "cam": camera,
            "lidar": lambda r: lidar(r, rig, noise)}
