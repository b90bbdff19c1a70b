"""Tunnel map model: bounds, box obstacles, and the UGV sensor rig.

Everything lives in a NED navigation frame anchored at the UGV base, with d
positive down.  Collision queries inflate obstacles by a safety margin;
sight-line queries test the raw boxes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path

import numpy as np
import yaml

from .errors import MapFormatError

DEFAULT_COLLISION_MARGIN = 0.3
SEGMENT_SAMPLE_STEP = 0.1
# points a visibility gate evaluates at once; each (N, 3) temporary of a
# block is 768 kB however many points one call gates
_GATE_BLOCK = 32768


def default_map_path() -> Path:
    """Path of the tunnel map shipped with the package."""
    return Path(str(resources.files(__package__) / "data" / "tunnel_default.yaml"))


def as_point(p) -> np.ndarray:
    """Coerce a point-like (sequence, array) to a float array of shape (3,)."""
    a = np.asarray(p, dtype=float)
    if a.shape != (3,):
        raise ValueError(f"expected a 3-vector, got shape {a.shape}")
    return a


@dataclass
class BoxObstacle:
    """Axis-aligned box, closed on all faces."""

    lo: np.ndarray
    hi: np.ndarray

    def __post_init__(self):
        self.lo = as_point(self.lo)
        self.hi = as_point(self.hi)
        if not np.all(self.lo <= self.hi):
            raise MapFormatError(f"obstacle has min > max: {self.lo} vs {self.hi}")


# each rig quantity, its key in a map file and the values it accepts
_RIG_LIMITS = (("lidar_pitch", "lidar_pitch_deg", "finite"),
               ("lidar_halfangle", "lidar_halfangle_deg", "positive"),
               ("lidar_max_range", "lidar_max_range_m", "positive"),
               ("camera_mount_height", "camera_mount_height_m", "non-negative"),
               ("camera_max_range", "camera_max_range_m", "positive"))


def _check_limit(value: float, name: str, key: str, accepts: str) -> None:
    """Raise MapFormatError naming the field and its map key unless value is
    finite and, where accepts says so, positive or non-negative."""
    ok = math.isfinite(value) and {"finite": True, "positive": value > 0.0,
                                   "non-negative": value >= 0.0}[accepts]
    if not ok:
        what = "finite" if accepts == "finite" else f"finite and {accepts}"
        raise MapFormatError(f"{name} (map key {key}) must be {what}, got {value}")


@dataclass
class UgvRig:
    """Ground-vehicle sensor head: an upward-pitched lidar and a tracking camera.

    The lidar scans a full 360 degrees of azimuth in a vertical band of
    +/- lidar_halfangle around a boresight pitched lidar_pitch above horizontal.
    The camera points up from a mast and only tracks targets above its own
    mounting plane.  Angles are radians internally.
    """

    position: np.ndarray = field(default_factory=lambda: np.zeros(3))
    lidar_pitch: float = math.radians(15.0)
    lidar_halfangle: float = math.radians(22.5)
    lidar_max_range: float = 50.0
    camera_mount_height: float = 0.8
    camera_max_range: float = 6.0

    def __post_init__(self):
        self.position = as_point(self.position)
        # a NaN or out-of-range value would shut a gate for every point, or
        # open it, without an error
        for name, key, accepts in _RIG_LIMITS:
            _check_limit(getattr(self, name), name, key, accepts)

    @property
    def camera_position(self) -> np.ndarray:
        return self.position + np.array([0.0, 0.0, -self.camera_mount_height])


@dataclass
class EnvironmentMap:
    """Bounded tunnel volume with box obstacles and the UGV rig."""

    bounds_min: np.ndarray
    bounds_max: np.ndarray
    obstacles: list[BoxObstacle] = field(default_factory=list)
    collision_margin: float = DEFAULT_COLLISION_MARGIN
    rig: UgvRig = field(default_factory=UgvRig)

    def __post_init__(self):
        self.bounds_min = as_point(self.bounds_min)
        self.bounds_max = as_point(self.bounds_max)
        if not np.all(self.bounds_min < self.bounds_max):
            raise MapFormatError(
                f"bounds_min must be strictly below bounds_max: "
                f"{self.bounds_min} vs {self.bounds_max}"
            )
        _check_limit(self.collision_margin, "collision_margin", "collision_margin_m",
                     "non-negative")
        # stacked box corners for vectorized batch checks
        if self.obstacles:
            self._lo = np.stack([b.lo for b in self.obstacles])
            self._hi = np.stack([b.hi for b in self.obstacles])
        else:
            self._lo = np.zeros((0, 3))
            self._hi = np.zeros((0, 3))

    # -- collision queries --------------------------------------------------

    def is_free(self, p) -> bool:
        """True if p is inside bounds and outside every margin-inflated box."""
        return self.points_free(as_point(p)[None, :])

    def points_free(self, pts: np.ndarray) -> bool:
        """is_free for every row of an (N, 3) array; True when all pass."""
        if not np.all((pts >= self.bounds_min) & (pts <= self.bounds_max)):
            return False
        m = self.collision_margin
        p = pts[:, None, :]
        return not np.all((p >= self._lo - m) & (p <= self._hi + m), axis=2).any()

    def segment_is_free(self, a, b) -> bool:
        """Sampled collision check along the segment a..b at
        SEGMENT_SAMPLE_STEP spacing."""
        pa = as_point(a)
        pb = as_point(b)
        length = float(np.linalg.norm(pb - pa))
        num = max(2, int(math.ceil(length / SEGMENT_SAMPLE_STEP)) + 1)
        ts = np.linspace(0.0, 1.0, num)
        pts = pa[None, :] + ts[:, None] * (pb - pa)[None, :]
        return self.points_free(pts)

    # -- sight lines --------------------------------------------------------

    def sight_clear(self, a, b) -> bool:
        """True if the open segment a..b intersects no obstacle box.

        Exact slab-interval test against the raw boxes; the collision margin
        does not block sight.
        """
        return bool(self.sight_clear_many(a, as_point(b)[None, :])[0])

    def sight_clear_many(self, origin, pts: np.ndarray) -> np.ndarray:
        """Vectorized sight_clear from one origin to each row of pts."""
        origin = as_point(origin)
        pts = np.asarray(pts, dtype=float).reshape(-1, 3)
        d = pts - origin
        clear = np.ones(len(pts), dtype=bool)
        for k in range(len(self.obstacles)):
            clear &= ~_segments_hit_box(origin, d, self._lo[k], self._hi[k])
        return clear

    # -- sensor visibility --------------------------------------------------

    def camera_sees(self, uav) -> bool:
        """Upward camera gate: above the mount plane, in range, unoccluded."""
        return bool(self.camera_sees_many(as_point(uav)[None, :])[0])

    def camera_sees_many(self, pts: np.ndarray) -> np.ndarray:
        """Vectorized camera_sees over an (N, 3) array of UAV positions."""
        return _in_blocks(self._camera_block, pts)

    def _camera_block(self, pts: np.ndarray) -> np.ndarray:
        rig = self.rig
        ok = (rig.position[2] - pts[:, 2]) > rig.camera_mount_height
        cam = rig.camera_position
        rel = pts - cam
        ok &= np.sqrt((rel * rel).sum(axis=1)) <= rig.camera_max_range
        idx = np.flatnonzero(ok)
        if len(idx):
            ok[idx] = self.sight_clear_many(cam, pts[idx])
        return ok

    def lidar_sees(self, uav) -> bool:
        """Lidar gate: inside the pitched vertical band, in range, unoccluded."""
        return bool(self.lidar_sees_many(as_point(uav)[None, :])[0])

    def lidar_sees_many(self, pts: np.ndarray) -> np.ndarray:
        """Vectorized lidar_sees over an (N, 3) array of UAV positions."""
        return _in_blocks(self._lidar_block, pts)

    def _lidar_block(self, pts: np.ndarray) -> np.ndarray:
        rig = self.rig
        rel = pts - rig.position
        rng = np.sqrt((rel * rel).sum(axis=1))
        ok = rng <= rig.lidar_max_range
        elev = np.arctan2(-rel[:, 2], np.hypot(rel[:, 0], rel[:, 1]))
        ok &= np.abs(elev - rig.lidar_pitch) <= rig.lidar_halfangle
        idx = np.flatnonzero(ok)
        if len(idx):
            ok[idx] = self.sight_clear_many(rig.position, pts[idx])
        return ok


def _in_blocks(gate, pts) -> np.ndarray:
    """A per-point gate over the rows of pts, _GATE_BLOCK rows at a time."""
    pts = np.asarray(pts, dtype=float).reshape(-1, 3)
    out = np.empty(len(pts), dtype=bool)
    for s in range(0, len(pts), _GATE_BLOCK):
        out[s:s + _GATE_BLOCK] = gate(pts[s:s + _GATE_BLOCK])
    return out


def _segments_hit_box(a: np.ndarray, d: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Slab test per row of d: does a + t*d[m] for t in [0, 1] enter the box?

    Axes where a direction component vanishes constrain nothing when the
    shared origin sits inside that slab and exclude the segment otherwise.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        ta = (lo - a) / d
        tb = (hi - a) / d
    lo_t = np.minimum(ta, tb)
    hi_t = np.maximum(ta, tb)
    degenerate = np.abs(d) < 1e-15
    if degenerate.any():
        inside = (a >= lo) & (a <= hi)
        lo_t = np.where(degenerate, np.where(inside, -np.inf, np.inf), lo_t)
        hi_t = np.where(degenerate, np.where(inside, np.inf, -np.inf), hi_t)
    t0 = np.maximum(lo_t.max(axis=1), 0.0)
    t1 = np.minimum(hi_t.min(axis=1), 1.0)
    return t0 <= t1


_MAP_KEYS = {"bounds_min", "bounds_max", "collision_margin_m", "obstacles", "ugv"}
_OBSTACLE_KEYS = {"min", "max"}
_UGV_KEYS = {"position"} | {key for _, key, _ in _RIG_LIMITS}


def _check_keys(block, known: set, where: str, path: Path) -> None:
    """Reject a block that is not a mapping or has keys the loader ignores."""
    if not isinstance(block, dict):
        raise MapFormatError(f"{where} in {path} is not a mapping")
    unknown = sorted(str(k) for k in block if k not in known)
    if unknown:
        raise MapFormatError(
            f"unknown key(s) {', '.join(unknown)} in {where} of {path}; "
            f"expected {', '.join(sorted(known))}"
        )


def load_map(path) -> EnvironmentMap:
    """Parse a YAML map file and validate it into an EnvironmentMap.

    Unknown keys are rejected rather than ignored, so a misspelt block
    cannot silently fall back to defaults. The rig must sit at the origin,
    where the UWB and camera models (ekf.sight_geometry) put their anchor.
    """
    path = Path(path)
    try:
        raw = yaml.safe_load(path.read_text())
    except (OSError, yaml.YAMLError) as exc:
        raise MapFormatError(f"cannot read map file {path}: {exc}") from exc
    _check_keys(raw, _MAP_KEYS, "the top level", path)

    bounds = []
    for key in ("bounds_min", "bounds_max"):
        if key not in raw:
            raise MapFormatError(f"map file {path} is missing {key!r}")
        try:
            point = as_point(raw[key])
        except (TypeError, ValueError) as exc:
            raise MapFormatError(f"{key} in {path} is malformed: {exc}") from exc
        # node sampling draws uniformly between the bounds
        if not np.isfinite(point).all():
            raise MapFormatError(f"{key} in {path} is not finite: {point.tolist()}")
        bounds.append(point)

    obstacles = []
    for i, entry in enumerate(raw.get("obstacles") or []):
        _check_keys(entry, _OBSTACLE_KEYS, f"obstacle {i}", path)
        try:
            obstacles.append(BoxObstacle(entry["min"], entry["max"]))
        except (KeyError, TypeError, ValueError) as exc:
            raise MapFormatError(f"obstacle {i} in {path} is malformed: {exc}") from exc

    rig_raw = raw.get("ugv") or {}
    _check_keys(rig_raw, _UGV_KEYS, "the ugv block", path)
    try:
        # only the fields the file gives; UgvRig holds the defaults
        given = {"position": rig_raw["position"]} if "position" in rig_raw else {}
        for name, key, _ in _RIG_LIMITS:
            if key in rig_raw:
                value = float(rig_raw[key])
                given[name] = math.radians(value) if key.endswith("_deg") else value
        rig = UgvRig(**given)
    except (TypeError, ValueError, MapFormatError) as exc:
        raise MapFormatError(f"ugv block in {path} is malformed: {exc}") from exc
    if np.any(rig.position != 0.0):
        raise MapFormatError(
            f"ugv position in {path} is {rig.position.tolist()}; the rig must sit "
            "at the frame origin [0, 0, 0]"
        )

    try:
        margin = float(raw.get("collision_margin_m", DEFAULT_COLLISION_MARGIN))
    except (TypeError, ValueError) as exc:
        raise MapFormatError(f"collision_margin_m in {path} is malformed: {exc}") from exc

    try:
        return EnvironmentMap(
            bounds_min=bounds[0],
            bounds_max=bounds[1],
            obstacles=obstacles,
            collision_margin=margin,
            rig=rig,
        )
    except MapFormatError as exc:
        raise MapFormatError(f"map file {path} is malformed: {exc}") from exc
