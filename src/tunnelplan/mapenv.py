"""Tunnel map model: bounds, box obstacles, and the UGV sensor rig.

Everything lives in a NED navigation frame anchored at the UGV base, with d
positive down.  Collision queries inflate obstacles by a safety margin;
sight-line queries test the raw boxes.
"""

from __future__ import annotations

import math
import re
import sys
from dataclasses import dataclass, field, fields
from importlib import resources
from pathlib import Path

import numpy as np
import yaml

from .errors import MapFormatError

DEFAULT_COLLISION_MARGIN = 0.3
SEGMENT_SAMPLE_STEP = 0.1
# a decimal number with an exponent, which YAML 1.1 reads as a string unless
# it has a dot and a signed exponent ("1e-4", "1.5e3", "2E-2")
_EXPONENT_NUMBER = re.compile(r"[-+]?([0-9]+\.?[0-9]*|\.[0-9]+)[eE][-+]?[0-9]+")


def default_map_path() -> Path:
    """Path of the tunnel map shipped with the package."""
    return Path(str(resources.files(__package__) / "data" / "tunnel_default.yaml"))


def as_number(value):
    """The finite number a YAML value holds: an int or a float, or a string
    written with an exponent, read as the float it spells. Raises ValueError
    for anything else, a bool, NaN, the infinities and integers past the
    float range included; the config and the map loader share this rule."""
    if isinstance(value, str) and _EXPONENT_NUMBER.fullmatch(value):
        value = float(value)
    elif isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"expected a number, got {value!r}")
    if not abs(value) <= sys.float_info.max:
        raise ValueError(f"expected a finite number, got {value}")
    return value


def bounded(default, key=None, integer=False, minimum=None, maximum=None, above=None):
    """A dataclass field holding a number, with the values it accepts declared
    beside its default; check_fields enforces them. key is the setting's
    map-file key where it differs from the field name."""
    return field(default=default, metadata={"bounds": dict(
        key=key, integer=integer, minimum=minimum, maximum=maximum, above=above)})


def check_fields(obj, error=ValueError) -> None:
    """Check every bounded field of a dataclass instance and store the number
    it holds (by as_number's rule, or a strict int where integer is declared).
    Raises error with a message that starts with the field's name, and its
    map key where it has one."""
    for f in fields(obj):
        if "bounds" not in f.metadata:
            continue
        b = f.metadata["bounds"]
        label = f.name if b["key"] is None else f"{f.name} (map key {b['key']})"
        value = getattr(obj, f.name)
        if b["integer"]:
            if isinstance(value, bool) or not isinstance(value, int):
                raise error(f"{label}: expected an integer, got {value!r}")
        else:
            try:
                value = as_number(value)
            except ValueError as exc:
                raise error(f"{label}: {exc}") from exc
        if b["minimum"] is not None and value < b["minimum"]:
            raise error(f"{label}: must be >= {b['minimum']}, got {value}")
        if b["maximum"] is not None and value > b["maximum"]:
            raise error(f"{label}: must be <= {b['maximum']}, got {value}")
        if b["above"] is not None and not value > b["above"]:
            raise error(f"{label}: must be > {b['above']}, got {value}")
        setattr(obj, f.name, value)


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


@dataclass
class UgvRig:
    """Ground-vehicle sensor head: an upward-pitched lidar and a tracking camera.

    The lidar scans a full 360 degrees of azimuth in a vertical band of
    +/- lidar_halfangle around a boresight pitched lidar_pitch above horizontal.
    The camera points up from a mast and only tracks targets above its own
    mounting plane.  Angles are radians internally.
    """

    position: np.ndarray = field(default_factory=lambda: np.zeros(3))
    lidar_pitch: float = bounded(math.radians(15.0), key="lidar_pitch_deg")
    lidar_halfangle: float = bounded(math.radians(22.5), key="lidar_halfangle_deg", above=0.0)
    lidar_max_range: float = bounded(50.0, key="lidar_max_range_m", above=0.0)
    camera_mount_height: float = bounded(0.8, key="camera_mount_height_m", minimum=0.0)
    camera_max_range: float = bounded(6.0, key="camera_max_range_m", above=0.0)

    def __post_init__(self):
        self.position = as_point(self.position)
        # a NaN or out-of-range value would shut a gate for every point, or
        # open it, without an error
        check_fields(self, MapFormatError)

    @property
    def camera_position(self) -> np.ndarray:
        return self.position + np.array([0.0, 0.0, -self.camera_mount_height])


@dataclass
class EnvironmentMap:
    """Bounded tunnel volume with box obstacles and the UGV rig."""

    bounds_min: np.ndarray
    bounds_max: np.ndarray
    obstacles: list[BoxObstacle] = field(default_factory=list)
    collision_margin: float = bounded(DEFAULT_COLLISION_MARGIN, key="collision_margin_m",
                                      minimum=0.0)
    rig: UgvRig = field(default_factory=UgvRig)

    def __post_init__(self):
        self.bounds_min = as_point(self.bounds_min)
        self.bounds_max = as_point(self.bounds_max)
        if not np.all(self.bounds_min < self.bounds_max):
            raise MapFormatError(
                f"bounds_min must be strictly below bounds_max: "
                f"{self.bounds_min} vs {self.bounds_max}"
            )
        check_fields(self, MapFormatError)
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

    def sight_clear_many(self, origin, pts: np.ndarray) -> np.ndarray:
        """True for each row of pts whose open segment from origin intersects
        no obstacle box.

        Exact slab-interval test against the raw boxes; the collision margin
        does not block sight.
        """
        origin = as_point(origin)
        pts = np.asarray(pts, dtype=float).reshape(-1, 3)
        d = pts - origin
        clear = np.ones(len(pts), dtype=bool)
        for k in range(len(self.obstacles)):
            clear &= ~_segments_hit_box(origin, d, self._lo[k], self._hi[k])
        return clear

    # -- sensor visibility --------------------------------------------------

    def camera_sees_many(self, pts: np.ndarray) -> np.ndarray:
        """Upward camera gate over an (N, 3) array of UAV positions: above
        the mount plane, in range, unoccluded."""
        pts = np.asarray(pts, dtype=float).reshape(-1, 3)
        rig = self.rig
        ok = (rig.position[2] - pts[:, 2]) > rig.camera_mount_height
        cam = rig.camera_position
        rel = pts - cam
        ok &= np.sqrt((rel * rel).sum(axis=1)) <= rig.camera_max_range
        idx = np.flatnonzero(ok)
        if len(idx):
            ok[idx] = self.sight_clear_many(cam, pts[idx])
        return ok

    def lidar_sees_many(self, pts: np.ndarray) -> np.ndarray:
        """Lidar gate over an (N, 3) array of UAV positions: inside the
        pitched vertical band, in range, unoccluded."""
        pts = np.asarray(pts, dtype=float).reshape(-1, 3)
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


def _segments_hit_box(a: np.ndarray, d: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Slab test per row of d: does a + t*d[m] for t in [0, 1] enter the box?

    Axes where a direction component vanishes constrain nothing when the
    shared origin sits inside that slab and exclude the segment otherwise.
    """
    # a zero or subnormal component gives inf or NaN; degenerate axes replace it
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
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
# each rig field a map file may set, by its key there
_RIG_KEYS = {f.metadata["bounds"]["key"]: f.name for f in fields(UgvRig) if "bounds" in f.metadata}
_UGV_KEYS = {"position"} | set(_RIG_KEYS)


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


def _map_number(value, key: str, path: Path) -> float:
    """A number of a map file, by as_number's rule."""
    try:
        return float(as_number(value))
    except ValueError as exc:
        raise MapFormatError(f"{key} in {path} is malformed: {exc}") from exc


def _map_point(value, key: str, path: Path) -> np.ndarray:
    """A 3-vector of a map file: a list of three numbers."""
    if not isinstance(value, list) or len(value) != 3:
        raise MapFormatError(
            f"{key} in {path} is malformed: expected a list of 3 numbers, got {value!r}")
    return np.array([_map_number(v, key, path) for v in value])


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
        bounds.append(_map_point(raw[key], key, path))

    entries = raw.get("obstacles")
    if not isinstance(entries, (list, type(None))):
        raise MapFormatError(f"obstacles in {path} is malformed: expected a list, got {entries!r}")
    obstacles = []
    for i, entry in enumerate(entries or []):
        _check_keys(entry, _OBSTACLE_KEYS, f"obstacle {i}", path)
        lo, hi = (_map_point(entry.get(k), f"obstacle {i} {k}", path) for k in ("min", "max"))
        obstacles.append(BoxObstacle(lo, hi))

    rig_raw = {} if raw.get("ugv") is None else raw["ugv"]
    _check_keys(rig_raw, _UGV_KEYS, "the ugv block", path)
    # only the fields the file gives; UgvRig holds the defaults
    given = {}
    if "position" in rig_raw:
        given["position"] = _map_point(rig_raw["position"], "ugv position", path)
    for key, name in _RIG_KEYS.items():
        if key in rig_raw:
            value = _map_number(rig_raw[key], f"ugv {key}", path)
            given[name] = math.radians(value) if key.endswith("_deg") else value
    try:
        rig = UgvRig(**given)
    except MapFormatError as exc:
        raise MapFormatError(f"ugv block in {path} is malformed: {exc}") from exc
    if np.any(rig.position != 0.0):
        raise MapFormatError(
            f"ugv position in {path} is {rig.position.tolist()}; the rig must sit "
            "at the frame origin [0, 0, 0]"
        )

    margin = _map_number(raw.get("collision_margin_m", DEFAULT_COLLISION_MARGIN),
                         "collision_margin_m", path)

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
