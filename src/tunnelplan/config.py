"""Run configuration: built-in defaults, YAML loading, dotted-key overrides,
validation, and derived random streams.

One config object drives every pipeline stage, so a single file plus a seed
fully determines all artifacts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, asdict
from pathlib import Path

import numpy as np
import yaml

from . import ekf, mapenv, planner
from .errors import ConfigError

# spawn keys for the per-stage random streams derived from the master seed
STREAM_SAMPLING = 0
STREAM_CANDIDATES = 1
STREAM_MONTECARLO = 2

SELECTION_NAMES = ("best", "worst", "second_best", "second_worst")


def is_candidate_index(label) -> bool:
    """True for a selection label that names a candidate by its index.

    Only ASCII decimal digits with no leading zero count: int() also reads
    other scripts' digits and "07", either of which would give one
    candidate a second label.
    """
    return (isinstance(label, str) and label.isascii() and label.isdigit()
            and (label == "0" or not label.startswith("0")))


@dataclass
class PlanSection:
    nodes: int = 12
    knn: int = 5
    candidates: int = 80
    forward_bias: float = 3.0
    max_flight_time_s: float = 900.0
    pec_threshold_m2: float = 25.0


@dataclass
class KinematicsSection:
    cruise_mps: float = 0.5
    roll_deg: float = 0.0
    pitch_deg: float = 0.0


@dataclass
class NoiseSection:
    q_vel: float = 0.01
    q_pos: float = 1.0
    r_alt: float = 0.01
    r_uwb: float = 0.01
    r_cam: float = 1e-4
    r_lidar: float = 0.0225
    lidar_ref_range_m: float = 5.0
    lidar_gamma_max: float = 100.0


@dataclass
class SimulateSection:
    runs: int = 10
    mode: str = "noisy"
    selections: list = field(default_factory=lambda: ["best", "worst"])
    cross_track_sigma_m: float = 0.3
    cross_track_tau_s: float = 2.0
    speed_sigma_mps: float = 0.05
    dropout: float = 0.1
    outlier_prob: float = 0.0
    outlier_scale: float = 10.0


@dataclass
class RunConfig:
    map: str = "builtin:tunnel_default"
    seed: int = 6
    out_dir: str = "out"
    plan: PlanSection = field(default_factory=PlanSection)
    kinematics: KinematicsSection = field(default_factory=KinematicsSection)
    rates: planner.RateSchedule = field(default_factory=planner.RateSchedule)
    noise: NoiseSection = field(default_factory=NoiseSection)
    simulate: SimulateSection = field(default_factory=SimulateSection)

    def resolve_map_path(self) -> Path:
        """Map file location; `builtin:NAME` points into the shipped data dir."""
        if self.map.startswith("builtin:"):
            name = self.map[len("builtin:"):]
            return mapenv.default_map_path().parent / f"{name}.yaml"
        return Path(self.map)

    def rng(self, stream: int) -> np.random.Generator:
        """Independent generator for one pipeline stage.

        Streams are spawned from the master seed by key, so adding draws in
        one stage never shifts the randomness of another.
        """
        seq = np.random.SeedSequence(self.seed, spawn_key=(int(stream),))
        return np.random.default_rng(seq)

    def kinematic_profile(self) -> planner.KinematicProfile:
        k = self.kinematics
        att = ekf.Attitude(
            roll=math.radians(k.roll_deg), pitch=math.radians(k.pitch_deg)
        )
        return planner.KinematicProfile(cruise=k.cruise_mps, attitude=att)

    def rate_schedule(self) -> planner.RateSchedule:
        return self.rates

    def noise_config(self) -> ekf.NoiseConfig:
        n = self.noise
        return ekf.NoiseConfig(
            q_diag=np.array([n.q_vel] * 3 + [n.q_pos] * 3),
            ts=1.0 / self.rates.predict_hz,
            r_alt=n.r_alt,
            r_uwb=n.r_uwb,
            r_cam=n.r_cam * np.eye(3),
            r_lidar=n.r_lidar * np.eye(3),
            lidar_gamma=ekf.LidarGammaModel(
                ref_range=n.lidar_ref_range_m, max_gamma=n.lidar_gamma_max
            ),
        )


def config_to_dict(cfg: RunConfig) -> dict:
    """Plain nested dict in the YAML schema, for echoing into artifacts."""
    return asdict(cfg)


# ---------------------------------------------------------------------------
# loading


_SECTIONS = {
    "plan": PlanSection,
    "kinematics": KinematicsSection,
    "rates": planner.RateSchedule,
    "noise": NoiseSection,
    "simulate": SimulateSection,
}


def _section_from_dict(cls, data, prefix):
    if not isinstance(data, dict):
        raise ConfigError(f"config section {prefix!r} must be a mapping")
    known = {f.name for f in fields(cls)}
    for key in data:
        if key not in known:
            raise ConfigError(f"unknown config key {prefix}.{key}")
    if cls is planner.RateSchedule:
        # the schedule checks its rates' signs and order as it is built
        data = {key: _require_num(value, f"{prefix}.{key}") for key, value in data.items()}
    try:
        return cls(**data)
    except ValueError as exc:
        raise ConfigError(f"{prefix}.{exc}") from exc


def _from_dict(data: dict) -> RunConfig:
    kwargs = {}
    for key, value in data.items():
        if key in ("map", "seed", "out_dir"):
            kwargs[key] = value
        elif key in _SECTIONS:
            kwargs[key] = _section_from_dict(_SECTIONS[key], value, key)
        else:
            raise ConfigError(f"unknown config key {key}")
    return RunConfig(**kwargs)


def _apply_override(data: dict, expr: str):
    key, sep, raw = expr.partition("=")
    if not sep:
        raise ConfigError(f"override {expr!r}: expected KEY=VALUE")
    try:
        value = yaml.safe_load(raw)
    except yaml.YAMLError as exc:
        raise ConfigError(f"override {expr!r}: bad value: {exc}") from exc
    parts = key.strip().split(".")
    node = data
    for p in parts[:-1]:
        nxt = node.setdefault(p, {})
        if not isinstance(nxt, dict):
            raise ConfigError(f"override {expr!r}: {p} is not a section")
        node = nxt
    node[parts[-1]] = value


def _require_int(value, path, minimum=None):
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{path}: expected an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise ConfigError(f"{path}: must be >= {minimum}, got {value}")
    return value


def _require_num(value, path, minimum=None, maximum=None, above=None):
    """The number value holds, by mapenv.as_number's rule."""
    try:
        value = mapenv.as_number(value)
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    if minimum is not None and value < minimum:
        raise ConfigError(f"{path}: must be >= {minimum}, got {value}")
    if maximum is not None and value > maximum:
        raise ConfigError(f"{path}: must be <= {maximum}, got {value}")
    if above is not None and not value > above:
        raise ConfigError(f"{path}: must be > {above}, got {value}")
    return value


def _require_field(section, prefix, name, **bounds):
    """_require_num on a section's field, which then holds the number read."""
    setattr(section, name, _require_num(getattr(section, name), f"{prefix}.{name}", **bounds))


def _require_str(value, path, choices=None):
    if not isinstance(value, str) or not value:
        raise ConfigError(f"{path}: expected a non-empty string, got {value!r}")
    if choices is not None and value not in choices:
        raise ConfigError(f"{path}: must be one of {sorted(choices)}, got {value!r}")
    return value


def _validate(cfg: RunConfig):
    _require_str(cfg.map, "map")
    _require_int(cfg.seed, "seed", 0)
    _require_str(cfg.out_dir, "out_dir")

    p = cfg.plan
    # a one-node roadmap has no edge to fly
    _require_int(p.nodes, "plan.nodes", 2)
    _require_int(p.knn, "plan.knn", 1)
    _require_int(p.candidates, "plan.candidates", 1)
    _require_field(p, "plan", "forward_bias", minimum=1.0)
    _require_field(p, "plan", "max_flight_time_s", above=0.0)
    _require_field(p, "plan", "pec_threshold_m2", above=0.0)

    _require_field(cfg.kinematics, "kinematics", "cruise_mps", above=0.0)
    _require_field(cfg.kinematics, "kinematics", "roll_deg")
    _require_field(cfg.kinematics, "kinematics", "pitch_deg")

    n = cfg.noise
    for name in ("q_vel", "q_pos", "r_alt", "r_uwb"):
        _require_field(n, "noise", name, minimum=0.0)
    # synthesis factors the covariance of a vector reading
    for name in ("r_cam", "r_lidar"):
        _require_field(n, "noise", name, above=0.0)
    _require_field(n, "noise", "lidar_ref_range_m", above=0.0)
    _require_field(n, "noise", "lidar_gamma_max", minimum=1.0)

    s = cfg.simulate
    _require_int(s.runs, "simulate.runs", 1)
    _require_str(s.mode, "simulate.mode", choices=("noisy", "perfect"))
    if not isinstance(s.selections, list) or not s.selections:
        raise ConfigError("simulate.selections: expected a non-empty list")
    for sel in s.selections:
        if isinstance(sel, bool):
            raise ConfigError(f"simulate.selections: bad entry {sel!r}")
        if isinstance(sel, int):
            if sel < 0:
                raise ConfigError(
                    f"simulate.selections: index must be >= 0, got {sel}"
                )
        elif not (sel in SELECTION_NAMES or is_candidate_index(sel)):
            raise ConfigError(
                f"simulate.selections: bad entry {sel!r}; use one of "
                f"{list(SELECTION_NAMES)} or a candidate index"
            )
    # a selection's label names its output files and aggregate row
    labels = [str(sel) for sel in s.selections]
    repeated = sorted({label for label in labels if labels.count(label) > 1})
    if repeated:
        raise ConfigError(f"simulate.selections: repeated entries {repeated}")
    _require_field(s, "simulate", "cross_track_sigma_m", minimum=0.0)
    _require_field(s, "simulate", "cross_track_tau_s", above=0.0)
    _require_field(s, "simulate", "speed_sigma_mps", minimum=0.0)
    _require_field(s, "simulate", "dropout", minimum=0.0, maximum=1.0)
    _require_field(s, "simulate", "outlier_prob", minimum=0.0, maximum=1.0)
    _require_field(s, "simulate", "outlier_scale", minimum=0.0)

    # the components check their own parameters too
    try:
        cfg.noise_config()
        cfg.kinematic_profile()
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def load_config(path=None, overrides=(), seed=None) -> RunConfig:
    """Build a validated RunConfig.

    `path` of None means built-in defaults.  `overrides` are dotted
    KEY=VALUE strings applied on top of the file; an explicit `seed`
    argument wins over both.
    """
    data: dict = {}
    if path is not None:
        p = Path(path)
        try:
            text = p.read_text()
        except OSError as exc:
            raise ConfigError(f"cannot read config file {p}: {exc}") from exc
        try:
            raw = yaml.safe_load(text)
        except yaml.YAMLError as exc:
            raise ConfigError(f"config file {p}: {exc}") from exc
        if raw is None:
            raw = {}
        if not isinstance(raw, dict):
            raise ConfigError(f"config file {p}: top level must be a mapping")
        data = raw
    for ov in overrides:
        _apply_override(data, ov)
    if seed is not None:
        data["seed"] = seed
    try:
        cfg = _from_dict(data)
    except TypeError as exc:
        raise ConfigError(f"malformed config: {exc}") from exc
    _validate(cfg)
    return cfg
