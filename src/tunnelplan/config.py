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


class _Section:
    """A config section. Each numeric field declares the values it accepts
    beside its default (mapenv.bounded), and the section checks them as it
    is built."""

    def __post_init__(self):
        mapenv.check_fields(self)


@dataclass
class PlanSection(_Section):
    # a one-node roadmap has no edge to fly
    nodes: int = mapenv.bounded(12, integer=True, minimum=2)
    knn: int = mapenv.bounded(5, integer=True, minimum=1)
    candidates: int = mapenv.bounded(80, integer=True, minimum=1)
    forward_bias: float = mapenv.bounded(3.0, minimum=1.0)
    max_flight_time_s: float = mapenv.bounded(900.0, above=0.0)
    pec_threshold_m2: float = mapenv.bounded(25.0, above=0.0)


@dataclass
class KinematicsSection(_Section):
    cruise_mps: float = mapenv.bounded(0.5, above=0.0)
    roll_deg: float = mapenv.bounded(0.0)
    pitch_deg: float = mapenv.bounded(0.0)


@dataclass
class NoiseSection(_Section):
    q_vel: float = mapenv.bounded(0.01, minimum=0.0)
    q_pos: float = mapenv.bounded(1.0, minimum=0.0)
    r_alt: float = mapenv.bounded(0.01, minimum=0.0)
    r_uwb: float = mapenv.bounded(0.01, minimum=0.0)
    # a vector reading's noise keeps its innovation covariance invertible
    r_cam: float = mapenv.bounded(1e-4, above=0.0)
    r_lidar: float = mapenv.bounded(0.0225, above=0.0)
    lidar_ref_range_m: float = mapenv.bounded(5.0, above=0.0)
    lidar_gamma_max: float = mapenv.bounded(100.0, minimum=1.0)


@dataclass
class SimulateSection(_Section):
    runs: int = mapenv.bounded(10, integer=True, minimum=1)
    mode: str = "noisy"
    selections: list = field(default_factory=lambda: ["best", "worst"])
    cross_track_sigma_m: float = mapenv.bounded(0.3, minimum=0.0)
    cross_track_tau_s: float = mapenv.bounded(2.0, above=0.0)
    speed_sigma_mps: float = mapenv.bounded(0.05, minimum=0.0)
    dropout: float = mapenv.bounded(0.1, minimum=0.0, maximum=1.0)
    outlier_prob: float = mapenv.bounded(0.0, minimum=0.0, maximum=1.0)
    outlier_scale: float = mapenv.bounded(10.0, minimum=0.0)


@dataclass
class RunConfig:
    map: str = "builtin:tunnel_default"
    seed: int = mapenv.bounded(6, integer=True, minimum=0)
    out_dir: str = "out"
    plan: PlanSection = field(default_factory=PlanSection)
    kinematics: KinematicsSection = field(default_factory=KinematicsSection)
    rates: planner.RateSchedule = field(default_factory=planner.RateSchedule)
    noise: NoiseSection = field(default_factory=NoiseSection)
    simulate: SimulateSection = field(default_factory=SimulateSection)

    def __post_init__(self):
        mapenv.check_fields(self, ConfigError)

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


def _require_str(value, path, choices=None):
    if not isinstance(value, str) or not value:
        raise ConfigError(f"{path}: expected a non-empty string, got {value!r}")
    if choices is not None and value not in choices:
        raise ConfigError(f"{path}: must be one of {sorted(choices)}, got {value!r}")
    return value


def _validate(cfg: RunConfig):
    _require_str(cfg.map, "map")
    _require_str(cfg.out_dir, "out_dir")

    s = cfg.simulate
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
