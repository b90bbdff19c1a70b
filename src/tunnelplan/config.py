"""Run configuration: built-in defaults, YAML loading, dotted-key overrides,
and derived random streams. Each section is checked as it is built.

One config object drives every pipeline stage, so a single file plus a seed
fully determines all artifacts.
"""

from __future__ import annotations

from dataclasses import MISSING, dataclass, field, fields, asdict
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


def _require_str(value, path, error, choices=None):
    if not isinstance(value, str) or not value:
        raise error(f"{path}: expected a non-empty string, got {value!r}")
    if choices is not None and value not in choices:
        raise error(f"{path}: must be one of {sorted(choices)}, got {value!r}")


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

    def __post_init__(self):
        super().__post_init__()
        _require_str(self.mode, "mode", ValueError, choices=("noisy", "perfect"))
        if not isinstance(self.selections, list) or not self.selections:
            raise ValueError("selections: expected a non-empty list")
        for sel in self.selections:
            if isinstance(sel, bool):
                raise ValueError(f"selections: bad entry {sel!r}")
            if isinstance(sel, int):
                if sel < 0:
                    raise ValueError(f"selections: index must be >= 0, got {sel}")
            elif not (sel in SELECTION_NAMES or is_candidate_index(sel)):
                raise ValueError(f"selections: bad entry {sel!r}; use one of "
                                 f"{list(SELECTION_NAMES)} or a candidate index")
        # a selection's label names its output files and aggregate row
        labels = [str(sel) for sel in self.selections]
        repeated = sorted({label for label in labels if labels.count(label) > 1})
        if repeated:
            raise ValueError(f"selections: repeated entries {repeated}")


@dataclass
class RunConfig:
    map: str = "builtin:tunnel_default"
    seed: int = mapenv.bounded(6, integer=True, minimum=0)
    out_dir: str = "out"
    plan: PlanSection = field(default_factory=PlanSection)
    kinematics: planner.KinematicProfile = field(default_factory=planner.KinematicProfile)
    rates: planner.RateSchedule = field(default_factory=planner.RateSchedule)
    noise: ekf.NoiseSettings = field(default_factory=ekf.NoiseSettings)
    simulate: SimulateSection = field(default_factory=SimulateSection)

    def __post_init__(self):
        mapenv.check_fields(self, ConfigError)
        _require_str(self.map, "map", ConfigError)
        _require_str(self.out_dir, "out_dir", ConfigError)

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

    def rate_schedule(self) -> planner.RateSchedule:
        return self.rates

    def noise_config(self) -> ekf.NoiseConfig:
        return ekf.NoiseConfig(**asdict(self.noise), ts=1.0 / self.rates.predict_hz)


# ---------------------------------------------------------------------------
# loading


# each top-level key and the section class it holds, MISSING for a plain value
_SECTIONS = {f.name: f.default_factory for f in fields(RunConfig)}


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
        if key not in _SECTIONS:
            raise ConfigError(f"unknown config key {key}")
        cls = _SECTIONS[key]
        kwargs[key] = value if cls is MISSING else _section_from_dict(cls, value, key)
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


def load_config(path=None, overrides=(), seed=None) -> RunConfig:
    """Build a RunConfig.

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
        return _from_dict(data)
    except TypeError as exc:
        raise ConfigError(f"malformed config: {exc}") from exc
