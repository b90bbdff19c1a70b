"""Tests for run-configuration loading, overrides, and seed streams."""

import dataclasses
import inspect
import math
from pathlib import Path

import numpy as np
import pytest
import yaml

from tunnelplan import circuits, cli, config, ekf, mapenv, montecarlo, planner, roadmap
from tunnelplan.errors import ConfigError

REPO_ROOT = Path(__file__).resolve().parent.parent


class TestDefaults:
    def test_builtin_defaults(self):
        cfg = config.load_config()
        assert cfg.seed == 6
        assert cfg.map == "builtin:tunnel_default"
        assert cfg.out_dir == "out"
        assert cfg.plan.nodes == 12
        assert cfg.plan.knn == 5
        assert cfg.plan.candidates == 80
        assert cfg.plan.forward_bias == 3.0
        assert cfg.simulate.runs == 10
        assert cfg.simulate.mode == "noisy"
        assert cfg.simulate.selections == ["best", "worst"]

    def test_component_builders(self):
        cfg = config.load_config()
        noise = cfg.noise_config()
        assert noise.ts == 0.02
        assert dataclasses.asdict(noise) == {**dataclasses.asdict(cfg.noise), "ts": 0.02}
        assert (noise.q_vel, noise.q_pos, noise.r_cam, noise.r_lidar) == (0.01, 1.0, 1e-4, 0.0225)
        assert noise.lidar_ref_range_m == 5.0
        rates = cfg.rate_schedule()
        assert rates.predict_hz == 50.0
        assert rates.alt_hz == 5.0
        kin = cfg.kinematics
        assert kin.cruise_mps == 0.5
        assert kin.attitude.roll == 0.0

    def test_shipped_default_file_matches_builtin(self):
        path = REPO_ROOT / "configs" / "default.yaml"
        assert config.load_config(path) == config.load_config()

    def test_library_defaults_equal_the_shipped_config(self):
        # tests that build components from library defaults stand in for the
        # shipped config; the library's dropout of 0.0 differs on purpose
        cfg = config.load_config(REPO_ROOT / "configs" / "default.yaml")
        assert planner.KinematicProfile() == cfg.kinematics
        assert roadmap.DEFAULT_FORWARD_BIAS == cfg.plan.forward_bias
        assert circuits.DEFAULT_CRUISE == cfg.kinematics.cruise_mps
        truth = inspect.signature(montecarlo.simulate_truth).parameters
        sim = config.SimulateSection()
        assert truth["cross_track_sigma"].default == sim.cross_track_sigma_m
        assert truth["cross_track_tau"].default == sim.cross_track_tau_s
        assert truth["speed_sigma"].default == sim.speed_sigma_mps
        synth = inspect.signature(montecarlo.synthesize_measurements).parameters
        assert synth["outlier_scale"].default == sim.outlier_scale

    def test_builtin_map_resolves_to_shipped_file(self):
        cfg = config.load_config()
        path = cfg.resolve_map_path()
        assert path == mapenv.default_map_path()
        assert path.exists()

    def test_plain_path_map_passes_through(self):
        cfg = config.load_config(overrides=["map=/tmp/custom_map.yaml"])
        assert cfg.resolve_map_path() == Path("/tmp/custom_map.yaml")


class TestSeedStreams:
    def test_derivation_is_fixed(self):
        # stream k is the generator seeded by SeedSequence(seed, spawn_key=(k,))
        cfg = config.load_config()
        want = np.random.default_rng(
            np.random.SeedSequence(6, spawn_key=(config.STREAM_SAMPLING,))
        ).integers(0, 2**63 - 1, size=4)
        got = cfg.rng(config.STREAM_SAMPLING).integers(0, 2**63 - 1, size=4)
        assert np.array_equal(want, got)

    def test_streams_are_independent(self):
        cfg = config.load_config()
        a = cfg.rng(config.STREAM_SAMPLING).random(8)
        b = cfg.rng(config.STREAM_CANDIDATES).random(8)
        c = cfg.rng(config.STREAM_MONTECARLO).random(8)
        assert not np.array_equal(a, b)
        assert not np.array_equal(b, c)

    def test_repeated_calls_restart_the_stream(self):
        cfg = config.load_config()
        assert np.array_equal(cfg.rng(0).random(5), cfg.rng(0).random(5))


class TestYamlLoading:
    def test_partial_file_overrides_defaults(self, tmp_path):
        p = tmp_path / "c.yaml"
        p.write_text("seed: 9\nplan:\n  nodes: 7\n")
        cfg = config.load_config(p)
        assert cfg.seed == 9
        assert cfg.plan.nodes == 7
        assert cfg.plan.knn == 5

    def test_missing_file_is_config_error(self, tmp_path):
        with pytest.raises(ConfigError, match="nope.yaml"):
            config.load_config(tmp_path / "nope.yaml")

    def test_bad_syntax_is_config_error(self, tmp_path):
        p = tmp_path / "c.yaml"
        p.write_text("plan: [unclosed\n")
        with pytest.raises(ConfigError):
            config.load_config(p)

    def test_non_mapping_root_rejected(self, tmp_path):
        p = tmp_path / "c.yaml"
        p.write_text("- 1\n- 2\n")
        with pytest.raises(ConfigError):
            config.load_config(p)

    def test_unknown_top_level_key(self, tmp_path):
        p = tmp_path / "c.yaml"
        p.write_text("plann:\n  nodes: 7\n")
        with pytest.raises(ConfigError, match="plann"):
            config.load_config(p)

    def test_unknown_section_key(self, tmp_path):
        p = tmp_path / "c.yaml"
        p.write_text("plan:\n  nodez: 7\n")
        with pytest.raises(ConfigError, match="plan.nodez"):
            config.load_config(p)

    def test_numbers_written_with_an_exponent(self, tmp_path):
        # YAML 1.1 reads these as strings: its floats need a dot and a
        # signed exponent
        p = tmp_path / "c.yaml"
        p.write_text("noise:\n  r_cam: 1e-4\n  q_pos: 1.5e3\n"
                     "simulate:\n  dropout: 2E-2\nrates:\n  cam_hz: 1e1\n")
        assert yaml.safe_load(p.read_text())["noise"]["r_cam"] == "1e-4"
        cfg = config.load_config(p)
        assert (cfg.noise.r_cam, cfg.noise.q_pos, cfg.simulate.dropout) == (1e-4, 1500.0, 0.02)
        assert cfg.rates.cam_hz == 10.0
        assert config.load_config(p) == config.load_config(overrides=[
            "noise.r_cam=0.0001", "noise.q_pos=1500.0", "simulate.dropout=0.02",
            "rates.cam_hz=10.0"])


class TestOverrides:
    def test_set_overrides_apply_with_yaml_types(self):
        cfg = config.load_config(
            overrides=["plan.nodes=9", "simulate.mode=perfect", "noise.r_alt=0.5"]
        )
        assert cfg.plan.nodes == 9
        assert cfg.simulate.mode == "perfect"
        assert cfg.noise_config().r_alt == 0.5

    def test_set_list_value(self):
        cfg = config.load_config(overrides=["simulate.selections=[best]"])
        assert cfg.simulate.selections == ["best"]

    def test_set_number_written_with_an_exponent(self):
        cfg = config.load_config(overrides=["noise.r_cam=1e-4", "kinematics.cruise_mps=+5E-1",
                                            "plan.max_flight_time_s=.9e3"])
        assert cfg.noise.r_cam == 1e-4
        assert cfg.noise_config().r_cam == 1e-4
        assert cfg.kinematics.cruise_mps == 0.5
        assert cfg.plan.max_flight_time_s == 900.0

    def test_set_top_level_scalar(self):
        cfg = config.load_config(overrides=["out_dir=elsewhere"])
        assert cfg.out_dir == "elsewhere"

    def test_set_requires_equals(self):
        with pytest.raises(ConfigError, match="KEY=VALUE"):
            config.load_config(overrides=["plan.nodes"])

    def test_set_unknown_key(self):
        with pytest.raises(ConfigError, match="plan.nodez"):
            config.load_config(overrides=["plan.nodez=7"])

    def test_seed_argument_wins_over_file_and_set(self, tmp_path):
        p = tmp_path / "c.yaml"
        p.write_text("seed: 9\n")
        cfg = config.load_config(p, overrides=["seed=11"], seed=3)
        assert cfg.seed == 3


class TestValidation:
    @pytest.mark.parametrize(
        "override",
        [
            "plan.nodes=0",
            # a one-node roadmap has no edge, so every candidate is empty
            "plan.nodes=1",
            "plan.knn=0",
            "plan.candidates=0",
            "plan.nodes=8.5",
            "plan.forward_bias=0.5",
            "plan.pec_norm=spectrall",
            # pec is always the largest eigenvalue; the key is gone
            "plan.pec_norm=spectral",
            "plan.max_flight_time_s=0",
            "plan.pec_threshold_m2=-1",
            "kinematics.cruise_mps=0",
            "rates.predict_hz=0",
            "rates.cam_hz=200",
            "rates.lidar_hz=0",
            "rates.uwb_hz=.nan",
            "noise.r_alt=-0.1",
            "noise.q_vel=-1",
            "noise.r_uwb=-1",
            "noise.lidar_gamma_max=0.5",
            "noise.lidar_ref_range_m=0",
            # non-finite numbers, and vector noise too small to factor
            "noise.q_pos=.nan",
            "kinematics.cruise_mps=.inf",
            "kinematics.roll_deg=-.inf",
            "plan.max_flight_time_s=.inf",
            pytest.param("kinematics.cruise_mps=1" + "0" * 400,
                         id="kinematics.cruise_mps=10**400"),
            "noise.r_cam=0",
            "noise.r_lidar=0",
            "simulate.runs=0",
            "simulate.mode=perfectly",
            "simulate.dropout=1.5",
            "simulate.outlier_prob=-0.1",
            "simulate.outlier_scale=-1",
            "simulate.cross_track_tau_s=0",
            "simulate.cross_track_sigma_m=-1",
            "simulate.speed_sigma_mps=-1",
            "simulate.selections=[]",
            "simulate.selections=[bestest]",
            "simulate.selections=[-2]",
            "simulate.selections=[best, best]",
            "simulate.selections=[3, worst, '3']",
            # int() reads other scripts' digits, so only ASCII ones index
            "simulate.selections=['\u00b2']",
            "simulate.selections=[3, '\u0663']",
            "seed=abc",
        ],
    )
    def test_bad_values_raise_config_error(self, override):
        with pytest.raises(ConfigError):
            config.load_config(overrides=[override])

    # each inclusive bound accepts its edge, so no ">=" may turn into ">"
    @pytest.mark.parametrize("override", [
        "plan.nodes=2", "plan.forward_bias=1", "noise.q_vel=0", "noise.r_uwb=0",
        "noise.lidar_gamma_max=1", "simulate.dropout=0", "simulate.dropout=1",
        "simulate.outlier_prob=1", "simulate.outlier_scale=0",
        "simulate.cross_track_sigma_m=0", "rates.cam_hz=50", "seed=0", "simulate.runs=1",
    ])
    def test_inclusive_bounds_accept_their_edge(self, override):
        key, value = override.split("=")
        cfg = config.load_config(overrides=[override])
        *section, name = key.split(".")
        holder = getattr(cfg, section[0]) if section else cfg
        assert getattr(holder, name) == yaml.safe_load(value)

    def test_numeric_selection_allowed(self):
        cfg = config.load_config(overrides=["simulate.selections=[best, 3]"])
        assert cfg.simulate.selections == ["best", 3]

    def test_repeated_select_option_exits_2(self, tmp_path):
        # a repeat would replay the same runs twice into the same files
        argv = ["all", "--select", "best", "--select", "best", "--out", str(tmp_path)]
        assert cli.main(argv) == cli.EXIT_CONFIG
        assert not any(tmp_path.iterdir())

    def test_non_ascii_digit_select_exits_2(self, tmp_path):
        # '²' passes str.isdigit() but int() cannot read it
        argv = ["all", "--select", "\u00b2", "--out", str(tmp_path)]
        assert cli.main(argv) == cli.EXIT_CONFIG
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("override, message", [
        ("noise.r_cam=1e400", "expected a finite number"),
        ("rates.cam_hz=-1e400", "expected a finite number"),
        # strings float() reads but that are not decimal exponent numbers
        ("noise.r_cam=nan", "expected a number"),
        ("noise.r_cam=inf", "expected a number"),
        ("noise.r_cam=-Infinity", "expected a number"),
        ("noise.r_cam=1_0e-4", "expected a number"),
        ("noise.r_cam=' 1e-4'", "expected a number"),
        ("noise.r_cam='\uff11e-4'", "expected a number"),
        # and ones it does not
        ("noise.r_cam=1e", "expected a number"),
        ("noise.r_cam=e-4", "expected a number"),
        ("noise.r_cam=1e-4m", "expected a number"),
        # integer fields take integers only
        ("plan.nodes=1e1", "expected an integer"),
        ("simulate.runs=2E0", "expected an integer"),
        ("seed=6e0", "expected an integer"),
        # a number read from an exponent is checked like any other
        ("noise.r_cam=-1e-4", "must be > 0"),
        ("rates.cam_hz=1e3", "exceeds predict_hz"),
    ])
    def test_exponent_numbers_are_checked(self, override, message):
        with pytest.raises(ConfigError, match=message):
            config.load_config(overrides=[override])

    def test_rate_error_names_its_key(self):
        with pytest.raises(ConfigError, match=r"rates\.cam_hz exceeds predict_hz"):
            config.load_config(overrides=["rates.cam_hz=200"])
        with pytest.raises(ConfigError, match=r"rates\.alt_hz: expected a number"):
            config.load_config(overrides=["rates.alt_hz=fast"])

    def test_one_node_roadmap_exits_2(self, tmp_path):
        argv = ["all", "--set", "plan.nodes=1", "--set", "plan.candidates=2",
                "--out", str(tmp_path)]
        assert cli.main(argv) == cli.EXIT_CONFIG
        assert not any(tmp_path.iterdir())

    def test_config_file_naming_pec_norm_exits_2(self, tmp_path, capsys):
        cfgp = tmp_path / "c.yaml"
        cfgp.write_text("plan:\n  pec_norm: spectral\n")
        assert cli.main(["plan", "--config", str(cfgp),
                         "--out", str(tmp_path / "o")]) == cli.EXIT_CONFIG
        assert "unknown config key plan.pec_norm" in capsys.readouterr().err


class TestChecksAtConstruction:
    """Sections built in code refuse what load_config refuses."""

    @pytest.mark.parametrize("kwargs, message", [
        ({"mode": "bogus"}, r"mode: must be one of \['noisy', 'perfect'\], got 'bogus'"),
        ({"selections": []}, "selections: expected a non-empty list"),
        ({"selections": ["best", 2, "2"]}, r"selections: repeated entries \['2'\]"),
        ({"selections": ["best", True]}, "selections: bad entry True"),
    ], ids=["bad_mode", "empty_selections", "repeated_selections", "boolean_selection"])
    def test_simulate_section(self, kwargs, message):
        with pytest.raises(ValueError, match=message):
            config.SimulateSection(**kwargs)

    @pytest.mark.parametrize("key", ["map", "out_dir"])
    def test_run_config_needs_a_map_and_an_out_dir(self, key):
        with pytest.raises(ConfigError, match=f"^{key}: expected a non-empty string, got ''$"):
            config.RunConfig(**{key: ""})

    def test_kinematic_profile_refuses_a_nan_pitch(self):
        # a NaN pitch would make the altimeter skip every update
        with pytest.raises(ValueError, match="pitch_deg: expected a finite number"):
            planner.KinematicProfile(pitch_deg=math.nan)

    def test_kinematic_profile_attitude_is_in_radians(self):
        kin = planner.KinematicProfile(roll_deg=-10.0, pitch_deg=30.0)
        assert kin.attitude == ekf.Attitude(roll=math.radians(-10.0), pitch=math.radians(30.0))


class TestRoundTrip:
    def test_to_dict_then_reload_is_identity(self, tmp_path):
        cfg = config.load_config(overrides=["plan.nodes=9", "noise.q_vel=0.02"])
        d = dataclasses.asdict(cfg)
        assert d["plan"]["nodes"] == 9
        # the attitude is derived, so the echo keeps the config's keys
        assert d["kinematics"] == {"cruise_mps": 0.5, "roll_deg": 0.0, "pitch_deg": 0.0}
        p = tmp_path / "echo.yaml"
        p.write_text(yaml.safe_dump(d))
        assert config.load_config(p) == cfg
