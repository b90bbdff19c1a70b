"""End-to-end tests for the command-line pipeline and its artifacts."""

import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from test_mapenv import BAD_MAP_IDS, BAD_MAP_VALUES
import tunnelplan
from tunnelplan import cli, errors

# small-but-real configuration so full pipeline runs stay fast; seed 3 is
# known to give a connected roadmap at these sizes
REDUCED = """\
map: builtin:tunnel_default
seed: 3
plan:
  nodes: 10
  knn: 4
  candidates: 12
simulate:
  runs: 2
"""

PLAN_FILES = [
    "graph.json",
    "circuits.json",
    "path_scores.csv",
    "ranking.json",
    "pec_series_best.csv",
    "pec_series_worst.csv",
    "candidates.svg",
    "route_best.svg",
    "route_worst.svg",
    "pec_series.svg",
]
SIM_FILES = [
    "run_best_noisy_0.csv",
    "run_best_noisy_1.csv",
    "run_worst_noisy_0.csv",
    "run_worst_noisy_1.csv",
    "summary_best_noisy.csv",
    "summary_worst_noisy.csv",
    "aggregate_noisy.csv",
    "truths_best_noisy.svg",
    "truths_worst_noisy.svg",
    "estimate_best_noisy.svg",
    "estimate_worst_noisy.svg",
]
REPORT_FILES = ["report.json", "report.txt"]


@pytest.fixture(scope="module")
def reduced_cfg(tmp_path_factory):
    p = tmp_path_factory.mktemp("cfg") / "reduced.yaml"
    p.write_text(REDUCED)
    return p


@pytest.fixture(scope="module")
def pipeline_out(reduced_cfg, tmp_path_factory):
    out = tmp_path_factory.mktemp("pipeline")
    rc = cli.main(["all", "--config", str(reduced_cfg), "--out", str(out)])
    assert rc == 0
    return out


@pytest.fixture(scope="module")
def plan_out(reduced_cfg, tmp_path_factory):
    out = tmp_path_factory.mktemp("planonly")
    rc = cli.main(["plan", "--config", str(reduced_cfg), "--out", str(out)])
    assert rc == 0
    return out


def merge_first_edge(g):
    """graph.json data whose first edge joins two nodes at one place, which
    no circuit can fly."""
    i, j = g["edges"][0][:2]
    nodes = list(g["nodes"])
    nodes[j] = nodes[i]
    return {**g, "nodes": nodes}


def copy_plan(plan_out, tmp_path):
    dst = tmp_path / "work"
    shutil.copytree(plan_out, dst)
    return dst


class TestPipelineArtifacts:
    def test_all_artifacts_present(self, pipeline_out):
        for name in PLAN_FILES + SIM_FILES + REPORT_FILES:
            assert (pipeline_out / name).exists(), name

    def test_ranking_contents(self, pipeline_out):
        r = json.loads((pipeline_out / "ranking.json").read_text())
        assert r["seed"] == 3
        totals = r["totals"]
        assert len(totals) == 12
        assert 0 <= r["best"] < 12 and 0 <= r["worst"] < 12
        assert totals[r["best"]] == min(totals)
        assert totals[r["worst"]] == max(totals)
        order = r["order"]
        assert sorted(order) == list(range(12))
        assert totals[order[0]] <= totals[order[-1]]
        assert r["graph"]["distinct_edges"] <= r["graph"]["edge_instances"]
        assert r["config"]["plan"]["nodes"] == 10

    def test_path_scores_lengths_identical(self, pipeline_out):
        lines = (pipeline_out / "path_scores.csv").read_text().splitlines()
        header = lines[0].split(",")
        assert lines[0].startswith("circuit,")
        rows = [dict(zip(header, ln.split(","))) for ln in lines[1:]]
        assert len(rows) == 12
        lengths = [float(r["length_m"]) for r in rows]
        assert max(lengths) - min(lengths) < 1e-6

    def test_totals_match_path_scores(self, pipeline_out):
        r = json.loads((pipeline_out / "ranking.json").read_text())
        rep = json.loads((pipeline_out / "report.json").read_text())
        lines = (pipeline_out / "path_scores.csv").read_text().splitlines()
        header = lines[0].split(",")
        csv_totals = [float(dict(zip(header, ln.split(",")))["pec_total_m2"])
                      for ln in lines[1:]]
        assert r["totals"] == csv_totals
        assert rep["ranking"]["pec_total_best_m2"] == csv_totals[r["best"]]
        assert rep["ranking"]["pec_total_worst_m2"] == csv_totals[r["worst"]]

    def test_pec_series_shape(self, pipeline_out):
        arr = np.loadtxt(
            pipeline_out / "pec_series_best.csv", delimiter=",", skiprows=1
        )
        assert arr.shape[1] == 5
        assert arr.shape[0] > 1000
        assert np.all(arr[:, 2] > 0)
        # time column advances by the prediction step
        assert abs(arr[1, 1] - arr[0, 1] - 0.02) < 1e-12

    def test_run_csv_shape(self, pipeline_out):
        arr = np.loadtxt(
            pipeline_out / "run_best_noisy_0.csv", delimiter=",", skiprows=1
        )
        assert arr.shape[1] == 10
        assert np.all(np.isfinite(arr))
        assert np.all(arr[:, 9] > 0)

    def test_report_contents(self, pipeline_out):
        rep = json.loads((pipeline_out / "report.json").read_text())
        assert rep["simulation"]["available"] is True
        assert "best" in rep["planning"] and "worst" in rep["planning"]
        assert rep["consistency"]["pec_ratio_worst_over_best"] > 1.0
        txt = (pipeline_out / "report.txt").read_text()
        assert "best" in txt and "worst" in txt
        assert "seed 3" in txt


class TestDeterminism:
    def test_reruns_are_byte_identical(self, reduced_cfg, tmp_path):
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            rc = cli.main(["all", "--config", str(reduced_cfg), "--out", str(out)])
            assert rc == 0
            outs.append(out)
        files_a = sorted(p.name for p in outs[0].iterdir())
        files_b = sorted(p.name for p in outs[1].iterdir())
        assert files_a == files_b
        for name in files_a:
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name


class TestStageChaining:
    def test_plan_then_simulate_then_report(self, reduced_cfg, plan_out, tmp_path):
        work = copy_plan(plan_out, tmp_path)
        rc = cli.main(["simulate", "--config", str(reduced_cfg), "--out", str(work)])
        assert rc == 0
        assert (work / "aggregate_noisy.csv").exists()
        rc = cli.main(["report", "--config", str(reduced_cfg), "--out", str(work)])
        assert rc == 0
        assert (work / "report.json").exists()

    def test_report_on_plan_only_marks_simulation_absent(
        self, reduced_cfg, plan_out, tmp_path
    ):
        work = copy_plan(plan_out, tmp_path)
        rc = cli.main(["report", "--config", str(reduced_cfg), "--out", str(work)])
        assert rc == 0
        rep = json.loads((work / "report.json").read_text())
        assert rep["simulation"]["available"] is False
        assert "no simulation artifacts" in (work / "report.txt").read_text()

    def test_replan_removes_stale_simulation_artifacts(
        self, reduced_cfg, pipeline_out, tmp_path
    ):
        work = copy_plan(pipeline_out, tmp_path)
        rc = cli.main(["plan", "--config", str(reduced_cfg), "--out", str(work),
                       "--seed", "5"])
        assert rc == 0
        for name in SIM_FILES + REPORT_FILES:
            assert not (work / name).exists(), name
        rc = cli.main(["report", "--config", str(reduced_cfg), "--out", str(work),
                       "--seed", "5"])
        assert rc == 0
        rep = json.loads((work / "report.json").read_text())
        assert rep["seed"] == 5
        assert rep["simulation"]["available"] is False

    def test_select_flag_limits_outputs(self, reduced_cfg, plan_out, tmp_path):
        work = copy_plan(plan_out, tmp_path)
        rc = cli.main(
            ["simulate", "--config", str(reduced_cfg), "--out", str(work),
             "--select", "best"]
        )
        assert rc == 0
        assert (work / "run_best_noisy_0.csv").exists()
        assert not (work / "run_worst_noisy_0.csv").exists()
        agg = (work / "aggregate_noisy.csv").read_text().splitlines()
        assert len(agg) == 2

    def test_numeric_selection(self, reduced_cfg, plan_out, tmp_path):
        work = copy_plan(plan_out, tmp_path)
        rc = cli.main(
            ["simulate", "--config", str(reduced_cfg), "--out", str(work),
             "--select", "0", "--runs", "1"]
        )
        assert rc == 0
        assert (work / "run_0_noisy_0.csv").exists()

    def test_select_takes_plain_indices_only(self, reduced_cfg, plan_out, tmp_path, capsys):
        # YAML 1.1 reads these as 8, 31, 10 and 5; each would give a
        # candidate a second label
        for sel in ("010", "0x1f", "1_0", "+5"):
            out = tmp_path / sel
            rc = cli.main(["plan", "--config", str(reduced_cfg), "--out", str(out),
                           "--select", sel])
            assert rc == 2, sel
            assert repr(sel) in capsys.readouterr().err
            assert not out.exists()
        work = copy_plan(plan_out, tmp_path)
        rc = cli.main(["simulate", "--config", str(reduced_cfg), "--out", str(work),
                       "--select", "7", "--select", "0", "--runs", "1"])
        assert rc == 0
        agg = (work / "aggregate_noisy.csv").read_text().splitlines()
        assert [row.split(",")[:2] for row in agg[1:]] == [["7", "7"], ["0", "0"]]

    def test_simulate_removes_its_earlier_artifacts(self, reduced_cfg, pipeline_out, tmp_path):
        work = copy_plan(pipeline_out, tmp_path)
        # the other mode's artifacts stay
        others = ["run_best_perfect_0.csv", "summary_best_perfect.csv",
                  "aggregate_perfect.csv", "truths_best_perfect.svg",
                  "estimate_best_perfect.svg"]
        for name in others:
            (work / name).write_text("kept\n")
        rc = cli.main(["simulate", "--config", str(reduced_cfg), "--out", str(work),
                       "--runs", "1", "--select", "2"])
        assert rc == 0
        for name in SIM_FILES + REPORT_FILES:
            assert (work / name).exists() == (name == "aggregate_noisy.csv"), name
        for name in ("run_2_noisy_0.csv", "summary_2_noisy.csv", "truths_2_noisy.svg",
                     "estimate_2_noisy.svg"):
            assert (work / name).exists(), name
        assert not (work / "run_2_noisy_1.csv").exists()
        for name in others:
            assert (work / name).read_text() == "kept\n", name

    def test_mode_and_runs_flags(self, reduced_cfg, plan_out, tmp_path):
        work = copy_plan(plan_out, tmp_path)
        rc = cli.main(
            ["simulate", "--config", str(reduced_cfg), "--out", str(work),
             "--mode", "perfect", "--runs", "1", "--select", "best"]
        )
        assert rc == 0
        assert (work / "run_best_perfect_0.csv").exists()
        assert not (work / "run_best_perfect_1.csv").exists()
        rc = cli.main(
            ["report", "--config", str(reduced_cfg), "--out", str(work),
             "--mode", "perfect"]
        )
        assert rc == 0
        rep = json.loads((work / "report.json").read_text())
        assert rep["simulation"]["mode"] == "perfect"

    def test_seed_flag_wins(self, reduced_cfg, tmp_path):
        out = tmp_path / "s1"
        rc = cli.main(
            ["plan", "--config", str(reduced_cfg), "--out", str(out), "--seed", "1"]
        )
        assert rc == 0
        assert json.loads((out / "ranking.json").read_text())["seed"] == 1

    def test_out_dir_defaults_to_config(self, reduced_cfg, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        rc = cli.main(
            ["plan", "--config", str(reduced_cfg), "--set", "out_dir=nested/dir"]
        )
        assert rc == 0
        assert (tmp_path / "nested" / "dir" / "ranking.json").exists()


class TestExitCodes:
    def test_no_command_is_usage_error(self, capsys):
        assert cli.main([]) == 2
        assert cli.main(["frobnicate"]) == 2
        capsys.readouterr()

    def test_bad_config_exits_2(self, tmp_path, capsys):
        assert cli.main(["plan", "--config", str(tmp_path / "none.yaml")]) == 2
        bad = tmp_path / "bad.yaml"
        bad.write_text("plan:\n  nodez: 7\n")
        assert cli.main(["plan", "--config", str(bad)]) == 2
        assert cli.main(["plan", "--set", "plan.nodes"]) == 2
        assert "error:" in capsys.readouterr().err
        # a noise covariance that overflows once scaled by the camera's
        # horizon scale or the lidar's largest gamma
        for name, overrides in (
                ("r_cam", ["noise.r_cam=1e308"]),
                ("r_lidar", ["noise.lidar_ref_range_m=1e-300", "noise.lidar_gamma_max=1e308",
                             "noise.r_lidar=100"])):
            out = tmp_path / name
            args = ["plan", "--seed", "6", "--set", "plan.candidates=2", "--out", str(out)]
            assert cli.main(args + [arg for o in overrides for arg in ("--set", o)]) == 2
            assert not out.exists()
            assert f"error: {name} overflows" in capsys.readouterr().err

    def test_unknown_selection_exits_2(self, reduced_cfg, plan_out, tmp_path):
        work = copy_plan(plan_out, tmp_path)
        rc = cli.main(
            ["simulate", "--config", str(reduced_cfg), "--out", str(work),
             "--select", "bogus"]
        )
        assert rc == 2

    def test_out_that_is_a_file_exits_2(self, reduced_cfg, tmp_path, capsys):
        out = tmp_path / "taken"
        out.write_text("not a directory\n")
        rc = cli.main(["plan", "--config", str(reduced_cfg), "--out", str(out)])
        assert rc == 2
        assert str(out) in capsys.readouterr().err
        assert out.read_text() == "not a directory\n"

    @pytest.mark.parametrize("stage", ["simulate", "report"])
    def test_later_stage_with_out_that_is_a_file_exits_2(self, reduced_cfg, tmp_path, capsys,
                                                          stage):
        out = tmp_path / "taken"
        out.write_text("not a directory\n")
        rc = cli.main([stage, "--config", str(reduced_cfg), "--out", str(out)])
        assert rc == 2
        assert str(out) in capsys.readouterr().err

    def test_missing_map_exits_3(self, tmp_path, capsys):
        cfgp = tmp_path / "c.yaml"
        cfgp.write_text(REDUCED + "\n")
        rc = cli.main(
            ["plan", "--config", str(cfgp), "--out", str(tmp_path / "o"),
             "--set", "map=/nonexistent/nope.yaml"]
        )
        assert rc == 3
        assert "nope.yaml" in capsys.readouterr().err

    def test_map_with_unknown_block_exits_3(self, tmp_path, capsys):
        mapf = tmp_path / "m.yaml"
        mapf.write_text(
            "bounds_min: [-20, -5, -8]\nbounds_max: [20, 5, 0]\n"
            "rig:\n  camera_max_range_m: 9.0\n"
        )
        cfgp = tmp_path / "c.yaml"
        cfgp.write_text(REDUCED + "\n")
        rc = cli.main(
            ["plan", "--config", str(cfgp), "--out", str(tmp_path / "o"),
             "--set", f"map={mapf}"]
        )
        assert rc == 3
        assert "rig" in capsys.readouterr().err

    @pytest.mark.parametrize("bounds", ["[-2.0, -6.0]", "[a, -5, -8]"],
                             ids=["two_entries", "non_numeric"])
    def test_malformed_map_bounds_exit_3(self, tmp_path, capsys, bounds):
        mapf = tmp_path / "m.yaml"
        mapf.write_text(f"bounds_min: {bounds}\nbounds_max: [20, 5, 0]\n")
        cfgp = tmp_path / "c.yaml"
        cfgp.write_text(REDUCED + "\n")
        rc = cli.main(
            ["plan", "--config", str(cfgp), "--out", str(tmp_path / "o"),
             "--set", f"map={mapf}"]
        )
        assert rc == 3
        assert "bounds_min" in capsys.readouterr().err

    @pytest.mark.parametrize("key, text", BAD_MAP_VALUES, ids=BAD_MAP_IDS)
    def test_non_finite_or_out_of_range_map_value_exits_3(self, tmp_path, capsys, key, text):
        mapf = tmp_path / "m.yaml"
        mapf.write_text(f"bounds_min: [0, -5, -4]\nbounds_max: [20, 5, 0]\n{text}\n")
        cfgp = tmp_path / "c.yaml"
        cfgp.write_text(REDUCED + "\n")
        rc = cli.main(
            ["plan", "--config", str(cfgp), "--out", str(tmp_path / "o"),
             "--set", f"map={mapf}"]
        )
        assert rc == 3
        assert key in capsys.readouterr().err
        assert not (tmp_path / "o" / "ranking.json").exists()

    @pytest.mark.parametrize("text", ["ugv: {lidar_halfangle_deg: 0}", None],
                             ids=["bad_value", "missing"])
    def test_bad_map_leaves_no_artifact_directory(self, tmp_path, capsys, text):
        mapf = tmp_path / "m.yaml"
        if text is not None:
            mapf.write_text(f"bounds_min: [0, -5, -4]\nbounds_max: [20, 5, 0]\n{text}\n")
        cfgp = tmp_path / "c.yaml"
        cfgp.write_text(REDUCED + "\n")
        out = tmp_path / "o"
        for stage in ("plan", "all"):
            rc = cli.main([stage, "--config", str(cfgp), "--out", str(out),
                           "--set", f"map={mapf}"])
            assert rc == 3
            assert not out.exists()
        capsys.readouterr()

    def test_unbridgeable_roadmap_exits_4(self, tmp_path, capsys):
        # this seed places nodes whose components cannot be joined without
        # cutting through an obstacle
        rc = cli.main(["plan", "--seed", "11", "--out", str(tmp_path / "o")])
        assert rc == 4
        capsys.readouterr()

    @pytest.mark.parametrize("q_pos", ["1e200", "1e308"])
    def test_covariance_overflow_exits_4_before_any_artifact(self, tmp_path, capsys, q_pos):
        # 1e200 m^2 per step squares past the float range in the pec's
        # eigenvalue; 1e308 overflows the covariance itself
        out = tmp_path / "o"
        with np.errstate(all="ignore"):
            rc = cli.main(["plan", "--seed", "6", "--set", "plan.candidates=2",
                           "--set", f"noise.q_pos={q_pos}", "--out", str(out)])
        assert rc == 4
        assert list(out.iterdir()) == []
        assert "pec total nan is not finite" in capsys.readouterr().err

    def test_simulate_without_plan_exits_6(self, reduced_cfg, tmp_path, capsys):
        rc = cli.main(
            ["simulate", "--config", str(reduced_cfg), "--out", str(tmp_path / "o")]
        )
        assert rc == 6
        assert "ranking.json" in capsys.readouterr().err

    def test_report_without_artifacts_exits_6(self, reduced_cfg, tmp_path):
        rc = cli.main(
            ["report", "--config", str(reduced_cfg), "--out", str(tmp_path / "o")]
        )
        assert rc == 6

    def test_corrupt_artifact_exits_6_naming_file(
        self, reduced_cfg, plan_out, tmp_path, capsys
    ):
        work = copy_plan(plan_out, tmp_path)
        (work / "ranking.json").write_text("{broken")
        rc = cli.main(["simulate", "--config", str(reduced_cfg), "--out", str(work)])
        assert rc == 6
        assert "ranking.json" in capsys.readouterr().err

    @pytest.mark.parametrize("name, spoil, named", [
        ("circuits.json", lambda cands: cands[:1], "circuits.json"),
        ("graph.json", lambda g: {**g, "nodes": g["nodes"][:3]}, "graph.json"),
        # every circuit flies every edge, so each one uses the dropped edge
        ("graph.json", lambda g: {**g, "edges": g["edges"][:-1]}, "circuits.json"),
        ("graph.json", lambda g: {**g, "nodes": [[math.nan, *g["nodes"][0][1:]],
                                                 *g["nodes"][1:]]}, "graph.json"),
        ("graph.json", merge_first_edge, "graph.json"),
    ], ids=["truncated_circuits", "graph_edges_past_its_nodes", "circuit_off_its_graph",
            "graph_node_not_finite", "graph_edge_of_length_zero"])
    def test_stale_plan_artifact_exits_6_naming_file(
        self, reduced_cfg, plan_out, tmp_path, capsys, name, spoil, named
    ):
        work = copy_plan(plan_out, tmp_path)
        path = work / name
        path.write_text(json.dumps(spoil(json.loads(path.read_text()))))
        rc = cli.main(["simulate", "--config", str(reduced_cfg), "--out", str(work)])
        assert rc == 6
        assert f"corrupt artifact {named}" in capsys.readouterr().err
        assert not list(work.glob("run_*.csv"))

    def test_corrupt_csv_artifact_exits_6_naming_file(
        self, reduced_cfg, plan_out, tmp_path, capsys
    ):
        work = copy_plan(plan_out, tmp_path)
        # a field over the csv module's size limit raises csv.Error
        (work / "path_scores.csv").write_text('circuit\n"' + "9" * 200_000 + '"\n')
        rc = cli.main(["report", "--config", str(reduced_cfg), "--out", str(work)])
        assert rc == 6
        assert "corrupt artifact path_scores.csv" in capsys.readouterr().err

    def test_path_scores_without_its_columns_exits_6(
        self, reduced_cfg, plan_out, tmp_path, capsys
    ):
        work = copy_plan(plan_out, tmp_path)
        (work / "path_scores.csv").write_text("foo,bar\n1,2\n")
        rc = cli.main(["report", "--config", str(reduced_cfg), "--out", str(work)])
        assert rc == 6
        err = capsys.readouterr().err
        assert "corrupt artifact path_scores.csv" in err and "circuit" in err

    def _spoil_a_number(text):
        header, row, *rest = text.splitlines()
        fields = row.split(",")
        fields[4] = "fast"
        return "\n".join([header, ",".join(fields), *rest]) + "\n"

    @pytest.mark.parametrize("edit", [lambda text: "foo\n1\n", _spoil_a_number],
                             ids=["columns_missing", "number_not_a_number"])
    def test_aggregate_without_its_columns_exits_6(
        self, reduced_cfg, pipeline_out, tmp_path, capsys, edit
    ):
        work = tmp_path / "work"
        shutil.copytree(pipeline_out, work)
        path = work / "aggregate_noisy.csv"
        path.write_text(edit(path.read_text()))
        rc = cli.main(["report", "--config", str(reduced_cfg), "--out", str(work)])
        assert rc == 6
        assert "corrupt artifact aggregate_noisy.csv" in capsys.readouterr().err

    @pytest.mark.parametrize("stage", ["simulate", "report"])
    @pytest.mark.parametrize("edit", [
        lambda r: {"seed": r["seed"]},
        lambda r: {**r, "totals": "many"},
        lambda r: {**r, "worst": len(r["totals"])},
        lambda r: {**r, "graph": {"nodes": 1}},
    ], ids=["seed_only", "totals_not_a_list", "worst_out_of_range", "graph_keys_missing"])
    def test_ranking_without_its_keys_exits_6(
        self, reduced_cfg, plan_out, tmp_path, capsys, stage, edit
    ):
        work = copy_plan(plan_out, tmp_path)
        path = work / "ranking.json"
        path.write_text(json.dumps(edit(json.loads(path.read_text()))))
        rc = cli.main([stage, "--config", str(reduced_cfg), "--out", str(work)])
        assert rc == 6
        assert "corrupt artifact ranking.json" in capsys.readouterr().err

    class PlannerDetail(errors.InvalidCircuitError):
        pass

    @pytest.mark.parametrize("error, code", [
        (errors.ConfigError, 2),
        (errors.MapFormatError, 3),
        (errors.SamplingExhaustedError, 4),
        (errors.DisconnectedGraphError, 4),
        (errors.NotEulerianError, 4),
        (errors.InvalidCircuitError, 4),
        (PlannerDetail, 4),
        (errors.FilterSingularityError, 5),
        (errors.SingularInnovationError, 5),
        (errors.TunnelPlanError, 5),
        (errors.MissingArtifactError, 6),
        (errors.CovarianceOverflowError, 4),
    ])
    def test_exit_code_of_each_error_class(self, monkeypatch, tmp_path, capsys,
                                           error, code):
        def fail(cfg, out):
            raise error("stage failed")

        monkeypatch.setattr(cli, "cmd_plan", fail)
        assert cli.main(["plan", "--out", str(tmp_path / "o")]) == code
        assert "error: stage failed" in capsys.readouterr().err

    def test_seed_mismatch_with_artifacts_exits_6(
        self, reduced_cfg, plan_out, tmp_path, capsys
    ):
        work = copy_plan(plan_out, tmp_path)
        rc = cli.main(
            ["simulate", "--config", str(reduced_cfg), "--out", str(work),
             "--seed", "1"]
        )
        assert rc == 6
        capsys.readouterr()


class TestTableWriter:
    @pytest.mark.parametrize("rows", [0, 1, 2 * cli._TABLE_BLOCK + 3])
    def test_matches_savetxt_bytes(self, tmp_path, rows):
        rng = np.random.default_rng(rows)
        arr = rng.standard_normal((rows, 10)) * 10.0 ** rng.integers(-300, 300, (rows, 10))
        arr[:, 0] = np.arange(1, rows + 1)
        specials = np.array([-0.0, 0.0, 1e-300, 1e300, 5e-324, 3.0, -7.0, 0.5, 12345678.0])
        picks = rng.random((rows, 10)) < 0.3
        arr[picks] = rng.choice(specials, int(picks.sum()))
        for fmt in (["%d", "%.3f"] + ["%.9g"] * 8, ["%d", "%.3f", "%.9g", "%d", "%d"] * 2):
            header = ",".join(f"c{i}" for i in range(10))
            cli._write_table(tmp_path / "table.csv", header, fmt,
                             [arr[:, 0], arr[:, 1:4], arr[:, 4:]])
            np.savetxt(tmp_path / "savetxt.csv", arr, fmt=fmt, delimiter=",",
                       header=header, comments="")
            assert (tmp_path / "table.csv").read_bytes() == (tmp_path / "savetxt.csv").read_bytes()


def test_import_loads_no_network_stack():
    # the planner may run on a small onboard computer: a fresh interpreter
    # that imports the CLI loads none of these (xml.sax.saxutils pulls in
    # urllib.request and with it http.client, ssl and email)
    heavy = ("ssl", "http.client", "urllib.request", "email.parser")
    code = (f"import sys, tunnelplan.cli; "
            f"print([m for m in {heavy!r} if m in sys.modules])")
    src = str(Path(tunnelplan.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_readme_library_example_runs():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    section = readme.split("## Library use", 1)[1]
    example = section.split("```python\n", 1)[1].split("```", 1)[0]
    names: dict = {}
    exec(example, names)
    cfg, records = names["cfg"], names["records"]
    assert len(records) == cfg.simulate.runs
    assert all(rec.truth.circuit_index == names["ranking"].best for rec in records)
