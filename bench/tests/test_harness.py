"""Tests of the benchmark harness itself.

Run from the repository root: python -m pytest bench/tests
"""

import gzip
import json
import math
import re
import shutil
import subprocess
import sys
import types
from collections import Counter
from pathlib import Path

import pytest

import checks
import run
import tracing
import workloads
from tunnelplan import cli

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

SMALL = [
    "--seed", "3",
    "--set", "plan.nodes=10", "--set", "plan.knn=4",
    "--set", "plan.candidates=12", "--set", "simulate.runs=2",
]


@pytest.fixture(scope="module")
def bench_spec():
    return run.load_benchmark()


@pytest.fixture(scope="module")
def small_pipeline(tmp_path_factory):
    out = tmp_path_factory.mktemp("small")
    assert cli.main(["all", "--out", str(out), *SMALL]) == 0
    return out


@pytest.fixture
def artifacts(small_pipeline, tmp_path):
    out = tmp_path / "artifacts"
    shutil.copytree(small_pipeline, out)
    return out


SIMULATE = {"selections": ["best", "worst"], "runs": 2, "mode": "noisy"}


# ---------------------------------------------------------------------------
# spans


def test_self_time_subtracts_direct_children_only():
    spans = [
        ("a", 0.0, 10.0, -1),
        ("b", 1.0, 4.0, 0),
        ("c", 2.0, 3.0, 1),
        ("d", 5.0, 9.0, 0),
    ]
    assert tracing.self_times(spans) == pytest.approx([3.0, 2.0, 1.0, 4.0])


def test_tracer_nests_spans_counts_and_restores():
    ns = types.SimpleNamespace()
    ns.leaf = lambda x: x + 1
    ns.outer = lambda x: ns.leaf(x) + ns.leaf(x)
    originals = (ns.leaf, ns.outer)

    def observe(counters, args, result):
        counters["leaf.sum"] += args["x"]

    tr = tracing.Tracer(rep=0)
    tr.wrap(ns, "leaf", "leaf", observe)
    tr.wrap(ns, "outer", "outer")
    assert ns.outer(1) == 4
    tr.uninstall()
    assert (ns.leaf, ns.outer) == originals

    names = [s[0] for s in tr.spans]
    parents = [s[3] for s in tr.spans]
    assert names == ["outer", "leaf", "leaf"]
    assert parents == [-1, 0, 0]
    assert tr.counters["leaf.sum"] == 2
    summary = tr.summary()
    assert summary["leaf"]["calls"] == 2
    outer = summary["outer"]
    assert outer["self_s"] == pytest.approx(
        outer["total_s"] - summary["leaf"]["total_s"])


def test_spans_written_with_repetition_id(tmp_path):
    tr = tracing.Tracer(rep=3)
    tr.spans.extend([("x", tr.origin, tr.origin + 1.0, -1),
                     ("y", tr.origin + 0.25, tr.origin + 0.5, 0)])
    path = tmp_path / "spans.csv.gz"
    tr.write_spans(path)
    rows = gzip.open(path, "rt").read().splitlines()
    assert rows[0] == "id,name,start_s,end_s,parent,rep"
    assert rows[2] == "1,y,0.250000000,0.500000000,0,3"


# ---------------------------------------------------------------------------
# metric names


def test_metric_names_and_units_follow_the_charset(bench_spec):
    names = [w["name"] for w in bench_spec["workloads"]]
    names += [m["name"] for m in bench_spec["end_to_end"] + bench_spec["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names), [n for n in names if not NAME.match(n)]
    units = [m["unit"] for m in bench_spec["end_to_end"] + bench_spec["per_layer"]]
    assert all(UNIT.match(u) for u in units)


def test_every_declared_metric_is_produced_with_its_unit(bench_spec):
    produced = tracing.layer_metrics({}, Counter(), {"files": 0, "bytes": 0})
    produced["trace.spans"] = (0, "count")
    produced["trace.overhead_s"] = (0.0, "s")
    declared = {m["name"]: m["unit"] for m in bench_spec["per_layer"]}
    assert declared == {k: unit for k, (_, unit) in produced.items()}
    for m in bench_spec["end_to_end"]:
        assert run.E2E_UNITS[m["name"]] == m["unit"]
    assert set(workloads.WORKLOADS) == {w["name"] for w in bench_spec["workloads"]}


def test_expectations_cover_every_layer_metric(bench_spec):
    exp = json.loads((run.BENCH / "expectations.json").read_text())
    assert set(exp["per_layer"]) == {m["name"] for m in bench_spec["per_layer"]}
    assert set(exp["workloads"]) == set(workloads.WORKLOADS)


# ---------------------------------------------------------------------------
# output checks


def test_checks_pass_on_a_clean_pipeline(artifacts):
    assert checks.run_checks(artifacts, SIMULATE) == {
        "candidates_uniform": None, "pec_totals": None, "summaries": None,
    }


def test_tampered_length_fails_the_uniformity_check(artifacts):
    path = artifacts / "path_scores.csv"
    lines = path.read_text().splitlines()
    cells = lines[2].split(",")
    cells[1] = repr(float(cells[1]) + 0.5)
    lines[2] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")
    assert "length_m" in checks.run_checks(artifacts, SIMULATE)["candidates_uniform"]


def test_non_finite_pec_total_fails(artifacts):
    path = artifacts / "ranking.json"
    ranking = json.loads(path.read_text())
    ranking["totals"][0] = math.nan
    path.write_text(json.dumps(ranking))
    assert checks.run_checks(artifacts, SIMULATE)["pec_totals"] is not None


def test_missing_summary_row_fails(artifacts):
    path = artifacts / "summary_best_noisy.csv"
    path.write_text("".join(path.read_text().splitlines(True)[:-1]))
    assert "rows" in checks.run_checks(artifacts, SIMULATE)["summaries"]


def test_tampered_bytes_change_the_artifact_hash(artifacts, small_pipeline):
    assert checks.artifact_hash(artifacts) == checks.artifact_hash(small_pipeline)
    path = artifacts / "run_best_noisy_0.csv"
    data = bytearray(path.read_bytes())
    data[-2] ^= 1
    path.write_bytes(bytes(data))
    assert checks.artifact_hash(artifacts) != checks.artifact_hash(small_pipeline)
    assert "ranking.json" in checks.result_digests(artifacts)


# ---------------------------------------------------------------------------
# inputs and failures


def test_seed_six_resolves_to_itself_and_draws_are_deterministic():
    six = workloads.draw_master_seed(6)
    assert six["master_seed"] == 6 and six["draws"] == 1
    a, b = workloads.draw_master_seed(7), workloads.draw_master_seed(7)
    assert a == b
    ref = a["reference"]
    assert abs(a["flight"]["length_m"] / ref["length_m"] - 1) <= workloads.LENGTH_TOL
    assert abs(a["flight"]["gated_ticks"] / ref["gated_ticks"] - 1) <= workloads.GATED_TOL


def test_planner_failure_is_counted_not_fatal(tmp_path):
    # master seed 11 cannot bridge the shipped roadmap: plan exits with 4
    w = workloads.WORKLOADS["replay_deep"]
    r = run.Run(w, {"seed": 11, "master_seed": 11}, SIMULATE, 1, tmp_path)
    rec = r.repetition(trace=False)
    assert rec["stages"][0]["rc"] == cli.EXIT_PLANNER
    assert not rec["complete"]
    assert r.attempted == 1 + len(w.stages) + 3
    assert r.failures[0] == "rep 0 stage plan: exit code 4"
    assert "rep 0 stage simulate: not run" in r.failures
    assert all(name in " ".join(r.failures) for name in rec["checks"])


def test_run_fails_without_the_program_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    (tmp_path / "bench").mkdir()
    for p in run.BENCH.glob("*.py"):
        shutil.copy(p, tmp_path / "bench")
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "replay_deep", "--seed", "6",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
