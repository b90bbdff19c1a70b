"""Command-line pipeline: plan coverage circuits over a tunnel map, replay
the selected ones through the measurement simulator, and report combined
statistics.

Artifact layout (all inside --out):
  plan      graph.json, circuits.json, path_scores.csv, ranking.json,
            pec_series_<sel>.csv, candidates.svg, route_<sel>.svg,
            pec_series.svg
  simulate  run_<sel>_<mode>_<i>.csv, summary_<sel>_<mode>.csv,
            aggregate_<mode>.csv, truths_<sel>_<mode>.svg,
            estimate_<sel>_<mode>.svg
  report    report.json, report.txt

plan deletes the simulate and report artifacts of an earlier plan in --out,
and simulate those of an earlier simulate in its mode, with the report.
Every artifact is byte-deterministic for a fixed config and seed.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np
import yaml

from . import circuits, config, mapenv, montecarlo, planner, roadmap, svgplot
from .errors import (
    ConfigError,
    CovarianceOverflowError,
    DisconnectedGraphError,
    InvalidCircuitError,
    MapFormatError,
    MissingArtifactError,
    NotEulerianError,
    SamplingExhaustedError,
    TunnelPlanError,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_MAP = 3
EXIT_PLANNER = 4
EXIT_SIMULATION = 5
EXIT_ARTIFACT = 6

# exit code of each error class and its subclasses; any other TunnelPlanError
# exits with EXIT_SIMULATION
_EXIT_CODES = {
    ConfigError: EXIT_CONFIG,
    MapFormatError: EXIT_MAP,
    SamplingExhaustedError: EXIT_PLANNER,
    DisconnectedGraphError: EXIT_PLANNER,
    NotEulerianError: EXIT_PLANNER,
    InvalidCircuitError: EXIT_PLANNER,
    CovarianceOverflowError: EXIT_PLANNER,
    MissingArtifactError: EXIT_ARTIFACT,
}

# each named selection's color and its legend label in candidates.svg, in the
# order report lists them; where two coincide, candidates.svg marks the later
SELECTIONS = {
    "best": (svgplot.BEST_COLOR, "best (min)"),
    "second_best": (svgplot.SECOND_BEST_COLOR, "2nd best"),
    "second_worst": (svgplot.SECOND_WORST_COLOR, "2nd worst"),
    "worst": (svgplot.WORST_COLOR, "worst (max)"),
}

# simulate and report artifacts of an earlier plan; plan deletes them so that
# they are never read beside a new plan
_STALE_AFTER_PLAN = ("run_*_*.csv", "summary_*.csv", "aggregate_*.csv", "truths_*.svg",
                     "estimate_*.svg", "report.json", "report.txt")
# an earlier simulate's artifacts of one mode and the report read from them;
# simulate deletes them so that selections it no longer makes leave none
_STALE_AFTER_SIMULATE = ("run_*_{mode}_*.csv", "summary_*_{mode}.csv",
                         "truths_*_{mode}.svg", "estimate_*_{mode}.svg", "report.json",
                         "report.txt")


def _f(v) -> str:
    """Stable CSV number format: nine significant digits."""
    return f"{float(v):.9g}"


def _b(v) -> str:
    return "true" if v else "false"


def _delete(out: Path, patterns) -> None:
    """Delete the files in out that match any of the glob patterns."""
    for pattern in patterns:
        for path in out.glob(pattern):
            path.unlink()


def _write_json(path: Path, obj):
    path.write_text(json.dumps(obj, indent=1, sort_keys=True) + "\n")


def _write_csv(path: Path, header, rows):
    with path.open("w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(header)
        w.writerows(rows)


# rows stacked and formatted per write: formatting a whole per-step series at
# once holds its text and every value as a Python float, some 14 MB for a
# 27k-step run, and stacking it a 2 MB copy of its columns
_TABLE_BLOCK = 2048


def _write_table(path: Path, header: str, fmt, columns):
    """Write the rows of the columns side by side below a header line.

    columns are arrays of n rows, (n,) or (n, k), len(fmt) columns in all.
    The bytes are those of np.savetxt(path, np.column_stack(columns),
    fmt=fmt, delimiter=",", header=header, comments="")."""
    line = ",".join(fmt) + "\n"
    with path.open("w") as fh:
        fh.write(header + "\n")
        for i in range(0, len(columns[0]), _TABLE_BLOCK):
            block = np.column_stack([c[i:i + _TABLE_BLOCK] for c in columns])
            fh.write(line * len(block) % tuple(block.ravel().tolist()))


def _load_artifact(path: Path, loader):
    """An earlier stage's artifact, read by loader from its JSON data or CSV path;
    a missing, unreadable or malformed file raises MissingArtifactError naming it."""
    if not path.exists():
        raise MissingArtifactError(
            f"missing artifact {path.name}: run the plan stage first"
        )
    try:
        return loader(json.loads(path.read_text()) if path.suffix == ".json" else path)
    except (OSError, ValueError, KeyError, TypeError, csv.Error) as exc:
        raise MissingArtifactError(f"corrupt artifact {path.name}: {exc}") from exc


# ranking.json keys the simulate and report stages read, and those of its graph
_RANKING_KEYS = ("seed", "best", "worst", "second_best", "second_worst", "totals",
                 "degenerate", "graph")
_GRAPH_KEYS = ("nodes", "distinct_edges", "edge_instances", "total_length_m")

_PATH_SCORE_HEADER = [
    "circuit", "length_m", "flight_time_s", "pec_total_m2", "pec_max_m2",
    "pec_mean_m2", "pec_median_m2", "pec_sigma_m2", "pec_rms_m2",
    "cam_updates", "lidar_updates", "skipped_updates", "duplicate",
    "threshold_ok", "within_flight_limit",
]
# path_scores.csv columns the report stage reads, as numbers or as flags
_PATH_SCORE_FLOATS = ("length_m", "flight_time_s", "pec_total_m2", "pec_max_m2",
                      "pec_mean_m2", "pec_median_m2", "pec_sigma_m2", "pec_rms_m2")
_PATH_SCORE_FLAGS = ("threshold_ok", "within_flight_limit")


def _read_ranking(ranking) -> dict:
    """ranking.json's data, checked for every key and index the later stages read."""
    if not isinstance(ranking, dict) or not isinstance(ranking.get("graph"), dict):
        raise ValueError("not a ranking object with a graph object")
    missing = [k for k in _RANKING_KEYS if k not in ranking]
    missing += [f"graph.{k}" for k in _GRAPH_KEYS if k not in ranking["graph"]]
    if missing:
        raise ValueError(f"missing keys {', '.join(missing)}")
    totals = ranking["totals"]
    if not isinstance(totals, list) or not all(
            isinstance(t, (int, float)) and not isinstance(t, bool) for t in totals):
        raise ValueError("totals is not a list of numbers")
    for key in ("best", "worst", "second_best", "second_worst"):
        idx = ranking[key]
        if idx is None and key.startswith("second_"):
            continue
        if isinstance(idx, bool) or not isinstance(idx, int) or not 0 <= idx < len(totals):
            raise ValueError(f"{key} is not a candidate index")
    return ranking


def _read_rows(path: Path, header) -> list:
    """A CSV artifact's rows as dicts, checked for every column of header."""
    with path.open(newline="") as fh:
        reader = csv.DictReader(fh)
        rows = list(reader)
    missing = [c for c in header if c not in (reader.fieldnames or ())]
    if missing:
        raise ValueError(f"missing columns {', '.join(missing)}")
    return rows


def _read_path_scores(path: Path) -> dict:
    """path_scores.csv as {circuit: the numbers and flags report reads}."""
    return {
        int(r["circuit"]): {**{c: float(r[c]) for c in _PATH_SCORE_FLOATS},
                            **{c: r[c] == "true" for c in _PATH_SCORE_FLAGS}}
        for r in _read_rows(path, _PATH_SCORE_HEADER)
    }


def _read_aggregate(path: Path) -> dict:
    """aggregate_<mode>.csv as {selection: its row}, numbers parsed."""
    return {
        r["selection"]: {c: r[c] if c in ("selection", "mode") else float(r[c])
                         for c in _AGGREGATE_HEADER}
        for r in _read_rows(path, _AGGREGATE_HEADER)
    }


def _resolve_selection(ranking: dict, sel) -> int:
    """Map a selection name or candidate index onto a circuit index."""
    n = len(ranking["totals"])
    if isinstance(sel, bool):
        raise ConfigError(f"bad selection {sel!r}")
    if isinstance(sel, int) or config.is_candidate_index(sel):
        idx = int(sel)
        if not 0 <= idx < n:
            raise ConfigError(
                f"selection index {idx} out of range (have {n} candidates)"
            )
        return idx
    if sel in config.SELECTION_NAMES:
        idx = ranking.get(sel)
        if idx is None:
            raise ConfigError(f"selection {sel!r} undefined for {n} candidate(s)")
        return int(idx)
    raise ConfigError(f"unknown selection {sel!r}")


# ---------------------------------------------------------------------------
# plan stage


def _ranking_dict(report: planner.RankingReport, cfg, g, base_edge_count) -> dict:
    return {
        "seed": cfg.seed,
        "best": report.best,
        "worst": report.worst,
        "second_best": report.second_best,
        "second_worst": report.second_worst,
        "order": list(report.order),
        # at the precision of path_scores.csv, so that arithmetic reordered in
        # the last bits leaves the artifact as it is; the order above comes
        # from the full-precision totals
        "totals": [float(_f(t)) for t in report.totals],
        "degenerate": report.degenerate,
        "graph": {
            "nodes": len(g.nodes),
            "distinct_edges": base_edge_count,
            "edge_instances": g.edge_instance_count(),
            "total_length_m": float(g.total_length()),
        },
        "config": config.config_to_dict(cfg),
    }


def _named_selections(ranking: dict) -> list[tuple[str, int]]:
    """(name, circuit) of the named selections that candidates.svg marks and
    report shows: best, worst, and each second one that is neither."""
    skip = {ranking["best"], ranking["worst"], None}
    return [(name, ranking[name]) for name in SELECTIONS
            if name in ("best", "worst") or ranking[name] not in skip]


def _scene(env, paths, markers, title: str) -> str:
    """A top-down plot of the map's bounds and boxes under paths and markers."""
    return svgplot.scene_plot(env.bounds_min, env.bounds_max,
                              [(b.lo, b.hi) for b in env.obstacles], paths, markers,
                              title=title)


def _route_svg(env, g, cand, label: str) -> str:
    edges = [
        ("", np.stack([g.nodes[e.i], g.nodes[e.j]]), "#d0d4da", 1.0, None)
        for e in g.edges
    ]
    route = g.nodes[np.asarray(cand.nodes, dtype=int)]
    paths = edges + [(f"route ({label})", route, "#4878a8", 1.8, None)]
    markers = [
        (env.rig.position, "#111111", "ugv"),
        (roadmap.deployment_point(env), svgplot.BEST_COLOR, "start"),
    ]
    return _scene(env, paths, markers, f"coverage route: {label}")


def cmd_plan(cfg: config.RunConfig, out: Path):
    # the map first, so that a bad one leaves no artifact directory behind
    env = mapenv.load_map(cfg.resolve_map_path())
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot make the artifact directory {out}: {exc}") from exc
    pts = roadmap.sample_nodes(
        env, cfg.plan.nodes, cfg.rng(config.STREAM_SAMPLING), cfg.plan.forward_bias
    )
    base = roadmap.connect_knn(pts, cfg.plan.knn, env)
    base_edges = len(base.edges)
    g = roadmap.eulerize(base, env)
    cands = circuits.generate_candidates(
        g, cfg.plan.candidates, cfg.rng(config.STREAM_CANDIDATES),
        cfg.kinematics.cruise_mps,
    )
    # numpy stays quiet: pec_summary reports a covariance that left the float range
    with np.errstate(over="ignore", invalid="ignore"):
        scores = planner.propagate_paths(
            cands, g, env, cfg.kinematic_profile(), cfg.rate_schedule(),
            cfg.noise_config(),
        )
    report = planner.score_and_select(scores)
    ranking = _ranking_dict(report, cfg, g, base_edges)
    # every selection resolved before the first artifact is deleted or written
    selected = [(str(sel), _resolve_selection(ranking, sel))
                for sel in cfg.simulate.selections]

    _delete(out, _STALE_AFTER_PLAN)
    _write_json(out / "graph.json", roadmap.graph_to_dict(g))
    _write_json(out / "circuits.json", circuits.circuits_to_list(cands))

    rows = [
        [
            s.circuit_index, _f(s.length), _f(s.flight_time), _f(s.total),
            _f(s.max_pec), _f(s.mean), _f(s.median), _f(s.sigma), _f(s.rms),
            s.cam_updates, s.lidar_updates, len(s.skipped), _b(s.duplicate),
            _b(s.max_pec < cfg.plan.pec_threshold_m2),
            _b(s.flight_time < cfg.plan.max_flight_time_s),
        ]
        for s in scores
    ]
    _write_csv(out / "path_scores.csv", _PATH_SCORE_HEADER, rows)
    _write_json(out / "ranking.json", ranking)

    (out / "candidates.svg").write_text(
        svgplot.bar_chart(
            report.totals,
            title=f"accumulated position-error covariance per candidate "
                  f"(seed {cfg.seed})",
            ylabel="pec total [m^2]",
            highlights={idx: SELECTIONS[name] for name, idx in _named_selections(ranking)},
        )
    )

    series = []
    for i, (label, idx) in enumerate(selected):
        s = scores[idx]
        _write_table(
            out / f"pec_series_{label}.csv", "step,t_s,pec_m2,cam_fired,lidar_fired",
            ["%d", "%.3f", "%.9g", "%d", "%d"],
            [np.arange(1, len(s.t) + 1), s.t, s.pec, s.cam_fired, s.lidar_fired],
        )
        (out / f"route_{label}.svg").write_text(
            _route_svg(env, g, cands[idx], label)
        )
        color = (SELECTIONS[label][0] if label in SELECTIONS
                 else svgplot.SERIES_COLORS[i % len(svgplot.SERIES_COLORS)])
        series.append((f"{label} (circuit {idx})", s.t, s.pec, color))
    (out / "pec_series.svg").write_text(
        svgplot.line_chart(
            series, title="planned position-error covariance along the flight",
            xlabel="t [s]", ylabel="pec [m^2]",
        )
    )
    print(
        f"plan: scored {len(scores)} candidates "
        f"(best={report.best}, worst={report.worst}) -> {out}",
        file=sys.stderr,
    )


# ---------------------------------------------------------------------------
# simulate stage


_STAT_FIELDS = [
    f.name for f in dataclasses.fields(montecarlo.RunStats)
    if f.name not in montecarlo.ID_FIELDS
]
# aggregate_<mode>.csv columns; all but selection and mode are numbers
_AGGREGATE_HEADER = ["selection", "circuit", "mode", "runs"] + [
    f"{name}_{stat}" for name in _STAT_FIELDS for stat in ("mean", "median")
]


def _truths_svg(env, records, label: str, mode: str) -> str:
    cmd = records[0].truth.commanded.pos
    paths = [("commanded", cmd, "#111111", 1.2, None)]
    for i, rec in enumerate(records):
        name = "flown runs" if i == 0 else ""
        color = svgplot.SERIES_COLORS[i % len(svgplot.SERIES_COLORS)]
        paths.append((name, rec.truth.pos, color, 1.0, 0.55))
    return _scene(env, paths, [], f"flown trajectories: {label} [{mode}], {len(records)} runs")


def _estimate_svg(env, rec, label: str, mode: str) -> str:
    paths = [
        ("commanded", rec.truth.commanded.pos, "#c4c9d0", 1.0, None),
        ("truth (run 0)", rec.truth.pos, "#111111", 1.4, None),
        ("estimate (run 0)", rec.result.est, svgplot.WORST_COLOR, 1.2, 0.9),
    ]
    return _scene(env, paths, [], f"truth vs estimate: {label} [{mode}]")


def cmd_simulate(cfg: config.RunConfig, out: Path):
    ranking = _load_artifact(out / "ranking.json", _read_ranking)
    if ranking.get("seed") != cfg.seed:
        raise MissingArtifactError(
            f"ranking.json was produced with seed {ranking.get('seed')}, current "
            f"run uses seed {cfg.seed}; regenerate the plan or pass that seed"
        )
    g = _load_artifact(out / "graph.json", roadmap.graph_from_dict)
    cands = _load_artifact(out / "circuits.json", circuits.circuits_from_list)
    if len(cands) != len(ranking["totals"]):
        raise MissingArtifactError(
            f"corrupt artifact circuits.json: {len(cands)} circuits, but ranking.json "
            f"ranks {len(ranking['totals'])}"
        )

    env = mapenv.load_map(cfg.resolve_map_path())
    kin = cfg.kinematic_profile()
    rates = cfg.rate_schedule()
    noise = cfg.noise_config()
    sim = cfg.simulate
    mode = sim.mode

    selected = [(str(sel), _resolve_selection(ranking, sel)) for sel in sim.selections]
    for _, idx in selected:
        try:
            planner._validate_circuit(cands[idx], g)
        except InvalidCircuitError as exc:
            raise MissingArtifactError(
                f"corrupt artifact circuits.json: circuit {idx} does not fit "
                f"graph.json: {exc}"
            ) from exc
    # as in plan: pec_summary, not numpy's warnings, reports an overflow
    with np.errstate(over="ignore", invalid="ignore"):
        trial_sets = montecarlo.run_trial_sets([(cands[idx], idx) for _, idx in selected],
                                               g, env, kin, rates, noise, cfg.seed, sim)
    _delete(out, [pattern.format(mode=mode) for pattern in _STALE_AFTER_SIMULATE])
    agg_rows = []
    for (label, idx), records in zip(selected, trial_sets):
        for i, rec in enumerate(records):
            res = rec.result
            truth_pos = rec.truth.pos[1:]
            err3 = np.linalg.norm(res.est - truth_pos, axis=1)
            _write_table(
                out / f"run_{label}_{mode}_{i}.csv",
                "step,t_s,truth_n,truth_e,truth_d,est_n,est_e,est_d,err_3d_m,pec_m2",
                ["%d", "%.3f"] + ["%.9g"] * 8,
                [np.arange(1, len(res.t) + 1), res.t, truth_pos, res.est, err3, res.pec],
            )
        stats = [rec.stats for rec in records]
        _write_csv(
            out / f"summary_{label}_{mode}.csv",
            [f.name for f in dataclasses.fields(montecarlo.RunStats)],
            [
                [
                    s.circuit_index, s.run_index, s.mode,
                    *(_f(getattr(s, name)) for name in _STAT_FIELDS),
                ]
                for s in stats
            ],
        )
        (out / f"truths_{label}_{mode}.svg").write_text(
            _truths_svg(env, records, label, mode)
        )
        (out / f"estimate_{label}_{mode}.svg").write_text(
            _estimate_svg(env, records[0], label, mode)
        )
        agg = montecarlo.aggregate_trials(stats)
        row = [label, idx, mode, agg["runs"]]
        for name in _STAT_FIELDS:
            row.append(_f(agg[f"{name}_mean"]))
            row.append(_f(agg[f"{name}_median"]))
        agg_rows.append(row)
        print(
            f"simulate: {label} (circuit {idx}) x{sim.runs} [{mode}] "
            f"rms_3d mean {agg['rms_3d_mean']:.3f} m",
            file=sys.stderr,
        )

    _write_csv(out / f"aggregate_{mode}.csv", _AGGREGATE_HEADER, agg_rows)


# ---------------------------------------------------------------------------
# report stage


def cmd_report(cfg: config.RunConfig, out: Path):
    ranking = _load_artifact(out / "ranking.json", _read_ranking)
    score_rows = _load_artifact(out / "path_scores.csv", _read_path_scores)
    totals = ranking["totals"]
    best, worst = ranking["best"], ranking["worst"]
    ratio = totals[worst] / totals[best] if totals[best] > 0 else float("inf")

    planning = {}
    for name, idx in _named_selections(ranking):
        if idx not in score_rows:
            raise MissingArtifactError(
                f"path_scores.csv has no row for circuit {idx} of ranking.json; "
                "run the plan stage again"
            )
        planning[name] = {"circuit": idx, **score_rows[idx]}

    mode = cfg.simulate.mode
    agg_path = out / f"aggregate_{mode}.csv"
    simulation: dict = {"available": agg_path.exists(), "mode": mode}
    direction_ok = None
    if simulation["available"]:
        sels = _load_artifact(agg_path, _read_aggregate)
        simulation["selections"] = sels
        simulation["runs"] = int(next(iter(sels.values()))["runs"]) if sels else 0
        if "best" in sels and "worst" in sels:
            direction_ok = bool(
                sels["best"]["rms_3d_mean"] < sels["worst"]["rms_3d_mean"]
            )

    rep = {
        "seed": ranking["seed"],
        "graph": ranking["graph"],
        "ranking": {
            "best": best,
            "worst": worst,
            "second_best": ranking["second_best"],
            "second_worst": ranking["second_worst"],
            "degenerate": ranking["degenerate"],
            "pec_total_best_m2": totals[best],
            "pec_total_worst_m2": totals[worst],
        },
        "planning": planning,
        "simulation": simulation,
        "consistency": {
            "pec_ratio_worst_over_best": ratio,
            "rms_3d_direction_ok": direction_ok,
        },
    }
    _write_json(out / "report.json", rep)

    lines = []
    gr = ranking["graph"]
    lines.append(f"coverage path report  (seed {ranking['seed']})")
    lines.append("")
    lines.append(
        f"graph: {gr['nodes']} nodes, {gr['distinct_edges']} distinct edges, "
        f"{gr['edge_instances']} traversals, total length "
        f"{gr['total_length_m']:.2f} m"
    )
    lines.append("")
    lines.append("planning (pec accumulated over the whole flight, m^2)")
    lines.append(
        f"{'selection':<13}{'circuit':>8}{'length_m':>11}{'flight_s':>10}"
        f"{'pec_total':>13}{'pec_max':>10}{'pec_mean':>10}{'pec_median':>12}"
    )
    for name, p in planning.items():
        lines.append(
            f"{name:<13}{p['circuit']:>8}{p['length_m']:>11.2f}"
            f"{p['flight_time_s']:>10.2f}{p['pec_total_m2']:>13.4g}"
            f"{p['pec_max_m2']:>10.4g}{p['pec_mean_m2']:>10.4g}"
            f"{p['pec_median_m2']:>12.4g}"
        )
    lines.append("")
    if simulation["available"]:
        lines.append(
            f"simulation (mode {mode}, {simulation['runs']} runs per circuit)"
        )
        lines.append(
            f"{'selection':<13}{'circuit':>8}{'rms3d_mean':>12}{'rms3d_med':>11}"
            f"{'mpe_mean':>10}{'pec_tot_mean':>14}{'dropped_mean':>14}"
        )
        for name, a in simulation["selections"].items():
            lines.append(
                f"{name:<13}{int(a['circuit']):>8}{a['rms_3d_mean']:>12.3f}"
                f"{a['rms_3d_median']:>11.3f}{a['mpe_mean']:>10.3f}"
                f"{a['pec_total_mean']:>14.4g}{a['dropped_events_mean']:>14.1f}"
            )
    else:
        lines.append(
            f"simulation: no simulation artifacts for mode '{mode}'; "
            "run the simulate stage first"
        )
    lines.append("")
    lines.append(
        f"ranking check: worst/best pec ratio {ratio:.3f}"
        + (
            f"; rms_3d direction consistent: {'yes' if direction_ok else 'no'}"
            if direction_ok is not None
            else ""
        )
    )
    (out / "report.txt").write_text("\n".join(lines) + "\n")
    print(f"report: wrote {out / 'report.json'}", file=sys.stderr)


# ---------------------------------------------------------------------------
# entry point


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="tunnelplan",
        description="Plan, simulate, and rank UAV coverage circuits localized "
                    "by a stationary ground sensor rig.",
    )
    sub = p.add_subparsers(dest="command", required=True)
    stages = {
        "plan": "sample a roadmap, generate circuits, and rank them",
        "simulate": "Monte Carlo replay of selected circuits",
        "report": "combine plan and simulation artifacts into one report",
        "all": "plan, simulate, and report in sequence",
    }
    for name, help_text in stages.items():
        s = sub.add_parser(name, help=help_text)
        s.add_argument("--config", type=Path, default=None,
                       help="YAML config file (defaults are built in)")
        s.add_argument("--seed", type=int, default=None,
                       help="master seed, overrides the config file")
        s.add_argument("--out", default=None,
                       help="artifact directory (default: config out_dir)")
        s.add_argument("--set", dest="overrides", action="append", default=[],
                       metavar="KEY=VALUE",
                       help="dotted config override, e.g. plan.nodes=16")
        s.add_argument("--select", action="append", default=None,
                       metavar="SEL",
                       help="circuit selection: best, worst, second_best, "
                            "second_worst, or a candidate index (repeatable)")
        s.add_argument("--mode", choices=("noisy", "perfect"), default=None,
                       help="measurement synthesis mode")
        s.add_argument("--runs", type=int, default=None,
                       help="Monte Carlo trials per selected circuit")
    return p


def _config_from_args(args) -> config.RunConfig:
    overrides = list(args.overrides)
    if args.runs is not None:
        overrides.append(f"simulate.runs={args.runs}")
    if args.mode is not None:
        overrides.append(f"simulate.mode={args.mode}")
    if args.select:
        # quoted where YAML would read a label as something else, so "010"
        # stays a string that the config then rejects
        overrides.append("simulate.selections="
                         + yaml.safe_dump(args.select, default_flow_style=True))
    return config.load_config(args.config, overrides, args.seed)


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_OK if exc.code in (0, None) else EXIT_CONFIG
    try:
        cfg = _config_from_args(args)
        out = Path(args.out) if args.out is not None else Path(cfg.out_dir)
        # else simulate and report would blame a missing plan
        if out.exists() and not out.is_dir():
            raise ConfigError(f"the artifact directory {out} is not a directory")
        if args.command in ("plan", "all"):
            cmd_plan(cfg, out)
        if args.command in ("simulate", "all"):
            cmd_simulate(cfg, out)
        if args.command in ("report", "all"):
            cmd_report(cfg, out)
    except TunnelPlanError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next((_EXIT_CODES[c] for c in type(exc).__mro__ if c in _EXIT_CODES),
                    EXIT_SIMULATION)
    return EXIT_OK
