"""Spans and counters recorded around the public calls of each layer.

Only a traced repetition installs the wrappers; untraced repetitions run the
program unmodified. A span is (name, start, end, parent index); spans stay in
memory and are written out once the repetition ends. The per-layer metrics
named in BENCHMARK.json are derived from the span summary and the counters.
"""

from __future__ import annotations

import csv
import functools
import gzip
import inspect
from collections import Counter
from time import perf_counter

import numpy

from tunnelplan import (
    circuits, cli, config, ekf, mapenv, montecarlo, planner, roadmap, svgplot,
)

SENSORS = ("alt", "uwb", "cam", "lidar")


class Tracer:
    """Records a span per wrapped call and counts the work each call did."""

    def __init__(self, rep: int):
        self.rep = rep
        self.origin = perf_counter()
        self.spans: list = []
        self.counters: Counter = Counter()
        self._stack: list[int] = []
        self._patches: list = []

    def wrap(self, owner, attr: str, name: str, observe=None):
        """Replace owner.attr by a wrapper that records a span named `name`.

        observe(counters, arguments, result) runs after the call, outside its
        span, with the call's arguments bound by parameter name.
        """
        original = getattr(owner, attr)
        sig = inspect.signature(original) if observe is not None else None
        spans, stack, counters = self.spans, self._stack, self.counters

        @functools.wraps(original)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[idx] = (name, start, end, parent)
            if observe is not None:
                observe(counters, sig.bind(*args, **kwargs).arguments, result)
            return result

        setattr(owner, attr, traced)
        self._patches.append((owner, attr, original))

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def summary(self) -> dict:
        """Per span name: call count, total time and self time in seconds."""
        own = self_times(self.spans)
        out: dict = {}
        for (name, start, end, _), self_s in zip(self.spans, own):
            row = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += end - start
            row["self_s"] += self_s
        return out

    def write_spans(self, path):
        """Write every span as CSV rows: id, name, start, end, parent, rep."""
        with gzip.open(path, "wt", compresslevel=1, newline="") as fh:
            w = csv.writer(fh, lineterminator="\n")
            w.writerow(["id", "name", "start_s", "end_s", "parent", "rep"])
            for i, (name, start, end, parent) in enumerate(self.spans):
                w.writerow([i, name, f"{start - self.origin:.9f}",
                            f"{end - self.origin:.9f}", parent, self.rep])


def self_times(spans) -> list[float]:
    """Each span's duration minus the time its direct children cover.

    Spans come from one thread, so children of a span never overlap.
    """
    child = [0.0] * len(spans)
    for _, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    return [end - start - c for (_, start, end, _), c in zip(spans, child)]


# ---------------------------------------------------------------------------
# what each wrapped call counts


def _observe_plan(counters, args, scores):
    rates = args["rates"]
    for steps, count in Counter(len(s.pec) for s in scores).items():
        table = rates.fire_table(steps)
        any_fire = table["alt"] | table["uwb"] | table["cam"] | table["lidar"]
        counters["planner.sensor_ticks"] += int(any_fire.sum())
        counters["planner.scheduled"] += count * sum(
            int(table[s].sum()) for s in SENSORS
        )
        counters["planner.scheduled_alt_uwb"] += count * (
            int(table["alt"].sum()) + int(table["uwb"].sum())
        )
    for s in scores:
        counters["planner.candidate_steps"] += len(s.pec)
        counters["planner.updates_cam"] += s.cam_updates
        counters["planner.updates_lidar"] += s.lidar_updates
        counters["planner.skipped_updates"] += len(s.skipped)
        counters["planner.skipped_alt_uwb"] += sum(
            1 for _, sensor, _ in s.skipped if sensor in ("alt", "uwb")
        )


def _observe_gate(counters, args, _):
    counters["mapenv.gate_points"] += len(args["pts"])


def _observe_replay(counters, args, result):
    counters["montecarlo.replay_applied"] += (
        result.alt_updates + result.uwb_updates
        + result.cam_updates + result.lidar_updates
    )
    counters["montecarlo.replay_offered"] += sum(
        1 for ev in args["events"] if not ev.dropped
    )
    counters["montecarlo.replay_skipped"] += len(result.skipped)


def _observe_synthesis(counters, _, events):
    counters["montecarlo.events"] += len(events)
    counters["montecarlo.dropped"] += sum(1 for ev in events if ev.dropped)
    counters["montecarlo.outliers"] += sum(1 for ev in events if ev.outlier)


def _observe_eulerize(counters, _, graph):
    counters["roadmap.edge_instances"] = graph.edge_instance_count()


def _observe_candidates(counters, _, cands):
    counters["circuits.candidates"] = len(cands)


def install(tracer: Tracer):
    """Wrap the public calls of every layer the benchmark reports on."""
    w = tracer.wrap
    w(config, "load_config", "config.load_config")
    w(mapenv, "load_map", "mapenv.load_map")
    w(mapenv.EnvironmentMap, "camera_sees_many", "mapenv.camera_sees_many",
      _observe_gate)
    w(mapenv.EnvironmentMap, "lidar_sees_many", "mapenv.lidar_sees_many",
      _observe_gate)
    w(roadmap, "sample_nodes", "roadmap.sample_nodes")
    w(roadmap, "connect_knn", "roadmap.connect_knn")
    w(roadmap, "eulerize", "roadmap.eulerize", _observe_eulerize)
    w(circuits, "generate_candidates", "circuits.generate_candidates",
      _observe_candidates)
    w(planner, "propagate_paths", "planner.propagate_paths", _observe_plan)
    w(ekf, "predict_span", "ekf.predict_span")
    w(ekf, "joseph_update", "ekf.joseph_update")
    w(montecarlo, "simulate_truth", "montecarlo.simulate_truth")
    w(montecarlo, "synthesize_measurements", "montecarlo.synthesize_measurements",
      _observe_synthesis)
    w(montecarlo, "run_online_ekf", "montecarlo.run_online_ekf", _observe_replay)
    w(montecarlo, "compute_stats", "montecarlo.compute_stats")
    for plot in ("bar_chart", "line_chart", "scene_plot"):
        w(svgplot, plot, "svgplot.render")
    w(numpy, "savetxt", "cli.savetxt")
    w(cli, "main", "cli.main")
    for stage in ("plan", "simulate", "report"):
        w(cli, f"cmd_{stage}", f"cli.{stage}")


# ---------------------------------------------------------------------------
# per-layer metrics


def _ratio(num: float, den: float) -> float:
    """num / den, or 0 when the layer did no work."""
    return num / den if den else 0.0


def layer_metrics(summary: dict, counters, artifacts: dict) -> dict:
    """Per-layer metric name -> (value, unit) for one traced repetition.

    Times are totals over all calls in the repetition. Per-run figures divide
    by the number of replayed Monte Carlo runs; a layer that did no work on
    this workload reports 0.
    """
    def total(name):
        return summary.get(name, {}).get("total_s", 0.0)

    def calls(name):
        return summary.get(name, {}).get("calls", 0)

    c = counters
    runs = calls("montecarlo.run_online_ekf")
    plan_applied = (
        c["planner.scheduled_alt_uwb"] - c["planner.skipped_alt_uwb"]
        + c["planner.updates_cam"] + c["planner.updates_lidar"]
    )
    gates = ("mapenv.camera_sees_many", "mapenv.lidar_sees_many")
    return {
        "planner.propagate_paths_s": (total("planner.propagate_paths"), "s"),
        "planner.ns_per_candidate_step": (
            1e9 * _ratio(total("planner.propagate_paths"),
                         c["planner.candidate_steps"]), "ns"),
        "planner.candidate_steps": (c["planner.candidate_steps"], "count"),
        "planner.sensor_ticks": (c["planner.sensor_ticks"], "count"),
        "planner.updates_cam": (c["planner.updates_cam"], "count"),
        "planner.updates_lidar": (c["planner.updates_lidar"], "count"),
        "planner.skipped_updates": (c["planner.skipped_updates"], "count"),
        "planner.update_yield": (_ratio(plan_applied, c["planner.scheduled"]),
                                 "ratio"),
        "mapenv.gate_calls": (sum(calls(g) for g in gates), "count"),
        "mapenv.gate_points": (c["mapenv.gate_points"], "count"),
        "mapenv.gate_s": (sum(total(g) for g in gates), "s"),
        "montecarlo.runs": (runs, "count"),
        "montecarlo.replay_ms_per_run": (
            1e3 * _ratio(total("montecarlo.run_online_ekf"), runs), "ms"),
        "montecarlo.replay_skipped": (c["montecarlo.replay_skipped"], "count"),
        "montecarlo.replay_yield": (
            _ratio(c["montecarlo.replay_applied"], c["montecarlo.replay_offered"]),
            "ratio"),
        "ekf.predict_span_calls": (calls("ekf.predict_span"), "count"),
        "ekf.predict_span_s": (total("ekf.predict_span"), "s"),
        "ekf.joseph_update_calls": (calls("ekf.joseph_update"), "count"),
        "ekf.joseph_update_s": (total("ekf.joseph_update"), "s"),
        "montecarlo.simulate_truth_ms_per_run": (
            1e3 * _ratio(total("montecarlo.simulate_truth"), runs), "ms"),
        "montecarlo.synthesize_ms_per_run": (
            1e3 * _ratio(total("montecarlo.synthesize_measurements"), runs), "ms"),
        "montecarlo.compute_stats_ms_per_run": (
            1e3 * _ratio(total("montecarlo.compute_stats"), runs), "ms"),
        "montecarlo.events_per_run": (_ratio(c["montecarlo.events"], runs), "count"),
        "montecarlo.dropped_per_run": (_ratio(c["montecarlo.dropped"], runs), "count"),
        "montecarlo.outliers_per_run": (_ratio(c["montecarlo.outliers"], runs),
                                        "count"),
        "cli.simulate_s": (total("cli.simulate"), "s"),
        "cli.report_s": (total("cli.report"), "s"),
        "cli.savetxt_s": (total("cli.savetxt"), "s"),
        "cli.artifact_files": (artifacts["files"], "count"),
        "cli.artifact_bytes": (artifacts["bytes"], "bytes"),
        "svgplot.render_s": (total("svgplot.render"), "s"),
        "roadmap.sample_nodes_s": (total("roadmap.sample_nodes"), "s"),
        "roadmap.connect_knn_s": (total("roadmap.connect_knn"), "s"),
        "roadmap.eulerize_s": (total("roadmap.eulerize"), "s"),
        "roadmap.edge_instances": (c["roadmap.edge_instances"], "count"),
        "circuits.generate_candidates_s": (total("circuits.generate_candidates"),
                                           "s"),
        "circuits.candidates": (c["circuits.candidates"], "count"),
        "config.load_config_s": (total("config.load_config"), "s"),
        "mapenv.load_map_s": (total("mapenv.load_map"), "s"),
    }
