"""tunnelplan benchmark: run one workload as a closed-loop batch job.

Usage (from the repository root):

    python3 bench/run.py --workload replay_deep --seed 6 --seconds 55 --trace 0

One repetition runs the workload's CLI stages (plan, simulate, report) in a
fresh interpreter; repetitions run one at a time, back to back, and the
harness adds no threads. Repetitions repeat until the next one would end
past --seconds, with at least one. Five set-up-only interpreters start
first, so set-up time has several samples in every run. With --trace 1 one
more repetition runs with spans recorded around every layer's public calls,
and the per-layer metrics come from it.

The artifacts of every repetition are checked (bench/checks.py). The full
result record, with provenance, goes to bench/out/; stdout gets a table of
every metric (median, quartiles, sample count) and, as its last line, the
JSON summary {"correct", "attempted", "failed", "metrics"} holding the
end-to-end metrics of BENCHMARK.json, or with --trace 1 its per-layer ones.
The exit code is 0 only when every operation succeeded.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

SETUP_PROBES = 5
# every child process is killed once the run is this old, keeping the whole
# run inside 180 s
RUN_BUDGET_S = 170.0
STAGE_METRICS = {"plan": "plan_s", "simulate": "simulate_s"}
# plan_s and simulate_s are printed but not gated in BENCHMARK.json: plan_wide
# has no simulate stage, and plan_s is nearly all of plan_wide's pipeline_s
# and a 4 s share of replay_deep's, which spreads wider on a shared host;
# pipeline_s covers both
E2E_UNITS = {"setup_s": "s", "pipeline_s": "s", "plan_s": "s",
             "simulate_s": "s", "peak_rss_mb": "MB"}


def _git(*args) -> str | None:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), *args], env=env,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def provenance() -> dict:
    import numpy

    sha = _git("rev-parse", "HEAD")
    status = _git("status", "--porcelain", "--untracked-files=no") if sha else None
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):
        blas = None
    return {
        "git_sha": sha,
        "git_dirty": None if status is None else bool(status),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "blas_threads_env": {
            k: os.environ.get(k)
            for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
        },
        "platform": platform.platform(),
    }


def spawn_worker(spec: dict, workdir: Path, deadline: float) -> dict:
    """Run worker.py on spec in a fresh interpreter; return its record.

    A worker that crashes or outlives the deadline yields a record with an
    "error" and no measurements.
    """
    tag = f"rep{spec['rep']}"
    result = workdir / f"{tag}.json"
    result.unlink(missing_ok=True)
    spec = dict(spec, result=str(result))
    env = dict(os.environ, PYTHONPATH=str(SRC))
    log = workdir / f"{tag}.log"
    timeout = max(1.0, deadline - time.monotonic())
    with log.open("w") as fh:
        spec["spawn_ns"] = time.monotonic_ns()
        try:
            proc = subprocess.run(
                [sys.executable, str(BENCH / "worker.py"), json.dumps(spec)],
                cwd=ROOT, env=env, stdout=fh, stderr=subprocess.STDOUT,
                timeout=timeout,
            )
        except subprocess.TimeoutExpired:
            return {"error": f"killed after {timeout:.0f} s", "log": str(log)}
    if proc.returncode != 0 or not result.exists():
        tail = log.read_text().strip().splitlines()[-1:] or [""]
        return {"error": f"worker exit {proc.returncode}: {tail[0]}",
                "log": str(log)}
    return json.loads(result.read_text())


def quartiles(values: list[float]) -> dict:
    vals = sorted(values)
    if len(vals) == 1:
        q1 = q3 = vals[0]
    else:
        q1, _, q3 = statistics.quantiles(vals, n=4, method="inclusive")
    return {"median": statistics.median(vals), "q1": q1, "q3": q3, "n": len(vals)}


class Run:
    """Repetitions of one workload at one seed, and their operation ledger."""

    def __init__(self, workload, inputs: dict, simulate: dict | None,
                 seconds: int, out_dir: Path):
        self.workload = workload
        self.inputs = inputs
        self.simulate = simulate
        self.seconds = seconds
        self.start = time.monotonic()
        self.deadline = self.start + RUN_BUDGET_S
        self.workdir = out_dir / "work" / workload.name
        self.artifacts = self.workdir / "artifacts"
        self.spans = out_dir / f"{workload.name}-seed{inputs['seed']}-spans.csv.gz"
        self.probes: list[dict] = []
        self.reps: list[dict] = []
        self.attempted = 0
        self.failures: list[str] = []
        self.workdir.mkdir(parents=True, exist_ok=True)

    def _spec(self, rep: int, stages, trace: bool) -> dict:
        return {
            "rep": rep,
            "master_seed": self.inputs["master_seed"],
            "overrides": list(self.workload.overrides),
            "stages": list(stages),
            "out": str(self.artifacts),
            "trace": trace,
            "spans": str(self.spans),
        }

    def _op(self, name: str, error: str | None):
        """Count one operation: a set-up, a stage call or an output check."""
        self.attempted += 1
        if error is not None:
            self.failures.append(f"{name}: {error}")

    def probe_setup(self):
        for i in range(SETUP_PROBES):
            rec = spawn_worker(self._spec(-1 - i, (), False), self.workdir,
                               self.deadline)
            self._op(f"setup probe {i}", rec.get("error"))
            self.probes.append(rec)

    def repetition(self, trace: bool) -> dict:
        rep = len(self.reps)
        shutil.rmtree(self.artifacts, ignore_errors=True)
        t0 = time.monotonic()
        rec = spawn_worker(self._spec(rep, self.workload.stages, trace),
                           self.workdir, self.deadline)
        rec["wall_s"] = time.monotonic() - t0
        rec["traced"] = trace
        label = f"rep {rep}{' (traced)' if trace else ''}"
        self._op(f"{label} set-up", rec.get("error"))
        done = {s["stage"]: s for s in rec.get("stages", [])}
        for stage in self.workload.stages:
            s = done.get(stage)
            error = "not run" if s is None else s["error"]
            self._op(f"{label} stage {stage}", error)
        rec["complete"] = all(
            stage in done and done[stage]["error"] is None
            for stage in self.workload.stages
        )
        rec["checks"] = checks.run_checks(self.artifacts, self.simulate)
        for name, error in rec["checks"].items():
            self._op(f"{label} check {name}", error)
        if rec["complete"]:
            rec["artifact_sha256"] = checks.artifact_hash(self.artifacts)
            rec["digests"] = checks.result_digests(self.artifacts)
        self.reps.append(rec)
        return rec

    def measure(self, trace: bool):
        """Untraced repetitions for --seconds, then the traced one if asked."""
        t0 = time.monotonic()
        while True:
            rec = self.repetition(trace=False)
            elapsed = time.monotonic() - t0
            if elapsed + rec["wall_s"] > self.seconds:
                break
        if trace:
            self.repetition(trace=True)
        hashes = {r["artifact_sha256"] for r in self.reps if r["complete"]}
        if sum(r["complete"] for r in self.reps) >= 2:
            self._op("artifacts identical across repetitions",
                     None if len(hashes) == 1 else f"{len(hashes)} distinct hashes")

    def end_to_end(self) -> dict:
        untraced = [r for r in self.reps if not r["traced"] and "error" not in r]
        series: dict[str, list[float]] = {
            "setup_s": [r["setup_s"] for r in self.probes + untraced
                        if "error" not in r],
        }
        for r in untraced:
            for s in r["stages"]:
                if s["error"] is None and s["stage"] in STAGE_METRICS:
                    series.setdefault(STAGE_METRICS[s["stage"]], []).append(s["s"])
            if r["complete"]:
                series.setdefault("pipeline_s", []).append(r["pipeline_s"])
                series.setdefault("peak_rss_mb", []).append(r["peak_rss_mb"])
        return {name: dict(quartiles(v), unit=E2E_UNITS[name])
                for name, v in series.items() if v}

    def layers(self, e2e: dict) -> dict:
        traced = [r for r in self.reps if r["traced"] and "layers" in r]
        if not traced:
            return {}
        rec = traced[0]
        layers = {k: tuple(v) for k, v in rec["layers"].items()}
        if "pipeline_s" in e2e and rec["complete"]:
            layers["trace.overhead_s"] = (
                rec["pipeline_s"] - e2e["pipeline_s"]["median"], "s")
        return layers


def load_benchmark() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _fmt(v) -> str:
    return f"{v:.6g}" if isinstance(v, float) else str(v)


def print_report(record: dict):
    inp, prov = record["inputs"], record["provenance"]
    fl = inp["flight"]
    print(f"tunnelplan benchmark: workload {record['workload']}, seed {inp['seed']}"
          f" -> master seed {inp['master_seed']} ({inp['draws']} draws), flight "
          f"{fl['length_m']:.2f} m, {fl['steps']} steps, "
          f"{fl['gated_ticks']} gated camera/lidar ticks")
    print(f"  {record['repetitions']} repetitions + {SETUP_PROBES} set-up probes in "
          f"{record['run_s']:.1f} s; load {prov['load1_start']:.2f} -> "
          f"{prov['load1_end']:.2f} on {prov['nproc']} cpus; "
          f"loaded: {'YES' if prov['loaded'] else 'no'}")
    print(f"  {'metric':<40}{'unit':>7}{'median':>14}{'q1':>14}{'q3':>14}{'n':>4}")
    for name, m in record["end_to_end"].items():
        print(f"  {name:<40}{m['unit']:>7}{m['median']:>14.6g}{m['q1']:>14.6g}"
              f"{m['q3']:>14.6g}{m['n']:>4}")
    print(f"  {'failure_rate':<40}{'ratio':>7}{record['failure_rate']:>14.6g}"
          f"   ({record['failed']} of {record['attempted']} operations failed)")
    for name, (value, unit) in record.get("per_layer", {}).items():
        print(f"  {name:<40}{unit:>7}{_fmt(value):>14}")
    if record.get("span_summary"):
        print(f"  {'span (traced repetition)':<40}{'calls':>9}{'total_s':>12}"
              f"{'self_s':>12}")
        rows = sorted(record["span_summary"].items(), key=lambda kv: -kv[1]["self_s"])
        for name, s in rows:
            print(f"  {name:<40}{s['calls']:>9}{s['total_s']:>12.4f}"
                  f"{s['self_s']:>12.4f}")
    for name, digest in record["digests"].items():
        print(f"  digest {name}: {digest}")
    for failure in record["failures"]:
        print(f"  FAILED {failure}")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=6)
    p.add_argument("--seconds", type=int, default=55)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not (SRC / "tunnelplan" / "__init__.py").is_file():
        print(f"error: no tunnelplan sources under {SRC}", file=sys.stderr)
        return 2
    bench = load_benchmark()
    sys.path.insert(0, str(SRC))
    import workloads
    from tunnelplan import config

    if args.workload not in workloads.WORKLOADS:
        p.error(f"unknown workload {args.workload!r}; "
                f"choose from {sorted(workloads.WORKLOADS)}")
    if args.seed < 0 or args.seconds < 1:
        p.error("--seed must be >= 0 and --seconds >= 1")
    workload = workloads.WORKLOADS[args.workload]

    load_start = os.getloadavg()[0]
    prov = provenance()
    inputs = workloads.draw_master_seed(args.seed)
    cfg = config.load_config(None, workload.overrides, inputs["master_seed"])
    simulate = None
    if "simulate" in workload.stages:
        simulate = {"selections": [str(s) for s in cfg.simulate.selections],
                    "runs": cfg.simulate.runs, "mode": cfg.simulate.mode}

    run = Run(workload, inputs, simulate, args.seconds, OUT)
    run.probe_setup()
    run.measure(trace=bool(args.trace))

    e2e = run.end_to_end()
    layers = run.layers(e2e)
    load_end = os.getloadavg()[0]
    prov.update(load1_start=load_start, load1_end=load_end,
                loaded=max(load_start, load_end) > prov["nproc"])
    failed = len(run.failures)
    complete = [r for r in run.reps if r["complete"]]
    record = {
        "workload": workload.name,
        "stages": list(workload.stages),
        "overrides": list(workload.overrides),
        "inputs": inputs,
        "provenance": prov,
        "seconds": args.seconds,
        "trace": args.trace,
        "run_s": time.monotonic() - run.start,
        "repetitions": len(run.reps),
        "attempted": run.attempted,
        "failed": failed,
        "failure_rate": failed / run.attempted,
        "failures": run.failures,
        "end_to_end": e2e,
        "per_layer": layers,
        "span_summary": next((r["span_summary"] for r in run.reps
                              if "span_summary" in r), {}),
        "digests": complete[0]["digests"] if complete else {},
        "artifact_sha256": complete[0]["artifact_sha256"] if complete else None,
        "setup_probes": run.probes,
        "reps": run.reps,
    }
    (OUT / f"{workload.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")
    print_report(record)

    if args.trace:
        wanted = {m["name"]: m["unit"] for m in bench["per_layer"]}
        values = {k: v for k, (v, _) in layers.items()}
    else:
        wanted = {m["name"]: m["unit"] for m in bench["end_to_end"]}
        values = {k: m["median"] for k, m in e2e.items()}
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in wanted.items() if name in values}
    correct = failed == 0 and len(metrics) == len(wanted)
    print(json.dumps({"correct": correct, "attempted": run.attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    # SIGTERM becomes SystemExit, on which subprocess.run kills and reaps the
    # running worker, so no repetition outlives the harness
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    sys.exit(main())
