"""One benchmark repetition, run by bench/run.py in a fresh interpreter.

Usage: python worker.py SPEC_JSON

The spec names the master seed, config overrides, stage sequence, artifact
directory, where to write the result record, whether to trace, and the
CLOCK_MONOTONIC time at which the parent started this process. Set-up time
runs from that moment until the package is imported and the config and map
are loaded. Each stage then runs through `tunnelplan.cli.main`, as a user
would run it, and the repetition stops at the first stage that fails. A
spec with no stages measures set-up alone.
"""

from __future__ import annotations

import json
import resource
import sys
import time
import traceback
from pathlib import Path


def run(spec: dict) -> dict:
    from tunnelplan import cli, config, mapenv

    tracer = None
    if spec["trace"]:
        import tracing

        tracer = tracing.Tracer(spec["rep"])
        tracing.install(tracer)

    overrides = list(spec["overrides"])
    cfg = config.load_config(None, overrides, spec["master_seed"])
    mapenv.load_map(cfg.resolve_map_path())
    rec: dict = {"setup_s": (time.monotonic_ns() - spec["spawn_ns"]) / 1e9}

    out = Path(spec["out"])
    args = ["--out", str(out), "--seed", str(spec["master_seed"])]
    for ov in overrides:
        args += ["--set", ov]
    stages = []
    t0 = time.perf_counter()
    for stage in spec["stages"]:
        start = time.perf_counter()
        try:
            rc = cli.main([stage, *args])
            error = None if rc == 0 else f"exit code {rc}"
        except Exception:  # a crash in one stage is a failed operation
            traceback.print_exc()
            rc, error = None, traceback.format_exc(limit=1).strip().splitlines()[-1]
        stages.append({"stage": stage, "s": time.perf_counter() - start,
                       "rc": rc, "error": error})
        if error is not None:
            break
    rec["pipeline_s"] = time.perf_counter() - t0
    rec["stages"] = stages
    rec["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    if tracer is not None:
        tracer.uninstall()
        files = list(out.iterdir()) if out.is_dir() else []
        artifacts = {"files": len(files), "bytes": sum(p.stat().st_size for p in files)}
        summary = tracer.summary()
        layers = tracing.layer_metrics(summary, tracer.counters, artifacts)
        layers["trace.spans"] = (len(tracer.spans), "count")
        rec["layers"] = layers
        rec["span_summary"] = summary
        tracer.write_spans(spec["spans"])
    return rec


def main(argv) -> int:
    spec = json.loads(argv[1])
    rec = run(spec)
    Path(spec["result"]).write_text(json.dumps(rec))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
