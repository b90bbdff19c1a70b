"""Correctness checks on the artifacts one repetition leaves behind.

Each check is one attempted operation of the benchmark; a failed check
counts toward `failed` exactly like a failed stage.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path

REL_TOL = 1e-8


def _rows(path: Path) -> list[dict]:
    with path.open(newline="") as fh:
        return list(csv.DictReader(fh))


def _finite_numbers(row: dict, skip=()) -> bool:
    return all(math.isfinite(float(v)) for k, v in row.items() if k not in skip)


def check_candidates_uniform(out: Path) -> str | None:
    """Every candidate covers the same edges, so length and time agree."""
    rows = _rows(out / "path_scores.csv")
    if not rows:
        return "path_scores.csv has no candidates"
    for key in ("length_m", "flight_time_s"):
        ref = float(rows[0][key])
        bad = [r["circuit"] for r in rows
               if not math.isclose(float(r[key]), ref, rel_tol=REL_TOL)]
        if bad:
            return f"{key} differs from candidate 0 for candidates {bad[:5]}"
    return None


def check_pec_totals(out: Path) -> str | None:
    """Planned pec totals are finite and positive, and best <= worst."""
    ranking = json.loads((out / "ranking.json").read_text())
    totals = ranking["totals"]
    bad = [i for i, t in enumerate(totals) if not (math.isfinite(t) and t > 0.0)]
    if bad:
        return f"pec totals not finite and positive for candidates {bad[:5]}"
    best, worst = totals[ranking["best"]], totals[ranking["worst"]]
    if not best <= worst:
        return f"best pec total {best} exceeds worst {worst}"
    return None


def check_summaries(out: Path, selections, runs: int, mode: str) -> str | None:
    """One finite summary row per configured run and selection."""
    for sel in selections:
        rows = _rows(out / f"summary_{sel}_{mode}.csv")
        if len(rows) != runs:
            return f"summary_{sel}_{mode}.csv has {len(rows)} rows, expected {runs}"
        if not all(_finite_numbers(r, skip=("mode",)) for r in rows):
            return f"summary_{sel}_{mode}.csv holds a non-finite value"
    agg = _rows(out / f"aggregate_{mode}.csv")
    if [r["selection"] for r in agg] != [str(s) for s in selections]:
        return f"aggregate_{mode}.csv selections differ from the config"
    if any(int(r["runs"]) != runs for r in agg):
        return f"aggregate_{mode}.csv run counts differ from {runs}"
    if not all(_finite_numbers(r, skip=("selection", "mode")) for r in agg):
        return f"aggregate_{mode}.csv holds a non-finite value"
    return None


def run_checks(out: Path, simulate: dict | None) -> dict:
    """Check name -> None when it passed, else the reason it failed.

    `simulate` carries selections, runs and mode when the workload ran the
    simulate stage, and is None otherwise.
    """
    checks = {
        "candidates_uniform": lambda: check_candidates_uniform(out),
        "pec_totals": lambda: check_pec_totals(out),
    }
    if simulate is not None:
        checks["summaries"] = lambda: check_summaries(out, **simulate)
    results = {}
    for name, fn in checks.items():
        try:
            results[name] = fn()
        except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
            results[name] = f"unreadable artifact: {exc!r}"
    return results


def artifact_hash(out: Path) -> str:
    """SHA-256 over every artifact's name and bytes, in name order."""
    h = hashlib.sha256()
    for p in sorted(out.iterdir()):
        h.update(p.name.encode() + b"\0")
        h.update(p.read_bytes())
        h.update(b"\0")
    return h.hexdigest()


def result_digests(out: Path) -> dict:
    """Short digests of the files that carry the ranking and the statistics."""
    files = [out / "ranking.json", *sorted(out.glob("aggregate_*.csv"))]
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()[:16]
        for p in files if p.exists()
    }
