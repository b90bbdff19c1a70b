"""Benchmark workloads and the inputs each seed gives them.

A workload is a stage sequence of the `tunnelplan` CLI plus the config
overrides it runs with; the reasons for each are in BENCHMARK.json and
bench/expectations.json. One pass of a workload takes about 10 s on a
2-vCPU Xeon VM, so a run of the benchmark holds several repetitions and
reports their median.

The program has one master seed that fixes the roadmap, the candidate set
and every Monte Carlo draw. Across master seeds the coverage flight of the
shipped map ranges from about 160 m to 390 m, and the number of camera and
lidar ticks that pass their gates varies as much; run time follows both. So
the benchmark seed does not become the master seed directly: it starts a
deterministic sequence of master seeds, and the first one whose flight has
the size of the shipped flight (seed 6) within the tolerances below is
used. Seed 6 resolves to itself. Every rejected draw is counted by reason in
the result record, including roadmaps that cannot be bridged.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from tunnelplan import circuits, config, mapenv, planner, roadmap
from tunnelplan.errors import TunnelPlanError

SHIPPED_SEED = 6
# flight length sets the step count, hence all per-step work
LENGTH_TOL = 0.02
# camera and lidar firings that pass their gates set the update work
GATED_TOL = 0.05
# lidar ticks inside the lidar's range and band, before the occlusion test,
# set the size of the gate's temporaries and with it plan_wide's peak memory
LIDAR_BAND_TOL = 0.05
MAX_DRAWS = 5000
DRAW_STRIDE = 100_000


@dataclass(frozen=True)
class Workload:
    name: str
    stages: tuple[str, ...]
    overrides: tuple[str, ...]


WORKLOADS = {
    w.name: w
    for w in (
        Workload("plan_wide", ("plan", "report"), ("plan.candidates=128",)),
        Workload(
            "replay_deep",
            ("plan", "simulate", "report"),
            (
                "plan.candidates=10",
                "simulate.runs=2",
                "simulate.outlier_prob=0.05",
            ),
        ),
    )
}


@dataclass(frozen=True)
class FlightSize:
    length_m: float
    steps: int
    gated_ticks: int
    lidar_band_ticks: int


def _eulerized_roadmap(cfg, env):
    """The plan stage's roadmap; raises TunnelPlanError when it cannot be built."""
    p = cfg.plan
    pts = roadmap.sample_nodes(
        env, p.nodes, cfg.rng(config.STREAM_SAMPLING), p.forward_bias
    )
    return roadmap.eulerize(roadmap.connect_knn(pts, p.knn, env), env)


def flight_size(cfg, env, g) -> FlightSize:
    """Size of the coverage flight over roadmap g.

    Ticks are counted along the first candidate circuit: gated_ticks are the
    camera and lidar firings whose gate passes, lidar_band_ticks the lidar
    firings inside the lidar's range and elevation band.
    """
    cruise = cfg.kinematics.cruise_mps
    circuit = circuits.generate_candidates(
        g, 1, cfg.rng(config.STREAM_CANDIDATES), cruise
    )[0]
    nominal = planner.build_nominal_trajectory(
        circuit, g, cruise, cfg.noise_config().ts
    )
    table = cfg.rate_schedule().fire_table(nominal.steps)
    lidar_pts = nominal.pos[table["lidar"]]
    gated = int(env.camera_sees_many(nominal.pos[table["cam"]]).sum()) + int(
        env.lidar_sees_many(lidar_pts).sum()
    )
    rig = env.rig
    rel = lidar_pts - rig.position
    elev = np.arctan2(-rel[:, 2], np.hypot(rel[:, 0], rel[:, 1]))
    band = (np.linalg.norm(rel, axis=1) <= rig.lidar_max_range) & (
        np.abs(elev - rig.lidar_pitch) <= rig.lidar_halfangle
    )
    return FlightSize(float(g.total_length()), nominal.steps, gated,
                      int(band.sum()))


def draw_master_seed(seed: int) -> dict:
    """First master seed in `seed`'s sequence whose flight matches seed 6's.

    The sequence is seed, seed + DRAW_STRIDE, seed + 2 * DRAW_STRIDE, ...
    Returns the chosen seed, its flight size, the reference size and the
    number of draws rejected for each reason.
    """
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    env = mapenv.load_map(mapenv.default_map_path())
    ref_cfg = config.load_config(None, (), SHIPPED_SEED)
    ref = flight_size(ref_cfg, env, _eulerized_roadmap(ref_cfg, env))
    rejected = {"unplannable": 0, "length": 0, "gated_ticks": 0,
                "lidar_band_ticks": 0}
    for k in range(MAX_DRAWS):
        master = seed + k * DRAW_STRIDE
        cfg = config.load_config(None, (), master)
        try:
            g = _eulerized_roadmap(cfg, env)
        except TunnelPlanError:
            rejected["unplannable"] += 1
            continue
        # cheap length filter first; the gate count needs a full trajectory
        if abs(g.total_length() / ref.length_m - 1.0) > LENGTH_TOL:
            rejected["length"] += 1
            continue
        size = flight_size(cfg, env, g)
        if abs(size.gated_ticks / ref.gated_ticks - 1.0) > GATED_TOL:
            rejected["gated_ticks"] += 1
            continue
        if abs(size.lidar_band_ticks / ref.lidar_band_ticks - 1.0) > LIDAR_BAND_TOL:
            rejected["lidar_band_ticks"] += 1
            continue
        return {
            "seed": seed,
            "master_seed": master,
            "draws": k + 1,
            "rejected": rejected,
            "flight": size.__dict__,
            "reference": {"master_seed": SHIPPED_SEED, **ref.__dict__},
        }
    raise RuntimeError(
        f"no master seed in {MAX_DRAWS} draws from seed {seed} matches the "
        f"shipped flight size"
    )
