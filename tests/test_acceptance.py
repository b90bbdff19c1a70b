"""Acceptance suite: one test per top-level requirement, each printing a
single pass/fail line with the measured numbers.

The default-configuration pipeline (80 candidates, 10 noisy Monte Carlo runs
for best and worst) is executed once through the real CLI and shared by the
criteria that inspect its artifacts.
"""

import json
import math
import time
from pathlib import Path

import numpy as np
import pytest

import oracle
from test_circuits import verify_circuit
from test_cli import REDUCED

from tunnelplan import (
    circuits,
    cli,
    config,
    ekf,
    mapenv,
    montecarlo,
    planner,
    roadmap,
)


@pytest.fixture
def check(capfd):
    """One pass/fail line per criterion, written past the output capture."""
    def _check(num: int, desc: str, ok: bool, detail: str):
        line = f"[{'PASS' if ok else 'FAIL'}] criterion {num:02d} {desc}: {detail}"
        with capfd.disabled():
            print("\n" + line)
        assert ok, line
    return _check


@pytest.fixture(scope="module")
def default_pipeline(tmp_path_factory):
    out = tmp_path_factory.mktemp("accept_default")
    t0 = time.perf_counter()
    rc = cli.main(["all", "--out", str(out)])
    elapsed = time.perf_counter() - t0
    assert rc == 0
    return {"out": out, "elapsed": elapsed}


@pytest.fixture(scope="module")
def default_artifacts(default_pipeline):
    out = default_pipeline["out"]
    g = roadmap.load_graph(out / "graph.json")
    cands = circuits.load_circuits(out / "circuits.json")
    ranking = json.loads((out / "ranking.json").read_text())
    env = mapenv.load_map(mapenv.default_map_path())
    return g, cands, ranking, env


def _open_env(extent=60.0):
    return mapenv.EnvironmentMap(
        bounds_min=np.array([-extent, -extent, -extent]),
        bounds_max=np.array([extent, extent, extent]),
        obstacles=[],
    )


def _random_connected_graph(seed: int) -> roadmap.RoadmapGraph:
    """Spanning tree plus random chords and multiplicities, source 0."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(4, 13))
    nodes = rng.uniform([-25.0, -25.0, -30.0], [25.0, 25.0, -1.0], size=(n, 3))
    pairs = set()
    for i in range(1, n):
        pairs.add((int(rng.integers(0, i)), i))
    for _ in range(int(rng.integers(0, n + 1))):
        i, j = sorted(rng.choice(n, size=2, replace=False).tolist())
        pairs.add((i, j))
    edges = [
        roadmap.Edge(
            i, j, float(np.linalg.norm(nodes[i] - nodes[j])),
            int(rng.integers(1, 3)),
        )
        for i, j in sorted(pairs)
    ]
    return roadmap.RoadmapGraph(nodes=nodes, edges=edges, source=0)


def test_01_random_graphs_always_yield_exact_edge_coverage(check):
    env = _open_env()
    count = 1000
    failures = 0
    t0 = time.perf_counter()
    for seed in range(count):
        g = roadmap.eulerize(_random_connected_graph(seed), env)
        c = circuits.random_euler_circuit(g, np.random.default_rng(seed), 0.5)
        try:
            verify_circuit(c, g)
        except AssertionError:
            failures += 1
    elapsed = time.perf_counter() - t0
    check(
        1, "every random Eulerized graph is covered edge-exactly",
        failures == 0 and elapsed < 10.0,
        f"{count} graphs, {failures} failures, {elapsed:.2f} s (< 10 s)",
    )


def test_02_candidate_circuit_lengths_identical(default_pipeline, check):
    data = json.loads(
        (default_pipeline["out"] / "circuits.json").read_text()
    )
    lengths = [c["length_m"] for c in data]
    spread = max(lengths) - min(lengths)
    check(
        2, "all candidate circuits share one length",
        len(lengths) == 80 and spread < 1e-9,
        f"{len(lengths)} candidates, length spread {spread:.3g} m (< 1e-9)",
    )


def test_03_measurement_jacobians_match_finite_differences(check):
    rng = np.random.default_rng(12345)
    att = ekf.Attitude(roll=0.08, pitch=-0.05)
    eps = 1e-6
    worst = 0.0

    def fd_jacobian(fun, x, m):
        J = np.zeros((m, 6))
        for i in range(6):
            xp, xm = x.copy(), x.copy()
            xp[i] += eps
            xm[i] -= eps
            J[:, i] = (np.atleast_1d(fun(xp)) - np.atleast_1d(fun(xm))) / (2 * eps)
        return J

    def jacobian(pred):
        H = np.zeros((np.size(pred.z[0]), 6))
        H[:, 3:] = np.eye(3) if pred.Hr is None else pred.Hr[0]
        return H

    # the models the belief engine runs, lidar noise scale included
    rig = mapenv.UgvRig().position
    models = ekf.sensor_models(att, rig, ekf.LidarGammaModel()).values()
    for _ in range(100):
        # keep clear of the range/elevation guards so models stay smooth
        x = np.concatenate([
            rng.uniform(-1.0, 1.0, 3),
            [rng.uniform(2.0, 15.0), rng.uniform(-4.0, 4.0),
             rng.uniform(-6.5, -2.0)],
        ])
        for model in models:
            pred = model(x[None, 3:])
            assert pred.ok.all()
            H = jacobian(pred)
            J = fd_jacobian(lambda s: model(s[None, 3:]).z[0], x, len(H))
            rel = np.abs(J - H).max() / max(np.abs(H).max(), 1.0)
            worst = max(worst, rel)
    check(
        3, "analytic Jacobians match central differences",
        worst < 1e-5,
        f"100 states x 4 sensors, max relative error {worst:.3g} (< 1e-5)",
    )


def test_04_covariance_symmetric_psd_trace_monotone(check):
    cfg = ekf.NoiseConfig()
    att = ekf.Attitude()
    b = ekf.BeliefState(
        x=np.array([0.3, 0.0, 0.0, 8.0, 0.0, -3.0]),
        P=np.diag([0.04, 0.04, 0.04, 0.25, 0.25, 0.25]),
    )
    steps = 10_000
    trace_viol = 0
    for k in range(1, steps + 1):
        b = oracle.predict(b, cfg)
        # orbit through the safe forward volume to vary the geometry
        w = 2 * math.pi * k / 900.0
        b.x[3:] = [8.0 + 3.0 * math.cos(w), 3.0 * math.sin(w),
                   -3.0 + math.sin(0.7 * w)]
        updates = []
        if k % 10 == 0:
            zp = ekf.altimeter(b.x[None, 3:], att).z[0]
            updates.append(lambda s, z=zp: oracle.altimeter_update(s, z, att, cfg))
        if k % 5 == 0:
            r = b.x[None, 3:]
            zu, zc, zl = ekf.uwb(r).z[0], ekf.camera(r).z[0], ekf.lidar(r).z[0].copy()
            updates += [
                lambda s, z=zu: oracle.uwb_update(s, z, cfg),
                lambda s, z=zc: oracle.camera_update(s, z, cfg),
                lambda s, z=zl: oracle.lidar_update(s, z, cfg, gamma=1.5),
            ]
        for up in updates:
            before = float(np.trace(b.P))
            b = up(b)
            after = float(np.trace(b.P))
            if after > before + 1e-9 * max(1.0, before):
                trace_viol += 1
    asym = float(np.abs(b.P - b.P.T).max())
    eigmin = float(np.linalg.eigvalsh(b.P).min())
    check(
        4, "covariance stays symmetric and PSD with monotone update traces",
        asym <= 1e-9 and eigmin >= -1e-9 and trace_viol == 0,
        f"{steps} steps: asymmetry {asym:.2g} (<= 1e-9), min eig {eigmin:.2g} "
        f"(>= -1e-9), {trace_viol} trace increases",
    )


def test_05_lidar_only_matches_independent_kalman_filter(check):
    cfg = ekf.NoiseConfig()
    rng = np.random.default_rng(7)
    x0 = np.array([0.2, 0.1, 0.0, 5.0, 1.0, -3.0])
    P0 = np.diag([0.04, 0.04, 0.04, 0.25, 0.25, 0.25])
    b = ekf.BeliefState(x=x0.copy(), P=P0.copy())
    # plain textbook filter coded independently of the package internals
    x, P = x0.copy(), P0.copy()
    phi = np.eye(6)
    phi[3:, :3] = cfg.ts * np.eye(3)
    Q = np.diag(cfg.q_diag)
    H = np.zeros((3, 6))
    H[:, 3:] = np.eye(3)
    worst_x = worst_p = 0.0
    for k in range(1000):
        b = oracle.predict(b, cfg)
        x = phi @ x
        P = phi @ P @ phi.T + Q
        z = np.array([5.0 + 0.01 * k, 1.0, -3.0]) + 0.15 * rng.standard_normal(3)
        gamma = cfg.lidar_gamma.gamma(float(np.linalg.norm(z)))
        b = oracle.lidar_update(b, z, cfg, gamma=gamma)
        R = gamma * cfg.r_lidar
        S = H @ P @ H.T + R
        K = np.linalg.solve(S, H @ P).T
        x = x + K @ (z - H @ x)
        P = (np.eye(6) - K @ H) @ P
        worst_x = max(worst_x, float(np.abs(b.x - x).max()))
        worst_p = max(worst_p, float(np.abs(b.P - P).max()))
    check(
        5, "package filter equals a plain Kalman filter on linear input",
        worst_x < 1e-10 and worst_p < 1e-10,
        f"1000 steps: max |dx| {worst_x:.3g}, max |dP| {worst_p:.3g} (< 1e-10)",
    )


def test_06_planned_and_replayed_pec_series_agree(default_artifacts, check):
    g, cands, ranking, env = default_artifacts
    best = ranking["best"]
    kin = planner.KinematicProfile()
    rates = planner.RateSchedule()
    noise = ekf.NoiseConfig()
    score = planner.propagate_paths([cands[best]], g, env, kin, rates, noise)[0]
    rec = montecarlo.run_trial_sets(
        [(cands[best], best)], g, env, kin, rates, noise,
        master_seed=ranking["seed"],
        sim=config.SimulateSection(runs=1, mode="perfect", cross_track_sigma_m=0.0,
                                   speed_sigma_mps=0.0, dropout=0.0),
    )[0][0]
    same_t = np.array_equal(score.t, rec.result.t)
    dmax = float(np.abs(score.pec - rec.result.pec).max())
    check(
        6, "planner pec series equals zero-jitter perfect replay",
        same_t and dmax < 1e-6,
        f"{len(score.pec)} steps, max |d pec| {dmax:.3g} m^2 (< 1e-6)",
    )


def test_07_ranking_separation_and_error_direction(default_artifacts, check):
    g, cands, ranking, env = default_artifacts
    totals = ranking["totals"]
    best, worst = ranking["best"], ranking["worst"]
    ratio = totals[worst] / totals[best]
    kin = planner.KinematicProfile()
    rates = planner.RateSchedule()
    noise = ekf.NoiseConfig()
    means = {}
    for name, idx in (("best", best), ("worst", worst)):
        recs = montecarlo.run_trial_sets(
            [(cands[idx], idx)], g, env, kin, rates, noise,
            master_seed=ranking["seed"],
            sim=config.SimulateSection(runs=10, mode="perfect", dropout=0.0),
        )[0]
        means[name] = float(np.mean([r.stats.rms_3d for r in recs]))
    check(
        7, "best/worst totals separated and error ranking holds",
        ratio >= 2.0 and means["best"] < means["worst"],
        f"seed {ranking['seed']}: pec ratio {ratio:.2f}x (>= 2x), perfect-mode "
        f"rms_3d best {means['best']:.3f} m < worst {means['worst']:.3f} m",
    )


def test_08_flight_time_equals_length_over_cruise(default_artifacts, check):
    g, cands, ranking, _ = default_artifacts
    c = cands[ranking["best"]]
    nom = planner.build_nominal_trajectory(c, g, 0.5, 0.02)
    dev = abs(nom.flight_time - c.length / 0.5)
    check(
        8, "replay flight time matches length / cruise speed",
        dev < 0.02,
        f"length {c.length:.2f} m, flight {nom.flight_time:.2f} s, "
        f"deviation {dev:.4f} s (< 0.02)",
    )


def test_09_synthesized_uwb_variance_calibrated(check):
    # straight 1 km out-and-back corridor gives 2e4 range measurements
    env = mapenv.EnvironmentMap(
        bounds_min=np.array([-10.0, -10.0, -8.0]),
        bounds_max=np.array([610.0, 10.0, 0.0]),
        obstacles=[],
    )
    nodes = np.array([[5.0, 0.0, -2.0], [505.0, 0.0, -2.0]])
    g = roadmap.RoadmapGraph(
        nodes=nodes, edges=[roadmap.Edge(0, 1, 500.0, 2)], source=0
    )
    c = circuits.Circuit(
        nodes=[0, 1, 0], edge_refs=[(0, 0), (0, 1)],
        length=1000.0, flight_time=2000.0,
    )
    noise = ekf.NoiseConfig()
    nom = planner.build_nominal_trajectory(c, g, 0.5, noise.ts)
    rng = np.random.default_rng(99)
    truth = montecarlo.simulate_truth(nom, rng, cross_track_sigma=0.0,
                                      speed_sigma=0.0)
    uwb = montecarlo.synthesize_measurements(
        truth, env, planner.RateSchedule(), noise, ekf.Attitude(), rng,
        mode="noisy", dropout=0.0,
    )["uwb"]
    errs = uwb.z - np.linalg.norm(truth.pos[uwb.steps], axis=1)
    var = float(np.var(errs))
    rel = abs(var - noise.r_uwb) / noise.r_uwb
    check(
        9, "synthesized range noise variance matches configuration",
        len(errs) >= 10_000 and rel < 0.05,
        f"{len(errs)} samples, variance {var:.5f} vs {noise.r_uwb} "
        f"({100 * rel:.1f}% off, < 5%)",
    )


def test_10_pipeline_artifacts_byte_identical(tmp_path, check):
    cfgp = tmp_path / "reduced.yaml"
    cfgp.write_text(REDUCED)
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        rc = cli.main(["all", "--config", str(cfgp), "--out", str(out)])
        assert rc == 0
        outs.append(out)
    names = sorted(p.name for p in outs[0].iterdir())
    same = names == sorted(p.name for p in outs[1].iterdir())
    diff = [
        n for n in names
        if (outs[0] / n).read_bytes() != (outs[1] / n).read_bytes()
    ]
    check(
        10, "identical config reproduces identical artifact bytes",
        same and not diff,
        f"{len(names)} files compared, {len(diff)} differ",
    )


def test_11_default_pipeline_fits_time_budget(default_pipeline, check):
    elapsed = default_pipeline["elapsed"]
    check(
        11, "default end-to-end pipeline finishes in budget",
        elapsed < 60.0,
        f"plan + simulate + report took {elapsed:.1f} s (< 60 s)",
    )
