"""Belief propagation along coverage circuits and candidate ranking.

Turns a circuit over the roadmap into a constant-speed nominal trajectory,
pushes the navigation covariance along it with rate-scheduled, field-of-view
gated sensor updates, and summarizes the accumulated position-error
covariance (pec) so candidate circuits can be ranked.

One batched engine, run_batch, drives both planning (covariance-only, mean
pinned to the nominal trajectory, batched over candidates) and measurement
replay (mean free, commanded velocity treated as a control input, batched
over Monte Carlo runs), so planned and replayed covariance series agree step
for step. It takes paths of any step counts and sweeps each step count's
members as one batch.

A batch of many members is split into contiguous chunks of members, one per
usable CPU: the calling process sweeps the first and forked workers the
others, writing their members' outputs into memory shared with the caller.
Each process samples its own members' paths, lays out their replay readings
on the tick axis and builds their update lists (visibility gates, sensor
models, readings) block by block, so the caller holds no per-member set-up
and no process holds a whole flight's positions. A member's bits do not
depend on the others in its batch, so a split run returns the same bits as a
serial one.
"""

from __future__ import annotations

import math
import mmap
import os
from dataclasses import dataclass, field

import numpy as np

from . import ekf, mapenv
from .errors import CovarianceOverflowError, InvalidCircuitError

SENSOR_ORDER = ("alt", "uwb", "cam", "lidar")


# ---------------------------------------------------------------------------
# profiles and schedules


@dataclass
class KinematicProfile:
    """Constant-speed flight profile with a fixed hover attitude."""

    cruise: float = 0.5
    attitude: ekf.Attitude = field(default_factory=ekf.Attitude)

    def __post_init__(self):
        if not self.cruise > 0.0:
            raise ValueError("cruise speed must be positive")


@dataclass
class RateSchedule:
    """Update rates in Hz; sensors may not outrun the prediction rate."""

    predict_hz: float = mapenv.bounded(50.0, above=0.0)
    alt_hz: float = mapenv.bounded(5.0, above=0.0)
    uwb_hz: float = mapenv.bounded(10.0, above=0.0)
    cam_hz: float = mapenv.bounded(10.0, above=0.0)
    lidar_hz: float = mapenv.bounded(10.0, above=0.0)

    def __post_init__(self):
        mapenv.check_fields(self)
        for sensor in SENSOR_ORDER:
            if getattr(self, f"{sensor}_hz") > self.predict_hz:
                raise ValueError(f"{sensor}_hz exceeds predict_hz")

    def fire_steps(self, hz: float, n_steps: int) -> np.ndarray:
        """Boolean array over steps 0..n_steps; True where the sensor fires.

        A sensor at rate hz fires at step k when the integer tick count
        floor(k * hz / predict_hz) advances. Step 0 never fires.
        """
        k = np.arange(n_steps + 1, dtype=np.float64)
        ticks = np.floor(k * hz / self.predict_hz)
        fired = np.zeros(n_steps + 1, dtype=bool)
        if n_steps:
            fired[1:] = np.diff(ticks) > 0.5
        return fired

    def fire_table(self, n_steps: int) -> dict[str, np.ndarray]:
        """Each sensor's fire_steps, by name in SENSOR_ORDER."""
        return {sensor: self.fire_steps(getattr(self, f"{sensor}_hz"), n_steps)
                for sensor in SENSOR_ORDER}


def sensor_ticks(table: dict) -> np.ndarray:
    """Steps of a fire table at which any sensor fires."""
    return np.flatnonzero(np.logical_or.reduce([table[sensor] for sensor in SENSOR_ORDER]))


# ---------------------------------------------------------------------------
# nominal trajectory


@dataclass
class NominalTrajectory:
    """Constant-speed samples along a circuit's polyline.

    pos has shape (steps + 1, 3); vel has shape (steps, 3) and holds the
    commanded velocity for each step, so pos[k + 1] == pos[k] + ts * vel[k].
    """

    pos: np.ndarray
    vel: np.ndarray
    ts: float
    length: float

    @property
    def steps(self) -> int:
        return len(self.vel)

    @property
    def flight_time(self) -> float:
        return self.steps * self.ts


@dataclass
class Polyline:
    """A circuit's waypoints flown at constant speed, cruise * ts per step.

    Step k lies at arc length min(k * ds, length), so the last step is
    shortened to land exactly on the closing waypoint. Samplers of any set
    of steps share at(), so a step's position is the same bits whichever
    other steps are sampled with it.
    """

    wp: np.ndarray
    seg: np.ndarray
    seglen: np.ndarray
    cum: np.ndarray
    ds: float
    ts: float

    @classmethod
    def of(cls, circuit, graph, cruise: float, ts: float) -> "Polyline":
        """The polyline through a circuit's nodes in graph, flown at cruise."""
        if not cruise > 0.0 or not ts > 0.0:
            raise ValueError("cruise and ts must be positive")
        wp = graph.nodes[np.asarray(circuit.nodes, dtype=int)].reshape(-1, 3)
        seg = np.diff(wp, axis=0)
        seglen = np.linalg.norm(seg, axis=1)
        if np.any(seglen <= 0.0):
            raise InvalidCircuitError("circuit repeats a waypoint consecutively")
        cum = np.concatenate(([0.0], np.cumsum(seglen)))
        return cls(wp=wp, seg=seg, seglen=seglen, cum=cum, ds=cruise * ts, ts=ts)

    @property
    def length(self) -> float:
        return float(self.cum[-1])

    @property
    def steps(self) -> int:
        return int(math.ceil(self.length / self.ds - 1e-9))

    @property
    def flight_time(self) -> float:
        return self.steps * self.ts

    def at(self, k: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Positions at integer steps k and the segment each lies on."""
        s = np.minimum(k * self.ds, self.length)
        idx = np.clip(np.searchsorted(self.cum, s, side="right") - 1, 0, len(self.seglen) - 1)
        frac = (s - self.cum[idx]) / self.seglen[idx]
        return self.wp[idx] + frac[:, None] * self.seg[idx], idx


def build_nominal_trajectory(circuit, graph, cruise: float, ts: float) -> NominalTrajectory:
    """Sample the circuit polyline at every step (see Polyline).

    Commanded velocities are exact segment directions except where a step
    crosses a corner or covers the shortened tail, where the finite
    difference of positions is used.
    """
    line = Polyline.of(circuit, graph, cruise, ts)
    if len(line.wp) < 2:
        return NominalTrajectory(pos=line.wp.copy(), vel=np.zeros((0, 3)), ts=ts, length=0.0)
    n = line.steps
    pos, idx = line.at(np.arange(n + 1))
    dirs = line.seg / line.seglen[:, None]
    vel = cruise * dirs[idx[:-1]]
    k1 = np.arange(1, n + 1)
    irregular = (idx[1:] != idx[:-1]) | (k1 * line.ds > line.length)
    if irregular.any():
        vel[irregular] = (pos[1:][irregular] - pos[:-1][irregular]) / ts
    return NominalTrajectory(pos=pos, vel=vel, ts=ts, length=line.length)


def _validate_circuit(circuit, graph) -> None:
    nodes = list(circuit.nodes)
    refs = list(circuit.edge_refs)
    if len(nodes) != len(refs) + 1:
        raise InvalidCircuitError("node list and edge list lengths disagree")
    if refs and (nodes[0] != graph.source or nodes[-1] != graph.source):
        raise InvalidCircuitError("circuit does not start and end at the source node")
    for step, (edge_idx, copy) in enumerate(refs):
        if not 0 <= edge_idx < len(graph.edges):
            raise InvalidCircuitError(f"edge index {edge_idx} out of range")
        edge = graph.edges[edge_idx]
        if not 0 <= copy < edge.multiplicity:
            raise InvalidCircuitError(f"edge copy {copy} out of range")
        if {edge.i, edge.j} != {nodes[step], nodes[step + 1]}:
            raise InvalidCircuitError(
                f"edge {edge_idx} does not join nodes {nodes[step]} and {nodes[step + 1]}"
            )


# ---------------------------------------------------------------------------
# batched belief engine
#
# Members of one step count share one fire schedule; only their trajectories
# and readings differ. Planning batches the candidate circuits over one
# Eulerized graph and replay batches Monte Carlo runs, so each step is a
# handful of array operations over the member axis.

# recorded covariances turned into per-step pec at a time, in bytes
_FLUSH_BYTES = 2 << 20
# members from which a batch is split across CPUs. On a 2-vCPU VM a split
# planned and replayed faster in most timed pairs from 2 members up, but it
# costs the caller about 1 MB of peak memory (replay_deep: 10 candidates);
# from 12 members every count's pooled pairs favoured the split
_SPLIT_MEMBERS = 12
# sensor ticks whose update lists are built at once. A list's arrays take
# about 330 B per member and tick (a camera pair's Jacobian, noise and bound
# alone 152 B), so a block holds about 42 kB per member, a fifth of the
# member's pec row on the shipped flight. Blocks of 8,192 member-ticks, 4,096
# ticks of a two-run replay chunk, raised replay_deep's peak memory by 1.6 MB
# that the allocator kept after the lists were freed
_LIST_TICKS = 128
# the sensors whose replay Jacobian and noise do not depend on the estimate:
# the altimeter's H is constant and the lidar's noise is its reading's gamma R
_FIXED_AT_ESTIMATE = ("alt", "lidar")


@dataclass
class EngineResult:
    """Per-step outputs of one member of a propagation pass, for steps 1..n.

    t (n,) holds the step times, pec (n,) the pec after each step and the
    fired flags (n,) where that sensor's update was applied. est (n, 3) is
    the estimated position after each step in replay and None in planning.
    The counts are the updates applied per sensor, and skipped lists
    (step, sensor, reason) for each update left out.
    """

    t: np.ndarray
    pec: np.ndarray
    cam_fired: np.ndarray
    lidar_fired: np.ndarray
    est: np.ndarray | None
    alt_updates: int
    uwb_updates: int
    cam_updates: int
    lidar_updates: int
    skipped: list


def _log_skips(skipped, members, step, sensor, reason) -> None:
    for b in members.tolist():
        skipped[b].append((step, sensor, reason))


def _scalar_update(P, x, idx, H, r, innov, skipped, step, sensor):
    """Joseph-form update of members idx by scalar readings.

    idx selects members: slice(None) for all of them, else an index array.
    H (n, 6) holds each Jacobian row h. With w = P h and K = w / s,
    (I - K h')P = P - K w', so the Joseph form is M - (M h - r K) K' with
    M = P - K w'. innov is None in planning (zero innovation, mean
    untouched). Members whose innovation variance is not positive are
    logged and left as they are; returns the members updated.
    """
    Psub = P[idx]
    w = (Psub @ H[:, :, None])[:, :, 0]
    s = (w * H).sum(axis=1) + r
    ok = (s > 0.0) & np.isfinite(s)
    if not ok.all():
        idx = np.arange(len(P))[idx]
        _log_skips(skipped, idx[~ok], step, sensor, "innovation variance not positive")
        idx, Psub, w, s, H = idx[ok], Psub[ok], w[ok], s[ok], H[ok]
        innov = None if innov is None else innov[ok]
    K = w / s[:, None]
    M = Psub - K[:, :, None] * w[:, None, :]
    out = M - ((M @ H[:, :, None])[:, :, 0] - r * K)[:, :, None] * K[:, None, :]
    P[idx] = 0.5 * (out + out.transpose(0, 2, 1))
    if innov is not None:
        x[idx] += K * innov[:, None]
    return idx


def _vector_update(P, x, idx, Hr, Reff, rmin, innov, skipped, step, sensor):
    """Joseph-form update of members idx (as in _scalar_update) by 3-vector
    readings.

    The Jacobians are zero in the velocity columns and Hr (n, 3, 3), their
    position block, is symmetric, so with HP = H P, G = inv(S) HP and K = G'
    the Joseph form is M - (M H' - K Reff) G with M = P - K HP, and no
    product needs a transposed operand. Hr None stands for the identity,
    whose products are the position rows and columns themselves. rmin
    bounds the smallest eigenvalue of each Reff from below. Members whose
    innovation covariance is not finite, singular or worse conditioned than
    ekf.CONDITION_LIMIT are logged and left as they are; returns the members
    updated.
    """
    Psub = P[idx]
    HP = Psub[:, 3:, :] if Hr is None else Hr @ Psub[:, 3:, :]
    S = HP[:, :, 3:] + Reff if Hr is None else HP[:, :, 3:] @ Hr + Reff
    # for PSD P, lmin(S) >= lmin(Reff) and lmax(S) <= trace(S), so this
    # certifies the condition test; only the other members need eigenvalues
    ok = np.trace(S, axis1=1, axis2=2) < ekf.CONDITION_LIMIT * rmin
    if not ok.all():
        check = np.flatnonzero(~ok)
        check = check[np.isfinite(S[check]).all(axis=(1, 2))]
        eigs = np.linalg.eigvalsh(S[check])
        lmin, lmax = eigs[:, 0], eigs[:, -1]
        ok[check] = (lmin > 0.0) & (
            lmax / np.where(lmin > 0.0, lmin, 1.0) <= ekf.CONDITION_LIMIT
        )
        if not ok.all():
            idx = np.arange(len(P))[idx]
            _log_skips(skipped, idx[~ok], step, sensor, "innovation covariance singular")
            idx, Psub, HP, S, Reff = idx[ok], Psub[ok], HP[ok], S[ok], Reff[ok]
            Hr = None if Hr is None else Hr[ok]
            innov = None if innov is None else innov[ok]
    G = np.linalg.solve(S, HP)
    K = G.transpose(0, 2, 1).copy()
    M = Psub - K @ HP
    MH = M[:, :, 3:] if Hr is None else M[:, :, 3:] @ Hr
    out = M - (MH - K @ Reff) @ G
    P[idx] = 0.5 * (out + out.transpose(0, 2, 1))
    if innov is not None:
        x[idx] += (K @ innov[:, :, None])[:, :, 0]
    return idx


_KERNELS = {"alt": _scalar_update, "uwb": _scalar_update,
            "cam": _vector_update, "lidar": _vector_update}


def _terms(sensor, Hr, scale, R, rmin) -> tuple:
    """A sensor's kernel arguments after idx for updates whose Jacobians
    have position blocks Hr and whose noise scales are scale: (H, r) for a
    scalar sensor, (Hr, R_eff, scale * rmin) for a vector one."""
    if _KERNELS[sensor] is _vector_update:
        return Hr, scale[:, None, None] * R[sensor], scale * rmin[sensor]
    H = np.zeros((len(Hr), 6))
    H[:, 3:] = Hr
    return H, scale * R[sensor]


def _take(a, rows):
    """The rows of a per-update array; None and floats stand for all rows."""
    return a[rows] if isinstance(a, np.ndarray) else a


@dataclass
class _Updates:
    """One sensor's update list over a block of sensor ticks.

    It holds the (tick, member) pairs that have an update, tick-major: the
    pairs of the block's tick t are off[t]:off[t + 1], and member holds
    each pair's member. terms holds their kernel arguments after idx (see
    _terms), or None where replay takes them from the model at the
    estimate. pos and value hold each pair's nominal position and reading
    in replay, and are None in planning.
    """

    off: list
    member: np.ndarray
    terms: tuple | None
    pos: np.ndarray | None = None
    value: np.ndarray | None = None


def _offsets(tick: np.ndarray, nt: int) -> list:
    """Where each of nt ticks starts in a tick-major pair list, and its end."""
    return np.searchsorted(tick, np.arange(nt + 1)).tolist()


def _positions(paths, steps: np.ndarray) -> np.ndarray:
    """Each path's positions at the given steps, (len(paths), len(steps), 3).

    A Polyline is sampled with Polyline.at and a NominalTrajectory gives the
    rows of its pos, which build_nominal_trajectory samples with
    Polyline.at too, so a step's position is the same bits either way.
    """
    out = np.empty((len(paths), len(steps), 3))
    for b, path in enumerate(paths):
        out[b] = path.pos[steps] if isinstance(path, NominalTrajectory) else path.at(steps)[0]
    return out


def reading_sites(env, attitude, noise):
    """Where each sensor delivers a reading: sites(sensor, pos) -> (rows, m).

    rows are the rows of pos (n, 3) that the sensor's gate on env sees, an
    index array, or slice(None) for the ungated alt and uwb; m is the model
    there, guards' refusals attached. Planning asks at nominal positions and
    logs the refusals; synthesis asks at the truth and drops them.
    """
    gates = {"cam": env.camera_sees_many, "lidar": env.lidar_sees_many}
    models = ekf.sensor_models(attitude, env.rig.position, noise.lidar_gamma)

    def sites(sensor: str, pos: np.ndarray) -> tuple:
        rows = np.flatnonzero(gates[sensor](pos)) if sensor in gates else slice(None)
        return rows, models[sensor](pos[rows])

    return sites


def _planned_updates(t0, t1, block_pos, fire, sites, R, rmin, ticks, skipped) -> dict:
    """Update lists of ticks t0..t1-1 in planning, by sensor.

    block_pos (nb, t1 - t0, 3) holds the members' nominal positions at
    those ticks. A pair is listed where the sensor fires and reading_sites
    has a reading at the member's nominal position; its terms come from the
    model there. A pair the model's guards refuse is logged in skipped and
    left out.
    """
    nb = len(block_pos)
    lists = {}
    for sensor in SENSOR_ORDER:
        fires = np.flatnonzero(fire[sensor][t0:t1])
        tick, member = np.repeat(fires, nb), np.tile(np.arange(nb), len(fires))
        rows, m = sites(sensor, block_pos[member, tick])
        tick, member = tick[rows], member[rows]
        if m.refused:
            steps = ticks[t0 + tick]
            for why, mask in m.refused.items():
                for b, step in zip(member[mask].tolist(), steps[mask].tolist()):
                    skipped[b].append((step, sensor, why))
            keep = m.ok
            tick, member, m = tick[keep], member[keep], m.take(keep)
        lists[sensor] = _Updates(_offsets(tick, t1 - t0), member,
                                 _terms(sensor, m.Hr, m.scale, R, rmin))
    return lists


def _tick_rows(runs, n: int, ticks: np.ndarray) -> dict:
    """Where the runs' undropped readings lie on the tick axis, by sensor.

    runs holds each member's {sensor: SensorReadings} for every sensor. Per
    sensor this returns (tick, member, z, scale): each undropped reading's
    tick index, member, value and, for the lidar, noise scale (None for the
    others), tick-major with members ascending within a tick. A reading,
    dropped or not, at a step that is not a sensor tick of steps 1..n raises
    ValueError, and so do two undropped readings of one sensor at one tick.
    """
    # 4-byte tick indices and members: a sweep has fewer than 2**31 of each
    tick_of = np.full(n + 2, -1, dtype=np.int32)
    tick_of[ticks] = np.arange(len(ticks))
    laid = {}
    for sensor in SENSOR_ORDER:
        tick, member, z, scale = [], [], [], []
        for b, run in enumerate(runs):
            r = run[sensor]
            ti = tick_of[np.clip(r.steps, 0, n + 1)]
            if (ti < 0).any():
                raise ValueError(f"measurement event at step {r.steps[ti < 0][0]} is not a "
                                 f"sensor tick of steps 1..{n}")
            rows = np.flatnonzero(~r.dropped)
            tick.append(ti[rows])
            member.append(np.full(len(rows), b, dtype=np.int32))
            z.append(r.z[rows])
            if sensor == "lidar":
                scale.append(r.scale[rows])
        # a stable sort on the tick keeps members, and each member's
        # readings, in order within a tick
        order = np.argsort(np.concatenate(tick), kind="stable")
        tick, member = np.concatenate(tick)[order], np.concatenate(member)[order]
        twice = np.flatnonzero((np.diff(tick) == 0) & (np.diff(member) == 0))
        if len(twice):
            raise ValueError(f"two {sensor} events at step {ticks[tick[twice[0]]]}")
        laid[sensor] = (tick, member, np.concatenate(z)[order],
                        np.concatenate(scale)[order] if scale else None)
    return laid


def _replayed_updates(t0, t1, block_pos, laid, models, R, rmin) -> dict:
    """Update lists of ticks t0..t1-1 in replay, by sensor: the pairs with
    an undropped reading, a slice of laid (_tick_rows). block_pos
    (nb, t1 - t0, 3) holds the members' commanded positions at those ticks.
    Only the sensors of _FIXED_AT_ESTIMATE carry their terms; the lidar's
    noise scale is its reading's scale (gamma)."""
    lists = {}
    for sensor in SENSOR_ORDER:
        tick, member, z, scale = laid[sensor]
        lo, hi = np.searchsorted(tick, (t0, t1))
        tick, member = tick[lo:hi] - t0, member[lo:hi]
        pos, terms = block_pos[member, tick], None
        if sensor in _FIXED_AT_ESTIMATE:
            m = models[sensor](pos)
            terms = _terms(sensor, m.Hr, scale[lo:hi] if m.scale is None else m.scale,
                           R, rmin)
        lists[sensor] = _Updates(_offsets(tick, t1 - t0), member, terms, pos, z[lo:hi])
    return lists


def run_batch(rates, noise, attitude, paths, env=None, readings=None) -> list:
    """Propagate the belief of every member along its path, each from the
    identity covariance at step 0; returns their EngineResults in the order
    of paths.

    The paths may have any step counts. The members of one step count n
    form one batch, swept shortest n first (_sweep_group). Each is read only
    at the sensor ticks, sensor_ticks(rates.fire_table(n)), and only a block
    of them at a time (see below), so no table of a whole flight's
    positions is built. Planning (readings is None) takes Polylines or
    NominalTrajectories and pins the mean to them. It updates where a
    sensor delivers a reading on env (reading_sites) at each tick's
    position and applies zero-innovation updates. Replay takes the commanded
    NominalTrajectories and readings, each run's {sensor: SensorReadings}
    as synthesis drew them, and holds the mean as its offset from the
    commanded path: it leaves the position offset free, evaluates Jacobians
    and guards at the member's estimate and applies its undropped readings.
    A reading off the sensor ticks, and two undropped readings of one sensor
    at one tick, raise ValueError (_tick_rows). A tick's velocity
    correction lasts until the member's own next turn, capped at the next
    tick; the velocity is the commanded one otherwise. Both modes predict
    between the same bounds, step 0, the sensor ticks and the last step, so
    a member's bits do not depend on the others in its batch.

    Sensor updates at one step run in the fixed order alt, uwb, cam, lidar.
    Singular updates are skipped and logged per member, never fatal. The
    pec, the position block's largest eigenvalue, is recorded after each
    full step, including that step's updates, and in replay so is the
    estimated position, the commanded one plus the offset.
    A batch of at least _SPLIT_MEMBERS members is swept in chunks across the
    usable CPUs (_split_members), with the same bits. Each process samples
    the paths, lays out the readings and builds the update lists of its own
    members, _LIST_TICKS sensor ticks at a time, and its tick loop does only
    the covariance and mean algebra.
    """
    if abs(noise.ts * rates.predict_hz - 1.0) > 1e-9:
        raise ValueError("noise.ts and rates.predict_hz disagree")
    groups: dict[int, list[int]] = {}
    for i, path in enumerate(paths):
        groups.setdefault(path.steps, []).append(i)
    results: list = [None] * len(paths)
    for n in sorted(groups):
        idxs = groups[n]
        runs = None if readings is None else [readings[i] for i in idxs]
        swept = _sweep_group(rates, noise, attitude, n, [paths[i] for i in idxs], env, runs)
        for i, res in zip(idxs, swept):
            results[i] = res
    return results


def _sweep_group(rates, noise, attitude, n: int, paths, env, runs) -> list:
    """run_batch on paths of n steps each; runs is None in planning."""
    replay = runs is not None
    B = len(paths)
    ts = noise.ts

    table = rates.fire_table(n)
    ticks = sensor_ticks(table)
    T = len(ticks)
    # step 0 never fires, so bound j >= 1 is sensor tick j - 1 while j <= T
    bounds = np.unique(np.concatenate([[0, n], ticks]))
    # the last bound at or before each step, and the steps predicted past it
    last = np.searchsorted(bounds, np.arange(n + 1), side="right") - 1
    ahead = np.arange(n + 1) - bounds[last]
    fire = models = sites = None
    if replay:
        # replay's models leave the lidar's noise scale to its readings
        models = ekf.sensor_models(attitude)
    else:
        fire = {sensor: table[sensor][ticks] for sensor in SENSOR_ORDER}
        sites = reading_sites(env, attitude, noise)
    R = noise.R
    rmin = {"cam": float(np.linalg.eigvalsh(noise.r_cam)[0]),
            "lidar": float(np.linalg.eigvalsh(noise.r_lidar)[0])}

    k = _process_count(B)
    # outputs each process fills for its own members: in shared memory once
    # forked workers write them
    zeros = np.zeros if k == 1 else _shared_zeros
    pec = zeros((B, n))
    est = zeros((B, n, 3)) if replay else None
    fired = {"cam": zeros((B, n + 1), dtype=bool), "lidar": zeros((B, n + 1), dtype=bool)}

    def propagate(paths, runs, pec, est, fired):
        """The per-tick sweep and flushes of the members these inputs hold.

        Writes their pec, estimated positions and fired flags into the given
        rows and returns their update counts (nb, 4) and skip logs.
        """
        nb = len(pec)
        P = np.repeat(np.eye(6)[None], nb, axis=0)
        x = hold = None
        if replay:
            x = np.zeros((nb, 6))
            # each member's first turn after every bound (n + 1 for none), and
            # the steps past the bound that its velocity correction lasts
            hold = np.empty((nb, len(bounds)), dtype=int)
            for b, nm in enumerate(paths):
                turns = np.flatnonzero(np.any(nm.vel[1:] != nm.vel[:-1], axis=1)) + 1
                after = np.append(turns, n + 1)[np.searchsorted(turns, bounds, side="right")]
                hold[b] = np.minimum(after, np.append(bounds[1:], n + 1)) - bounds
        counts = np.zeros((nb, 4), dtype=int)
        skipped: list[list] = [[] for _ in range(nb)]
        laid = _tick_rows(runs, n, ticks) if replay else None

        def updates(t0: int, t1: int) -> dict:
            block_pos = _positions(paths, ticks[t0:t1])
            if replay:
                return _replayed_updates(t0, t1, block_pos, laid, models, R, rmin)
            return _planned_updates(t0, t1, block_pos, fire, sites, R, rmin, ticks, skipped)

        # The covariance (and mean) after each bound goes to a buffer of a few
        # MB; each flush predicts every step since the previous flush from the
        # bound before it and reduces the whole chunk to pec in one pass.
        chunk = max(1, _FLUSH_BYTES // (nb * 6 * 6 * 8))
        rec = np.empty((nb, chunk + 1, 6, 6))
        xrec = np.empty((nb, chunk + 1, 6)) if replay else None

        def flush(j0: int, j1: int) -> None:
            # the recorded covariances' triangles, read once per bound
            tri = ekf.packed_triangles(rec[:, :j1 - j0 + 1])
            for s0 in range(bounds[j0] + 1, bounds[j1] + 1, chunk):
                s1 = min(s0 + chunk, bounds[j1] + 1)
                slot, k = last[s0:s1] - j0, ahead[s0:s1]
                pec[:, s0 - 1:s1 - 1] = ekf.sym3_max(
                    ekf.position_blocks(np.take(tri, slot, axis=2), k, noise))
                if replay:
                    xs, held = xrec[:, slot], hold[:, last[s0:s1]]
                    est[:, s0 - 1:s1 - 1] = np.stack([nm.pos[s0:s1] for nm in paths]) + (
                        xs[..., 3:] + (np.minimum(k, held) * ts)[..., None] * xs[..., :3])

        spans: dict = {}
        bound_steps = bounds.tolist()
        rec[:, 0] = P
        if replay:
            xrec[:, 0] = x
        j0 = t0 = t1 = 0
        for j in range(1, len(bounds)):
            e = bound_steps[j]
            span = e - bound_steps[j - 1]
            if span not in spans:
                A, Q = ekf.span_transition(noise, span)
                # a contiguous transpose multiplies faster than the view A.T
                spans[span] = (A, A.T.copy(), Q)
            A, At, Q = spans[span]
            P = A @ P @ At + Q
            ti = j - 1 if j <= T else -1
            if replay:
                x[:, 3:] += (hold[:, j - 1] * ts)[:, None] * x[:, :3]
                x[:, :3] = 0.0
            if ti == t1 < T:
                t0, t1 = ti, min(ti + _LIST_TICKS, T)
                lists = updates(t0, t1)

            for col, sensor in enumerate(SENSOR_ORDER if ti >= 0 else ()):
                u = lists[sensor]
                a, b = u.off[ti - t0:ti - t0 + 2]
                if a == b:
                    continue
                rows = slice(a, b)
                # a view of every member when all take part, else their indices
                idx = slice(None) if b - a == nb else u.member[rows]
                innov = None
                if replay:
                    m = models[sensor](u.pos[rows] + x[idx, 3:])
                    if m.refused:
                        idx = u.member[rows]
                        for why, mask in m.refused.items():
                            _log_skips(skipped, idx[mask], e, sensor, why)
                        keep = np.flatnonzero(m.ok)
                        if not len(keep):
                            continue
                        idx, m, rows = idx[keep], m.take(keep), a + keep
                    innov = u.value[rows] - m.z
                terms = (_terms(sensor, m.Hr, m.scale, R, rmin) if u.terms is None
                         else [_take(term, rows) for term in u.terms])
                applied = _KERNELS[sensor](P, x, idx, *terms, innov, skipped, e, sensor)
                if sensor in fired:
                    fired[sensor][applied, e] = True
                counts[applied, col] += 1

            rec[:, j - j0] = P
            if replay:
                xrec[:, j - j0] = x
            if e - bound_steps[j0] >= chunk or j == len(bounds) - 1:
                flush(j0, j)
                rec[:, 0] = rec[:, j - j0]
                if replay:
                    xrec[:, 0] = xrec[:, j - j0]
                j0 = j

        # planning logs guard refusals when it lists a block, ahead of the
        # kernels' skips at earlier ticks of that block
        for log in skipped:
            if len(log) > 1:
                log.sort(key=lambda s: (s[0], SENSOR_ORDER.index(s[1])))
        return counts, skipped

    def sweep(lo: int, hi: int) -> tuple:
        return propagate(*(_rows(a, lo, hi) for a in (paths, runs, pec, est, fired)))

    counts, skipped = _split_members(k, B, sweep)
    t_axis = np.arange(1, n + 1) * ts
    return [
        EngineResult(t=t_axis, pec=pec[b], cam_fired=fired["cam"][b, 1:],
                     lidar_fired=fired["lidar"][b, 1:],
                     est=None if est is None else est[b],
                     alt_updates=int(counts[b, 0]), uwb_updates=int(counts[b, 1]),
                     cam_updates=int(counts[b, 2]), lidar_updates=int(counts[b, 3]),
                     skipped=skipped[b])
        for b in range(B)
    ]


def _rows(a, lo: int, hi: int):
    """Members lo..hi-1 of a per-member input: an array, a list or a dict of
    arrays; None stays None."""
    if isinstance(a, dict):
        return {key: v[lo:hi] for key, v in a.items()}
    return None if a is None else a[lo:hi]


def _process_count(B: int) -> int:
    """How many processes share a batch of B members."""
    if B < _SPLIT_MEMBERS or not hasattr(os, "sched_getaffinity"):
        return 1
    cpus = min(len(os.sched_getaffinity(0)), B)
    if cpus < 2:
        return 1
    import multiprocessing  # costs about 10 ms, so only once a split is due

    # a daemonic process may not start workers of its own
    if ("fork" not in multiprocessing.get_all_start_methods()
            or multiprocessing.current_process().daemon):
        return 1
    return cpus


def _shared_zeros(shape, dtype=float) -> np.ndarray:
    """Zeros in anonymous shared memory, which forked workers write in place."""
    count = math.prod(shape)
    buf = mmap.mmap(-1, count * np.dtype(dtype).itemsize)
    return np.frombuffer(buf, dtype=dtype, count=count).reshape(shape)


def _split_members(k: int, B: int, sweep) -> tuple:
    """sweep(lo, hi) over k contiguous chunks of the B members; returns
    their update counts and skip logs in member order.

    The caller sweeps the first chunk and forked workers the others. A
    worker writes its members' outputs into the caller's shared arrays and
    sends back only their counts and skip logs. The caller also sweeps a
    chunk whose worker could not be started. A worker's exception is
    raised again here, and no worker outlives the call.
    """
    if k == 1:
        return sweep(0, B)
    import multiprocessing

    ctx = multiprocessing.get_context("fork")
    edges = [B * i // k for i in range(k + 1)]
    chunks = list(zip(edges[:-1], edges[1:]))
    # per chunk after the first: its worker and the pipe it answers on
    workers: list = []
    try:
        for lo, hi in chunks[1:]:
            recv, send = ctx.Pipe(duplex=False)
            proc = ctx.Process(target=_sweep_part, args=(sweep, lo, hi, send), daemon=True)
            try:
                proc.start()
            except OSError:  # no process to be had: the caller sweeps this chunk
                recv.close()
                workers.append(None)
            else:
                workers.append((proc, recv))
            finally:
                send.close()
        parts = [sweep(*chunks[0])]
        for (lo, hi), worker in zip(chunks[1:], workers):
            if worker is None:
                parts.append(sweep(lo, hi))
                continue
            proc, recv = worker
            try:
                ok, part = recv.recv()
            except EOFError:
                proc.join()
                raise RuntimeError(f"belief engine worker died with exit code "
                                   f"{proc.exitcode}") from None
            if not ok:
                raise part
            parts.append(part)
    except BaseException:
        for worker in filter(None, workers):
            worker[0].terminate()
        raise
    finally:
        for proc, recv in filter(None, workers):
            recv.close()
            proc.join()
    return (np.concatenate([counts for counts, _ in parts]),
            [log for _, logs in parts for log in logs])


def _sweep_part(sweep, lo: int, hi: int, conn) -> None:
    """A worker's body: send (True, what sweep returns) or (False, the
    exception)."""
    try:
        reply = (True, sweep(lo, hi))
    except BaseException as exc:  # raised again in the caller
        reply = (False, exc)
    conn.send(reply)
    conn.close()


# ---------------------------------------------------------------------------
# scoring


@dataclass
class PathScore(EngineResult):
    """A circuit's planning result (est is None) and the summary statistics
    of its pec series."""

    circuit_index: int
    total: float
    max_pec: float
    mean: float
    median: float
    sigma: float
    rms: float
    flight_time: float
    length: float
    duplicate: bool = False
    threshold_ok: bool | None = None


def _summarize(circuit, line, result) -> PathScore:
    series = result.pec
    if len(series):
        stats = (float(series.sum()), float(series.max()), float(series.mean()),
                 float(np.median(series)), float(series.std()),
                 float(np.sqrt(np.mean(series * series))))
    else:
        stats = (0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
    # vars, not asdict, which would deep-copy the per-step arrays
    return PathScore(
        **vars(result),
        circuit_index=circuit.run,
        total=stats[0],
        max_pec=stats[1],
        mean=stats[2],
        median=stats[3],
        sigma=stats[4],
        rms=stats[5],
        flight_time=line.flight_time,
        length=line.length,
        duplicate=circuit.duplicate,
    )


def propagate_paths(circuit_list, graph, env, kin, rates, noise) -> list:
    """Score every candidate circuit in one run_batch call; a candidate whose
    pec total is not finite raises CovarianceOverflowError.

    The engine gets the candidates' Polylines, which it samples at sensor
    ticks only, a block of ticks at a time: memory holds no per-step or
    whole-flight position of any candidate.
    """
    lines = []
    for circuit in circuit_list:
        _validate_circuit(circuit, graph)
        lines.append(Polyline.of(circuit, graph, kin.cruise, noise.ts))
    results = run_batch(rates, noise, kin.attitude, lines, env=env)
    scores = [_summarize(*args) for args in zip(circuit_list, lines, results)]
    for s in scores:
        if not math.isfinite(s.total):
            raise CovarianceOverflowError(f"candidate {s.circuit_index}: planned pec total "
                                          f"{s.total} is not finite; its covariance left "
                                          "the floating-point range")
    return scores


def check_uncertainty_threshold(score: PathScore, limit: float) -> bool:
    """True when every pec sample stays below the limit; records the verdict."""
    ok = bool(np.all(score.pec < limit)) if len(score.pec) else True
    score.threshold_ok = ok
    return ok


# ---------------------------------------------------------------------------
# ranking


@dataclass
class RankingReport:
    """Best and worst candidates by total accumulated pec; ties break low."""

    best: int
    worst: int
    second_best: int | None
    second_worst: int | None
    order: list
    totals: list
    degenerate: bool


def score_and_select(scores) -> RankingReport:
    """Rank scored candidates by total pec, low to high."""
    scores = list(scores)
    if not scores:
        raise ValueError("no candidates to rank")
    totals = [float(s.total) for s in scores]
    ascending = sorted(range(len(totals)), key=lambda i: (totals[i], i))
    descending = sorted(range(len(totals)), key=lambda i: (-totals[i], i))
    best = ascending[0]
    worst = descending[0]
    return RankingReport(
        best=best,
        worst=worst,
        second_best=ascending[1] if len(totals) > 1 else None,
        second_worst=descending[1] if len(totals) > 1 else None,
        order=ascending,
        totals=totals,
        degenerate=best == worst,
    )
