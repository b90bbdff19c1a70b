"""Belief propagation along coverage circuits and candidate ranking.

Turns a circuit over the roadmap into a constant-speed nominal trajectory,
pushes the navigation covariance along it with rate-scheduled, field-of-view
gated sensor updates, and summarizes the accumulated position-error
covariance (pec) so candidate circuits can be ranked.

One batched engine drives both planning (covariance-only, mean pinned to
the nominal trajectory, batched over candidates) and measurement replay
(mean free, commanded velocity treated as a control input, batched over
Monte Carlo runs), so planned and replayed covariance series agree step for
step.

A large batch is split into contiguous chunks of members, one per usable
CPU: the calling process sweeps the first and forked workers the others,
writing their members' outputs into memory shared with the caller. Each
process builds its own members' update lists (visibility gates, sensor
models, readings) block by block, so the caller holds no per-member
set-up. A member's bits do not depend on the others in its batch, so a
split run returns the same bits as a serial one.
"""

from __future__ import annotations

import math
import mmap
import os
from dataclasses import dataclass, field

import numpy as np

from . import ekf
from .errors import InvalidCircuitError

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

    predict_hz: float = 50.0
    alt_hz: float = 5.0
    uwb_hz: float = 10.0
    cam_hz: float = 10.0
    lidar_hz: float = 10.0

    def __post_init__(self):
        for name in ("predict_hz", "alt_hz", "uwb_hz", "cam_hz", "lidar_hz"):
            if not getattr(self, name) > 0.0:
                raise ValueError(f"{name} must be positive")
        for name in ("alt_hz", "uwb_hz", "cam_hz", "lidar_hz"):
            if getattr(self, name) > self.predict_hz:
                raise ValueError(f"{name} exceeds predict_hz")

    @property
    def ts(self) -> float:
        return 1.0 / self.predict_hz

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
        return {
            "alt": self.fire_steps(self.alt_hz, n_steps),
            "uwb": self.fire_steps(self.uwb_hz, n_steps),
            "cam": self.fire_steps(self.cam_hz, n_steps),
            "lidar": self.fire_steps(self.lidar_hz, n_steps),
        }


def sensor_ticks(table: dict) -> np.ndarray:
    """Steps of a fire table at which any sensor fires."""
    return np.flatnonzero(table["alt"] | table["uwb"] | table["cam"] | table["lidar"])


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
# Members of one batch share the step count, hence one fire schedule; only
# their trajectories and readings differ. Planning batches the candidate
# circuits over one Eulerized graph and replay batches Monte Carlo runs, so
# each step is a handful of array operations over the member axis.

# recorded covariances turned into per-step pec at a time, in bytes
_FLUSH_BYTES = 2 << 20
# members x sensor ticks from which a batch is split across CPUs. On a
# 2-vCPU VM two halves lost time at 5,000, saved 4 % at 10,000 and 10-16 %
# from 20,000; below it sit the many small batches of the unit tests
_SPLIT_MEMBER_TICKS = 20_000
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


@dataclass
class Readings:
    """Replay measurements of a batch on the schedule's tick axis.

    The T ticks are the steps where any sensor fires. offered[sensor]
    (B, T) marks an undropped reading of that sensor at each tick and
    value[sensor] holds it, shaped (B, T) for alt and uwb and (B, T, 3) for
    cam and lidar; entries not offered are never read. gamma (B, T) is the
    lidar reading's noise scale, read where the lidar is offered.
    """

    offered: dict
    value: dict
    gamma: np.ndarray


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
    innovation covariance is singular or worse conditioned than
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


def _planned_updates(t0, t1, tick_pos, fire, gates, models, R, rmin, ticks, skipped) -> dict:
    """Update lists of ticks t0..t1-1 in planning, by sensor.

    A pair is listed where the sensor fires and its gate sees the member's
    nominal position; its terms come from the model there. A pair the
    model's guards refuse is logged in skipped and left out.
    """
    nb = len(tick_pos)
    lists = {}
    for sensor in SENSOR_ORDER:
        fires = np.flatnonzero(fire[sensor][t0:t1])
        tick, member = np.repeat(fires, nb), np.tile(np.arange(nb), len(fires))
        pos = tick_pos[member, t0 + tick]
        if sensor in gates:
            seen = gates[sensor](pos)
            tick, member, pos = tick[seen], member[seen], pos[seen]
        m = models[sensor](pos)
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


def _replayed_updates(t0, t1, tick_pos, offered, value, gamma, models, R, rmin) -> dict:
    """Update lists of ticks t0..t1-1 in replay, by sensor: the pairs with
    an undropped reading. Only the sensors of _FIXED_AT_ESTIMATE carry
    their terms; the lidar's noise scale is its reading's gamma."""
    lists = {}
    for sensor in SENSOR_ORDER:
        tick, member = np.divmod(np.flatnonzero(offered[sensor][:, t0:t1].T), len(tick_pos))
        at = (member, t0 + tick)
        pos, terms = tick_pos[at], None
        if sensor in _FIXED_AT_ESTIMATE:
            m = models[sensor](pos)
            terms = _terms(sensor, m.Hr, gamma[at] if m.scale is None else m.scale, R, rmin)
        lists[sensor] = _Updates(_offsets(tick, t1 - t0), member, terms, pos,
                                 value[sensor][at])
    return lists


def run_batch(steps, rates, noise, attitude, tick_pos=None, env=None, noms=None,
              readings=None, P0=None) -> list:
    """Propagate the belief of every member along its trajectory at once.

    Planning (readings is None) pins the mean to each nominal trajectory,
    given only where the engine reads it: tick_pos (B, T, 3) holds each
    member's nominal positions at the T steps of
    sensor_ticks(rates.fire_table(steps)). It gates camera and lidar on
    env's field of view there and applies zero-innovation updates. Replay
    follows the commanded trajectories noms, each of the given steps, and
    holds the mean as its offset from them: it leaves the position offset
    free, evaluates Jacobians and guards at the member's estimate and
    applies its readings. A tick's velocity correction lasts until the
    member's own next turn, capped at the next tick; the velocity is the
    commanded one otherwise. Both modes predict between the same bounds,
    step 0, the sensor ticks and the last step, so a member's bits do not
    depend on the others in its batch.

    Sensor updates at one step run in the fixed order alt, uwb, cam, lidar.
    Singular updates are skipped and logged per member, never fatal. The
    pec, the position block's largest eigenvalue, is recorded after each
    full step, including that step's updates, and in replay so is the
    estimated position, the commanded one plus the offset.
    A batch of at least _SPLIT_MEMBER_TICKS members x sensor ticks is swept
    in chunks across the usable CPUs (_split_members), with the same bits.
    Each process builds the update lists of its own members, _LIST_TICKS
    sensor ticks at a time, and its tick loop does only the covariance and
    mean algebra.
    """
    if abs(noise.ts * rates.predict_hz - 1.0) > 1e-9:
        raise ValueError("noise.ts and rates.predict_hz disagree")
    n = steps
    replay = readings is not None
    B = len(noms) if replay else len(tick_pos)
    if replay and any(nm.steps != n for nm in noms):
        raise ValueError("batch members must share one step count")
    P0 = np.eye(6) if P0 is None else np.array(P0, dtype=float)
    if P0.shape != (6, 6):
        raise ValueError("P0 must be 6x6")
    ts = noise.ts

    table = rates.fire_table(n)
    ticks = sensor_ticks(table)
    T = len(ticks)
    tick_of = np.full(n + 1, -1)
    tick_of[ticks] = np.arange(T)
    bounds = np.unique(np.concatenate([[0, n], ticks]))
    # the last bound at or before each step, and the steps predicted past it
    last = np.searchsorted(bounds, np.arange(n + 1), side="right") - 1
    ahead = np.arange(n + 1) - bounds[last]
    offered = value = gamma = fire = gates = None
    if replay:
        offered, value, gamma = readings.offered, readings.value, readings.gamma
        # replay's models leave the lidar's noise scale to its readings
        models = ekf.sensor_models(attitude)
    else:
        if tick_pos.shape != (B, T, 3):
            raise ValueError(f"tick_pos must be ({B}, {T}, 3) for {n} steps")
        fire = {sensor: table[sensor][ticks] for sensor in SENSOR_ORDER}
        gates = {"cam": env.camera_sees_many, "lidar": env.lidar_sees_many}
        models = ekf.sensor_models(attitude, env.rig.position, noise.lidar_gamma)
    R = noise.R
    rmin = {"cam": float(np.linalg.eigvalsh(noise.r_cam)[0]),
            "lidar": float(np.linalg.eigvalsh(noise.r_lidar)[0])}

    k = _process_count(B, T)
    # outputs each process fills for its own members: in shared memory once
    # forked workers write them
    zeros = np.zeros if k == 1 else _shared_zeros
    pec = zeros((B, n))
    est = zeros((B, n, 3)) if replay else None
    fired = {"cam": zeros((B, n + 1), dtype=bool), "lidar": zeros((B, n + 1), dtype=bool)}

    def propagate(tick_pos, noms, offered, value, gamma, pec, est, fired):
        """The per-tick sweep and flushes of the members these inputs hold.

        Writes their pec, estimated positions and fired flags into the given
        rows and returns their update counts (nb, 4) and skip logs.
        """
        nb = len(pec)
        P = np.repeat(P0[None], nb, axis=0)
        x = hold = None
        if replay:
            x = np.zeros((nb, 6))
            tick_pos = np.stack([nm.pos[ticks] for nm in noms])
            # each member's first turn after every bound (n + 1 for none), and
            # the steps past the bound that its velocity correction lasts
            hold = np.empty((nb, len(bounds)), dtype=int)
            for b, nm in enumerate(noms):
                turns = np.flatnonzero(np.any(nm.vel[1:] != nm.vel[:-1], axis=1)) + 1
                after = np.append(turns, n + 1)[np.searchsorted(turns, bounds, side="right")]
                hold[b] = np.minimum(after, np.append(bounds[1:], n + 1)) - bounds
        counts = np.zeros((nb, 4), dtype=int)
        skipped: list[list] = [[] for _ in range(nb)]

        def updates(t0: int, t1: int) -> dict:
            if replay:
                return _replayed_updates(t0, t1, tick_pos, offered, value, gamma,
                                         models, R, rmin)
            return _planned_updates(t0, t1, tick_pos, fire, gates, models, R, rmin,
                                    ticks, skipped)

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
                    est[:, s0 - 1:s1 - 1] = np.stack([nm.pos[s0:s1] for nm in noms]) + (
                        xs[..., 3:] + (np.minimum(k, held) * ts)[..., None] * xs[..., :3])

        spans: dict = {}
        bound_steps, tick_at = bounds.tolist(), tick_of.tolist()
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
            ti = tick_at[e]
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
        return propagate(*(_rows(a, lo, hi) for a in (tick_pos, noms, offered, value, gamma,
                                                      pec, est, fired)))

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


def _process_count(B: int, T: int) -> int:
    """How many processes share a batch of B members over T sensor ticks."""
    if B * T < _SPLIT_MEMBER_TICKS or not hasattr(os, "sched_getaffinity"):
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


def step_groups(paths) -> list:
    """Indices of trajectories or polylines grouped by step count, shortest
    first; each group can share one batch."""
    groups: dict[int, list[int]] = {}
    for i, path in enumerate(paths):
        groups.setdefault(path.steps, []).append(i)
    return [groups[k] for k in sorted(groups)]


# ---------------------------------------------------------------------------
# scoring


@dataclass
class PathScore:
    """Per-step pec series and summary statistics for one circuit."""

    circuit_index: int
    t: np.ndarray
    pec: np.ndarray
    cam_fired: np.ndarray
    lidar_fired: np.ndarray
    total: float
    max_pec: float
    mean: float
    median: float
    sigma: float
    rms: float
    cam_updates: int
    lidar_updates: int
    flight_time: float
    length: float
    duplicate: bool = False
    threshold_ok: bool | None = None
    skipped: list = field(default_factory=list)


def _summarize(circuit, line, result) -> PathScore:
    series = result.pec
    if len(series):
        stats = (float(series.sum()), float(series.max()), float(series.mean()),
                 float(np.median(series)), float(series.std()),
                 float(np.sqrt(np.mean(series * series))))
    else:
        stats = (0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
    return PathScore(
        circuit_index=circuit.run,
        t=result.t,
        pec=series,
        cam_fired=result.cam_fired,
        lidar_fired=result.lidar_fired,
        total=stats[0],
        max_pec=stats[1],
        mean=stats[2],
        median=stats[3],
        sigma=stats[4],
        rms=stats[5],
        cam_updates=result.cam_updates,
        lidar_updates=result.lidar_updates,
        flight_time=line.flight_time,
        length=line.length,
        duplicate=circuit.duplicate,
        skipped=result.skipped,
    )


def propagate_paths(circuit_list, graph, env, kin, rates, noise) -> list:
    """Score every candidate circuit, batching those with equal step counts.

    Planning reads the nominal trajectory only at sensor ticks, so only
    those steps are sampled: memory grows with the ticks, not the steps.
    """
    lines = []
    for circuit in circuit_list:
        _validate_circuit(circuit, graph)
        lines.append(Polyline.of(circuit, graph, kin.cruise, noise.ts))
    scores: list = [None] * len(lines)
    for idxs in step_groups(lines):
        n = lines[idxs[0]].steps
        ticks = sensor_ticks(rates.fire_table(n))
        tick_pos = np.empty((len(idxs), len(ticks), 3))
        for b, i in enumerate(idxs):
            tick_pos[b] = lines[i].at(ticks)[0]
        results = run_batch(n, rates, noise, kin.attitude, tick_pos=tick_pos, env=env)
        for i, res in zip(idxs, results):
            scores[i] = _summarize(circuit_list[i], lines[i], res)
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
