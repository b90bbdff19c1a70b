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
writing their members' outputs into memory shared with the caller. The
set-up (fire table, visibility gates, readings) stays in the caller. A
member's bits do not depend on the others in its batch, so a split run
returns the same bits as a serial one.
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
# position-error covariance norms


def pec_series(blocks: np.ndarray, norm: str = "spectral") -> np.ndarray:
    """Scalar position-error covariance for a batch of 3x3 position blocks.

    The spectral norm is each block's largest eigenvalue (ekf.sym3_max); the
    smallest is never computed.
    """
    blocks = np.asarray(blocks, dtype=float)
    if blocks.ndim != 3 or blocks.shape[1:] != (3, 3):
        raise ValueError("expected an (n, 3, 3) batch of position blocks")
    if norm == "spectral":
        return ekf.sym3_max(blocks)
    if norm == "fro":
        return np.sqrt((blocks * blocks).sum(axis=(1, 2)))
    raise ValueError(f"unknown pec norm {norm!r}; expected 'spectral' or 'fro'")


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


@dataclass
class EngineResult:
    """Per-step outputs of one propagation pass."""

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

    The ticks are the steps where any sensor fires. offered[sensor] (B, T)
    marks an undropped reading at each tick and value[sensor] holds it,
    shaped (B, T) for alt and uwb and (B, T, 3) for cam and lidar; gamma
    (B, T) is the lidar noise scale.
    """

    offered: dict
    value: dict
    gamma: np.ndarray


def _log_skips(skipped, members, step, sensor, reason) -> None:
    for b in members.tolist():
        skipped[b].append((step, sensor, reason))


def _scalar_update(P, x, idx, Hr, r, innov, skipped, step, sensor):
    """Joseph-form update of members idx by scalar readings.

    idx selects members: slice(None) for all of them, else an index array.
    Hr (n, 3) is the position block of each Jacobian row h. With w = P h
    and K = w / s, (I - K h')P = P - K w', so the Joseph form is
    M - (M h - r K) K' with M = P - K w'. innov is None in planning (zero
    innovation, mean untouched). Members whose innovation variance is not
    positive are logged and left as they are; returns the members updated.
    """
    H = np.zeros((len(Hr), 6))
    H[:, 3:] = Hr
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


def run_batch(steps, rates, noise, attitude, tick_pos=None, env=None, noms=None,
              readings=None, P0=None, pec_norm="spectral") -> list:
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
    pec is recorded after each full step, including that step's updates.
    A batch of at least _SPLIT_MEMBER_TICKS members x sensor ticks is swept
    in chunks across the usable CPUs (_split_members), with the same bits.
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
    value = vel = hold = None
    if replay:
        offered, value, gamma = readings.offered, readings.value, readings.gamma
        vel = np.stack([nm.vel for nm in noms]).reshape(B, n, 3)
        tick_pos = np.stack([nm.pos[ticks] for nm in noms])
        # each member's first turn after every bound (n + 1 for none), and
        # the steps past the bound that its velocity correction lasts
        hold = np.empty((B, len(bounds)), dtype=int)
        for b in range(B):
            turns = np.flatnonzero(np.any(vel[b, 1:] != vel[b, :-1], axis=1)) + 1
            after = np.append(turns, n + 1)[np.searchsorted(turns, bounds, side="right")]
            hold[b] = np.minimum(after, np.append(bounds[1:], n + 1)) - bounds
    else:
        if tick_pos.shape != (B, T, 3):
            raise ValueError(f"tick_pos must be ({B}, {T}, 3) for {n} steps")
        flat = tick_pos.reshape(-1, 3)
        gamma = ekf.lidar(flat, env.rig.position, noise.lidar_gamma).scale.reshape(B, T)
        offered = {
            "alt": np.broadcast_to(table["alt"][ticks], (B, T)),
            "uwb": np.broadcast_to(table["uwb"][ticks], (B, T)),
            "cam": table["cam"][ticks] & env.camera_sees_many(flat).reshape(B, T),
            "lidar": table["lidar"][ticks] & env.lidar_sees_many(flat).reshape(B, T),
        }

    # the lidar's noise scale comes from gamma: the readings' own in replay,
    # the rig's range to each nominal position in planning
    models = ekf.sensor_models(attitude)
    R = noise.R
    rmin = {"cam": float(np.linalg.eigvalsh(noise.r_cam)[0]),
            "lidar": float(np.linalg.eigvalsh(noise.r_lidar)[0])}

    k = _process_count(B, T)
    # outputs each process fills for its own members: in shared memory once
    # forked workers write them
    zeros = np.zeros if k == 1 else _shared_zeros
    pec = zeros((B, n))
    est = zeros((B, n, 6)) if replay else None
    fired = {"cam": zeros((B, n + 1), dtype=bool), "lidar": zeros((B, n + 1), dtype=bool)}

    def propagate(offered, value, gamma, tick_pos, vel, hold, noms, pec, est, fired):
        """The per-tick sweep and flushes of the members these inputs hold.

        Writes their pec, estimates and fired flags into the given rows and
        returns their update counts (B, 4) and skip logs.
        """
        B = len(tick_pos)
        P = np.repeat(P0[None], B, axis=0)
        x = np.zeros((B, 6)) if replay else None
        members = np.arange(B)
        # how many members have a reading of each sensor at each tick
        n_offered = {sensor: offered[sensor].sum(axis=0) for sensor in SENSOR_ORDER}
        counts = np.zeros((B, 4), dtype=int)
        skipped: list[list] = [[] for _ in range(B)]

        # The covariance (and mean) after each bound goes to a buffer of a few
        # MB; each flush predicts every step since the previous flush from the
        # bound before it and reduces the whole chunk to pec in one pass.
        chunk = max(1, _FLUSH_BYTES // (B * 6 * 6 * 8))
        rec = np.empty((B, chunk + 1, 6, 6))
        xrec = np.empty((B, chunk + 1, 6)) if replay else None

        def flush(j0: int, j1: int) -> None:
            for s0 in range(bounds[j0] + 1, bounds[j1] + 1, chunk):
                s1 = min(s0 + chunk, bounds[j1] + 1)
                slot, k = last[s0:s1] - j0, ahead[s0:s1]
                blocks = ekf.position_blocks(rec[:, slot], k, noise)
                pec[:, s0 - 1:s1 - 1] = pec_series(blocks.reshape(-1, 3, 3),
                                                   pec_norm).reshape(B, -1)
                if replay:
                    xs, held = xrec[:, slot], hold[:, last[s0:s1]]
                    est[:, s0 - 1:s1 - 1, :3] = (vel[:, np.minimum(np.arange(s0, s1), n - 1)]
                                                 + (k < held)[..., None] * xs[..., :3])
                    est[:, s0 - 1:s1 - 1, 3:] = np.stack([nm.pos[s0:s1] for nm in noms]) + (
                        xs[..., 3:] + (np.minimum(k, held) * ts)[..., None] * xs[..., :3])

        spans: dict = {}
        rec[:, 0] = P
        if replay:
            xrec[:, 0] = x
        j0 = 0
        for j in range(1, len(bounds)):
            e = int(bounds[j])
            span = e - int(bounds[j - 1])
            if span not in spans:
                A, Q = ekf.span_transition(noise, span)
                # a contiguous transpose multiplies faster than the view A.T
                spans[span] = (A, A.T.copy(), Q)
            A, At, Q = spans[span]
            P = A @ P @ At + Q
            ti = tick_of[e]
            if replay:
                x[:, 3:] += (hold[:, j - 1] * ts)[:, None] * x[:, :3]
                x[:, :3] = 0.0

            for col, sensor in enumerate(SENSOR_ORDER if ti >= 0 else ()):
                count = n_offered[sensor][ti]
                if not count:
                    continue
                # a view of every member when all take part, else their indices
                idx = slice(None) if count == B else np.flatnonzero(offered[sensor][:, ti])
                m = models[sensor](tick_pos[idx, ti] + x[idx, 3:] if replay else tick_pos[idx, ti])
                if m.refused:
                    idx = members[idx]
                    for why, mask in m.refused.items():
                        _log_skips(skipped, idx[mask], e, sensor, why)
                    keep = m.ok
                    idx, m = idx[keep], m.take(keep)
                    if not len(idx):
                        continue
                innov = value[sensor][idx, ti] - m.z if replay else None
                scale = gamma[idx, ti] if m.scale is None else m.scale
                if m.z.ndim == 1:
                    applied = _scalar_update(P, x, idx, m.Hr, scale * R[sensor], innov,
                                             skipped, e, sensor)
                else:
                    applied = _vector_update(P, x, idx, m.Hr, scale[:, None, None] * R[sensor],
                                             scale * rmin[sensor], innov, skipped, e, sensor)
                    fired[sensor][applied, e] = True
                counts[applied, col] += 1

            rec[:, j - j0] = P
            if replay:
                xrec[:, j - j0] = x
            if e - bounds[j0] >= chunk or j == len(bounds) - 1:
                flush(j0, j)
                rec[:, 0] = rec[:, j - j0]
                if replay:
                    xrec[:, 0] = xrec[:, j - j0]
                j0 = j

        return counts, skipped

    def sweep(lo: int, hi: int) -> tuple:
        return propagate(*(_rows(a, lo, hi) for a in (offered, value, gamma, tick_pos, vel,
                                                      hold, noms, pec, est, fired)))

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


def propagate_paths(circuit_list, graph, env, kin, rates, noise,
                    pec_norm="spectral") -> list:
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
        results = run_batch(n, rates, noise, kin.attitude, tick_pos=tick_pos, env=env,
                            pec_norm=pec_norm)
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
