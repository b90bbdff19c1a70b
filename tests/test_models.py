"""Property tests of what the belief engine rests on.

The sensor models the engine, measurement synthesis and the reference filter
share (ekf.sensor_models): positions are drawn at random, with many within
1e-9 of the range guard and of the elevation guard, and attitudes likewise
near the altimeter's tilt guard. Each guard mask must equal its threshold on
ekf.sight_geometry, no row may raise a numpy warning, and wherever every
guard passes the Jacobian must match central differences to the bound of
acceptance criterion 03.

The path sampler (planner.Polyline.at): the engine samples members' paths
one block of sensor ticks at a time, so any split of the ticks into blocks
must give the same bits as one sample of them all and as
build_nominal_trajectory.
"""

import math
import warnings
from types import SimpleNamespace

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from tunnelplan import ekf, planner

HAIR = st.floats(-1e-9, 1e-9)
COORD = st.floats(-30.0, 30.0)
EPS = 1e-6


def point():
    return st.tuples(COORD, COORD, COORD).map(np.array)


@st.composite
def near_min_range(draw):
    v = draw(point().filter(lambda v: np.linalg.norm(v) > 1e-3))
    return v / np.linalg.norm(v) * (ekf.MIN_RANGE + draw(HAIR))


@st.composite
def near_min_elevation(draw):
    d = draw(st.floats(0.05, 30.0))
    s = draw(st.sampled_from([-1.0, 1.0])) * ekf.MIN_SIN_ELEVATION + draw(HAIR)
    az = draw(st.floats(-math.pi, math.pi))
    c = math.sqrt(1.0 - s * s)
    return d * np.array([c * math.cos(az), c * math.sin(az), -s])


# pitches at the altimeter's tilt guard as well as anywhere up to past vertical
PITCH = st.one_of(st.floats(-1.6, 1.6), HAIR.map(lambda e: math.acos(ekf.MIN_TILT_COS + e)))
POSITIONS = st.lists(
    st.one_of(point(), near_min_range(), near_min_elevation(), st.just(np.zeros(3))),
    min_size=1, max_size=12,
).map(np.stack)


def central_differences(model, r):
    """dz/dr at the single position r: (3,) for a scalar reading, (3, 3)
    with [i, k] = dz_i / dr_k for a vector one."""
    cols = []
    for k in range(3):
        dr = np.zeros(3)
        dr[k] = EPS
        cols.append((model((r + dr)[None]).z[0] - model((r - dr)[None]).z[0]) / (2 * EPS))
    return np.stack(cols, axis=-1)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(r=POSITIONS, roll=st.floats(-1.6, 1.6) | st.just(0.0), pitch=PITCH)
def test_models_guard_warn_nowhere_and_differentiate(r, roll, pitch):
    att = ekf.Attitude(roll=roll, pitch=pitch)
    d, u = ekf.sight_geometry(r)
    near = ~(d > ekf.MIN_RANGE)
    low = ~near & ~(np.abs(u[:, 2]) > ekf.MIN_SIN_ELEVATION)
    tipped = np.full(len(r), math.cos(pitch) * math.cos(roll) <= ekf.MIN_TILT_COS)
    want = {"alt": [tipped], "uwb": [near], "cam": [near, low], "lidar": []}

    models = ekf.sensor_models(att, np.array([0.0, 0.0, -0.5]), ekf.NoiseSettings())
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for sensor, model in models.items():
            pred = model(r)
            # no masks at all when every row passes
            masks = [w.tolist() for w in want[sensor]] if np.any(want[sensor]) else []
            assert [m.tolist() for m in pred.refused.values()] == masks, sensor
            for part in (pred.z, pred.Hr, pred.scale):
                assert part is None or np.isfinite(part).all(), sensor
            for i in np.flatnonzero(pred.ok):
                H = np.eye(3) if pred.Hr is None else pred.Hr[i]
                J = central_differences(model, r[i])
                rel = np.abs(J - H).max() / max(np.abs(H).max(), 1.0)
                assert rel < 1e-5, (sensor, r[i], rel)


# ---------------------------------------------------------------------------
# path sampling in blocks


def no_repeated_waypoint(wp):
    # a segment of subnormal coordinates has zero length as well
    return all(np.linalg.norm(a - b) > 1e-6 for a, b in zip(wp, wp[1:]))


WAYPOINTS = st.lists(point(), min_size=2, max_size=6).filter(no_repeated_waypoint)


@st.composite
def polylines(draw):
    """A circuit over random waypoints, its graph, cruise speed and step."""
    wp = np.stack(draw(WAYPOINTS))
    graph = SimpleNamespace(nodes=wp)
    circuit = SimpleNamespace(nodes=list(range(len(wp))))
    return circuit, graph, draw(st.floats(0.2, 3.0)), draw(st.floats(0.01, 0.1))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(path=polylines(), data=st.data())
def test_block_samples_equal_whole_and_nominal_positions(path, data):
    circuit, graph, cruise, ts = path
    line = planner.Polyline.of(circuit, graph, cruise, ts)
    nom = planner.build_nominal_trajectory(circuit, graph, cruise, ts)
    n = line.steps
    assert nom.steps == n
    # the ticks of a random schedule, and a random split of them into blocks
    hz = data.draw(st.floats(0.5, 1.0 / ts), label="hz")
    ticks = np.flatnonzero(planner.RateSchedule(predict_hz=1.0 / ts).fire_steps(hz, n))
    ticks = np.concatenate(([0], ticks, [n]))
    cuts = data.draw(st.lists(st.integers(0, len(ticks)), max_size=8).map(sorted), label="cuts")
    edges = [0, *cuts, len(ticks)]
    whole = line.at(ticks)[0]
    blocks = [line.at(ticks[a:b])[0] for a, b in zip(edges[:-1], edges[1:])]
    assert np.array_equal(np.concatenate(blocks), whole)
    assert np.array_equal(nom.pos[ticks], whole)
    assert np.array_equal(planner._positions([line, nom], ticks), np.stack([whole, whole]))
