"""Tests for the tunnel map, collision queries, and sensor visibility."""

import math
from pathlib import Path

import numpy as np
import pytest

from tunnelplan import mapenv
from tunnelplan.errors import MapFormatError

# map values that used to load and then quietly turned the collision check
# or a sensor's gate off, with the key each sets
BAD_MAP_VALUES = [
    ("collision_margin_m", "collision_margin_m: .nan"),
    ("lidar_max_range_m", "ugv: {lidar_max_range_m: .nan}"),
    ("lidar_pitch_deg", "ugv: {lidar_pitch_deg: .inf}"),
    ("lidar_halfangle_deg", "ugv: {lidar_halfangle_deg: -10}"),
    ("camera_max_range_m", "ugv: {camera_max_range_m: -1}"),
    ("camera_mount_height_m", "ugv: {camera_mount_height_m: .nan}"),
]
BAD_MAP_IDS = [f"{key}={text.rsplit(' ', 1)[-1].rstrip('}')}" for key, text in BAD_MAP_VALUES]


# ---------------------------------------------------------------------------
# independent oracles, written against the documented geometry only


def free_oracle(env, p):
    """Point query by direct componentwise comparison."""
    m = env.collision_margin
    for ax in range(3):
        if p[ax] < env.bounds_min[ax] or p[ax] > env.bounds_max[ax]:
            return False
    for box in env.obstacles:
        hit = True
        for ax in range(3):
            if p[ax] < box.lo[ax] - m or p[ax] > box.hi[ax] + m:
                hit = False
                break
        if hit:
            return False
    return True


def segment_oracle(env, a, b):
    """Dense 1 mm sampling along the segment, independent of the implementation."""
    a = np.asarray(a, float)
    b = np.asarray(b, float)
    num = max(2, int(math.ceil(np.linalg.norm(b - a) / 0.001)) + 1)
    ts = np.linspace(0.0, 1.0, num)
    pts = a[None, :] + ts[:, None] * (b - a)[None, :]
    m = env.collision_margin
    in_bounds = np.all((pts >= env.bounds_min) & (pts <= env.bounds_max), axis=1)
    if not in_bounds.all():
        return False
    for box in env.obstacles:
        inside = np.all((pts >= box.lo - m) & (pts <= box.hi + m), axis=1)
        if inside.any():
            return False
    return True


def sight_oracle(env, a, b):
    """Occlusion test by dense sampling against the raw (uninflated) boxes."""
    a = np.asarray(a, float)
    b = np.asarray(b, float)
    num = max(2, int(math.ceil(np.linalg.norm(b - a) / 0.001)) + 1)
    ts = np.linspace(0.0, 1.0, num)
    pts = a[None, :] + ts[:, None] * (b - a)[None, :]
    for box in env.obstacles:
        inside = np.all((pts >= box.lo) & (pts <= box.hi), axis=1)
        if inside.any():
            return False
    return True


def elevation_deg(origin, p):
    rel = np.asarray(p, float) - np.asarray(origin, float)
    horiz = math.hypot(rel[0], rel[1])
    return math.degrees(math.atan2(-rel[2], horiz))


def make_env(obstacles=(), margin=0.3, rig=None):
    boxes = [mapenv.BoxObstacle(lo, hi) for lo, hi in obstacles]
    return mapenv.EnvironmentMap(
        bounds_min=[-20.0, -5.0, -8.0],
        bounds_max=[20.0, 5.0, 0.0],
        obstacles=boxes,
        collision_margin=margin,
        rig=rig if rig is not None else mapenv.UgvRig(),
    )


# ---------------------------------------------------------------------------
# loading and validation


class TestLoading:
    def test_default_map_dimensions(self, tunnel):
        span = tunnel.bounds_max - tunnel.bounds_min
        assert np.allclose(span, [40.0, 10.0, 8.0])
        assert len(tunnel.obstacles) == 4
        assert tunnel.collision_margin == pytest.approx(0.3)

    def test_default_rig(self, tunnel):
        rig = tunnel.rig
        assert rig.lidar_pitch == pytest.approx(math.radians(15.0))
        assert rig.lidar_halfangle == pytest.approx(math.radians(22.5))
        assert rig.lidar_max_range == pytest.approx(50.0)
        assert rig.camera_mount_height == pytest.approx(0.8)
        assert rig.camera_max_range == pytest.approx(6.0)
        assert np.allclose(rig.position, [0.0, 0.0, 0.0])

    def test_obstacles_validated_inside_bounds_shape(self, tunnel):
        for box in tunnel.obstacles:
            assert np.all(box.lo <= box.hi)

    def test_missing_field_rejected(self, tmp_path):
        bad = tmp_path / "bad.yaml"
        bad.write_text("bounds_min: [0, 0, 0]\n")
        with pytest.raises(MapFormatError):
            mapenv.load_map(bad)

    def test_inverted_bounds_rejected(self, tmp_path):
        bad = tmp_path / "bad.yaml"
        bad.write_text(
            "bounds_min: [1, 0, 0]\nbounds_max: [0, 1, 1]\nobstacles: []\n"
        )
        with pytest.raises(MapFormatError):
            mapenv.load_map(bad)

    @pytest.mark.parametrize("bounds", ["[-2.0, -6.0]", "[a, 0, 0]", "[-.inf, 0, -2]"],
                             ids=["two_entries", "non_numeric", "infinite"])
    def test_malformed_bounds_rejected(self, tmp_path, bounds):
        bad = tmp_path / "bad.yaml"
        bad.write_text(f"bounds_min: {bounds}\nbounds_max: [4, 4, 0]\n")
        with pytest.raises(MapFormatError, match="bounds_min"):
            mapenv.load_map(bad)

    @pytest.mark.parametrize("key, text", BAD_MAP_VALUES, ids=BAD_MAP_IDS)
    def test_non_finite_or_out_of_range_value_rejected(self, tmp_path, key, text):
        bad = tmp_path / "bad.yaml"
        bad.write_text(f"bounds_min: [0, -5, -4]\nbounds_max: [20, 5, 0]\n{text}\n")
        with pytest.raises(MapFormatError, match=key):
            mapenv.load_map(bad)

    # YAML 1.1 reads true, yes and on as booleans; a number of a map file
    # is an int or a float, or a string written with an exponent
    @pytest.mark.parametrize("text, key", [
        ("bounds_min: [0, 0, -2]\nbounds_max: [true, 4, 0]\n", "bounds_max"),
        ("bounds_min: [0, 0, -2]\nbounds_max: [4, 4, 0]\n"
         "obstacles:\n  - {min: [1, 1, -1], max: [2, yes, 0]}\n", "obstacle 0 max"),
        ("bounds_min: [0, 0, -2]\nbounds_max: [4, 4, 0]\ncollision_margin_m: true\n",
         "collision_margin_m"),
        ("bounds_min: [0, 0, -2]\nbounds_max: [4, 4, 0]\nugv: {lidar_max_range_m: on}\n",
         "lidar_max_range_m"),
        ("bounds_min: [0, 0, -2]\nbounds_max: [4, 4, 0]\nugv: {camera_max_range_m: \"6\"}\n",
         "camera_max_range_m"),
        ("bounds_min: [0, 0, -2]\nbounds_max: [4, 4, 0]\nugv: {position: [false, 0, 0]}\n",
         "ugv position"),
    ], ids=["bounds", "obstacle", "margin", "rig_bool", "rig_string", "rig_position"])
    def test_booleans_and_strings_are_not_numbers(self, tmp_path, text, key):
        bad = tmp_path / "bad.yaml"
        bad.write_text(text)
        with pytest.raises(MapFormatError, match=f"{key} in .* expected a number"):
            mapenv.load_map(bad)

    @pytest.mark.parametrize("text, read", [
        ("ugv: {camera_mount_height_m: 0}", lambda env: env.rig.camera_mount_height),
        ("collision_margin_m: 0", lambda env: env.collision_margin),
    ], ids=["camera_mount_height_m", "collision_margin_m"])
    def test_inclusive_bounds_accept_their_edge(self, tmp_path, text, read):
        f = tmp_path / "m.yaml"
        f.write_text(f"bounds_min: [0, -5, -4]\nbounds_max: [20, 5, 0]\n{text}\n")
        assert read(mapenv.load_map(f)) == 0.0

    def test_numbers_written_with_an_exponent(self, tmp_path):
        f = tmp_path / "m.yaml"
        f.write_text("bounds_min: [0, 0, -2e0]\nbounds_max: [4, 4, 0]\n"
                     "collision_margin_m: 3e-1\nugv: {camera_max_range_m: 6E0}\n")
        env = mapenv.load_map(f)
        assert env.bounds_min.tolist() == [0.0, 0.0, -2.0]
        assert env.collision_margin == 0.3
        assert env.rig.camera_max_range == 6.0

    # every number of a map file is finite, an obstacle's corners included
    @pytest.mark.parametrize("corner", [".inf", ".nan"])
    def test_non_finite_obstacle_corner_rejected(self, tmp_path, corner):
        bad = tmp_path / "bad.yaml"
        bad.write_text("bounds_min: [0, -5, -4]\nbounds_max: [20, 5, 0]\n"
                       f"obstacles:\n  - {{min: [1, -1, -3], max: [{corner}, 1, -1]}}\n")
        with pytest.raises(MapFormatError, match="obstacle 0 max in .* expected a finite number"):
            mapenv.load_map(bad)

    def test_inverted_obstacle_rejected(self, tmp_path):
        bad = tmp_path / "bad.yaml"
        bad.write_text(
            "bounds_min: [0, 0, -2]\n"
            "bounds_max: [4, 4, 0]\n"
            "obstacles:\n"
            "  - {min: [2, 2, -1], max: [1, 3, 0]}\n"
        )
        with pytest.raises(MapFormatError):
            mapenv.load_map(bad)

    def test_unparseable_file_rejected(self, tmp_path):
        bad = tmp_path / "bad.yaml"
        bad.write_text("{::not yaml::")
        with pytest.raises(MapFormatError):
            mapenv.load_map(bad)

    @pytest.mark.parametrize("field, value", [
        ("lidar_pitch", math.nan), ("lidar_halfangle", 0.0), ("lidar_max_range", math.inf),
        ("camera_mount_height", -0.1), ("camera_max_range", 0.0)])
    def test_rig_rejects_bad_value(self, field, value):
        with pytest.raises(MapFormatError, match=field):
            mapenv.UgvRig(**{field: value})

    @pytest.mark.parametrize("margin", [math.nan, math.inf, -0.1])
    def test_map_rejects_bad_margin(self, margin):
        with pytest.raises(MapFormatError, match="collision_margin"):
            make_env(margin=margin)

    def test_rig_defaults_when_block_omitted(self, tmp_path):
        # no ugv block, then a partial one: every field it omits is UgvRig's
        default = mapenv.UgvRig()
        for ugv, given in [
            ("", {}),
            ("ugv:\n  lidar_pitch_deg: 30.0\n  camera_max_range_m: 4.5\n",
             {"lidar_pitch": math.radians(30.0), "camera_max_range": 4.5}),
        ]:
            f = tmp_path / "m.yaml"
            f.write_text("bounds_min: [0, 0, -2]\nbounds_max: [4, 4, 0]\n" + ugv)
            env = mapenv.load_map(f)
            assert env.obstacles == []
            assert env.collision_margin == pytest.approx(0.3)
            for name in ("position", "lidar_pitch", "lidar_halfangle", "lidar_max_range",
                         "camera_mount_height", "camera_max_range"):
                want = given.get(name, getattr(default, name))
                assert np.array_equal(getattr(env.rig, name), want), (ugv, name)

    @pytest.mark.parametrize("text, where", [
        ("rig:\n  position: [0, 0, 0]\n", "top level"),
        ("obstacles:\n  - {lo: [1, 1, -1], hi: [2, 2, 0]}\n", "obstacle 0"),
        ("ugv:\n  lidar_pitch: 30.0\n", "ugv block"),
        ("ugv: [0, 0, 0]\n", "ugv block"),
        # the UWB and camera models range from the origin, the gates from the
        # rig, so a moved rig would give the two inconsistent geometry
        ("ugv:\n  position: [1.0, 0.0, 0.0]\n", "frame origin"),
        ("ugv:\n  position: [0, 0, -0.5]\n", "frame origin"),
        # a block of the wrong kind, even one that reads as false
        ("obstacles: 5\n", "obstacles in .* expected a list"),
        ("obstacles: abc\n", "obstacles in .* expected a list"),
        ("obstacles: {min: [1, 1, -1], max: [2, 2, 0]}\n", "obstacles in .* expected a list"),
        ("obstacles: 0\n", "obstacles in .* expected a list"),
        ("ugv: 0\n", "ugv block"),
        ("ugv: ''\n", "ugv block"),
    ])
    def test_unknown_or_malformed_block_rejected(self, tmp_path, text, where):
        bad = tmp_path / "bad.yaml"
        bad.write_text("bounds_min: [0, 0, -2]\nbounds_max: [4, 4, 0]\n" + text)
        with pytest.raises(MapFormatError, match=where):
            mapenv.load_map(bad)

    def test_null_obstacles_are_none(self, tmp_path):
        f = tmp_path / "m.yaml"
        f.write_text("bounds_min: [0, 0, -2]\nbounds_max: [4, 4, 0]\nobstacles:\n")
        assert mapenv.load_map(f).obstacles == []

    def test_readme_map_example_loads(self, tmp_path):
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        section = readme.split("## Map format", 1)[1]
        example = section.split("```yaml\n", 1)[1].split("```", 1)[0]
        f = tmp_path / "readme.yaml"
        f.write_text(example)
        env = mapenv.load_map(f)
        assert len(env.obstacles) >= 1
        assert env.rig.lidar_max_range == pytest.approx(50.0)


# ---------------------------------------------------------------------------
# point collision queries


class TestPointQueries:
    def test_obstacle_center_blocked(self, tunnel):
        box = tunnel.obstacles[0]
        center = 0.5 * (box.lo + box.hi)
        assert not tunnel.is_free(center)

    def test_outside_bounds_blocked(self, tunnel):
        assert not tunnel.is_free([100.0, 0.0, -1.0])
        assert not tunnel.is_free([0.0, 0.0, 1.0])

    def test_open_corridor_free(self, tunnel):
        assert tunnel.is_free([0.0, 0.0, -4.0])

    def test_boundary_point_inclusive(self):
        env = make_env()
        assert env.is_free([-20.0, -5.0, -8.0])
        assert env.is_free([20.0, 5.0, 0.0])

    def test_margin_inflation(self):
        env = make_env(obstacles=[([0.0, 0.0, -2.0], [1.0, 1.0, 0.0])])
        # a point 0.2 m off the face is inside the 0.3 m safety envelope
        assert not env.is_free([1.2, 0.5, -1.0])
        assert env.is_free([1.4, 0.5, -1.0])

    def test_empty_map_interior_free(self):
        env = make_env(obstacles=())
        rng = np.random.default_rng(11)
        for _ in range(50):
            p = rng.uniform(env.bounds_min, env.bounds_max)
            assert env.is_free(p)

    def test_matches_oracle_on_random_points(self, tunnel):
        rng = np.random.default_rng(7)
        lo = tunnel.bounds_min - 1.0
        hi = tunnel.bounds_max + 1.0
        for _ in range(500):
            p = rng.uniform(lo, hi)
            assert tunnel.is_free(p) == free_oracle(tunnel, p)


# ---------------------------------------------------------------------------
# segment collision queries


class TestSegmentQueries:
    def test_degenerate_segment_is_point_query(self, tunnel):
        p = [0.0, 0.0, -4.0]
        assert tunnel.segment_is_free(p, p)
        box = tunnel.obstacles[0]
        c = 0.5 * (box.lo + box.hi)
        assert not tunnel.segment_is_free(c, c)

    def test_segment_through_obstacle_blocked(self, tunnel):
        box = tunnel.obstacles[0]
        c = 0.5 * (box.lo + box.hi)
        a = c + np.array([0.0, -3.0, 0.0])
        b = c + np.array([0.0, 3.0, 0.0])
        assert not tunnel.segment_is_free(a, b)

    def test_segment_in_open_space_free(self, tunnel):
        assert tunnel.segment_is_free([-15.0, 3.0, -6.0], [-2.0, 3.0, -6.0])

    def test_empty_map_long_segment_free(self):
        env = make_env(obstacles=())
        assert env.segment_is_free([-19.0, -4.0, -7.0], [19.0, 4.0, -1.0])

    def test_matches_dense_oracle(self, tunnel):
        rng = np.random.default_rng(23)
        agree = 0
        for _ in range(60):
            a = rng.uniform(tunnel.bounds_min, tunnel.bounds_max)
            b = a + rng.uniform(-6.0, 6.0, size=3)
            got = tunnel.segment_is_free(a, b)
            want = segment_oracle(tunnel, a, b)
            # the implementation samples at 0.1 m, the oracle at 1 mm, so the
            # implementation may only ever be more permissive, and only when
            # the 1 mm grid finds an incursion shallower than the step
            if got == want:
                agree += 1
            else:
                assert got and not want
        assert agree >= 55

    def test_symmetry(self, tunnel):
        rng = np.random.default_rng(31)
        for _ in range(100):
            a = rng.uniform(tunnel.bounds_min, tunnel.bounds_max)
            b = rng.uniform(tunnel.bounds_min, tunnel.bounds_max)
            assert tunnel.segment_is_free(a, b) == tunnel.segment_is_free(b, a)

    def test_free_segment_has_free_endpoints(self, tunnel):
        rng = np.random.default_rng(37)
        for _ in range(100):
            a = rng.uniform(tunnel.bounds_min, tunnel.bounds_max)
            b = rng.uniform(tunnel.bounds_min, tunnel.bounds_max)
            if tunnel.segment_is_free(a, b):
                assert tunnel.is_free(a) and tunnel.is_free(b)

    def test_margin_monotonicity(self):
        # shrinking the margin can never block a segment that was free
        obstacles = [([2.0, -1.0, -3.0], [4.0, 1.0, 0.0])]
        wide = make_env(obstacles=obstacles, margin=0.5)
        narrow = make_env(obstacles=obstacles, margin=0.1)
        rng = np.random.default_rng(41)
        for _ in range(100):
            a = rng.uniform(wide.bounds_min, wide.bounds_max)
            b = rng.uniform(wide.bounds_min, wide.bounds_max)
            if wide.segment_is_free(a, b):
                assert narrow.segment_is_free(a, b)


# ---------------------------------------------------------------------------
# camera visibility


class TestCameraVisibility:
    def test_below_mount_height_invisible(self, tunnel):
        assert not tunnel.camera_sees_many([[1.0, 0.0, -0.5]])[0]

    def test_close_and_high_visible(self, tunnel):
        # 2 m above the camera, 3 m horizontal offset: range sqrt(13) < 6
        assert tunnel.camera_sees_many([[3.0, 0.0, -2.8]])[0]

    def test_out_of_range_invisible(self, tunnel):
        assert not tunnel.camera_sees_many([[10.0, 0.0, -3.0]])[0]

    def test_occluded_invisible(self):
        blocked = make_env(obstacles=[([1.5, -0.5, -3.0], [2.5, 0.5, 0.0])])
        clear = make_env(obstacles=())
        uav = [4.0, 0.0, -2.0]
        assert clear.camera_sees_many([uav])[0]
        assert not blocked.camera_sees_many([uav])[0]

    def test_matches_geometry_oracle(self, tunnel):
        rig = tunnel.rig
        cam = rig.position + np.array([0.0, 0.0, -rig.camera_mount_height])
        rng = np.random.default_rng(43)
        for _ in range(300):
            p = rng.uniform(tunnel.bounds_min, tunnel.bounds_max)
            height = rig.position[2] - p[2]
            want = (
                height > rig.camera_mount_height
                and np.linalg.norm(p - cam) <= rig.camera_max_range
                and sight_oracle(tunnel, cam, p)
            )
            assert tunnel.camera_sees_many([p])[0] == want


# ---------------------------------------------------------------------------
# lidar visibility


class TestLidarVisibility:
    def test_on_boresight_visible(self, tunnel):
        r = 10.0
        p = [r * math.cos(math.radians(15.0)), 0.0, -r * math.sin(math.radians(15.0))]
        assert tunnel.lidar_sees_many([p])[0]

    def test_directly_below_invisible(self):
        env = make_env(rig=mapenv.UgvRig(position=[0.0, 0.0, -4.0]))
        assert not env.lidar_sees_many([[0.0, 0.0, -1.0]])[0]

    def test_overhead_blind_cone(self, tunnel):
        # straight up is far outside the 15 +/- 22.5 degree band
        assert not tunnel.lidar_sees_many([[0.0, 0.0, -7.0]])[0]

    def test_beyond_max_range_invisible(self):
        rig = mapenv.UgvRig(lidar_max_range=12.0)
        env = make_env(rig=rig)
        p = [15.0, 0.0, -15.0 * math.tan(math.radians(15.0))]
        assert not env.lidar_sees_many([p])[0]

    def test_band_edges(self, tunnel):
        horiz = 10.0
        for elev, want in [(37.4, True), (37.6, False), (-7.4, True), (-7.6, False)]:
            p = [horiz, 0.0, -horiz * math.tan(math.radians(elev))]
            if abs(p[2]) > 7.9:
                continue
            assert tunnel.lidar_sees_many([p])[0] == want, elev

    def test_azimuth_unrestricted(self, tunnel):
        r = 6.0
        for az_deg in (0.0, 90.0, 180.0, 270.0, 123.0):
            az = math.radians(az_deg)
            p = [
                r * math.cos(az) * math.cos(math.radians(15.0)),
                r * math.sin(az) * math.cos(math.radians(15.0)),
                -r * math.sin(math.radians(15.0)),
            ]
            assert tunnel.lidar_sees_many([p])[0], az_deg

    def test_matches_geometry_oracle(self, tunnel):
        rig = tunnel.rig
        rng = np.random.default_rng(47)
        half = math.degrees(rig.lidar_halfangle)
        pitch = math.degrees(rig.lidar_pitch)
        for _ in range(300):
            p = rng.uniform(tunnel.bounds_min, tunnel.bounds_max)
            rel = p - rig.position
            off = elevation_deg(rig.position, p) - pitch
            want = (
                abs(off) <= half
                and np.linalg.norm(rel) <= rig.lidar_max_range
                and sight_oracle(tunnel, rig.position, p)
            )
            assert tunnel.lidar_sees_many([p])[0] == want

    def test_queries_are_pure(self, tunnel):
        p = [8.0, 2.0, -3.0]
        def query():
            return (tunnel.lidar_sees_many([p])[0], tunnel.camera_sees_many([p])[0],
                    tunnel.is_free(p))

        first = query()
        for _ in range(3):
            assert query() == first


# ---------------------------------------------------------------------------
# gates over many points


def test_blocked_gates_match_per_point_gates():
    # a bar above the rig occludes the camera from x = 7.3 m on and the
    # lidar from x = 5 m to 8.75 m along the sweep; a point's gate does not
    # depend on the other points of its call
    env = make_env(obstacles=[([3.0, -0.5, -1.5], [3.5, 0.5, -1.0])],
                   rig=mapenv.UgvRig(camera_max_range=30.0))
    x = np.linspace(1.0, 19.0, 166)
    pts = np.column_stack([x, np.zeros_like(x), np.full_like(x, -2.5)])
    for many in (env.camera_sees_many, env.lidar_sees_many):
        got = many(pts)
        want = np.array([many(p[None])[0] for p in pts])
        assert np.array_equal(got, want)
        assert got.any()
    assert not make_env().lidar_sees_many(np.zeros((0, 3))).size


def test_subnormal_sight_line_component_is_degenerate():
    # a direction component of 5e-324 overflows the slab quotients; the axis
    # counts as degenerate, so the box beside the line does not block it and
    # no warning is raised
    env = make_env(obstacles=[([0.0, 1.0, -1.0], [1.0, 2.0, 0.0])])
    pts = np.array([[0.0, 5e-324, -2.0], [0.5, 3.0, -1.0]])
    assert env.sight_clear_many(np.zeros(3), pts).tolist() == [True, False]
