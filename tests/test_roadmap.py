"""Tests for free-space sampling, k-NN connection, and Eulerization."""

import heapq
import itertools
import json

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from tunnelplan import mapenv, roadmap
from tunnelplan.errors import DisconnectedGraphError, SamplingExhaustedError


def empty_env(**kw):
    return mapenv.EnvironmentMap(
        bounds_min=[-20.0, -5.0, -8.0], bounds_max=[20.0, 5.0, 0.0], **kw
    )


def connected_oracle(graph):
    """BFS reachability over the edge list, ignoring multiplicity."""
    n = len(graph.nodes)
    if n == 0:
        return True
    adj = {i: set() for i in range(n)}
    for e in graph.edges:
        adj[e.i].add(e.j)
        adj[e.j].add(e.i)
    seen = {0}
    queue = [0]
    while queue:
        u = queue.pop()
        for v in adj[u]:
            if v not in seen:
                seen.add(v)
                queue.append(v)
    return len(seen) == n


def shortest_path_oracle(graph, a, b):
    """Plain Dijkstra over unique edges, used to cross-check eulerize costs."""
    adj = {}
    for e in graph.edges:
        adj.setdefault(e.i, []).append((e.j, e.length))
        adj.setdefault(e.j, []).append((e.i, e.length))
    dist = {a: 0.0}
    heap = [(0.0, a)]
    while heap:
        d, u = heapq.heappop(heap)
        if u == b:
            return d
        if d > dist.get(u, np.inf):
            continue
        for v, w in adj.get(u, []):
            nd = d + w
            if nd < dist.get(v, np.inf):
                dist[v] = nd
                heapq.heappush(heap, (nd, v))
    return np.inf


# ---------------------------------------------------------------------------
# sampling


class TestSampleNodes:
    def test_count_free_and_source_first(self, tunnel):
        rng = np.random.default_rng(101)
        pts = roadmap.sample_nodes(tunnel, 12, rng)
        assert pts.shape == (12, 3)
        dep = roadmap.deployment_point(tunnel)
        assert np.allclose(pts[0], dep)
        for p in pts:
            assert tunnel.is_free(p)

    def test_forward_bias_statistics(self, tunnel):
        # acceptance ratio 3:1 with half the volume forward gives an expected
        # forward fraction of 0.75 among the randomly drawn nodes
        forward = 0
        total = 0
        for seed in range(25):
            rng = np.random.default_rng(seed)
            pts = roadmap.sample_nodes(tunnel, 12, rng)
            forward += int(np.sum(pts[1:, 0] > tunnel.rig.position[0]))
            total += 11
        frac = forward / total
        assert 0.63 < frac < 0.87

    def test_bias_one_is_uniform(self, tunnel):
        forward = 0
        total = 0
        for seed in range(25):
            rng = np.random.default_rng(seed)
            pts = roadmap.sample_nodes(tunnel, 12, rng, forward_bias=1.0)
            forward += int(np.sum(pts[1:, 0] > tunnel.rig.position[0]))
            total += 11
        frac = forward / total
        assert 0.38 < frac < 0.62

    def test_two_nodes_on_empty_map(self):
        env = empty_env()
        pts = roadmap.sample_nodes(env, 2, np.random.default_rng(3))
        assert pts.shape == (2, 3)

    def test_blocked_map_exhausts(self):
        env = mapenv.EnvironmentMap(
            bounds_min=[0.0, 0.0, -2.0],
            bounds_max=[4.0, 4.0, 0.0],
            obstacles=[mapenv.BoxObstacle([-1.0, -1.0, -3.0], [5.0, 5.0, 1.0])],
            rig=mapenv.UgvRig(position=[1.0, 1.0, 0.0]),
        )
        with pytest.raises(SamplingExhaustedError):
            roadmap.sample_nodes(env, 3, np.random.default_rng(5))

    def test_deterministic_per_seed(self, tunnel):
        a = roadmap.sample_nodes(tunnel, 12, np.random.default_rng(9))
        b = roadmap.sample_nodes(tunnel, 12, np.random.default_rng(9))
        assert np.array_equal(a, b)
        c = roadmap.sample_nodes(tunnel, 12, np.random.default_rng(10))
        assert not np.array_equal(a, c)


# ---------------------------------------------------------------------------
# k-NN connection


class TestConnectKnn:
    def test_three_collinear_nodes_triangle(self):
        env = empty_env()
        nodes = np.array([[1.0, 0.0, -1.0], [2.0, 0.0, -1.0], [3.0, 0.0, -1.0]])
        g = roadmap.connect_knn(nodes, 2, env)
        pairs = sorted((e.i, e.j) for e in g.edges)
        assert pairs == [(0, 1), (0, 2), (1, 2)]

    def test_two_nodes_single_edge(self):
        env = empty_env()
        nodes = np.array([[0.0, 0.0, -1.0], [3.0, 4.0, -1.0]])
        g = roadmap.connect_knn(nodes, 1, env)
        assert len(g.edges) == 1
        assert g.edges[0].length == pytest.approx(5.0, abs=1e-12)

    def test_k_clamped_to_available(self):
        env = empty_env()
        nodes = np.array([[0.0, 0.0, -1.0], [1.0, 0.0, -1.0], [0.0, 1.0, -1.0]])
        g = roadmap.connect_knn(nodes, 10, env)
        assert len(g.edges) == 3

    def test_no_self_loops_or_duplicates(self, tunnel):
        nodes = roadmap.sample_nodes(tunnel, 12, np.random.default_rng(13))
        g = roadmap.connect_knn(nodes, 5, tunnel)
        pairs = [(e.i, e.j) for e in g.edges]
        assert len(pairs) == len(set(pairs))
        for i, j in pairs:
            assert i < j

    def test_edges_collision_free_and_connected(self, tunnel):
        for seed in (17, 18, 19, 20):
            nodes = roadmap.sample_nodes(tunnel, 12, np.random.default_rng(seed))
            g = roadmap.connect_knn(nodes, 5, tunnel)
            assert connected_oracle(g)
            for e in g.edges:
                assert tunnel.segment_is_free(g.nodes[e.i], g.nodes[e.j])
                want = float(np.linalg.norm(g.nodes[e.i] - g.nodes[e.j]))
                assert e.length == pytest.approx(want, rel=1e-12)

    def test_bridges_distant_clusters(self):
        env = empty_env()
        nodes = np.array(
            [
                [-15.0, 0.0, -2.0],
                [-14.0, 0.0, -2.0],
                [15.0, 0.0, -2.0],
                [14.0, 0.0, -2.0],
            ]
        )
        g = roadmap.connect_knn(nodes, 1, env)
        assert connected_oracle(g)
        # two in-cluster edges plus exactly one bridge
        assert len(g.edges) == 3

    def test_unbridgeable_raises(self):
        wall = mapenv.BoxObstacle([4.0, -6.0, -9.0], [6.0, 6.0, 1.0])
        env = mapenv.EnvironmentMap(
            bounds_min=[0.0, -5.0, -8.0],
            bounds_max=[10.0, 5.0, 0.0],
            obstacles=[wall],
        )
        nodes = np.array(
            [
                [1.0, 0.0, -2.0],
                [2.0, 0.0, -2.0],
                [8.0, 0.0, -2.0],
                [9.0, 0.0, -2.0],
            ]
        )
        with pytest.raises(DisconnectedGraphError):
            roadmap.connect_knn(nodes, 1, env)

    def test_order_independent_up_to_relabeling(self, tunnel):
        nodes = roadmap.sample_nodes(tunnel, 10, np.random.default_rng(29))
        g1 = roadmap.connect_knn(nodes, 4, tunnel)
        perm = np.array([3, 1, 4, 0, 2, 9, 8, 7, 6, 5])
        inv = np.argsort(perm)
        g2 = roadmap.connect_knn(nodes[perm], 4, tunnel)
        set1 = {tuple(sorted((e.i, e.j))) for e in g1.edges}
        set2 = {tuple(sorted((inv[e.i], inv[e.j]))) for e in g2.edges}
        assert set1 == set2


def connected_by_repeated_search(nodes, k, env):
    """connect_knn's rule written out plainly: each node wired to its k
    nearest where the segment is free; then, while two or more components
    remain, every pair across two components searched again, shortest first
    (ties by node pair), and the first free one added.  Returns the edges as
    (i, j, length), or raises connect_knn's DisconnectedGraphError."""
    n = len(nodes)
    dist = np.linalg.norm(nodes[:, None, :] - nodes[None, :, :], axis=2)
    pairs = set()
    for i in range(n):
        near = [int(j) for j in np.argsort(dist[i]) if j != i][:k]
        pairs |= {(min(i, j), max(i, j)) for j in near}
    edges = [(i, j) for i, j in sorted(pairs) if env.segment_is_free(nodes[i], nodes[j])]
    while True:
        label = list(range(n))
        changed = True
        while changed:
            changed = False
            for i, j in edges:
                low = min(label[i], label[j])
                if label[i] != low or label[j] != low:
                    label[i] = label[j] = low
                    changed = True
        if len(set(label)) <= 1:
            return [(i, j, float(dist[i, j])) for i, j in edges]
        cross = sorted((dist[i, j], i, j) for i in range(n) for j in range(i + 1, n)
                       if label[i] != label[j])
        bridge = next(((i, j) for _, i, j in cross
                       if env.segment_is_free(nodes[i], nodes[j])), None)
        if bridge is None:
            raise DisconnectedGraphError(
                f"{len(set(label))} roadmap components cannot be bridged collision-free")
        edges.append(bridge)


@st.composite
def box_maps(draw):
    """A 20 x 8 x 6 m map with up to four boxes, each a random box or a wall
    across the tunnel that may leave a gap below its ceiling, 2-12 free nodes
    in it and a k of 1-4."""
    corner = st.tuples(st.floats(-12.0, 10.0), st.floats(-6.0, 4.0), st.floats(-6.0, -0.5))
    size = st.tuples(st.floats(0.2, 4.0), st.floats(0.2, 6.0), st.floats(0.2, 4.0))
    box = st.builds(lambda lo, extent: (lo, np.add(lo, extent)), corner, size)
    wall = st.builds(lambda n, width, top: ((n, -5.0, -7.0), (n + width, 5.0, top)),
                     st.floats(-9.0, 8.0), st.floats(0.2, 2.0), st.floats(-4.0, 1.0))
    boxes = [mapenv.BoxObstacle(lo, hi) for lo, hi in draw(st.lists(box | wall, max_size=4))]
    env = mapenv.EnvironmentMap(bounds_min=[-10.0, -4.0, -6.0], bounds_max=[10.0, 4.0, 0.0],
                                obstacles=boxes)
    point = st.tuples(st.floats(-10.0, 10.0), st.floats(-4.0, 4.0), st.floats(-6.0, 0.0))
    nodes = [p for p in draw(st.lists(point, min_size=2, max_size=12)) if env.is_free(p)]
    assume(len(nodes) >= 2)
    return env, np.array(nodes), draw(st.integers(1, 4))


def outcome(connect):
    """connect()'s edges, or the message of its DisconnectedGraphError."""
    try:
        return connect()
    except DisconnectedGraphError as exc:
        return str(exc)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(case=box_maps())
def test_connect_knn_follows_the_repeated_search(case):
    """Bridging in one pass over the sorted pairs adds the edges, in order,
    that searching every cross pair again after each bridge adds, and gives
    up with the same count of components."""
    env, nodes, k = case

    def knn():
        return [(e.i, e.j, e.length) for e in roadmap.connect_knn(nodes, k, env).edges]

    assert outcome(knn) == outcome(lambda: connected_by_repeated_search(nodes, k, env))


# ---------------------------------------------------------------------------
# Eulerization


def build_path_graph(blocked=False):
    """A - B - C path; odd degree at A and C.  Optionally wall off A..C."""
    obstacles = []
    if blocked:
        # wall between A and C but leaving the dog-leg through B clear
        obstacles.append(mapenv.BoxObstacle([4.0, -5.3, -5.0], [6.0, 1.0, 0.0]))
    env = mapenv.EnvironmentMap(
        bounds_min=[0.0, -5.0, -8.0],
        bounds_max=[10.0, 5.0, 0.0],
        obstacles=obstacles,
    )
    nodes = np.array([[1.0, -3.0, -2.0], [5.0, 4.0, -2.0], [9.0, -3.0, -2.0]])
    edges = [
        roadmap.Edge(0, 1, float(np.linalg.norm(nodes[0] - nodes[1]))),
        roadmap.Edge(1, 2, float(np.linalg.norm(nodes[1] - nodes[2]))),
    ]
    return env, roadmap.RoadmapGraph(nodes=nodes, edges=edges, source=0)


class TestEulerize:
    def test_even_graph_unchanged(self):
        env = empty_env()
        nodes = np.array([[1.0, 0.0, -1.0], [2.0, 1.0, -1.0], [3.0, 0.0, -1.0]])
        edges = [
            roadmap.Edge(0, 1, 2.0),
            roadmap.Edge(1, 2, 2.0),
            roadmap.Edge(0, 2, 2.0),
        ]
        g = roadmap.RoadmapGraph(nodes=nodes, edges=edges)
        out = roadmap.eulerize(g, env)
        assert [(e.i, e.j, e.multiplicity) for e in out.edges] == [
            (0, 1, 1),
            (1, 2, 1),
            (0, 2, 1),
        ]

    def test_path_gets_direct_shortcut(self):
        env, g = build_path_graph(blocked=False)
        out = roadmap.eulerize(g, env)
        pairs = {(e.i, e.j): e for e in out.edges}
        assert (0, 2) in pairs
        assert pairs[(0, 2)].length == pytest.approx(
            float(np.linalg.norm(g.nodes[0] - g.nodes[2]))
        )
        assert all(d % 2 == 0 for d in out.degrees())

    def test_blocked_path_doubles_edges(self):
        env, g = build_path_graph(blocked=True)
        assert not env.segment_is_free(g.nodes[0], g.nodes[2])
        out = roadmap.eulerize(g, env)
        pairs = {(e.i, e.j): e.multiplicity for e in out.edges}
        assert pairs == {(0, 1): 2, (1, 2): 2}

    def test_detour_cost_matches_dijkstra_oracle(self):
        env, g = build_path_graph(blocked=True)
        want = shortest_path_oracle(g, 0, 2)
        out = roadmap.eulerize(g, env)
        added = out.total_length() - g.total_length()
        assert added == pytest.approx(want)

    def test_random_roadmaps_become_eulerian(self, tunnel):
        for seed in range(40, 52):
            nodes = roadmap.sample_nodes(tunnel, 12, np.random.default_rng(seed))
            g = roadmap.connect_knn(nodes, 5, tunnel)
            out = roadmap.eulerize(g, tunnel)
            assert all(d % 2 == 0 for d in out.degrees())
            assert connected_oracle(out)
            assert out.total_length() >= g.total_length() - 1e-9
            assert len(out.nodes) == len(g.nodes)
            before = {(e.i, e.j) for e in g.edges}
            for e in out.edges:
                if (e.i, e.j) not in before:
                    assert tunnel.segment_is_free(out.nodes[e.i], out.nodes[e.j])

    def test_input_not_mutated(self):
        env, g = build_path_graph(blocked=False)
        mults = [e.multiplicity for e in g.edges]
        count = len(g.edges)
        roadmap.eulerize(g, env)
        assert [e.multiplicity for e in g.edges] == mults
        assert len(g.edges) == count


@st.composite
def connected_graphs(draw):
    """A connected graph of 2-8 nodes inside empty_env's bounds: a random
    spanning tree, random further edges and multiplicities 1-3, node 0 the
    source."""
    n = draw(st.integers(2, 8))
    corner = st.tuples(st.floats(-19.0, 19.0), st.floats(-4.5, 4.5), st.floats(-7.5, -0.5))
    nodes = np.array(draw(st.lists(corner, min_size=n, max_size=n)))
    pairs = {(draw(st.integers(0, v - 1)), v) for v in range(1, n)}
    pairs |= set(draw(st.lists(st.sampled_from(list(itertools.combinations(range(n), 2))),
                               max_size=2 * n)))
    edges = [roadmap.Edge(i, j, float(np.linalg.norm(nodes[i] - nodes[j])),
                          draw(st.integers(1, 3)))
             for i, j in sorted(pairs)]
    return roadmap.RoadmapGraph(nodes=nodes, edges=edges)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(g=connected_graphs())
def test_eulerize_evens_degrees_and_keeps_the_graph(g):
    out = roadmap.eulerize(g, empty_env())
    assert all(d % 2 == 0 for d in out.degrees())
    assert np.array_equal(out.nodes, g.nodes) and out.source == g.source
    assert len(out.edges) >= len(g.edges)
    for e, kept in zip(g.edges, out.edges):
        assert (kept.i, kept.j, kept.length) == (e.i, e.j, e.length)
        assert kept.multiplicity >= e.multiplicity


# ---------------------------------------------------------------------------
# degrees and serialization


class TestGraphBasics:
    def test_degrees_count_multiplicity(self):
        nodes = np.zeros((3, 3))
        nodes[1, 0] = 1.0
        nodes[2, 0] = 2.0
        edges = [roadmap.Edge(0, 1, 1.0, multiplicity=2), roadmap.Edge(1, 2, 1.0)]
        g = roadmap.RoadmapGraph(nodes=nodes, edges=edges)
        assert g.degrees().tolist() == [2, 3, 1]

    def test_total_length_counts_multiplicity(self):
        nodes = np.zeros((2, 3))
        nodes[1, 0] = 3.0
        g = roadmap.RoadmapGraph(
            nodes=nodes, edges=[roadmap.Edge(0, 1, 3.0, multiplicity=2)]
        )
        assert g.total_length() == pytest.approx(6.0)
        assert g.edge_instance_count() == 2

    def test_roundtrip_json(self, tunnel):
        nodes = roadmap.sample_nodes(tunnel, 8, np.random.default_rng(61))
        g = roadmap.eulerize(roadmap.connect_knn(nodes, 4, tunnel), tunnel)
        text = json.dumps(roadmap.graph_to_dict(g))
        back = roadmap.graph_from_dict(json.loads(text))
        assert np.array_equal(back.nodes, g.nodes)
        assert back.source == g.source
        assert [(e.i, e.j, e.length, e.multiplicity) for e in back.edges] == [
            (e.i, e.j, e.length, e.multiplicity) for e in g.edges
        ]
