"""Tests for randomized Eulerian coverage circuits."""

import json
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from test_roadmap import connected_graphs, empty_env
from tunnelplan import circuits, mapenv, planner, roadmap
from tunnelplan.errors import NotEulerianError


def verify_circuit(c, graph):
    """Independent coverage check: every edge instance used exactly once,
    consecutive nodes joined by the claimed edge, closed at the source."""
    if not c.edge_refs:
        assert c.nodes == [graph.source]
        assert graph.edge_instance_count() == 0
        return
    assert c.nodes[0] == graph.source
    assert c.nodes[-1] == graph.source
    assert len(c.edge_refs) == len(c.nodes) - 1
    used = Counter()
    for (u, v), (e_idx, copy) in zip(zip(c.nodes, c.nodes[1:]), c.edge_refs):
        e = graph.edges[e_idx]
        assert {u, v} == {e.i, e.j}
        assert 0 <= copy < e.multiplicity
        used[(e_idx, copy)] += 1
    assert max(used.values()) == 1
    assert len(used) == graph.edge_instance_count()
    want_len = sum(graph.edges[e].length for e, _ in c.edge_refs)
    assert c.length == pytest.approx(want_len, rel=1e-12)


def random_eulerian_graph(seed):
    """Spanning tree plus random chords and multiplicities, then Eulerized."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(4, 13))
    nodes = rng.uniform([-18.0, -4.0, -7.0], [18.0, 4.0, -1.0], size=(n, 3))
    edges = []
    pairs = set()
    for j in range(1, n):
        i = int(rng.integers(0, j))
        pairs.add((i, j))
    extra = int(rng.integers(0, n))
    for _ in range(extra):
        i, j = sorted(rng.choice(n, size=2, replace=False).tolist())
        pairs.add((int(i), int(j)))
    for i, j in sorted(pairs):
        mult = int(rng.integers(1, 4))
        length = float(np.linalg.norm(nodes[i] - nodes[j]))
        edges.append(roadmap.Edge(i, j, length, mult))
    g = roadmap.RoadmapGraph(nodes=nodes, edges=edges, source=0)
    env = mapenv.EnvironmentMap(bounds_min=[-20.0, -5.0, -8.0], bounds_max=[20.0, 5.0, 0.0])
    return roadmap.eulerize(g, env)


def triangle_graph():
    nodes = np.array([[0.0, 0.0, -1.0], [3.0, 0.0, -1.0], [0.0, 4.0, -1.0]])
    edges = [
        roadmap.Edge(0, 1, 3.0),
        roadmap.Edge(1, 2, 5.0),
        roadmap.Edge(0, 2, 4.0),
    ]
    return roadmap.RoadmapGraph(nodes=nodes, edges=edges, source=0)


class TestSingleCircuit:
    def test_triangle(self):
        g = triangle_graph()
        c = circuits.random_euler_circuit(g, np.random.default_rng(1))
        verify_circuit(c, g)
        assert c.length == pytest.approx(12.0)
        assert c.flight_time == pytest.approx(24.0)

    def test_doubled_edge_out_and_back(self):
        nodes = np.array([[0.0, 0.0, -1.0], [6.0, 0.0, -1.0]])
        g = roadmap.RoadmapGraph(
            nodes=nodes, edges=[roadmap.Edge(0, 1, 6.0, multiplicity=2)], source=0
        )
        c = circuits.random_euler_circuit(g, np.random.default_rng(2))
        verify_circuit(c, g)
        assert c.nodes == [0, 1, 0]
        assert c.length == pytest.approx(12.0)

    def test_trivial_single_node(self):
        g = roadmap.RoadmapGraph(nodes=np.zeros((1, 3)), edges=[], source=0)
        c = circuits.random_euler_circuit(g, np.random.default_rng(3))
        verify_circuit(c, g)
        assert c.length == 0.0
        assert c.flight_time == 0.0

    def test_odd_degree_rejected(self):
        nodes = np.zeros((2, 3))
        nodes[1, 0] = 1.0
        g = roadmap.RoadmapGraph(nodes=nodes, edges=[roadmap.Edge(0, 1, 1.0)])
        with pytest.raises(NotEulerianError):
            circuits.random_euler_circuit(g, np.random.default_rng(4))

    def test_disconnected_rejected(self):
        # two disjoint triangles: every degree even, still not traversable
        nodes = np.zeros((6, 3))
        nodes[:, 0] = np.arange(6.0)
        edges = [
            roadmap.Edge(0, 1, 1.0),
            roadmap.Edge(1, 2, 1.0),
            roadmap.Edge(0, 2, 2.0),
            roadmap.Edge(3, 4, 1.0),
            roadmap.Edge(4, 5, 1.0),
            roadmap.Edge(3, 5, 2.0),
        ]
        g = roadmap.RoadmapGraph(nodes=nodes, edges=edges)
        with pytest.raises(NotEulerianError):
            circuits.random_euler_circuit(g, np.random.default_rng(5))

    def test_random_graphs_all_verified(self):
        for seed in range(200):
            g = random_eulerian_graph(seed)
            c = circuits.random_euler_circuit(g, np.random.default_rng(1000 + seed))
            verify_circuit(c, g)


class TestCandidates:
    def test_count_and_run_order(self):
        g = random_eulerian_graph(7)
        cands = circuits.generate_candidates(g, 15, np.random.default_rng(8))
        assert len(cands) == 15
        assert [c.run for c in cands] == list(range(15))
        for c in cands:
            verify_circuit(c, g)

    def test_cost_equivalence(self):
        g = random_eulerian_graph(9)
        cands = circuits.generate_candidates(g, 40, np.random.default_rng(10))
        lengths = [c.length for c in cands]
        assert max(lengths) - min(lengths) < 1e-9

    def test_deterministic_per_seed(self):
        g = random_eulerian_graph(11)
        a = circuits.generate_candidates(g, 10, np.random.default_rng(12))
        b = circuits.generate_candidates(g, 10, np.random.default_rng(12))
        assert [c.nodes for c in a] == [c.nodes for c in b]
        assert [c.edge_refs for c in a] == [c.edge_refs for c in b]

    def test_seeds_vary_traversals(self):
        g = random_eulerian_graph(13)
        cands = circuits.generate_candidates(g, 20, np.random.default_rng(14))
        distinct = {tuple(c.nodes) for c in cands}
        assert len(distinct) > 1

    def test_duplicate_flagging(self):
        g = triangle_graph()
        cands = circuits.generate_candidates(g, 12, np.random.default_rng(15))
        # only two distinct circuits exist on a triangle, so repeats must occur
        seen = set()
        for c in cands:
            key = tuple(c.nodes)
            assert c.duplicate == (key in seen)
            seen.add(key)
        assert sum(c.duplicate for c in cands) >= 10

    def test_zero_candidates(self):
        g = triangle_graph()
        assert circuits.generate_candidates(g, 0, np.random.default_rng(16)) == []


class TestFlightTime:
    def test_out_and_back_flight_time(self):
        nodes = np.zeros((2, 3))
        nodes[1, 0] = 39.675
        g = roadmap.RoadmapGraph(
            nodes=nodes, edges=[roadmap.Edge(0, 1, 39.675, multiplicity=2)]
        )
        c = circuits.random_euler_circuit(g, np.random.default_rng(17))
        assert c.length == pytest.approx(79.35)
        assert c.flight_time == pytest.approx(158.7)

    def test_custom_cruise_speed(self):
        g = triangle_graph()
        c = circuits.random_euler_circuit(g, np.random.default_rng(19), cruise=2.0)
        assert c.flight_time == pytest.approx(6.0)


class TestSerialization:
    def test_roundtrip(self):
        g = random_eulerian_graph(21)
        cands = circuits.generate_candidates(g, 6, np.random.default_rng(22))
        text = json.dumps(circuits.circuits_to_list(cands))
        back = circuits.circuits_from_list(json.loads(text))
        assert len(back) == len(cands)
        for x, y in zip(back, cands):
            assert x.run == y.run
            assert x.nodes == y.nodes
            assert x.edge_refs == y.edge_refs
            assert x.length == y.length
            assert x.flight_time == y.flight_time
            assert x.duplicate == y.duplicate


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(g=connected_graphs(), seed=st.integers(0, 2**32 - 1))
def test_every_random_circuit_covers_each_edge_instance_once(g, seed):
    graph = roadmap.eulerize(g, empty_env())
    c = circuits.random_euler_circuit(graph, np.random.default_rng(seed))
    verify_circuit(c, graph)
    assert sorted(c.edge_refs) == [(k, copy) for k, e in enumerate(graph.edges)
                                   for copy in range(e.multiplicity)]
    planner._validate_circuit(c, graph)
