"""Probabilistic roadmap over the tunnel: sampling, k-NN wiring, Eulerization.

Node 0 is always the UAV deployment point next to the UGV; it doubles as the
source every coverage circuit starts and ends at.
"""

from __future__ import annotations

import heapq
import json
import math
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .errors import DisconnectedGraphError, MapFormatError, SamplingExhaustedError
from .mapenv import EnvironmentMap

DEFAULT_FORWARD_BIAS = 3.0
DEFAULT_SAMPLING_BUDGET = 10_000
# deployment offset from the UGV base: one meter ahead, half a meter up
DEPLOYMENT_OFFSET = np.array([1.0, 0.0, -0.5])


@dataclass
class Edge:
    """Undirected roadmap edge; multiplicity counts parallel traversals."""

    i: int
    j: int
    length: float
    multiplicity: int = 1


@dataclass
class RoadmapGraph:
    """Node positions (N, 3), unique undirected edges, and the source index."""

    nodes: np.ndarray
    edges: list[Edge] = field(default_factory=list)
    source: int = 0

    def __post_init__(self):
        self.nodes = np.asarray(self.nodes, dtype=float).reshape(-1, 3)

    def degrees(self) -> np.ndarray:
        deg = np.zeros(len(self.nodes), dtype=int)
        for e in self.edges:
            deg[e.i] += e.multiplicity
            deg[e.j] += e.multiplicity
        return deg

    def adjacency(self) -> dict[int, list[tuple[int, int]]]:
        """node -> [(neighbor, edge index), ...], multiplicity collapsed."""
        adj: dict[int, list[tuple[int, int]]] = {i: [] for i in range(len(self.nodes))}
        for k, e in enumerate(self.edges):
            adj[e.i].append((e.j, k))
            adj[e.j].append((e.i, k))
        return adj

    def total_length(self) -> float:
        return float(sum(e.length * e.multiplicity for e in self.edges))

    def edge_instance_count(self) -> int:
        return sum(e.multiplicity for e in self.edges)

    def is_connected(self) -> bool:
        n = len(self.nodes)
        if n == 0:
            return True
        adj = self.adjacency()
        seen = {0}
        stack = [0]
        while stack:
            u = stack.pop()
            for v, _ in adj[u]:
                if v not in seen:
                    seen.add(v)
                    stack.append(v)
        return len(seen) == n


def deployment_point(env: EnvironmentMap) -> np.ndarray:
    """UAV takeoff point next to the UGV base."""
    return env.rig.position + DEPLOYMENT_OFFSET


def sample_nodes(
    env: EnvironmentMap,
    count: int,
    rng: np.random.Generator,
    forward_bias: float = DEFAULT_FORWARD_BIAS,
) -> np.ndarray:
    """Rejection-sample `count` collision-free points, deployment point first.

    Points behind the UGV (n below the rig) are accepted with probability
    1/forward_bias, which skews coverage toward the sensor-rich forward half.
    """
    if count < 1:
        raise ValueError("need at least one node")
    dep = deployment_point(env)
    if not env.is_free(dep):
        raise SamplingExhaustedError(
            f"deployment point {dep} is not collision-free on this map"
        )
    points = [dep]
    pivot_n = env.rig.position[0]
    attempts = 0
    while len(points) < count:
        if attempts >= DEFAULT_SAMPLING_BUDGET:
            raise SamplingExhaustedError(
                f"placed {len(points)}/{count} nodes in {DEFAULT_SAMPLING_BUDGET} attempts"
            )
        attempts += 1
        p = rng.uniform(env.bounds_min, env.bounds_max)
        if p[0] <= pivot_n and rng.random() >= 1.0 / forward_bias:
            continue
        if env.is_free(p):
            points.append(p)
    return np.stack(points)


def connect_knn(nodes: np.ndarray, k: int, env: EnvironmentMap) -> RoadmapGraph:
    """Wire each node to its k nearest neighbors where the segment is free,
    then bridge any remaining components with the shortest free cross edge.

    Raises DisconnectedGraphError when no collision-free bridge exists.
    """
    nodes = np.asarray(nodes, dtype=float).reshape(-1, 3)
    n = len(nodes)
    diff = nodes[:, None, :] - nodes[None, :, :]
    dist = np.linalg.norm(diff, axis=2)

    pairs = set()
    for i in range(n):
        order = np.argsort(dist[i])
        picked = 0
        for j in order:
            if j == i:
                continue
            if picked >= k:
                break
            pairs.add((min(i, int(j)), max(i, int(j))))
            picked += 1

    edges = []
    for i, j in sorted(pairs):
        if env.segment_is_free(nodes[i], nodes[j]):
            edges.append(Edge(i, j, float(dist[i, j])))

    graph = RoadmapGraph(nodes=nodes, edges=edges)
    _bridge_components(graph, dist, env)
    return graph


def _bridge_components(graph: RoadmapGraph, dist: np.ndarray, env: EnvironmentMap):
    """Union components by repeatedly adding the closest free cross edge."""
    n = len(graph.nodes)
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for e in graph.edges:
        parent[find(e.i)] = find(e.j)

    while True:
        roots = {find(i) for i in range(n)}
        if len(roots) <= 1:
            return
        cross = [
            (dist[i, j], i, j)
            for i in range(n)
            for j in range(i + 1, n)
            if find(i) != find(j)
        ]
        cross.sort()
        for d, i, j in cross:
            if env.segment_is_free(graph.nodes[i], graph.nodes[j]):
                graph.edges.append(Edge(i, j, float(d)))
                parent[find(i)] = find(j)
                break
        else:
            raise DisconnectedGraphError(
                f"{len(roots)} roadmap components cannot be bridged collision-free"
            )


def _shortest_path(graph: RoadmapGraph, a: int, b: int) -> tuple[float, list[int]]:
    """Dijkstra over unique edges; returns (length, edge index path)."""
    adj: dict[int, list[tuple[int, float, int]]] = {}
    for k, e in enumerate(graph.edges):
        adj.setdefault(e.i, []).append((e.j, e.length, k))
        adj.setdefault(e.j, []).append((e.i, e.length, k))
    best = {a: 0.0}
    back: dict[int, tuple[int, int]] = {}
    heap = [(0.0, a)]
    while heap:
        d, u = heapq.heappop(heap)
        if u == b:
            break
        if d > best.get(u, math.inf):
            continue
        for v, w, k in adj.get(u, []):
            nd = d + w
            if nd < best.get(v, math.inf):
                best[v] = nd
                back[v] = (u, k)
                heapq.heappush(heap, (nd, v))
    if b not in best:
        raise DisconnectedGraphError(f"no path between nodes {a} and {b}")
    path = []
    u = b
    while u != a:
        u, k = back[u]
        path.append(k)
    path.reverse()
    return best[b], path


def eulerize(graph: RoadmapGraph, env: EnvironmentMap) -> RoadmapGraph:
    """Return a copy with every node degree even.

    Odd-degree nodes are paired greedily by minimum added length.  A pair gets
    a new direct edge when the two nodes are not yet adjacent and the segment
    is free; otherwise the multiplicities along their shortest path are bumped.
    """
    out = RoadmapGraph(
        nodes=graph.nodes.copy(),
        edges=[replace(e) for e in graph.edges],
        source=graph.source,
    )
    odd = [int(i) for i, d in enumerate(out.degrees()) if d % 2 == 1]
    if not odd:
        return out

    adjacent = {(e.i, e.j) for e in out.edges}
    plans = {}
    for a, b in ((a, b) for idx, a in enumerate(odd) for b in odd[idx + 1 :]):
        direct_ok = (a, b) not in adjacent and env.segment_is_free(
            out.nodes[a], out.nodes[b]
        )
        if direct_ok:
            cost = float(np.linalg.norm(out.nodes[a] - out.nodes[b]))
            plans[(a, b)] = (cost, None)
        else:
            cost, path = _shortest_path(out, a, b)
            plans[(a, b)] = (cost, path)

    remaining = set(odd)
    while remaining:
        cost, a, b = min(
            (plans[(a, b)][0], a, b)
            for a in remaining
            for b in remaining
            if a < b and (a, b) in plans
        )
        path = plans[(a, b)][1]
        if path is None:
            out.edges.append(Edge(a, b, cost))
        else:
            for k in path:
                out.edges[k].multiplicity += 1
        remaining.discard(a)
        remaining.discard(b)
    return out


def degree_profile(graph: RoadmapGraph) -> list[tuple[int, int]]:
    """(node, degree) pairs in node order, multiplicities included."""
    return [(i, int(d)) for i, d in enumerate(graph.degrees())]


# ---------------------------------------------------------------------------
# serialization


def graph_to_dict(graph: RoadmapGraph) -> dict:
    return {
        "nodes": [[float(c) for c in p] for p in graph.nodes],
        "edges": [[e.i, e.j, e.length, e.multiplicity] for e in graph.edges],
        "source": graph.source,
    }


def graph_from_dict(data: dict) -> RoadmapGraph:
    try:
        nodes = np.asarray(data["nodes"], dtype=float).reshape(-1, 3)
        edges = [
            Edge(int(i), int(j), float(length), int(mult))
            for i, j, length, mult in data["edges"]
        ]
        source = int(data.get("source", 0))
    except (KeyError, TypeError, ValueError) as exc:
        raise MapFormatError(f"malformed graph data: {exc}") from exc
    for e in edges:
        if not (0 <= e.i < len(nodes) and 0 <= e.j < len(nodes)):
            raise MapFormatError(
                f"malformed graph data: edge ({e.i}, {e.j}) joins a node outside "
                f"the {len(nodes)} listed")
    return RoadmapGraph(nodes=nodes, edges=edges, source=source)


def save_graph(graph: RoadmapGraph, path):
    Path(path).write_text(json.dumps(graph_to_dict(graph), indent=1, sort_keys=True))


def load_graph(path) -> RoadmapGraph:
    try:
        data = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise MapFormatError(f"cannot read graph file {path}: {exc}") from exc
    return graph_from_dict(data)
