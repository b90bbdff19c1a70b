"""Randomized Eulerian circuits over the Eulerized roadmap.

Every candidate traverses each edge instance exactly once, so all candidates
share the same total length; they differ only in traversal order.  That order
is what the belief propagation stage ranks.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import NotEulerianError
from .roadmap import RoadmapGraph

DEFAULT_CRUISE = 0.5


@dataclass
class Circuit:
    """Closed walk through the graph starting and ending at the source.

    edge_refs holds (edge index, copy index) per hop so parallel copies of a
    multi-edge stay distinguishable.
    """

    nodes: list[int]
    edge_refs: list[tuple[int, int]] = field(default_factory=list)
    length: float = 0.0
    flight_time: float = 0.0
    run: int = 0
    duplicate: bool = False


def random_euler_circuit(
    graph: RoadmapGraph, rng: np.random.Generator, cruise: float = DEFAULT_CRUISE
) -> Circuit:
    """Hierholzer walk with uniformly random choice among unused edge instances.

    Sub-tours found after the first walk are spliced in at the first occurrence
    of their start node.  Raises NotEulerianError on odd degrees or if the
    graph is disconnected.
    """
    degs = graph.degrees()
    odd = np.flatnonzero(degs % 2 == 1)
    if len(odd) > 0:
        raise NotEulerianError(f"odd degree at nodes {odd.tolist()}")
    if not graph.is_connected():
        raise NotEulerianError("graph is not connected")

    # expand multiplicities into distinguishable instances
    incident: list[list[tuple[int, int, int]]] = [[] for _ in graph.nodes]
    for e_idx, e in enumerate(graph.edges):
        for copy in range(e.multiplicity):
            incident[e.i].append((e_idx, copy, e.j))
            incident[e.j].append((e_idx, copy, e.i))
    used: set[tuple[int, int]] = set()

    def walk(start: int) -> tuple[list[int], list[tuple[int, int]]]:
        nodes = [start]
        refs = []
        u = start
        while True:
            options = [inst for inst in incident[u] if (inst[0], inst[1]) not in used]
            if not options:
                return nodes, refs
            e_idx, copy, other = options[int(rng.integers(len(options)))]
            used.add((e_idx, copy))
            refs.append((e_idx, copy))
            nodes.append(other)
            u = other

    trail, trail_refs = walk(graph.source)
    total_instances = graph.edge_instance_count()
    while len(trail_refs) < total_instances:
        for pos, v in enumerate(trail):
            if any((inst[0], inst[1]) not in used for inst in incident[v]):
                sub, sub_refs = walk(v)
                trail = trail[: pos + 1] + sub[1:] + trail[pos + 1 :]
                trail_refs = trail_refs[:pos] + sub_refs + trail_refs[pos:]
                break
        else:
            raise NotEulerianError("stranded edges unreachable from the trail")

    length = float(sum(graph.edges[e].length for e, _ in trail_refs))
    return Circuit(
        nodes=trail,
        edge_refs=trail_refs,
        length=length,
        flight_time=length / cruise,
    )


def generate_candidates(
    graph: RoadmapGraph,
    count: int,
    rng: np.random.Generator,
    cruise: float = DEFAULT_CRUISE,
) -> list[Circuit]:
    """Independent randomized circuits, ordered by run index.

    Each run gets its own derived seed, so runs could be farmed out in
    parallel without changing the result.  Circuits whose node sequence
    repeats an earlier run are flagged as duplicates.
    """
    child_seeds = rng.integers(0, 2**63 - 1, size=count)
    out = []
    seen: set[tuple[int, ...]] = set()
    for run, seed in enumerate(child_seeds):
        c = random_euler_circuit(graph, np.random.default_rng(int(seed)), cruise)
        c.run = run
        key = tuple(c.nodes)
        c.duplicate = key in seen
        seen.add(key)
        out.append(c)
    return out


# ---------------------------------------------------------------------------
# serialization


def circuits_to_list(cands: list[Circuit]) -> list[dict]:
    return [
        {
            "run": c.run,
            "nodes": list(c.nodes),
            "edge_refs": [[e, copy] for e, copy in c.edge_refs],
            "length_m": c.length,
            "flight_time_s": c.flight_time,
            "duplicate": c.duplicate,
        }
        for c in cands
    ]


def circuits_from_list(data: list[dict]) -> list[Circuit]:
    """The circuits of circuits_to_list's data; malformed data raises ValueError."""
    try:
        return [
            Circuit(
                nodes=[int(v) for v in d["nodes"]],
                edge_refs=[(int(e), int(copy)) for e, copy in d["edge_refs"]],
                length=float(d["length_m"]),
                flight_time=float(d["flight_time_s"]),
                run=int(d["run"]),
                duplicate=bool(d["duplicate"]),
            )
            for d in data
        ]
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed circuit list: {exc}") from exc

