"""Static max-flow reference used to cross-check the streaming engine.

The reference is a shortest-augmenting-path solver over aggregate capacities
(parallel edges summed per ordered pair, self-loops ignored). It is
deterministic and polynomial, and runs on frozen snapshots only; it is not
built for speed.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Dict, Set, Tuple

__all__ = ["StaticGraph", "max_flow_reference", "throughflow_vertices"]

Pair = Tuple[int, int]


@dataclass
class StaticGraph:
    """Frozen snapshot: aggregate capacity per ordered vertex pair."""

    caps: Dict[Pair, int] = field(default_factory=dict)
    vertices: Set[int] = field(default_factory=set)


def max_flow_reference(g: StaticGraph, s: int, t: int) -> Tuple[int, Dict[Pair, int]]:
    """Exact max-flow value from s to t plus one witnessing flow assignment.

    Augments along shortest residual paths (breadth-first), which terminates
    in polynomial time on integer capacities and is deterministic for a given
    snapshot. The returned mapping contains only pairs with positive flow.
    """
    if s == t:
        raise ValueError("source and sink must differ")
    caps: Dict[Pair, int] = {}
    adj: Dict[int, list] = {}
    for (u, v), c in g.caps.items():
        if u == v or c <= 0:
            continue
        caps[(u, v)] = caps.get((u, v), 0) + c
        adj.setdefault(u, []).append(v)
        adj.setdefault(v, []).append(u)  # residual back-arcs
    for u in adj:
        adj[u] = sorted(set(adj[u]))

    residual = dict(caps)
    value = 0
    while True:
        # BFS for a shortest augmenting path in the residual graph.
        parent = {s: s}
        q = deque([s])
        while q and t not in parent:
            u = q.popleft()
            for v in adj.get(u, ()):
                if v not in parent and residual.get((u, v), 0) > 0:
                    parent[v] = u
                    q.append(v)
        if t not in parent:
            break
        bottleneck = None
        v = t
        while v != s:
            u = parent[v]
            r = residual[(u, v)]
            bottleneck = r if bottleneck is None or r < bottleneck else bottleneck
            v = u
        v = t
        while v != s:
            u = parent[v]
            residual[(u, v)] -= bottleneck
            residual[(v, u)] = residual.get((v, u), 0) + bottleneck
            v = u
        value += bottleneck

    flow: Dict[Pair, int] = {}
    for pair, c in caps.items():
        f = c - residual.get(pair, 0)
        if f > 0:
            flow[pair] = f
    return value, flow


def throughflow_vertices(flow: Dict[Pair, int]) -> Set[int]:
    """Vertices involved in the flow: both endpoints of every pair carrying
    positive flow. Empty for a zero flow."""
    involved: Set[int] = set()
    for (u, v), f in flow.items():
        if f > 0:
            involved.add(u)
            involved.add(v)
    return involved
