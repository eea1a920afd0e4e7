"""Shared test utilities: stream generators and independent oracles.

The oracles here are deliberately separate from the engine's code paths:
expected heights come from a shortest-distance search over a frozen residual
snapshot, and tiny unit-capacity flows from exhaustive edge-disjoint path
enumeration.
"""

from __future__ import annotations

import heapq
import random
from collections import defaultdict
from typing import Dict, List, Set, Tuple

from liveflow import TopologyEvent
from liveflow.vertex import INF

Pair = Tuple[int, int]


# -- stream generators ---------------------------------------------------------


def random_add_stream(
    rng: random.Random, max_vertices=40, max_events=200, cap_hi=20
) -> Tuple[int, int, List[TopologyEvent]]:
    n = rng.randint(2, max_vertices)
    m = rng.randint(1, max_events)
    s, t = rng.sample(range(n), 2)
    events = [
        TopologyEvent(i, rng.randrange(n), rng.randrange(n), rng.randint(1, cap_hi))
        for i in range(m)
    ]
    return s, t, events


def random_delete_valid_stream(
    rng: random.Random,
    max_vertices=40,
    max_events=200,
    cap_hi=20,
    min_delete_frac=0.30,
) -> Tuple[int, int, List[TopologyEvent]]:
    """Interleaved adds and deletes, never driving any pair's cumulative
    capacity negative. Includes full-edge removals and occasional vertex
    isolation. Regenerates until the delete fraction is met."""
    while True:
        n = rng.randint(2, max_vertices)
        s, t = rng.sample(range(n), 2)
        caps: Dict[Pair, int] = defaultdict(int)
        events: List[TopologyEvent] = []
        ts = 0
        target = rng.randint(max(8, max_events // 3), max_events)
        while len(events) < target:
            live = [k for k, c in caps.items() if c > 0]
            ts += 1
            roll = rng.random()
            if live and roll < 0.40:
                key = rng.choice(live)
                amt = caps[key] if rng.random() < 0.5 else rng.randint(1, caps[key])
                caps[key] -= amt
                events.append(TopologyEvent(ts, key[0], key[1], -amt))
            elif live and roll < 0.48:
                vid = rng.choice([v for k in live for v in k])
                for key in [k for k in live if vid in k]:
                    if caps[key] > 0:
                        ts += 1
                        events.append(TopologyEvent(ts, key[0], key[1], -caps[key]))
                        caps[key] = 0
            else:
                u, v = rng.randrange(n), rng.randrange(n)
                c = rng.randint(1, cap_hi)
                caps[(u, v)] += c
                events.append(TopologyEvent(ts, u, v, c))
        dels = sum(1 for e in events if e.delta < 0)
        if dels >= min_delete_frac * len(events):
            return s, t, events


def growth_stream(
    rng: random.Random,
    events: int,
    vertices: int,
    cap_hi=5,
    source=0,
    sink=1,
    st_edge_prob=0.02,
) -> List[TopologyEvent]:
    """Add-only growth trace. Most edges land between ordinary vertices;
    a small fraction attach the source or the sink so the flow value stays
    modest while still evolving."""
    out: List[TopologyEvent] = []
    for i in range(events):
        roll = rng.random()
        if roll < st_edge_prob / 2:
            u, v = source, rng.randrange(2, vertices)
        elif roll < st_edge_prob:
            u, v = rng.randrange(2, vertices), sink
        else:
            u = rng.randrange(2, vertices)
            v = rng.randrange(2, vertices)
            if u == v:
                v = (v + 1 - 2) % (vertices - 2) + 2
        out.append(TopologyEvent(i, u, v, rng.randint(1, cap_hi)))
    return out


# -- independent oracles --------------------------------------------------------


def expected_heights(snap, source: int, sink: int, vertices) -> Dict[int, int]:
    """Exact residual distances a global relabel must produce: the shortest
    distance to the sink, relaxing along residual arcs (v -> w gives
    label(v) <= label(w) + 1). The sink is pinned at 0 and the source at
    INF; every vertex that cannot reach the sink is INF too.
    """
    rev = defaultdict(list)
    for (u, w), cf in snap.residual.items():
        if cf > 0:
            rev[w].append(u)
    dist = {sink: 0}
    pq = [(0, sink)]
    while pq:
        d, v = heapq.heappop(pq)
        if dist[v] < d:
            continue
        for u in rev.get(v, ()):
            if u not in (source, sink) and d + 1 < dist.get(u, INF):
                dist[u] = d + 1
                heapq.heappush(pq, (d + 1, u))
    return {v: dist.get(v, INF) for v in vertices}


def brute_force_unit_max_flow(edges: Set[Pair], s: int, t: int) -> int:
    """Maximum number of edge-disjoint s-t paths by exhaustive enumeration.
    Exponential; intended for graphs of at most ~8 vertices."""
    if s == t:
        raise ValueError("source and sink must differ")

    def paths_from(avail: frozenset) -> List[frozenset]:
        found: List[frozenset] = []

        def walk(u: int, used: frozenset):
            if u == t:
                found.append(used)
                return
            for (a, b) in avail:
                if a == u and (a, b) not in used:
                    walk(b, used | {(a, b)})

        walk(s, frozenset())
        return found

    def best(avail: frozenset) -> int:
        record = 0
        for path in paths_from(avail):
            record = max(record, 1 + best(avail - path))
        return record

    return best(frozenset(edges))
