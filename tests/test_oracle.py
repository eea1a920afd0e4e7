import random
from collections import defaultdict

import pytest

from helpers import brute_force_unit_max_flow
from liveflow import StreamValidityError, TopologyEvent
from liveflow.oracle import StaticGraph, max_flow_reference, throughflow_vertices
from liveflow.runtime import GraphStore


def graph(*triples):
    g = StaticGraph()
    for u, v, c in triples:
        g.caps[(u, v)] = g.caps.get((u, v), 0) + c
        g.vertices.update((u, v))
    return g


DIAMOND = graph((0, 1, 10), (0, 2, 10), (1, 9, 10), (2, 9, 10), (1, 2, 5))


def test_single_edge():
    value, flow = max_flow_reference(graph((0, 1, 5)), 0, 1)
    assert value == 5
    assert flow == {(0, 1): 5}
    assert throughflow_vertices(flow) == {0, 1}


def test_diamond_value_and_involved():
    value, flow = max_flow_reference(DIAMOND, 0, 9)
    assert value == 20
    assert throughflow_vertices(flow) == {0, 1, 2, 9}


def test_unreachable_sink():
    value, flow = max_flow_reference(graph((0, 1, 5), (2, 3, 5)), 0, 3)
    assert value == 0
    assert flow == {}
    assert throughflow_vertices(flow) == set()


def test_source_equals_sink_rejected():
    with pytest.raises(ValueError):
        max_flow_reference(DIAMOND, 3, 3)


def test_self_loops_ignored():
    value, _ = max_flow_reference(graph((0, 0, 99), (0, 1, 4)), 0, 1)
    assert value == 4


def store_graph(events):
    """The capacity ledger's frozen snapshot after ``events``."""
    store = GraphStore()
    for ev in events:
        store.apply_edge(ev)
        store.note_vertices(ev.src, ev.dst)
    return store.snapshot()


def test_from_events_aggregates_and_validates():
    events = [TopologyEvent(0, 1, 2, 3), TopologyEvent(1, 1, 2, 4), TopologyEvent(2, 1, 2, -5)]
    assert store_graph(events).caps[(1, 2)] == 2
    with pytest.raises(StreamValidityError, match="cumulative capacity would become -1"):
        store_graph([TopologyEvent(0, 1, 2, -1)])


def _check_flow_is_valid(g, s, t, value, flow):
    net = defaultdict(int)
    for (u, v), f in flow.items():
        assert f > 0
        assert f <= g.caps.get((u, v), 0), "capacity constraint"
        net[u] -= f
        net[v] += f
    for vid, balance in net.items():
        if vid == s:
            assert balance == -value
        elif vid == t:
            assert balance == value
        else:
            assert balance == 0, "conservation at normal vertices"


def test_flow_satisfies_constraints_on_random_graphs():
    rng = random.Random(11)
    for _ in range(80):
        n = rng.randint(2, 14)
        s, t = rng.sample(range(n), 2)
        g = graph(
            *[
                (rng.randrange(n), rng.randrange(n), rng.randint(1, 12))
                for _ in range(rng.randint(1, 40))
            ]
        )
        g.vertices.update((s, t))
        value, flow = max_flow_reference(g, s, t)
        _check_flow_is_valid(g, s, t, value, flow)


def test_value_invariant_under_event_permutation():
    rng = random.Random(23)
    events = [
        TopologyEvent(i, rng.randrange(8), rng.randrange(8), rng.randint(1, 6))
        for i in range(30)
    ]
    base, _ = max_flow_reference(store_graph(events), 0, 7)
    for _ in range(10):
        shuffled = events[:]
        rng.shuffle(shuffled)
        value, _ = max_flow_reference(store_graph(shuffled), 0, 7)
        assert value == base


def test_matches_edge_disjoint_path_enumeration_on_unit_graphs():
    rng = random.Random(37)
    for _ in range(40):
        n = rng.randint(2, 7)
        s, t = rng.sample(range(n), 2)
        edges = set()
        for _ in range(rng.randint(1, 11)):
            u, v = rng.randrange(n), rng.randrange(n)
            if u != v:
                edges.add((u, v))
        g = graph(*[(u, v, 1) for u, v in edges])
        g.vertices.update((s, t))
        value, _ = max_flow_reference(g, s, t)
        assert value == brute_force_unit_max_flow(edges, s, t)
