"""Golden replay of the seeded scheduler.

The deterministic engine promises that the same seed and configuration give
the same schedule, the same work counts and the same flow values. These three
fixed streams pin that schedule down exactly: any change to which worker or
channel the scheduler picks, to how the seeded generator is consumed, to how
many scheduler steps run, or to the messages the vertex program
sends shows up as a changed count here. A change that alters the schedule on
purpose must say so and record the new values.

* ``add-only``: 1 worker, growth stream, sparse queries.
* ``window``: 2 workers, sliding window (deletions), frequent queries; this
  one exercises the seeded choice between workers and between channels.
* ``steady``: 1 worker, the regime of many small changes to a large graph:
  a preload of 15 edges per vertex, then batches of 10 events, each event
  the deletion of a whole live pair with probability 0.45, and a query
  after each batch.

Every relabel runs its self-checks, which observe the run without moving
the schedule. Each case runs twice: ``fast`` only queries, ``debug`` also
scans the invariants and checks the flow against the reference at every
query; these outside checks must not move the schedule either. A third
test replays the ``window`` stream under ten seeds:
the seeds must still give different interleavings, and every one of them
the reference flow.
"""

import random

import pytest

from liveflow import (
    EngineConfig,
    SimEngine,
    TopologyEvent,
    max_flow_reference,
    sliding_window_transform,
)


def random_edge(rng, vertices, st_prob):
    """One edge over vertices 0..vertices-1 with source 0 and sink 1;
    with probability ``st_prob`` it leaves the source or enters the sink."""
    roll = rng.random()
    if roll < st_prob / 2:
        return 0, rng.randrange(2, vertices)
    if roll < st_prob:
        return rng.randrange(2, vertices), 1
    return rng.randrange(2, vertices), rng.randrange(2, vertices)


def growth_stream(vertices, adds, seed, st_prob=0.04):
    """Add-only stream of random edges with capacities 1-3."""
    rng = random.Random(seed)
    return [TopologyEvent(i, *random_edge(rng, vertices, st_prob), rng.randint(1, 3))
            for i in range(adds)]


def steady_stream(vertices, batches, batch, seed, del_prob=0.45):
    """A preload of 15 edges per vertex, 1% of them touching the source or
    the sink, then ``batches`` batches of ``batch`` events. Each event
    deletes the whole capacity of a random live pair with probability
    ``del_prob``, else adds an edge drawn as in the preload."""
    events = growth_stream(vertices, 15 * vertices, seed, st_prob=0.01)
    rng = random.Random(seed + 1)
    caps = {}
    for ev in events:
        caps[(ev.src, ev.dst)] = caps.get((ev.src, ev.dst), 0) + ev.delta
    for ts in range(len(events), len(events) + batches * batch):
        if rng.random() < del_prob:
            pair = rng.choice(sorted(caps))
            events.append(TopologyEvent(ts, *pair, -caps.pop(pair)))
        else:
            u, v = random_edge(rng, vertices, 0.01)
            c = rng.randint(1, 3)
            caps[(u, v)] = caps.get((u, v), 0) + c
            events.append(TopologyEvent(ts, u, v, c))
    return events


def replay(events, workers, seed, query_every, debug=False, preload=0):
    """Ingest ``events``, querying before every ``query_every``-th event
    after the first ``preload`` ones, and once at the end."""
    eng = SimEngine(EngineConfig(source=0, sink=1, workers=workers,
                                 deterministic_seed=seed))
    flows = []

    def query(ts=None):
        flows.append(eng.query(ts).flow_value)
        if debug:
            assert eng.scan_invariants() == []
            want, _ = max_flow_reference(eng.store.snapshot(), 0, 1)
            assert flows[-1] == want, f"query {len(flows)}"

    for i, ev in enumerate(events):
        if i >= preload and i and (i - preload) % query_every == 0:
            query(ev.ts)
        eng.ingest(ev)
    query()
    ws = eng.workers
    counts = {
        "msg_sent": sum(w.msg_sent for w in ws),
        "msg_received": sum(w.msg_received for w in ws),
        "topo_received": sum(w.topo_received for w in ws),
        "lifts": sum(w.ctx.lift_count for w in ws),
        "relabel_runs": eng.gr.runs,
        "steps": eng._steps,
    }
    return counts, flows, eng


CASES = {
    "add-only": dict(
        events=lambda: growth_stream(150, 4000, seed=11),
        workers=1, seed=5, query_every=500,
        counts={"msg_sent": 35514, "msg_received": 35514, "topo_received": 4000,
                "lifts": 752, "relabel_runs": 5, "steps": 39514},
        flows=[10, 30, 55, 78, 88, 103, 121, 147],
    ),
    "window": dict(
        events=lambda: list(sliding_window_transform(growth_stream(100, 1200, seed=12), 300)),
        workers=2, seed=9, query_every=100,
        counts={"msg_sent": 15703, "msg_received": 15703, "topo_received": 2099,
                "lifts": 795, "relabel_runs": 26, "steps": 17802},
        flows=[0, 1, 9, 8, 7, 7, 6, 4, 8, 9, 6, 9, 7, 7, 4, 4, 4, 9, 11, 12, 10],
    ),
    "steady": dict(
        events=lambda: steady_stream(300, batches=15, batch=10, seed=3),
        workers=1, seed=3, query_every=10, preload=4500,
        counts={"msg_sent": 28592, "msg_received": 28592, "topo_received": 4650,
                "lifts": 601, "relabel_runs": 3, "steps": 33242},
        flows=[34] + [31] * 8 + [32] * 7,
    ),
}


@pytest.mark.parametrize("debug", [False, True], ids=["fast", "debug"])
@pytest.mark.parametrize("name", sorted(CASES))
def test_seeded_schedule_replays_golden_counts(name, debug):
    case = CASES[name]
    events = case["events"]()
    counts, flows, eng = replay(events, case["workers"], case["seed"],
                                case["query_every"], debug, case.get("preload", 0))
    assert counts == case["counts"]
    assert flows == case["flows"]
    want, _ = max_flow_reference(eng.store.snapshot(), 0, 1)
    assert flows[-1] == want


def test_seeds_give_distinct_schedules_with_the_same_flow():
    case = CASES["window"]
    events = case["events"]()
    schedules = set()
    for seed in range(10):
        counts, flows, eng = replay(events, case["workers"], seed,
                                    case["query_every"])
        schedules.add(tuple(counts.values()))
        want, _ = max_flow_reference(eng.store.snapshot(), 0, 1)
        assert flows[-1] == want, f"seed {seed}"
    assert len(schedules) >= 5, schedules
