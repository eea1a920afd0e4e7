"""Golden replay of the seeded scheduler.

The deterministic engine promises that the same seed and configuration give
the same schedule, the same work counts and the same flow values. These two
fixed streams pin that schedule down exactly: any change to which worker or
channel the scheduler picks, to how the seeded generator is consumed, to how
many scheduler steps run, or to the messages the vertex program
sends shows up as a changed count here. A change that alters the schedule on
purpose must say so and record the new values.

* ``add-only``: 1 worker, growth stream, sparse queries.
* ``window``: 2 workers, sliding window (deletions), frequent queries; this
  one exercises the seeded choice between workers and between channels.

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


def growth_stream(vertices, adds, seed, st_prob=0.04):
    """Add-only stream over vertices 0..vertices-1 with source 0 and sink 1;
    ``st_prob`` of the edges leave the source or enter the sink."""
    rng = random.Random(seed)
    events = []
    for i in range(adds):
        roll = rng.random()
        if roll < st_prob / 2:
            u, v = 0, rng.randrange(2, vertices)
        elif roll < st_prob:
            u, v = rng.randrange(2, vertices), 1
        else:
            u, v = rng.randrange(2, vertices), rng.randrange(2, vertices)
        events.append(TopologyEvent(i, u, v, rng.randint(1, 3)))
    return events


def replay(events, workers, seed, query_every, debug=False):
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
        if i and i % query_every == 0:
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
        counts={"msg_sent": 97562, "msg_received": 97562, "topo_received": 4046,
                "lifts": 756, "relabel_runs": 5, "steps": 95458},
        flows=[10, 30, 55, 78, 88, 103, 121, 147],
    ),
    "window": dict(
        events=lambda: list(sliding_window_transform(growth_stream(100, 1200, seed=12), 300)),
        workers=2, seed=9, query_every=100,
        counts={"msg_sent": 95583, "msg_received": 95583, "topo_received": 2137,
                "lifts": 1411, "relabel_runs": 54, "steps": 94571},
        flows=[0, 1, 9, 8, 7, 7, 6, 4, 8, 9, 6, 9, 7, 7, 4, 4, 4, 9, 11, 12, 10],
    ),
}


@pytest.mark.parametrize("debug", [False, True], ids=["fast", "debug"])
@pytest.mark.parametrize("name", sorted(CASES))
def test_seeded_schedule_replays_golden_counts(name, debug):
    case = CASES[name]
    events = case["events"]()
    counts, flows, eng = replay(events, case["workers"], case["seed"],
                                case["query_every"], debug)
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
