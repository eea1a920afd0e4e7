import math
import random
import sys
import threading
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import growth_stream, random_add_stream
from liveflow import (
    TopologyEvent,
    max_flow_reference,
    sliding_window_transform,
    vertex,
)
from liveflow.oracle import throughflow_vertices
from liveflow.runtime import (
    PROJECTION_FACTOR,
    EngineConfig,
    SimEngine,
    StreamValidityError,
    ThreadedEngine,
    create_engine,
)
from liveflow.vertex import FLOW, INF, Msg, NORMAL


def sim(source=0, sink=9, workers=1, seed=1, **kw):
    return SimEngine(
        EngineConfig(source=source, sink=sink, workers=workers, deterministic_seed=seed, **kw)
    )


DIAMOND = [
    TopologyEvent(0, 0, 1, 10),
    TopologyEvent(1, 0, 2, 10),
    TopologyEvent(2, 1, 9, 10),
    TopologyEvent(3, 2, 9, 10),
    TopologyEvent(4, 1, 2, 5),
]


class TestConfig:
    def test_source_must_differ_from_sink(self):
        with pytest.raises(ValueError):
            EngineConfig(source=1, sink=1).validate()

    def test_worker_count_positive(self):
        with pytest.raises(ValueError):
            EngineConfig(source=0, sink=1, workers=0).validate()

    def test_factory_picks_mode(self):
        e = create_engine(EngineConfig(source=0, sink=1, deterministic_seed=3))
        assert isinstance(e, SimEngine)
        e2 = create_engine(EngineConfig(source=0, sink=1))
        assert isinstance(e2, ThreadedEngine)
        e2.close()


class TestIngest:
    def test_new_vertices_grow_projection_and_source_height(self):
        eng = sim(source=100, sink=200)
        # startup: two vertices
        assert eng.store.n_max == 2
        assert eng.store.n_projected == math.ceil(PROJECTION_FACTOR * 2)
        eng.ingest(TopologyEvent(0, 1, 2, 1))
        eng.pump()
        assert eng.store.n_max == 4
        assert eng.store.n_projected == math.ceil(PROJECTION_FACTOR * 4)
        src = eng.workers[100 % eng.nworkers].vertices[100]
        assert src.height_pos == eng.store.n_projected

    def test_event_between_known_vertices_keeps_projection(self):
        eng = sim(source=100, sink=200)
        eng.ingest(TopologyEvent(0, 1, 2, 1))
        eng.pump()
        np_before = eng.store.n_projected
        eng.ingest(TopologyEvent(1, 2, 1, 3))
        eng.pump()
        assert eng.store.n_projected == np_before

    def test_delete_of_never_added_edge_rejected(self):
        eng = sim()
        with pytest.raises(StreamValidityError):
            eng.ingest(TopologyEvent(0, 3, 7, -5))

    def test_over_delete_rejected(self):
        eng = sim()
        eng.ingest(TopologyEvent(0, 3, 7, 5))
        with pytest.raises(StreamValidityError):
            eng.ingest(TopologyEvent(1, 3, 7, -6))

    def test_zero_delta_rejected(self):
        eng = sim()
        with pytest.raises(StreamValidityError):
            eng.ingest(TopologyEvent(0, 3, 7, 0))


class TestRouting:
    def test_channel_fifo_order(self, monkeypatch):
        eng = sim(workers=2, seed=5)
        target = 2  # worker 0 owns vertex 2 when workers=2
        w = eng.workers[target % 2]
        arrived = []
        handle = vertex.on_message_received

        def record(v, m, *args, **kwargs):
            if v.vid == target and m.sender == 50:
                arrived.append(m.hpos)
            return handle(v, m, *args, **kwargs)

        monkeypatch.setattr(vertex, "on_message_received", record)
        msgs = [Msg(50, FLOW, 0, k, 0) for k in range(6)]
        eng.workers[0].route([(target, m) for m in msgs])
        eng.pump()
        # six injected messages in send order, then the greeting reply
        assert arrived[:6] == list(range(6))
        v = w.vertices[target]
        # last write wins: the reply carries a suppressed (INF) height
        assert v.mirror_hpos[v.nbr_index[50]] == INF

    def test_message_to_unseen_vertex_materializes_it(self):
        eng = sim(workers=3, seed=2)
        eng.workers[0].route([(12345, Msg(777, FLOW, 0, 4, 4))])
        eng.pump()
        owner = eng.workers[12345 % 3]
        v = owner.vertices[12345]
        assert v.vtype == NORMAL
        assert v.excess == 0
        assert v.nbr_ids == [777]

    def test_zero_flow_message_changes_no_excess(self):
        eng = sim()
        eng.ingest(TopologyEvent(0, 1, 2, 4))
        eng.pump()
        v = eng.workers[0].vertices[1]
        before = v.excess
        eng.workers[0].route([(1, Msg(2, FLOW, 0, 3, 3))])
        eng.pump()
        assert v.excess == before

    def test_same_vertex_messages_fuse_into_one_run(self):
        eng = sim(workers=1, seed=4)
        w = eng.workers[0]
        msgs = [(7, Msg(60 + k, FLOW, 0, 1, 1)) for k in range(5)]
        w.route(msgs)
        before = w.msg_received
        w.message_run(0)  # one run consumes the whole same-destination batch
        assert w.msg_received - before == 5
        assert len(eng.workers[0].vertices[7].nbr_ids) == 5

    def test_topology_priority(self):
        eng = sim(workers=1, seed=3)
        eng.ingest(TopologyEvent(0, 1, 2, 4))  # queued topology work
        w = eng.workers[0]
        w.route([(1, Msg(55, FLOW, 0, 1, 1))])
        assert w.topo and any(w.chans)
        injected_waits = True
        while w.topo:
            # while topology is pending, the injected message is never consumed
            injected_waits = injected_waits and any(
                m.sender == 55 for c in w.chans for _, m in c
            )
            assert eng.pump(max_steps=1) == 1
        assert injected_waits


class TestQuiescence:
    def test_fresh_engine_is_quiescent(self):
        assert sim().detect_quiescence() is True

    def test_queued_message_blocks_quiescence(self):
        eng = sim()
        eng.workers[0].route([(5, Msg(6, FLOW, 0, 1, 1))])
        assert eng.detect_quiescence() is False

    def test_queued_topology_event_blocks_quiescence(self):
        # Ingested but not yet pumped: only the topology FIFO holds it.
        eng = sim(workers=2)
        eng.ingest(TopologyEvent(0, 1, 2, 4))
        assert not any(c for w in eng.workers for c in w.chans)
        assert eng.detect_quiescence() is False
        eng.pump()
        assert eng.detect_quiescence() is True

    def test_threaded_quiescence_reached_and_mailboxes_empty(self):
        eng = ThreadedEngine(EngineConfig(source=0, sink=9, workers=3))
        try:
            rng = random.Random(8)
            for i in range(300):
                eng.ingest(TopologyEvent(i, rng.randrange(12), rng.randrange(12), rng.randint(1, 5)))
            deadline = time.monotonic() + 30
            while not eng.detect_quiescence():
                assert time.monotonic() < deadline, "never became quiescent"
                time.sleep(0.001)
            assert eng._queues_empty()
            assert (sum(w.msg_sent for w in eng.workers)
                    == sum(w.msg_received for w in eng.workers))
        finally:
            eng.close()


class TestQuery:
    def test_empty_graph(self):
        res = sim().query()
        assert res.flow_value == 0
        assert res.involved == frozenset()

    def test_repeat_query_is_stable_and_fast(self):
        eng = ThreadedEngine(EngineConfig(source=0, sink=9, workers=2))
        try:
            for ev in DIAMOND:
                eng.ingest(ev)
            first = eng.query()
            second = eng.query()
            assert second.flow_value == first.flow_value == 20
            assert second.latency_s < 0.05
        finally:
            eng.close()

    def test_mid_stream_value_matches_reference_on_prefix(self):
        eng = sim()
        for ev in DIAMOND[:3]:
            eng.ingest(ev)
        res = eng.query()
        want, _ = max_flow_reference(eng.store.snapshot(), 0, 9)
        assert res.flow_value == want

    def test_involved_vertices_on_diamond(self):
        eng = sim()
        for ev in DIAMOND:
            eng.ingest(ev)
        res = eng.query()
        assert res.flow_value == 20
        assert res.involved == frozenset({0, 1, 2, 9})

    def test_involved_vertices_skip_pairs_the_algorithm_ignores(self):
        # Edges into the source and out of the sink never carry flow, so
        # neither their endpoints nor their capacities count as involved.
        eng = sim(source=0, sink=9, workers=1)
        for i, (u, w, c) in enumerate([(0, 1, 10), (1, 9, 10), (5, 0, 3),
                                       (0, 5, 1), (9, 6, 4), (6, 9, 2)]):
            eng.ingest(TopologyEvent(i, u, w, c))
        res = eng.query()
        want, flow = max_flow_reference(eng.store.snapshot(), 0, 9)
        assert res.flow_value == want == 10
        assert eng.scan_invariants() == []
        assert res.involved == throughflow_vertices(flow) == {0, 1, 9}

    @staticmethod
    def ledger_involved(eng):
        """The through-flow set computed from the capacity ledger: flow on
        (u, w) is ``store.caps[(u, w)]`` minus u's outbound residual, with
        the sink's slots and every slot whose neighbour is the source
        skipped."""
        caps = eng.store.caps
        involved = set()
        for vid, v in eng.vertices_items():
            if vid == eng.sink:
                continue
            for i, w in enumerate(v.nbr_ids):
                cap = caps.get((vid, w), 0)
                if w != eng.source and cap > 0 and cap - v.res_out[i] > 0:
                    involved.update((vid, w))
        return involved

    @pytest.mark.parametrize("workers", [1, 2])
    def test_involved_vertices_match_the_ledger_on_windowed_streams(self, workers):
        # Deletions lower capacities under flow; extraction reads each
        # slot's own capacity and must agree with the ledger at every query.
        flowing = deletions = 0
        for trial in range(3):
            rng = random.Random(1000 * workers + trial)
            events = list(sliding_window_transform(
                growth_stream(rng, 500, 30, st_edge_prob=0.12), 90))
            deletions += sum(1 for ev in events if ev.delta < 0)
            eng = sim(source=0, sink=1, workers=workers, seed=trial)
            for k, ev in enumerate(events):
                eng.ingest(ev)
                if k % 25 == 24 or k == len(events) - 1:
                    res = eng.query()
                    assert set(res.involved) == self.ledger_involved(eng)
                    flowing += res.flow_value > 0
            assert eng.scan_invariants() == []
        assert deletions > 300 and flowing > 20


class TestBackgroundThread:
    def test_alternating_ingest_and_query_never_loses_a_wake_up(self):
        # Each query finds the thread either busy or idle with one fresh
        # event queued; a wake-up lost in either case leaves the query
        # waiting forever, so the rounds run on a thread with a deadline.
        events = growth_stream(random.Random(77), events=300, vertices=20, st_edge_prob=0.1)
        eng = ThreadedEngine(EngineConfig(source=0, sink=1, workers=2))
        flows, wants = [], []

        def rounds():
            for ev in events:
                eng.ingest(ev)
                flows.append(eng.query().flow_value)
                wants.append(max_flow_reference(eng.store.snapshot(), 0, 1)[0])

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # interleave ingest and the thread finely
        t = threading.Thread(target=rounds, daemon=True)
        try:
            t.start()
            t.join(30)
        finally:
            sys.setswitchinterval(interval)
            eng.close()
        assert not t.is_alive(), f"round {len(flows)} of {len(events)} never returned"
        assert flows == wants
        assert flows[-1] > 0

    @pytest.mark.parametrize("backlog", [0, 2000])
    def test_close_stops_the_thread(self, backlog):
        eng = ThreadedEngine(EngineConfig(source=0, sink=1, workers=2))
        for ev in growth_stream(random.Random(78), events=50, vertices=20):
            eng.ingest(ev)
        eng.query()  # the thread is idle now
        for ev in growth_stream(random.Random(79), events=backlog, vertices=200):
            eng.ingest(ev)
        started = time.monotonic()
        eng.close()
        assert not eng._thread.is_alive()
        assert time.monotonic() - started < 1.0

    def test_close_warns_when_the_thread_does_not_stop(self):
        eng = ThreadedEngine(EngineConfig(source=0, sink=1, workers=2))
        entered, release = threading.Event(), threading.Event()

        def stuck_pump(max_steps=None):
            entered.set()
            release.wait()
            return 0

        eng.pump = stuck_pump
        try:
            eng.ingest(TopologyEvent(0, 0, 1, 1))  # wakes the thread into stuck_pump
            assert entered.wait(10)
            with pytest.warns(RuntimeWarning, match="'liveflow' still running"):
                eng.close()
        finally:
            release.set()
            eng._thread.join(10)
        assert not eng._thread.is_alive()


class TestInvariantScan:
    def test_requires_quiescence(self):
        eng = sim()
        eng.ingest(TopologyEvent(0, 1, 2, 3))
        with pytest.raises(RuntimeError):
            eng.scan_invariants()

    def test_clean_after_random_stream(self):
        rng = random.Random(17)
        s, t, events = random_add_stream(rng, max_vertices=15, max_events=60)
        eng = sim(source=s, sink=t, workers=2, seed=7)
        for ev in events:
            eng.ingest(ev)
        eng.query()
        assert eng.scan_invariants() == []


@given(
    triples=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=7),
            st.integers(min_value=0, max_value=7),
            st.integers(min_value=1, max_value=9),
        ),
        max_size=30,
    ),
    seed=st.integers(min_value=0, max_value=2**16),
    workers=st.sampled_from([1, 2, 4]),
)
@settings(max_examples=60, deadline=None)
def test_flow_value_always_matches_reference(triples, seed, workers):
    events = [TopologyEvent(i, u, v, c) for i, (u, v, c) in enumerate(triples)]
    eng = sim(source=0, sink=7, workers=workers, seed=seed)
    for ev in events:
        eng.ingest(ev)
    got = eng.query().flow_value
    want, _ = max_flow_reference(eng.store.snapshot(), 0, 7)
    assert got == want
    assert eng.scan_invariants() == []


def test_threaded_matches_sim_on_random_streams():
    rng = random.Random(313)
    for trial in range(5):
        s, t, events = random_add_stream(rng, max_vertices=20, max_events=80)
        eng_sim = sim(source=s, sink=t, workers=2, seed=trial)
        for ev in events:
            eng_sim.ingest(ev)
        value_sim = eng_sim.query().flow_value
        eng_thr = ThreadedEngine(EngineConfig(source=s, sink=t, workers=3))
        try:
            for ev in events:
                eng_thr.ingest(ev)
            value_thr = eng_thr.query().flow_value
        finally:
            eng_thr.close()
        assert value_sim == value_thr
