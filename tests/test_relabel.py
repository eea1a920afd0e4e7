import random

import pytest

from helpers import expected_heights, growth_stream, random_delete_valid_stream
from liveflow import TopologyEvent, max_flow_reference
from liveflow.events import sliding_window_transform
from liveflow import runtime
from liveflow.relabel import (
    PHASE_DRAIN,
    PHASE_NORMAL,
    PHASE_RELABEL_DOWN,
    PHASE_RELABEL_UP,
    GrState,
    check_trigger,
)
from liveflow.runtime import EngineConfig, SimEngine, ThreadedEngine, Worker
from liveflow.vertex import INF, NORMAL, SINK, SOURCE, VertexState, relabel_up


def sim(source=0, sink=9, workers=1, seed=1, **kw):
    return SimEngine(
        EngineConfig(source=source, sink=sink, workers=workers, deterministic_seed=seed, **kw)
    )


def never_trigger(gr, now_ms, lifts_total, n_max):
    return False


class TestTrigger:
    def test_default_lift_threshold_tracks_vertex_count(self):
        gr = GrState()
        assert check_trigger(gr, now_ms=1.0, lifts_total=7, n_max=8) is False
        assert check_trigger(gr, now_ms=1.0, lifts_total=8, n_max=8) is True

    def test_cut_lowers_default_budget_to_one_lift(self):
        gr = GrState()
        gr.lift_baseline = 40
        gr.cut_pending = True
        assert check_trigger(gr, now_ms=1.0, lifts_total=40, n_max=100) is False
        assert check_trigger(gr, now_ms=1.0, lifts_total=41, n_max=100) is True

    def test_finish_restores_vertex_count_budget(self):
        gr = GrState()
        gr.cut_pending = True
        assert check_trigger(gr, now_ms=1.0, lifts_total=1, n_max=100) is True
        for phase in (PHASE_DRAIN, PHASE_RELABEL_UP, PHASE_RELABEL_DOWN, PHASE_NORMAL):
            gr.advance(phase)
        gr.finish(now_ms=2.0, started_ms=1.0, lifts_total=1)
        assert gr.cut_pending is False
        assert check_trigger(gr, now_ms=2.0, lifts_total=100, n_max=100) is False
        assert check_trigger(gr, now_ms=2.0, lifts_total=101, n_max=100) is True

    def test_without_cut_decisions_match_the_vertex_count_rule(self):
        def vertex_count_rule(gr, now_ms, lifts_total, n_max):
            return lifts_total - gr.lift_baseline >= max(n_max, 1)

        gr = GrState()
        gr.lift_baseline = 3
        for now_ms in (0.0, 10.0, 59.9, 60.0, 200.0, 1e9):  # elapsed time is ignored
            for lifts_total in (3, 4, 7, 8, 30):
                for n_max in (0, 1, 5, 27):
                    assert check_trigger(gr, now_ms, lifts_total, n_max) == \
                        vertex_count_rule(gr, now_ms, lifts_total, n_max)


class TestPhaseMachine:
    def test_finish_updates_statistics(self):
        gr = GrState()
        gr.advance(PHASE_DRAIN)
        gr.advance(PHASE_RELABEL_UP)
        gr.advance(PHASE_RELABEL_DOWN)
        gr.advance(PHASE_NORMAL)
        gr.finish(now_ms=120.0, started_ms=100.0, lifts_total=42)
        assert gr.lift_baseline == 42
        assert gr.runs == 1


    def test_observed_steps_and_relabel_message_runs(self, monkeypatch):
        # What an observer hooks (perfbench/tracer.py): each relabel's step
        # boundaries through ``GrState.advance``, its end through
        # ``finish``, each trigger probe through ``runtime.check_trigger``,
        # and ``gr.phase`` read at every message run. ``finish`` and
        # ``check_trigger`` are wrapped with the tracer's exact parameter
        # lists, so a signature change fails here.
        log = []
        advance, finish, message_run = GrState.advance, GrState.finish, Worker.message_run
        trigger = runtime.check_trigger
        probes = []

        def logged_advance(gr, phase):
            advance(gr, phase)
            log.append(("advance", phase))

        def logged_finish(gr, now_ms, started_ms, lifts_total):
            finish(gr, now_ms, started_ms, lifts_total)
            log.append(("finish", None))

        def logged_check_trigger(gr, now_ms, lifts_total, n_max):
            fired = trigger(gr, now_ms, lifts_total, n_max)
            probes.append(fired)
            return fired

        def logged_message_run(w, ci):
            log.append(("run", w.engine.gr.phase))
            message_run(w, ci)

        monkeypatch.setattr(GrState, "advance", logged_advance)
        monkeypatch.setattr(GrState, "finish", logged_finish)
        monkeypatch.setattr(runtime, "check_trigger", logged_check_trigger)
        monkeypatch.setattr(Worker, "message_run", logged_message_run)
        events = list(sliding_window_transform(
            growth_stream(random.Random(71), events=1500, vertices=60), 300
        ))
        assert any(ev.delta < 0 for ev in events)
        eng = sim(source=0, sink=1, workers=2, seed=5)
        for i, ev in enumerate(events):
            if i % 100 == 0:
                eng.query()
            eng.ingest(ev)
        eng.query()

        steps = (PHASE_DRAIN, PHASE_RELABEL_UP, PHASE_RELABEL_DOWN, PHASE_NORMAL)
        step = None          # last step entered; None outside a relabel
        finishes = drain_runs = 0
        for kind, phase in log:
            if kind == "advance":
                expect = steps[0] if step is None else steps[steps.index(step) + 1]
                assert phase == expect
                step = phase
            elif kind == "finish":
                assert step == PHASE_NORMAL
                step = None
                finishes += 1
            else:
                # Only the drain and the descent run messages inside a
                # relabel, and exactly those runs see a non-normal phase.
                assert step in (None, PHASE_DRAIN, PHASE_RELABEL_DOWN)
                assert (phase != PHASE_NORMAL) == (step is not None)
                drain_runs += step is not None
        assert step is None
        assert finishes == eng.gr.runs > 1
        assert drain_runs > 0
        assert sum(probes) >= eng.gr.runs  # every relabel here was a fired probe


class TestRelabelUp:
    def test_plain_vertex_goes_to_infinity(self):
        v = VertexState(5, NORMAL)
        v.height_pos, v.height_neg = 3, 2
        relabel_up(v, 12)
        assert (v.height_pos, v.height_neg) == (INF, INF)

    def test_deficit_keeps_zero_and_infinite_negative(self):
        v = VertexState(5, NORMAL)
        v.excess = -2
        relabel_up(v, 12)
        assert (v.height_pos, v.height_neg) == (0, INF)

    def test_source_and_sink_fixed_points(self):
        s = VertexState(0, SOURCE)
        relabel_up(s, 12)
        assert (s.height_pos, s.height_neg) == (12, 0)
        t = VertexState(9, SINK)
        relabel_up(t, 12)
        assert (t.height_pos, t.height_neg) == (0, 12)


class TestGlobalRelabelRuns:
    def test_quiescent_engine_relabels_immediately(self):
        eng = sim()
        for i, (u, v, c) in enumerate([(0, 1, 5), (1, 9, 5)]):
            eng.ingest(TopologyEvent(i, u, v, c))
        eng.query()
        snap = eng.force_global_relabel(capture=True)
        assert snap is not None
        assert eng.gr.runs == 1
        assert eng.gr.phase == PHASE_NORMAL

    def test_chain_heights_are_exact_distances(self):
        eng = sim()
        for i, (u, v, c) in enumerate([(0, 1, 5), (1, 9, 5)]):
            eng.ingest(TopologyEvent(i, u, v, c))
        eng.query()
        snap = eng.force_global_relabel(capture=True)
        # the chain is saturated: vertex 1 reaches the sink only through the
        # reverse arc story; recompute from the snapshot's own residual graph
        hexp, nexp = expected_heights(snap, 0, 9, set(snap.height_pos))
        assert snap.height_pos == hexp
        assert snap.height_neg == nexp

    def test_partially_saturated_chain_distance(self):
        eng = sim()
        for i, (u, v, c) in enumerate([(0, 1, 5), (1, 9, 9)]):
            eng.ingest(TopologyEvent(i, u, v, c))
        eng.query()
        snap = eng.force_global_relabel(capture=True)
        # residual arc 1 -> sink persists, so vertex 1 sits one above the sink
        assert snap.height_pos[1] == 1

    def test_unreachable_island_stays_infinite(self):
        eng = sim()
        events = [(0, 1, 5), (1, 9, 5), (20, 21, 3)]  # 20,21 disconnected
        for i, (u, v, c) in enumerate(events):
            eng.ingest(TopologyEvent(i, u, v, c))
        eng.query()
        snap = eng.force_global_relabel(capture=True)
        assert snap.height_pos[21] == INF
        assert snap.height_neg[20] == INF

    def test_invariants_hold_after_relabel(self):
        rng = random.Random(44)
        s, t, events = random_delete_valid_stream(rng, max_vertices=18, max_events=90)
        eng = sim(source=s, sink=t, workers=2, seed=9)
        for ev in events:
            eng.ingest(ev)
        eng.query()
        eng.force_global_relabel()
        eng.pump()  # let reactivation settle
        assert eng.scan_invariants() == []

    def test_statistics_updated_by_run(self):
        eng = sim()
        eng.ingest(TopologyEvent(0, 1, 9, 2))
        eng.query()
        eng.force_global_relabel()
        assert eng.gr.runs == 1

    def test_threaded_forced_relabel_keeps_flow_and_invariants(self, monkeypatch):
        rng = random.Random(51)  # positive flow on both halves, and it changes
        s, t, events = random_delete_valid_stream(rng, max_vertices=12, max_events=120)
        cut = len(events) // 2
        # triggers out of reach: the forced run is the only one
        monkeypatch.setattr(runtime, "check_trigger", never_trigger)
        eng = ThreadedEngine(EngineConfig(source=s, sink=t, workers=3))
        try:
            for ev in events[:cut]:
                eng.ingest(ev)
            want, _ = max_flow_reference(eng.store.snapshot(), s, t)
            assert eng.query().flow_value == want > 0
            runs = eng.gr.runs
            eng.force_global_relabel()
            for ev in events[cut:]:
                eng.ingest(ev)  # lands after the relabel: needs topology and pushes back
            got = eng.query().flow_value
            assert eng.gr.runs == runs + 1
            want, _ = max_flow_reference(eng.store.snapshot(), s, t)
            assert got == want > 0
            assert eng.scan_invariants() == []
        finally:
            eng.close()

    def test_threaded_relabel_with_backlog_gives_exact_heights(self, monkeypatch):
        # The background thread is still working off the stream when the
        # relabel is forced, so excess is in flight and heights are stale:
        # only a real relabel-up and descent give the exact distances.
        events = growth_stream(random.Random(52), events=3000, vertices=60)
        # the stream runs for thousands of steps: hold both trigger rules off
        monkeypatch.setattr(runtime, "check_trigger", never_trigger)
        eng = ThreadedEngine(EngineConfig(source=0, sink=1, workers=3))
        try:
            for ev in events:
                eng.ingest(ev)
            backlog = not eng._queues_empty()
            snap = eng.force_global_relabel(capture=True)
            hexp, nexp = expected_heights(snap, 0, 1, set(snap.height_pos))
            assert snap.height_pos == hexp
            assert snap.height_neg == nexp
            got = eng.query().flow_value
            want, _ = max_flow_reference(eng.store.snapshot(), 0, 1)
            assert got == want > 0
            assert eng.gr.runs == 1
        finally:
            eng.close()
        assert backlog, "the stream drained before the forced relabel"


class TestCutTrigger:
    """A flow cut (a capacity decrease that forces flow back) lowers the
    default lift budget to 1 until the next relabel finishes."""

    @staticmethod
    def cut_stream_engine(workers):
        # Flow 5 runs 0 -> 1 -> 2 -> 9; the detour 1 -> 3 -> 9 arrives after
        # that flow has settled. Deleting 2 -> 9 then forces the sink to send
        # 5 units back, and vertex 2 must lift to return them toward 1.
        eng = sim(workers=workers)
        for i, (u, v, c) in enumerate([(0, 1, 5), (1, 2, 5), (2, 9, 5)]):
            eng.ingest(TopologyEvent(i, u, v, c))
        assert eng.query().flow_value == 5
        for i, (u, v, c) in enumerate([(1, 3, 5), (3, 9, 5)]):
            eng.ingest(TopologyEvent(3 + i, u, v, c))
        assert eng.query().flow_value == 5
        assert eng.gr.runs == 0 and eng._total_lifts() == 0
        eng.ingest(TopologyEvent(5, 2, 9, -5))
        return eng

    @staticmethod
    def assert_settled(eng):
        got = eng.query().flow_value
        want, _ = max_flow_reference(eng.store.snapshot(), 0, 9)
        assert got == want == 5
        assert eng.scan_invariants() == []

    @pytest.mark.parametrize("workers", [1, 2])
    def test_first_lift_after_cut_starts_a_relabel(self, workers):
        eng = self.cut_stream_engine(workers)
        while eng._total_lifts() == 0:
            assert eng.pump(max_steps=1) == 1, "the cut never caused a lift"
            assert eng.gr.runs == 0
        eng.pump(max_steps=1)  # the next step is preceded by a trigger probe
        assert eng.gr.runs == 1
        assert eng._total_cuts() > 0
        self.assert_settled(eng)
        assert eng.gr.runs == 1

    @pytest.mark.parametrize("workers", [1, 2])
    def test_out_of_reach_triggers_run_no_relabel(self, workers, monkeypatch):
        monkeypatch.setattr(runtime, "check_trigger", never_trigger)
        eng = self.cut_stream_engine(workers)
        self.assert_settled(eng)
        assert eng._total_cuts() > 0 and eng._total_lifts() > 0
        assert eng.gr.runs == 0

    def test_add_only_stream_makes_no_cut(self):
        eng = sim(source=0, sink=1, workers=2, seed=3)
        for i, ev in enumerate(growth_stream(random.Random(61), events=2000, vertices=80)):
            if i % 250 == 0:
                eng.query()
            eng.ingest(ev)
        eng.query()
        assert eng._total_lifts() > 0 and eng.gr.runs > 0
        assert eng._total_cuts() == 0


class TestAddsAmongCutOffVertices:
    """New arcs start with INF mirrors: the tail of a new edge waits for the
    head's real heights instead of descending to 1 on a height it never saw.
    So a few adds among vertices cut off from the sink cost no lift flood
    and no relabel."""

    @pytest.mark.parametrize("seed", [1, 7, 11])
    def test_small_add_batch_runs_no_relabel(self, seed):
        V = 200
        rng = random.Random(seed)
        eng = sim(source=0, sink=1, seed=seed)
        for ev in growth_stream(rng, events=15 * V, vertices=V, cap_hi=3, st_edge_prob=0.01):
            eng.ingest(ev)
        eng.query()
        snap = eng.force_global_relabel(capture=True)
        eng.query()
        # Cut off from the sink, yet finite: they route back to the source.
        cut_off = sorted(
            v for v, h in snap.height_pos.items()
            if v >= 2 and snap.n_projected <= h < INF
        )
        assert len(cut_off) >= 10
        ts = 15 * V
        for k in range(10):
            u, v = rng.sample(cut_off, 2)
            eng.ingest(TopologyEvent(ts + k, u, v, rng.randint(1, 3)))
        lifts, runs = eng._total_lifts(), eng.gr.runs
        got = eng.query().flow_value
        assert eng.gr.runs == runs
        assert eng._total_lifts() - lifts <= 2
        want, _ = max_flow_reference(eng.store.snapshot(), 0, 1)
        assert got == want
        assert eng.scan_invariants() == []


class TestExactnessOnRandomStates:
    def test_heights_match_residual_distances(self):
        rng = random.Random(606)
        for trial in range(25):
            s, t, events = random_delete_valid_stream(rng, max_vertices=20, max_events=100)
            eng = sim(source=s, sink=t, workers=rng.choice([1, 2, 4]), seed=trial)
            prefix = rng.randint(1, len(events))
            for ev in events[:prefix]:
                eng.ingest(ev)
            eng.pump(max_steps=rng.randint(0, 200))  # arbitrary mid-stream point
            snap = eng.force_global_relabel(capture=True)
            verts = set(snap.height_pos)
            hexp, nexp = expected_heights(snap, s, t, verts)
            assert snap.height_pos == hexp
            assert snap.height_neg == nexp



# Faults injected once the descent has run; the sink holds the flow value.

def move_excess(eng):
    eng.workers[9 % eng.nworkers].vertices[9].excess -= 1
    eng.workers[1 % eng.nworkers].vertices[1].excess += 1


def drop_sink_excess(eng):
    eng.workers[9 % eng.nworkers].vertices[9].excess = 0


def raise_source(eng):
    eng.workers[0].vertices[0].height_pos += 1


def raise_above_inf(eng):
    eng.workers[2 % eng.nworkers].vertices[2].height_pos = INF + 1


class TestSelfChecks:
    """Every relabel checks that no excess moved and that no height rose,
    with the default configuration."""

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize(
        "fault, message",
        [
            (move_excess, "flow moved during relabel at vertex"),
            (drop_sink_excess, "flow moved during relabel at vertex 9"),
            (raise_source, "non-monotone descent at vertex 0"),
            (raise_above_inf, "non-monotone descent at vertex 2"),
        ],
        ids=["moved", "dropped", "fixed_height", "height_above_inf"],
    )
    def test_fault_during_descent_raises(self, monkeypatch, workers, fault, message):
        eng = SimEngine(EngineConfig(source=0, sink=9, workers=workers, deterministic_seed=1))
        for i, (u, v, c) in enumerate([(0, 1, 5), (1, 9, 5), (0, 2, 3)]):
            eng.ingest(TopologyEvent(i, u, v, c))
        assert eng.query().flow_value == 5
        run_steps = eng._run_steps

        def faulty_run_steps(budget, topo=True):
            done = run_steps(budget, topo)
            if eng.gr.phase == PHASE_RELABEL_DOWN:
                fault(eng)
            return done

        monkeypatch.setattr(eng, "_run_steps", faulty_run_steps)
        with pytest.raises(RuntimeError, match=message):
            eng.force_global_relabel()

    @pytest.mark.parametrize("removed", [dict(debug=True), dict(gr=GrState().tunables)])
    def test_removed_settings_are_rejected(self, removed):
        with pytest.raises(TypeError):
            EngineConfig(source=0, sink=9, **removed)
