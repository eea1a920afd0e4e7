"""Hand-traced unit checks of the core vertex operations."""

import random

import pytest

from helpers import expected_heights, growth_stream
from liveflow import TopologyEvent, max_flow_reference, sliding_window_transform
from liveflow.runtime import EngineConfig, SimEngine
from liveflow.vertex import (
    CAP_OFFSET,
    FLOW,
    INF,
    NORMAL,
    SINK,
    SOURCE,
    InvariantViolation,
    OpContext,
    VertexState,
    add_neighbour,
    broadcast_height_if_needed,
    discharge,
    on_edge_changed,
    on_message_received,
    push,
    restore_height_invariant,
    shed,
)


def make_vertex(vid=1, vtype=NORMAL, excess=0, hpos=0):
    v = VertexState(vid, vtype)
    v.excess = excess
    v.height_pos = hpos
    v.last_bcast_pos = hpos
    return v


def wire(v, w, res_out=0, res_in=0, mhpos=0, cap_out=0):
    i = add_neighbour(v, w)
    v.res_out[i] = res_out
    v.res_in[i] = res_in
    v.mirror_hpos[i] = mhpos
    v.cap_out[i] = cap_out
    return i


def flows(out):
    return [(dst, m.amount) for dst, m in out if m.kind == FLOW]


class TestPush:
    def test_positive_push_caps_at_residual(self):
        v = make_vertex(excess=5, hpos=2)
        i = wire(v, 7, res_out=3, res_in=0, mhpos=1)
        out = []
        moved = push(v, i, out)
        assert moved == 3
        assert (v.excess, v.res_out[i], v.res_in[i]) == (2, 0, 3)
        assert flows(out) == [(7, 3)]

    def test_no_excess_is_a_noop(self):
        v = make_vertex(excess=0, hpos=5)
        i = wire(v, 7, res_out=3)
        out = []
        assert push(v, i, out) == 0
        assert out == [] and v.res_out[i] == 3

    def test_uphill_push_blocked(self):
        v = make_vertex(excess=5, hpos=1)
        i = wire(v, 7, res_out=3, mhpos=1)  # equal height is not downhill
        assert push(v, i, []) == 0


class TestLift:
    """The lift inside :func:`discharge`: a normal vertex with no admissible
    arc rises to one above the lowest residual mirror, then pushes."""

    def test_minimum_over_residual_neighbours(self):
        v = make_vertex(excess=2, hpos=0)
        wire(v, 10, res_out=2, mhpos=5)
        wire(v, 11, res_out=0, mhpos=3)  # no residual, excluded
        wire(v, 12, res_out=1, mhpos=7)
        out = []
        discharge(v, OpContext(), out)
        assert v.height_pos == 6
        assert flows(out) == [(10, 2)]

    def test_single_candidate(self):
        v = make_vertex(excess=2, hpos=0)
        wire(v, 10, res_out=2, mhpos=0)
        discharge(v, OpContext(), [])
        assert v.height_pos == 1
        assert v.excess == 0

    def test_no_residual_candidate_is_a_violation(self):
        v = make_vertex(excess=2, hpos=0)
        wire(v, 10, res_out=0, mhpos=1)
        with pytest.raises(InvariantViolation):
            discharge(v, OpContext(), [])

    def test_unknown_mirror_heights_block_instead_of_lifting(self):
        ctx = OpContext()
        v = make_vertex(excess=2, hpos=0)
        wire(v, 10, res_out=4, mhpos=INF)
        out = []
        discharge(v, ctx, out)
        assert v.height_pos == 0
        assert (v.excess, out, ctx.lift_count) == (2, [], 0)

    def test_counts_lifts(self):
        ctx = OpContext()
        v = make_vertex(excess=1, hpos=0)
        wire(v, 10, res_out=1, mhpos=0)
        discharge(v, ctx, [])
        assert ctx.lift_count == 1


class TestDischarge:
    def test_lifts_then_drains(self):
        v = make_vertex(excess=2, hpos=0)
        i = wire(v, 7, res_out=5, mhpos=0)
        out = []
        discharge(v, OpContext(), out)
        assert v.height_pos == 1
        assert v.excess == 0
        assert flows(out) == [(7, 2)]
        assert v.res_out[i] == 3

    def test_source_attempts_once_and_keeps_excess(self):
        v = make_vertex(vtype=SOURCE, excess=9, hpos=12)
        wire(v, 7, res_out=0, mhpos=0)
        wire(v, 8, res_out=0, mhpos=0)
        out = []
        discharge(v, OpContext(), out)
        assert v.excess == 9
        assert out == []

    def test_stranded_deficit_rests(self):
        # The only flow out runs on a cut arc whose return is in flight: the
        # deficit waits for it instead of cancelling that flow from this end.
        v = make_vertex(excess=-3, hpos=2)
        wire(v, 7, res_out=-3, res_in=3, mhpos=1, cap_out=0)
        out = []
        discharge(v, OpContext(), out)
        assert v.excess == -3
        assert out == []

    def test_equal_height_arc_is_not_pushed_but_sets_the_lift_minimum(self):
        v = make_vertex(excess=2, hpos=4)
        level = wire(v, 7, res_out=5, mhpos=4)   # equal height: not admissible
        wire(v, 8, res_out=5, mhpos=6)
        out = []
        discharge(v, OpContext(), out)
        # no push at height 4; the lift goes to 4 + 1, then drains into 7
        assert v.height_pos == 5
        assert flows(out) == [(7, 2)]
        assert v.res_out[level] == 3

    def test_lift_disabled_parks_excess(self):
        ctx = OpContext()
        ctx.lift_enabled = False
        v = make_vertex(excess=2, hpos=0)
        wire(v, 7, res_out=5, mhpos=0)
        out = []
        discharge(v, ctx, out)
        assert v.excess == 2
        assert out == []


class TestRestoreHeightInvariant:
    def test_descends_to_one_above_neighbour(self):
        v = make_vertex(excess=0, hpos=9)
        i = wire(v, 7, res_out=2, mhpos=3)
        restore_height_invariant(v, i, [])
        assert v.height_pos == 4

    def test_source_saturates_but_never_descends(self):
        v = make_vertex(vtype=SOURCE, excess=8, hpos=12)
        i = wire(v, 7, res_out=6, mhpos=3)
        out = []
        restore_height_invariant(v, i, out)
        assert v.height_pos == 12
        assert flows(out) == [(7, 6)]
        assert v.res_out[i] == 0

    def test_no_residual_means_no_constraint(self):
        v = make_vertex(excess=0, hpos=9)
        i = wire(v, 7, res_out=0, res_in=2, mhpos=1)
        restore_height_invariant(v, i, [])
        assert v.height_pos == 9


class TestShed:
    """A normal vertex cancels its deficit along the flow it sends out, in
    ``live`` order, with no label."""

    def test_cancels_in_live_order_and_caps_the_height(self):
        v = make_vertex(excess=-5, hpos=9)
        a = wire(v, 7, res_out=1, res_in=3, mhpos=6, cap_out=4)   # flow 3
        b = wire(v, 8, res_out=2, res_in=0, mhpos=0, cap_out=2)   # no flow
        c = wire(v, 9, res_out=0, res_in=4, mhpos=2, cap_out=4)   # flow 4
        d = wire(v, 10, res_out=0, res_in=2, mhpos=0, cap_out=2)  # flow 2
        out = []
        shed(v, out)
        assert flows(out) == [(7, -3), (9, -2)]
        assert v.excess == 0
        assert [(v.res_out[i], v.res_in[i]) for i in (a, b, c, d)] == [
            (4, 0), (2, 0), (2, 2), (0, 2)]
        # Both cancelled arcs reopened: the height sits at most one above
        # each of their mirrors.
        assert v.height_pos == 3

    def test_skips_a_slot_whose_return_is_in_flight(self):
        v = make_vertex(excess=-4, hpos=5)
        cut = wire(v, 7, res_out=-2, res_in=2, mhpos=0, cap_out=1)  # cut below its flow 3
        other = wire(v, 8, res_out=0, res_in=3, mhpos=4, cap_out=3)
        out = []
        shed(v, out)
        assert flows(out) == [(8, -3)]
        assert v.excess == -1
        assert (v.res_out[cut], v.res_in[cut]) == (-2, 2)
        assert (v.res_out[other], v.res_in[other]) == (3, 0)
        assert v.height_pos == 5

    def test_deficit_beyond_the_outflow_raises(self):
        # The ledger says more flow left than the arcs carry: a broken
        # invariant, which must fail loudly instead of waiting forever.
        v = make_vertex(excess=-3, hpos=1)
        wire(v, 7, res_out=0, res_in=3, mhpos=0, cap_out=0)
        with pytest.raises(InvariantViolation):
            shed(v, [])

    def test_the_source_waits_for_its_returned_flow(self):
        s = make_vertex(vtype=SOURCE, excess=-2, hpos=12)
        wire(s, 7, res_out=-2, res_in=5, mhpos=1, cap_out=3)
        out = []
        discharge(s, OpContext(), out)
        assert s.excess == -2 and out == []


class TestBroadcast:
    def test_unchanged_heights_send_nothing(self):
        v = make_vertex(hpos=4)
        wire(v, 7, res_out=1, res_in=1)
        out = []
        broadcast_height_if_needed(v, out)
        assert out == []

    def test_changed_height_reaches_every_interested_neighbour(self):
        v = make_vertex(hpos=0)
        for w in (7, 8, 9):
            wire(v, w, res_out=1, res_in=1)
        v.height_pos = 5
        out = []
        broadcast_height_if_needed(v, out)
        assert sorted(dst for dst, _ in out) == [7, 8, 9]
        assert all(m.amount == 0 and m.hpos == 5 for _, m in out)

    def test_suppression_invalidates_unneeded_height(self):
        # The neighbour holds no residual toward us, so our height is not
        # usable there: a capacity offset carries the INF sentinel instead,
        # and a later height change sends nothing to that slot.
        v = make_vertex(hpos=3)
        i = wire(v, 7, res_out=0, res_in=0, mhpos=4)
        v.sent_hpos[i] = 3  # sent while the arc toward us was open
        out = []
        on_edge_changed(v, 7, 2, out, 0)
        assert [(m.kind, m.hpos) for _, m in out] == [(CAP_OFFSET, INF)]
        assert v.sent_hpos[i] == INF
        v.height_pos = 5
        out = []
        broadcast_height_if_needed(v, out)
        assert out == []

    def test_dirty_slot_resends_after_residual_reopens(self):
        v = make_vertex(hpos=4)
        i = wire(v, 7, res_out=0, res_in=0)
        out = []
        broadcast_height_if_needed(v, out, dirty=i)
        assert out == []  # nothing needed yet
        v.res_in[i] = 3  # the arc toward us reopened
        broadcast_height_if_needed(v, out, dirty=i)
        assert len(out) == 1
        assert out[0][1].hpos == 4


def deliver(out, dst, w, ctx):
    """Hand every message of ``out`` addressed to ``dst`` to vertex w."""
    for to, m in out:
        if to == dst:
            on_message_received(w, m, ctx, [])


class TestLiveIndex:
    def test_deleted_pair_leaves_the_index_and_returns_on_its_slot(self):
        ctx = OpContext()
        u, w = make_vertex(vid=2), make_vertex(vid=7)
        out = []
        i = on_edge_changed(u, 7, 5, out, 0)
        on_edge_changed(u, 8, 4, out, 0)
        deliver(out, 7, w, ctx)
        j = w.nbr_index[2]
        assert (i, u.live, w.live) == (0, [0, 1], [j])

        out = []
        on_edge_changed(u, 7, -5, out, 0)  # the pair's whole capacity
        deliver(out, 7, w, ctx)
        assert (u.res_out[i], u.res_in[i], w.res_out[j], w.res_in[j]) == (0, 0, 0, 0)
        assert u.live == [1] and u.nbr_index[7] == i
        assert w.live == [] and w.nbr_index[2] == j

        out = []
        assert on_edge_changed(u, 7, 3, out, 0) == i
        assert u.live == [0, 1] and len(u.nbr_ids) == 2
        # no introduction: only the capacity offset leaves
        assert [(dst, m.kind, m.amount) for dst, m in out] == [(7, CAP_OFFSET, 3)]
        deliver(out, 7, w, ctx)
        assert w.live == [j] and len(w.nbr_ids) == 1 and w.res_in[j] == 3

    def test_pair_dying_under_a_push_in_flight_stays_listed_until_both_residuals_are_0(self):
        # 0 -> 2 -> 3 -> 1 carries 5; (2, 3) is deleted while 2's push
        # toward 3 is still in the channel, so 2's slot for 3 passes
        # through (-x, x) and only dies once 3 returns the flow.
        eng = SimEngine(EngineConfig(source=0, sink=1, deterministic_seed=1))
        events = [TopologyEvent(0, 0, 2, 5), TopologyEvent(1, 2, 3, 5), TopologyEvent(2, 3, 1, 5)]
        for ev in events:
            eng.ingest(ev)
        worker = eng.workers[0]

        def in_flight():
            v = worker.vertices.get(2)
            i = v.nbr_index.get(3, -1) if v else -1
            pushed = any(
                dst == 3 and m.sender == 2 and m.kind == FLOW and m.amount > 0
                for chan in worker.chans for dst, m in chan
            )
            return i >= 0 and v.res_in[i] > 0 and pushed

        for _ in range(1000):
            if in_flight():
                break
            assert eng.pump(max_steps=1) == 1
        assert in_flight()
        delete = TopologyEvent(3, 2, 3, -5)
        eng.ingest(delete)
        events.append(delete)
        assert eng.pump(max_steps=1) == 1  # topology first: the delete lands
        v = worker.vertices[2]
        i = v.nbr_index[3]
        x = v.res_in[i]
        assert x > 0 and v.res_out[i] == -x and i in v.live

        while eng.pump(max_steps=1):
            if v.res_out[i] or v.res_in[i]:
                assert i in v.live
        assert (v.res_out[i], v.res_in[i]) == (0, 0) and i not in v.live
        assert 2 not in worker.vertices[3].live
        want, _ = max_flow_reference(eng.store.snapshot(), 0, 1)
        assert eng.query().flow_value == want
        assert eng.scan_invariants() == []

    @pytest.mark.parametrize("workers", [2, 3])
    def test_relabel_at_quiescence_writes_exact_heights_and_matching_mirrors(self, workers):
        # A sliding window leaves dead slots and cuts flow. Relabel-down
        # sends no message: it writes heights, sent values and mirrors
        # itself. So a relabel forced at quiescence must leave, before any
        # pump, a clean scan (every mirror equal to the counterpart's last
        # sent value, dead slots included) and the exact residual distances.
        eng = SimEngine(EngineConfig(source=0, sink=1, workers=workers, deterministic_seed=3))
        events = list(sliding_window_transform(
            growth_stream(random.Random(5), 500, 30, st_edge_prob=0.12), 90))
        dead = 0
        for k, ev in enumerate(events):
            eng.ingest(ev)
            if k % 25 == 24:
                want, _ = max_flow_reference(eng.store.snapshot(), 0, 1)
                assert eng.query().flow_value == want
                dead += sum(len(v.nbr_ids) - len(v.live) for _, v in eng.vertices_items())
                snap = eng.force_global_relabel(capture=True)
                assert eng.scan_invariants() == []
                assert snap.height_pos == expected_heights(snap, 0, 1, set(snap.height_pos))
                assert eng.query().flow_value == want
        assert dead, "no pair died before a forced relabel"
        assert eng._total_cuts(), "the window never cut a flow"
