"""Hand-traced unit checks of the core vertex operations."""

import pytest

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
    push,
    restore_height_invariant,
)


def make_vertex(vid=1, vtype=NORMAL, excess=0, hpos=0, hneg=0):
    v = VertexState(vid, vtype)
    v.excess = excess
    v.height_pos = hpos
    v.height_neg = hneg
    v.last_bcast_pos = hpos
    v.last_bcast_neg = hneg
    return v


def wire(v, w, res_out=0, res_in=0, mhpos=0, mhneg=0):
    i = add_neighbour(v, w)
    v.res_out[i] = res_out
    v.res_in[i] = res_in
    v.mirror_hpos[i] = mhpos
    v.mirror_hneg[i] = mhneg
    return i


def flows(out):
    return [(dst, m.amount) for dst, m in out if m.kind == FLOW]


class TestPush:
    def test_positive_push_caps_at_residual(self):
        v = make_vertex(excess=5, hpos=2)
        i = wire(v, 7, res_out=3, res_in=0, mhpos=1)
        out = []
        moved = push(v, i, OpContext(), out)
        assert moved == 3
        assert (v.excess, v.res_out[i], v.res_in[i]) == (2, 0, 3)
        assert flows(out) == [(7, 3)]

    def test_no_excess_is_a_noop(self):
        v = make_vertex(excess=0, hpos=5)
        i = wire(v, 7, res_out=3)
        out = []
        assert push(v, i, OpContext(), out) == 0
        assert out == [] and v.res_out[i] == 3

    def test_negative_push_through_inbound_residual(self):
        v = make_vertex(excess=-4, hneg=1)
        i = wire(v, 7, res_out=0, res_in=10, mhneg=0)
        out = []
        moved = push(v, i, OpContext(), out)
        assert moved == -4
        assert (v.excess, v.res_out[i], v.res_in[i]) == (0, 4, 6)
        assert flows(out) == [(7, -4)]

    def test_uphill_push_blocked(self):
        v = make_vertex(excess=5, hpos=1)
        i = wire(v, 7, res_out=3, mhpos=1)  # equal height is not downhill
        assert push(v, i, OpContext(), []) == 0


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
        v = make_vertex(excess=-3, hpos=0, hneg=INF)
        wire(v, 7, res_in=5, mhneg=0)
        out = []
        discharge(v, OpContext(), out)
        assert v.excess == -3
        assert out == []

    def test_push_and_lift_disabled_changes_nothing(self):
        ctx = OpContext()
        ctx.push_enabled = False
        ctx.lift_enabled = False
        v = make_vertex(excess=2, hpos=3, hneg=4)
        i = wire(v, 7, res_out=5, res_in=1, mhpos=0, mhneg=0)
        out = []
        discharge(v, ctx, out)
        assert out == []
        assert (v.excess, v.height_pos, v.height_neg) == (2, 3, 4)
        assert (v.res_out[i], v.res_in[i], ctx.lift_count) == (5, 1, 0)

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
        restore_height_invariant(v, i, OpContext(), [])
        assert v.height_pos == 4

    def test_source_saturates_but_never_descends(self):
        v = make_vertex(vtype=SOURCE, excess=8, hpos=12)
        i = wire(v, 7, res_out=6, mhpos=3)
        out = []
        restore_height_invariant(v, i, OpContext(), out)
        assert v.height_pos == 12
        assert flows(out) == [(7, 6)]
        assert v.res_out[i] == 0

    def test_no_residual_means_no_constraint(self):
        v = make_vertex(excess=0, hpos=9, hneg=9)
        i = wire(v, 7, res_out=0, res_in=0, mhpos=1, mhneg=1)
        restore_height_invariant(v, i, OpContext(), [])
        assert v.height_pos == 9
        assert v.height_neg == 9

    def test_negative_height_clamp(self):
        v = make_vertex(excess=0, hpos=0, hneg=9)
        i = wire(v, 7, res_in=2, mhneg=3)
        restore_height_invariant(v, i, OpContext(), [])
        assert v.height_neg == 4


class TestBroadcast:
    def test_unchanged_heights_send_nothing(self):
        v = make_vertex(hpos=4, hneg=2)
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
        # the neighbour holds no residual toward us, so our positive height
        # is not usable there; it is sent as the INF sentinel instead
        v = make_vertex(hpos=0, hneg=3)
        i = wire(v, 7, res_out=2, res_in=0)
        v.height_pos = 5
        out = []
        broadcast_height_if_needed(v, out)
        assert len(out) == 1
        _, m = out[0]
        assert m.hpos == INF and m.hpos != v.height_pos
        assert m.hneg == 3
        assert v.sent_hpos[i] == INF

    def test_dirty_slot_resends_after_residual_reopens(self):
        v = make_vertex(hpos=4, hneg=2)
        i = wire(v, 7, res_out=0, res_in=0)
        out = []
        broadcast_height_if_needed(v, out, dirty=(i,))
        assert out == []  # nothing needed yet
        v.res_in[i] = 3  # the arc toward us reopened
        broadcast_height_if_needed(v, out, dirty=(i,))
        assert len(out) == 1
        assert out[0][1].hpos == 4
