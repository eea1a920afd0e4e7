"""Event and message handler behaviour, traced per the vertex program rules.

Each handler call is followed by ``finish_vertex``, which closes every
handler run in the runtime; as in the runtime, it is passed the slot the
handler returned."""

import pytest

from liveflow.vertex import (
    CAP_OFFSET,
    FLOW,
    INF,
    NORMAL,
    SINK,
    SOURCE,
    Msg,
    OpContext,
    VertexState,
    finish_vertex,
    on_edge_changed,
    on_message_received,
)
from test_vertex_ops import flows, make_vertex, wire

SRC_ID = 100


def msg(sender, kind, amount, hpos=INF):
    return Msg(sender, kind, amount, hpos)


def flows_to(out, dst):
    return [(d, m) for d, m in out if d == dst and m.kind == FLOW and m.amount != 0]


class TestOnEdgeChanged:
    def test_self_loop_ignored(self):
        # The excess waits on an arc whose head height is still unknown.
        v = make_vertex(vid=3, excess=5, hpos=2)
        wire(v, 4, res_out=5, mhpos=INF)
        ctx, out = OpContext(), []
        assert on_edge_changed(v, 3, 7, out, SRC_ID) == -1
        finish_vertex(v, ctx, out)
        assert out == [] and 3 not in v.nbr_index and v.excess == 5

    def test_edge_into_source_ignored(self):
        v = make_vertex(vid=3)
        ctx, out = OpContext(), []
        assert on_edge_changed(v, SRC_ID, 7, out, SRC_ID) == -1
        finish_vertex(v, ctx, out)
        assert out == [] and v.nbr_ids == []

    def test_sink_tail_ignored(self):
        v = make_vertex(vid=3, vtype=SINK)
        ctx, out = OpContext(), []
        assert on_edge_changed(v, 4, 7, out, SRC_ID) == -1
        finish_vertex(v, ctx, out)
        assert out == [] and v.nbr_ids == []

    def test_source_gains_excess_and_saturates_new_edge(self):
        s = make_vertex(vid=SRC_ID, vtype=SOURCE, hpos=10)
        ctx, out = OpContext(), []
        i = on_edge_changed(s, 7, 7, out, SRC_ID)
        finish_vertex(s, ctx, out, i)
        # The head's heights are unknown (INF mirrors), so the 7 waits.
        assert s.excess == 7
        assert s.res_out[i] == 7 and s.res_in[i] == 0
        assert (s.mirror_hpos[i], s.sent_hpos[i]) == (INF, INF)
        # The capacity offset alone tells the head of the new pair.
        assert [(dst, m.kind, m.amount, m.hpos) for dst, m in out] == [
            (7, CAP_OFFSET, 7, INF)]
        # The head, one above the sink, gets its slot from the offset and
        # sends its height in the broadcast that closes the run.
        head = make_vertex(vid=7, hpos=1)
        replies = []
        j = on_message_received(head, out[0][1], ctx, replies)
        assert replies == []
        finish_vertex(head, ctx, replies, j)
        assert head.nbr_ids == [SRC_ID] and head.res_in[j] == 7
        assert [(dst, m.kind, m.amount, m.hpos) for dst, m in replies] == [
            (SRC_ID, FLOW, 0, 1)]
        # The head's height arrives and the source saturates the edge.
        out = []
        k = on_message_received(s, replies[0][1], ctx, out)
        finish_vertex(s, ctx, out, k)
        assert k == i and s.excess == 0
        assert s.res_out[i] == 0 and s.res_in[i] == 7
        assert [m.amount for _, m in flows_to(out, 7)] == [7]

    def test_capacity_decrease_goes_negative_until_peer_restores(self):
        v = make_vertex(vid=3, excess=0, hpos=2)
        i = wire(v, 7, res_out=2, res_in=0, mhpos=1, cap_out=2)
        ctx, out = OpContext(), []
        assert on_edge_changed(v, 7, -5, out, SRC_ID) == i
        finish_vertex(v, ctx, out, i)
        assert v.res_out[i] == -3  # restored at the peer on offset receipt
        offsets = [(dst, m.amount) for dst, m in out if m.kind == CAP_OFFSET]
        assert offsets == [(7, -5)]

    def test_joint_restoration_with_peer(self):
        # 5 units flow 3 -> 7 -> 9; deleting (3,7) forces 7 to return flow
        # to 3, carry a deficit, and cancel the 5 it forwarded to 9.
        ctx = OpContext()
        v = make_vertex(vid=3, excess=0, hpos=1)
        up = wire(v, 2, res_out=5, res_in=0, mhpos=1)  # 5 arrived from 2 earlier
        i = wire(v, 7, res_out=0, res_in=5, mhpos=0, cap_out=5)
        w = make_vertex(vid=7, excess=0, hpos=1)
        wire(w, 3, res_out=5, res_in=0, mhpos=1)
        j = wire(w, 9, res_out=0, res_in=5, mhpos=0, cap_out=5)  # forwarded trail

        out = []
        assert on_edge_changed(v, 7, -5, out, SRC_ID) == i
        finish_vertex(v, ctx, out, i)
        assert v.res_out[i] == -5
        transfer = [m for dst, m in out if dst == 7]
        replies = []
        for m in transfer:
            finish_vertex(w, ctx, replies, on_message_received(w, m, ctx, replies))
        returned = [m for dst, m in replies if dst == 3 and m.kind == FLOW and m.amount > 0]
        assert sum(m.amount for m in returned) == 5
        retracted = [m for dst, m in replies if dst == 9 and m.kind == FLOW and m.amount < 0]
        assert sum(m.amount for m in retracted) == -5  # the deficit sheds toward 9
        assert w.excess == 0
        assert w.res_in[j] == 0
        feedback = []
        for m in returned:
            finish_vertex(v, ctx, feedback, on_message_received(v, m, ctx, feedback))
        assert v.res_out[i] == 0  # non-negative residual restored
        assert v.excess == 0  # the 5 units went back upstream
        assert [(dst, m.amount) for dst, m in flows_to(feedback, 2)] == [(2, 5)]


class TestOnMessageReceived:
    def test_flow_into_sink_accumulates(self):
        t = make_vertex(vid=9, vtype=SINK)
        i = wire(t, 4, res_in=5)  # capacity offset for (4,9) already arrived
        t.sent_hpos[i] = t.height_pos  # height already known at the peer
        ctx, out = OpContext(), []
        assert on_message_received(t, msg(4, FLOW, 3, hpos=1), ctx, out) == i
        finish_vertex(t, ctx, out, i)
        assert t.excess == 3
        assert t.res_in[i] == 2
        assert out == []  # no pushes from the sink

    def test_capacity_offset_below_zero_returns_flow_and_leaves_deficit(self):
        # 5 flows 7 -> 5 -> 8 when (7,5) drops from 8 to 3. Vertex 5 sends 2
        # back, which makes 2 of its deficit, and cancels 2 of the 5 it sends
        # on to 8.
        v = make_vertex(vid=5, excess=0, hpos=4)
        i = wire(v, 7, res_out=5, res_in=3, mhpos=6)
        j = wire(v, 8, res_out=0, res_in=5, mhpos=3, cap_out=5)
        ctx, out = OpContext(), []
        assert on_message_received(v, msg(7, CAP_OFFSET, -5), ctx, out) == i
        finish_vertex(v, ctx, out, i)
        assert (v.res_out[i], v.res_in[i]) == (3, 0)
        assert (v.res_out[j], v.res_in[j]) == (2, 3)
        assert v.excess == 0
        assert flows(out) == [(7, 2), (8, -2)]

    def test_zero_flow_updates_mirrors_only(self):
        v = make_vertex(vid=5, excess=0, hpos=3)
        i = wire(v, 7, res_out=0, res_in=0, mhpos=9)
        ctx, out = OpContext(), []
        assert on_message_received(v, msg(7, FLOW, 0, hpos=2), ctx, out) == i
        finish_vertex(v, ctx, out, i)
        assert v.mirror_hpos[i] == 2
        assert v.excess == 0
        assert out == []

    def test_unknown_sender_is_materialized_without_reply(self):
        # Only a capacity offset comes from an unknown sender. It opens the
        # inbound residual, so the broadcast that closes the run sends the
        # finite height.
        v = make_vertex(vid=5)
        ctx, out = OpContext(), []
        i = on_message_received(v, msg(31, CAP_OFFSET, 4), ctx, out)
        assert out == []
        finish_vertex(v, ctx, out, i)
        assert v.nbr_ids == [31] and v.live == [i]
        assert (v.res_out[i], v.res_in[i], v.mirror_hpos[i]) == (0, 4, INF)
        assert [(dst, m.amount, m.hpos) for dst, m in out] == [(31, 0, 0)]
        assert v.sent_hpos[i] == 0

    def test_known_sender_updates_exactly_its_slot(self):
        # The two sides added each other in different orders: 3 is slot 2
        # at 7, and 7 is slot 0 at 3. Each side's messages name only the
        # sender, and each receiver touches only the sender's slot.
        v = make_vertex(vid=3, hpos=2)
        iv = wire(v, 7, mhpos=1)
        wire(v, 8, mhpos=5)
        w = make_vertex(vid=7, hpos=1)
        wire(w, 4, mhpos=6)
        wire(w, 5, mhpos=6)
        jw = wire(w, 3, mhpos=2)
        assert (iv, jw) == (0, 2)
        ctx = OpContext()
        for recv, sender, slot, peer in ((w, v, jw, 7), (v, w, iv, 3)):
            before = [list(recv.res_in), list(recv.res_out), list(recv.mirror_hpos)]
            out = []
            finish_vertex(sender, ctx, out, on_edge_changed(sender, peer, 4, out, SRC_ID))
            replies = []
            for dst, m in out:
                assert dst == peer
                assert on_message_received(recv, m, ctx, replies) == slot
                finish_vertex(recv, ctx, replies, slot)
            after = [recv.res_in, recv.res_out, recv.mirror_hpos]
            changed = {k for b, a in zip(before, after)
                       for k in range(len(a)) if a[k] != b[k]}
            assert changed == {slot}
            assert recv.res_in[slot] == 4
            assert len(recv.nbr_ids) == len(before[0])

    def test_new_sender_gets_one_slot_and_no_reply(self):
        v = make_vertex(vid=5, hpos=2)
        wire(v, 7)
        wire(v, 8)
        ctx, out = OpContext(), []
        i = on_message_received(v, msg(31, CAP_OFFSET, 3), ctx, out)
        assert out == []
        finish_vertex(v, ctx, out, i)
        assert i == 2 and v.nbr_ids == [7, 8, 31] and v.nbr_index[31] == 2
        # one height for the new slot, from the broadcast, not a reply
        assert [(dst, m.amount, m.hpos) for dst, m in out] == [(31, 0, 2)]
        again = []
        assert on_message_received(v, msg(31, FLOW, 0, hpos=3), ctx, again) == i
        finish_vertex(v, ctx, again, i)
        assert v.nbr_ids == [7, 8, 31] and v.mirror_hpos[i] == 3 and again == []

