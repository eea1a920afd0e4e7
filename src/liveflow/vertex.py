"""The dynamic push-relabel vertex program.

Each vertex is an independent agent owning its excess, a height guiding
flow toward the sink, per-neighbour mirrors of residual capacities and
heights, and the capacity of each outgoing edge. All effects leave a vertex
as messages; nothing here reads another vertex's state.

Conventions used throughout:

* ``res_out[i]`` is the residual capacity from this vertex to neighbour i,
  ``res_in[i]`` the residual capacity from neighbour i to this vertex as
  locally known. At quiescence ``v.res_out[w] == w.res_in[v]``.
* ``cap_out[i]`` is the aggregate capacity of the edge to neighbour i, as
  the edge handler applied it; pairs the algorithm ignores stay at 0. The
  flow on the edge is ``cap_out[i] - res_out[i]``.
* A message names its sender by id only; the receiver looks the sender's
  slot up in ``nbr_index``.
* ``live`` lists, in ascending order, the slots that may carry residual
  capacity: every slot whose ``res_out`` or ``res_in`` is nonzero, and
  possibly some whose pair has died. Discharge, the full height broadcast
  and extraction walk ``live`` instead of every slot, so a deleted edge
  costs nothing once both its residuals are 0. A slot is re-checked only
  where its residuals change outside a push: ``on_edge_changed``, and
  ``on_message_received`` for a nonzero amount (height-only refreshes,
  most of the traffic, skip it).
  A push needs a positive residual and leaves the reverse one positive,
  and :func:`shed` walks ``live`` and leaves ``res_out`` positive, so
  neither has to be.
  Dead slots stay in place, with their mirrors and sent heights: dropping
  them would move later slots, and slot order fixes the order in which
  messages leave, so the seeded schedule would change.
* Heights use the sentinel ``INF``, strictly above any reachable label.
  New normal vertices start at INF so they cannot attract flow before a
  real route to the sink is learned; they descend naturally while
  restoring the height invariant with neighbours. A new slot's mirror and
  sent height start at INF too, until the normal broadcast sends the real
  height once the residual toward its sender opens. A mirror of 0 would
  stand for a height never seen, which is no valid lower bound: the tail
  would drop to height 1 (or push toward a head with no route) and the
  error would spread through lifts until a global relabel repairs it.
* The source sits at INF and the sink at 0, both fixed. The source's arcs
  need no height invariant: nothing sits above INF, so no neighbour pushes
  back to it, and excess with no residual route to the sink waits where it
  is (see :func:`discharge`).
* Every outbound message carries the sender's height subject to a
  suppression rule: it is attached only when the counterpart holds
  residual capacity toward us (``res_in[i] > 0``). ``sent_hpos`` records
  the last transmitted value so a suppressed change can be re-sent the
  moment the residual reopens.
* A deficit (negative excess) starts at the head of a flow cut, a
  capacity decrease that forced the vertex to send flow back. Every
  handler keeps a normal vertex's ``excess`` equal to minus its net
  outflow, the sum of ``cap_out[i] - res_out[i]``, so the arcs that carry
  flow out of a deficit carry at least the deficit. :func:`shed` cancels
  it along them in one pass, with no label: each neighbour inherits the
  amount it was sent back, and the chain ends at the sink. This is flow
  decomposition (Ahuja, Magnanti & Orlin 1993): outflow from a vertex
  always leads to the sink.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import List

__all__ = [
    "INF",
    "SOURCE",
    "SINK",
    "NORMAL",
    "FLOW",
    "CAP_OFFSET",
    "InvariantViolation",
    "Msg",
    "OpContext",
    "VertexState",
    "add_neighbour",
    "push",
    "shed",
    "discharge",
    "restore_height_invariant",
    "broadcast_height_if_needed",
    "on_edge_changed",
    "on_message_received",
    "finish_vertex",
    "relabel_up",
]

INF = 1 << 60     # height infinity: above any reachable label

SOURCE, SINK, NORMAL = 0, 1, 2
FLOW, CAP_OFFSET = 0, 1


class InvariantViolation(RuntimeError):
    """A vertex-local invariant that should be unbreakable was broken."""


class Msg:
    """Inter-vertex message: the sender's id, a flow amount or a capacity
    offset, and the sender's height. A height the receiver cannot use
    arrives as the INF sentinel (see :func:`_send`), so the mirror is
    overwritten on receipt. The receiver finds the sender's slot by id in
    its ``nbr_index``.
    """

    __slots__ = ("sender", "kind", "amount", "hpos")

    def __init__(self, sender, kind, amount, hpos):
        self.sender = sender
        self.kind = kind
        self.amount = amount
        self.hpos = hpos

    def __repr__(self):  # pragma: no cover - debugging aid
        kind = "flow" if self.kind == FLOW else "cap"
        return f"Msg(from={self.sender} {kind}={self.amount} h={self.hpos})"


class OpContext:
    """Worker-local switch and counters shared by all handler calls.

    Lifts are disabled during a global relabel's drain; the lift and
    flow-cut counters feed the relabel trigger. A flow cut is a capacity
    decrease that forces a vertex to send flow back.
    """

    __slots__ = ("lift_enabled", "lift_count", "cut_count")

    def __init__(self):
        self.lift_enabled = True
        self.lift_count = 0
        self.cut_count = 0


class VertexState:
    """Per-vertex algorithm state with struct-of-arrays neighbour storage.

    Neighbour data lives in parallel lists indexed by slot; ``nbr_index``
    maps a neighbour id to its slot. ``cap_out[i]`` is the aggregate
    capacity of the edge to neighbour i as this vertex's edge handler has
    applied it (0 for pairs the algorithm ignores), so the flow on the edge
    is ``cap_out[i] - res_out[i]`` without a lookup in the capacity ledger.
    ``live`` is the ascending index of slots that may carry residual
    capacity (see the module docstring).
    """

    __slots__ = (
        "vid",
        "vtype",
        "excess",
        "height_pos",
        "nbr_ids",
        "res_out",
        "res_in",
        "mirror_hpos",
        "sent_hpos",
        "cap_out",
        "nbr_index",
        "live",
        "last_bcast_pos",
    )

    def __init__(self, vid: int, vtype: int):
        self.vid = vid
        self.vtype = vtype
        self.excess = 0
        self.height_pos = 0 if vtype == SINK else INF
        self.nbr_ids: List[int] = []
        self.res_out: List[int] = []
        self.res_in: List[int] = []
        self.mirror_hpos: List[int] = []
        self.sent_hpos: List[int] = []
        self.cap_out: List[int] = []
        self.nbr_index: dict = {}
        self.live: List[int] = []
        self.last_bcast_pos = self.height_pos

    def __repr__(self):  # pragma: no cover - debugging aid
        t = {SOURCE: "S", SINK: "T", NORMAL: "N"}[self.vtype]
        return f"Vertex({self.vid}/{t} e={self.excess} h={self.height_pos})"


def add_neighbour(v: VertexState, w: int) -> int:
    """Materialize w in v's tables with zeroed residuals and an INF mirror
    and sent height: neither side has sent the other a height yet."""
    i = len(v.nbr_ids)
    v.nbr_ids.append(w)
    v.res_out.append(0)
    v.res_in.append(0)
    v.mirror_hpos.append(INF)
    v.sent_hpos.append(INF)
    v.cap_out.append(0)
    v.nbr_index[w] = i
    v.live.append(i)
    return i


def _relist(v: VertexState, i: int) -> None:
    """Bring slot i's membership in ``live`` in line with its residuals:
    listed while either is nonzero, unlisted once both are exactly 0."""
    live = v.live
    k = bisect_left(live, i)
    listed = k < len(live) and live[k] == i
    if v.res_out[i] or v.res_in[i]:
        if not listed:
            live.insert(k, i)
    elif listed:
        del live[k]


def _send(v: VertexState, i: int, kind: int, amount: int, out: list) -> None:
    """Queue a message to neighbour slot i, attaching the height per the
    suppression rule evaluated on the current residuals.

    A height the counterpart does not need (the relevant residual is closed)
    is not frozen at its last value but actively invalidated with INF. A
    stale finite mirror on a closed arc invites the counterpart to push flow
    at a vertex that will bounce it right back, and a crossed push/retract
    pair can then orbit that arc forever; INF parks the flow until a real
    height is re-sent once the residual reopens."""
    hpos = v.height_pos if v.res_in[i] > 0 else INF
    v.sent_hpos[i] = hpos
    out.append((v.nbr_ids[i], Msg(v.vid, kind, amount, hpos)))


def push(v: VertexState, i: int, out: list) -> int:
    """Push as much excess as possible to neighbour slot i; a no-op when
    there is no excess or the height or residual condition fails. Returns
    the amount moved."""
    e = v.excess
    if e > 0 and v.height_pos > v.mirror_hpos[i]:
        rc = v.res_out[i]
        if rc > 0:
            amount = e if e < rc else rc
            v.excess = e - amount
            v.res_out[i] = rc - amount
            v.res_in[i] += amount
            _send(v, i, FLOW, amount, out)
            return amount
    return 0


def shed(v: VertexState, out: list) -> None:
    """Cancel a normal vertex's deficit along its own outflow, with no
    label: walk ``live`` in order and send each slot that carries flow
    ``f = cap_out[i] - res_out[i] > 0`` a FLOW message of ``-min(f, deficit)``,
    applied here as a push of that amount. The cancelled flow reopens the
    arc, so the height drops to at most one above the slot's mirror. The
    neighbour inherits the amount as its own deficit and sheds it in turn;
    the chain ends at the sink.

    Every handler keeps a normal vertex's excess equal to minus its net
    outflow, so one pass clears the deficit. A slot with ``res_out < 0`` is
    skipped: its capacity was cut and the head's return of the flow is in
    flight, and cancelling the same flow from both ends would cross the two
    forever. The deficit then waits for that return. A deficit left by a
    pass that skipped nothing means the ledger broke, and raises.
    """
    need = -v.excess
    skipped = False
    cap_out, res_out, res_in, mirrors = v.cap_out, v.res_out, v.res_in, v.mirror_hpos
    for i in v.live:
        r = res_out[i]
        f = cap_out[i] - r
        if f > 0:
            if r < 0:
                skipped = True
                continue
            a = f if f < need else need
            need -= a
            res_out[i] = r + a
            res_in[i] -= a
            _send(v, i, FLOW, -a, out)
            cap = mirrors[i] + 1
            if v.height_pos > cap:
                v.height_pos = cap
            if not need:
                break
    v.excess = -need
    if need and not skipped:
        raise InvariantViolation(
            f"vertex {v.vid} holds a deficit of {need} beyond the flow it sends out"
        )


def discharge(v: VertexState, ctx: OpContext, out: list) -> None:
    """Drain the vertex's excess: push along every admissible arc, lifting
    between passes, until nothing is left. The source and sink attempt each
    neighbour once and stop regardless of remaining excess. A normal
    vertex's deficit goes to :func:`shed`; the source's negative excess
    (its out-capacity fell) waits for the flow that comes back.

    An arc is admissible when it has residual capacity and the vertex sits
    above the mirrored height; only those reach :func:`push`. The other
    residual arcs give the lift minimum in the same pass, so large neighbour
    lists are scanned once per round. A push that leaves excess behind has
    saturated its arc, so it never feeds the minimum.

    The lift raises a normal vertex to one above the lowest residual mirror;
    while lifts are disabled (a global relabel's drain) the excess is parked
    instead. When every residual mirror is INF the excess waits: a height
    refresh is in flight, or no residual route to the sink exists.
    """
    normal = v.vtype == NORMAL
    if v.excess < 0:
        if normal:
            shed(v, out)
        return
    live = v.live
    res = v.res_out
    mirrors = v.mirror_hpos
    while v.excess > 0:
        h = v.height_pos
        best = INF + 1
        for i in live:
            if res[i] > 0:
                m = mirrors[i]
                if h > m:
                    push(v, i, out)
                    if v.excess == 0:
                        return
                elif m < best:
                    best = m
        if not normal or not ctx.lift_enabled:
            return
        if best > INF:
            raise InvariantViolation(
                f"vertex {v.vid} holds excess {v.excess} but has no residual arc to relabel toward"
            )
        if best == INF:
            return  # every candidate mirror is INF; wait for a height refresh
        v.height_pos = best + 1
        ctx.lift_count += 1


def restore_height_invariant(v: VertexState, i: int, out: list) -> None:
    """Re-establish the local height invariant against neighbour slot i:
    first try to saturate the arc by pushing, then descend if the height
    still sits more than one level above the mirrored height on a positive
    residual."""
    if v.excess > 0:
        push(v, i, out)
    if v.vtype != NORMAL:
        return
    cap = v.mirror_hpos[i] + 1
    if v.res_out[i] > 0 and v.height_pos > cap:
        v.height_pos = cap


def broadcast_height_if_needed(v: VertexState, out: list, dirty: int = -1) -> None:
    """Send the updated height to neighbours that need it.

    A full scan of the ``live`` slots runs only when the height changed
    since the last broadcast (an unlisted slot has both residuals 0 and
    needs no height); otherwise only the ``dirty`` slot (the neighbour whose
    residuals the current handler touched, -1 for none) is re-checked, which
    re-sends a previously suppressed height once the inbound residual
    reopens. Each message is what :func:`_send` would build for a zero flow,
    written inline.
    """
    hp = v.height_pos
    if hp != v.last_bcast_pos:
        slots = v.live
        v.last_bcast_pos = hp
    else:
        slots = (dirty,) if dirty >= 0 else ()
    res_in = v.res_in
    sent = v.sent_hpos
    for i in slots:
        if res_in[i] > 0 and sent[i] != hp:
            sent[i] = hp
            out.append((v.nbr_ids[i], Msg(v.vid, FLOW, 0, hp)))


def on_edge_changed(v: VertexState, w: int, delta: int, out: list, source_id: int) -> int:
    """Apply a capacity change on the outgoing edge (v, w).

    Loops, edges into the source, and edges out of the sink have no effect
    on the flow and are ignored; a new pair reaches the head as the
    capacity offset alone. Returns the neighbour slot touched, or -1 when
    ignored. The trailing discharge/broadcast is left to
    :func:`finish_vertex`, which closes the handler run.
    """
    if v.vid == w or w == source_id or v.vtype == SINK:
        return -1
    i = v.nbr_index.get(w, -1)
    if i < 0:
        i = add_neighbour(v, w)
    v.res_out[i] += delta
    v.cap_out[i] += delta
    _relist(v, i)
    if v.vtype == SOURCE:
        # The source keeps enough excess to saturate all outgoing edges.
        v.excess += delta
    _send(v, i, CAP_OFFSET, delta, out)
    restore_height_invariant(v, i, out)
    return i


def on_message_received(v: VertexState, m: Msg, ctx: OpContext, out: list) -> int:
    """Apply one inbound message: refresh the mirror, account the flow or
    capacity offset, return any flow needed to keep the inbound residual
    non-negative (which may leave this vertex with a deficit), re-check the
    slot's place in ``live``, then restore the height invariant
    (:func:`restore_height_invariant`, written inline here). The drain, and
    :func:`shed` for a deficit, are left to :func:`finish_vertex`, which
    closes the handler run. Returns the sender's slot. An unknown sender
    gets a slot and no reply: only a capacity offset can come from one, and
    the closing broadcast sends our height once ``res_in > 0``."""
    sender = m.sender
    i = v.nbr_index.get(sender, -1)
    if i < 0:
        i = add_neighbour(v, sender)
    hpos = m.hpos
    v.mirror_hpos[i] = hpos

    res_in = v.res_in
    amt = m.amount
    if amt:  # most messages are height-only refreshes
        if m.kind == CAP_OFFSET:
            res_in[i] += amt
        else:
            v.res_out[i] += amt
            res_in[i] -= amt
            v.excess += amt
        if res_in[i] < 0:
            # The inbound residual went negative (capacity decrease raced
            # past flow already sent); return enough flow to zero it,
            # possibly going into deficit ourselves.
            back = -res_in[i]
            v.excess -= back
            v.res_out[i] -= back
            res_in[i] = 0
            _send(v, i, FLOW, back, out)
            ctx.cut_count += 1
        _relist(v, i)

    if v.excess > 0:
        push(v, i, out)
    if v.vtype == NORMAL and v.res_out[i] > 0 and v.height_pos > hpos + 1:
        v.height_pos = hpos + 1
    return i


def finish_vertex(v: VertexState, ctx: OpContext, out: list, dirty: int = -1) -> None:
    """Close a handler run: discharge once (shedding a deficit), then send
    a changed height (a full scan when it changed, else a re-check of
    ``dirty``, the slot the run's edge or message handler returned)."""
    if v.excess:
        discharge(v, ctx, out)
    broadcast_height_if_needed(v, out, dirty)


def relabel_up(v: VertexState) -> None:
    """Reset the height for a global relabel's breadth-first search: every
    vertex but the sink rises to INF, the source's fixed point, and the sink
    keeps 0. Only the height changes: relabel-down writes the sent heights
    and the mirrors of the ``live`` slots once the search is done.
    """
    v.height_pos = 0 if v.vtype == SINK else INF
