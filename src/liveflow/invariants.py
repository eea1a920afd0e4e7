"""Quiescent-state invariant scanner.

All checks here are defined at quiescence: the engine is frozen, every
message delivered, every handler complete. The scanner walks every vertex
and reports violations as human-readable strings (empty list = clean).

Checked per vertex and per neighbour slot:

* residual capacities are non-negative and symmetric across the pair;
* the ``live`` slot index is strictly ascending, within range, and lists
  every slot with a nonzero residual (it may also list dead slots);
* each slot's edge capacity (``cap_out``) equals the ledger's capacity of
  the pair as the algorithm sees it;
* residual symmetry sums match the aggregate stored capacities (skew
  symmetry), excluding pairs the algorithm ignores (loops, edges into the
  source, edges out of the sink);
* no deficit rests: ``vertex.shed`` cancels one once no return is in flight;
* source/sink heights sit at their fixed points, INF and 0;
* the height invariant holds along every positive residual arc;
* mirrored heights match the counterpart's true height wherever the
  counterpart holds residual capacity toward it, and match the
  counterpart's last transmitted value unconditionally (INF for a slot
  that has never sent one, the value a new mirror starts at);
* the preflow is maximum, so the sink's excess is the max-flow value: a
  backward residual search from the sink reaches neither the source nor a
  normal vertex with positive excess (Goldberg & Tarjan 1988);
* all excess sums to the source's out-capacity (conservation).
"""

from __future__ import annotations

from typing import Dict, List

from . import vertex as vx

__all__ = ["scan"]


def scan(engine) -> List[str]:
    if not engine.detect_quiescence():
        raise RuntimeError("invariant scan requires a quiescent engine")
    errors: List[str] = []
    err = errors.append

    verts: Dict[int, vx.VertexState] = dict(engine.vertices_items())
    caps = engine.store.caps
    s = engine.source
    t = engine.sink

    def alg_cap(u: int, w: int) -> int:
        if u == w or w == s or u == t:
            return 0
        return caps.get((u, w), 0)

    for vid, v in verts.items():
        if v.height_pos < 0:
            err(f"vertex {vid}: negative height")
        if v.vtype == vx.NORMAL and v.excess < 0:
            err(f"vertex {vid}: normal vertex holds a deficit {v.excess}")
        if v.vtype == vx.SOURCE and v.height_pos != vx.INF:
            err(f"source height {v.height_pos} != INF")
        if v.vtype == vx.SINK and v.height_pos != 0:
            err(f"sink height {v.height_pos} != 0")

        ids = v.nbr_ids
        live = v.live
        if live and (
            live[0] < 0
            or live[-1] >= len(ids)
            or any(b <= a for a, b in zip(live, live[1:]))
        ):
            err(f"vertex {vid}: live index {live} not strictly ascending in [0, {len(ids)})")
        listed = set(live)
        for i in range(len(ids)):
            wid = ids[i]
            ro = v.res_out[i]
            ri = v.res_in[i]
            if ro < 0:
                err(f"edge ({vid},{wid}): negative outbound residual {ro}")
            if (ro or ri) and i not in listed:
                err(f"edge ({vid},{wid}): residuals ({ro}, {ri}) on a slot missing from the live index")
            w = verts.get(wid)
            if w is None:
                err(f"edge ({vid},{wid}): neighbour never materialized")
                continue
            j = w.nbr_index.get(vid, -1)
            if j < 0:
                err(f"edge ({vid},{wid}): neighbour tables are asymmetric")
                continue
            if ro != w.res_in[j]:
                err(
                    f"edge ({vid},{wid}): residual mismatch {ro} != {w.res_in[j]}"
                )
            if v.cap_out[i] != alg_cap(vid, wid):
                err(
                    f"edge ({vid},{wid}): capacity {v.cap_out[i]} != "
                    f"ledger {alg_cap(vid, wid)}"
                )
            expected = alg_cap(vid, wid) + alg_cap(wid, vid)
            if ro + ri != expected:
                err(
                    f"pair ({vid},{wid}): residual sum {ro + ri} != capacity sum {expected}"
                )
            # Mirror freshness where it matters.
            if ro > 0 and v.mirror_hpos[i] != w.height_pos:
                err(
                    f"edge ({vid},{wid}): stale height mirror "
                    f"{v.mirror_hpos[i]} != {w.height_pos}"
                )
            # Mirrors always equal the last transmitted value.
            if v.mirror_hpos[i] != w.sent_hpos[j]:
                err(
                    f"edge ({vid},{wid}): mirror {v.mirror_hpos[i]} != "
                    f"last sent {w.sent_hpos[j]}"
                )
            # Height invariant along positive residual arcs.
            if ro > 0 and v.height_pos > w.height_pos + 1:
                err(
                    f"arc ({vid},{wid}): height {v.height_pos} > "
                    f"{w.height_pos} + 1 with residual {ro}"
                )

    # Search back from the sink: x reaches slot i's neighbour when that
    # neighbour has residual capacity toward x.
    reached, stack = {t}, [t]
    while stack:
        x = verts[stack.pop()]
        for i, wid in enumerate(x.nbr_ids):
            if x.res_in[i] > 0 and wid in verts and wid not in reached:
                reached.add(wid)
                stack.append(wid)
    if s in reached:
        err("the source reaches the sink along residual arcs")
    for vid in sorted(reached):
        if verts[vid].vtype == vx.NORMAL and verts[vid].excess > 0:
            err(f"vertex {vid}: holds excess {verts[vid].excess} and reaches the sink")

    total = sum(v.excess for v in verts.values())
    out_cap = sum(alg_cap(s, w) for (u, w) in caps if u == s)
    if total != out_cap:
        err(f"excess does not conserve: sum {total} != source out-capacity {out_cap}")

    return errors
