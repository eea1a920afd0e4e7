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
* normal vertices hold zero excess; a deficit pins the positive height at 0;
* source/sink heights sit at their fixed points;
* the negative height field is on or off, and the source's negative height
  says which: 0 while it is on, INF while it is off. While it is off the
  sink's negative height is INF too, no vertex holds a deficit, and every
  normal vertex's negative height and every negative mirror is INF, on dead
  slots too (the relabel that switches the field off clears them); each
  breach is its own error. A negative height is read only
  by a deficit's push, so this rule implies the negative height invariant
  wherever a deficit can push: while the field is off there is no deficit
  to push and every relevant value is INF, which meets the invariant
  (INF <= INF + 1); while it is on the rules below check it as before. A
  finite negative height while the field is off could only have leaked in,
  since the fixed points that seed that field hold INF;
* the height invariant holds along every positive residual arc, for both
  the positive and the negative height (the sink is exempt from the
  negative-height rule, mirroring the source's exemption from pushing
  positive flow back);
* mirrored heights match the counterpart's true heights wherever the
  residual that makes them relevant is positive, and match the
  counterpart's last transmitted value unconditionally.
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
    n_max = engine.store.n_max
    neg_on = s in verts and verts[s].height_neg != vx.INF

    def alg_cap(u: int, w: int) -> int:
        if u == w or w == s or u == t:
            return 0
        return caps.get((u, w), 0)

    for vid, v in verts.items():
        if v.height_pos < 0 or v.height_neg < 0:
            err(f"vertex {vid}: negative height")
        if v.vtype == vx.NORMAL and v.excess != 0:
            if v.excess > 0 or v.height_neg < vx.INF:
                err(f"vertex {vid}: normal vertex holds excess {v.excess}")
            else:
                # A stranded deficit (negative height INF) is the one state
                # that may legitimately rest with nonzero excess; it still
                # counts as a violation for conservation purposes below.
                err(f"vertex {vid}: stranded deficit {v.excess}")
        if v.excess < 0 and v.height_pos != 0:
            err(f"vertex {vid}: deficit with positive height {v.height_pos}")
        if v.vtype == vx.SOURCE:
            if v.height_pos < n_max:
                err(f"source height {v.height_pos} below vertex count {n_max}")
            if v.height_neg not in (0, vx.INF):
                err(f"source negative height {v.height_neg} is neither 0 (field on) nor INF (field off)")
        if v.vtype == vx.SINK:
            if v.height_pos != 0:
                err(f"sink height {v.height_pos} != 0")
            if neg_on and not n_max <= v.height_neg < vx.INF:
                err(f"sink negative height {v.height_neg} outside [{n_max}, INF) "
                    "while the negative field is on")
            if not neg_on and v.height_neg != vx.INF:
                err(f"sink negative height {v.height_neg} while the negative field is off")
        if not neg_on:
            if v.excess < 0:
                err(f"vertex {vid}: deficit {v.excess} while the negative field is off")
            if v.vtype == vx.NORMAL and v.height_neg != vx.INF:
                err(f"vertex {vid}: negative height {v.height_neg} while the negative field is off")

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
            if ri > 0 and v.mirror_hneg[i] != w.height_neg:
                err(
                    f"edge ({vid},{wid}): stale negative-height mirror "
                    f"{v.mirror_hneg[i]} != {w.height_neg}"
                )
            if not neg_on and v.mirror_hneg[i] != vx.INF:
                err(f"edge ({vid},{wid}): negative mirror {v.mirror_hneg[i]} "
                    "while the negative field is off")
            # Mirrors always equal the last transmitted value.
            if v.mirror_hpos[i] != w.sent_hpos[j]:
                err(
                    f"edge ({vid},{wid}): mirror {v.mirror_hpos[i]} != "
                    f"last sent {w.sent_hpos[j]}"
                )
            if v.mirror_hneg[i] != w.sent_hneg[j]:
                err(
                    f"edge ({vid},{wid}): negative mirror {v.mirror_hneg[i]} != "
                    f"last sent {w.sent_hneg[j]}"
                )
            # Height invariant along positive residual arcs.
            if ro > 0 and v.height_pos > w.height_pos + 1:
                err(
                    f"arc ({vid},{wid}): height {v.height_pos} > "
                    f"{w.height_pos} + 1 with residual {ro}"
                )
            # Negative-height invariant along inbound residual arcs (t exempt).
            if ri > 0 and v.vtype != vx.SINK and v.height_neg > w.height_neg + 1:
                err(
                    f"arc ({wid},{vid}): negative height {v.height_neg} > "
                    f"{w.height_neg} + 1 with residual {ri}"
                )

    stuck = any(
        v.excess < 0 and v.height_neg >= vx.INF
        for v in verts.values()
        if v.vtype == vx.NORMAL
    )
    if not stuck:
        total = sum(v.excess for v in verts.values() if v.vtype == vx.NORMAL)
        if total != 0:
            err(f"normal excess does not conserve: sum {total}")

    return errors
