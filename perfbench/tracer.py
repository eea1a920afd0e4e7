"""Span tracer for the benchmark's traced run.

The tracer wraps the layers' public entry points from outside the program
(the wrappers are installed on the liveflow classes and modules for the
length of one traced episode and removed afterwards):

* spans, one per call: ingest segments (consecutive ``Engine.ingest``
  calls between two queries), ``query``, ``SimEngine.pump``,
  ``Engine.involved_vertices`` (extraction) and the global-relabel phases,
  whose boundaries are the ``GrState.advance`` calls;
* accumulators, a count and a total time per span: handler runs
  (``Worker.topo_run``, ``Worker.message_run``), vertex handler calls,
  ``Engine.ingest`` calls and messages routed by kind. These happen up to
  millions of times per episode, so they never get a span each and the
  trace's size stays bounded by the number of queries and relabels.

Accumulators are kept per thread, so the threaded engine's workers never
update the same counter. Everything stays in memory until ``dump``.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import threading
import time
from typing import Dict, List, Optional

from liveflow import relabel as lf_relabel
from liveflow import runtime as lf_runtime
from liveflow import vertex as lf_vertex

_perf = time.perf_counter


class _NullTracer:
    """Stand-in for untraced runs: spans cost one call."""

    def span(self, name: str):
        return contextlib.nullcontext()


NULL_TRACER = _NullTracer()


class Span:
    __slots__ = ("sid", "name", "start", "end", "parent", "qid", "attrs")

    def __init__(self, sid, name, start, parent, qid):
        self.sid = sid
        self.name = name
        self.start = start
        self.end: Optional[float] = None
        self.parent = parent
        self.qid = qid
        self.attrs: Dict[str, object] = {}


class Tracer:
    def __init__(self):
        self.spans: List[Span] = []
        self._sids = itertools.count()
        self.stack: List[Span] = []        # spans opened by the driving thread
        self.qids = 0
        self.gr_span: Optional[Span] = None    # open global relabel
        self.phase_span: Optional[Span] = None  # open relabel phase
        self.trigger: Optional[str] = None     # reason of the last firing trigger
        self.queue_peak = 0
        self._local = threading.local()
        self._accs: List[Dict] = []        # one dict per thread: (sid, name) -> [count, seconds]

    # -- spans ---------------------------------------------------------------

    def top(self) -> Optional[Span]:
        # Worker and coordinator threads read the driving thread's stack
        # while it may pop; an empty stack just means no enclosing span.
        try:
            return self.stack[-1]
        except IndexError:
            return None

    def begin(self, name: str, qid: Optional[int] = None, parent: Optional[Span] = None) -> Span:
        if parent is None:
            parent = self.top()
        if qid is None and parent is not None:
            qid = parent.qid
        sp = Span(next(self._sids), name, _perf(), parent.sid if parent else None, qid)
        self.spans.append(sp)
        return sp

    def push(self, name: str, qid: Optional[int] = None) -> Span:
        sp = self.begin(name, qid)
        self.stack.append(sp)
        return sp

    def pop(self) -> None:
        self.stack.pop().end = _perf()

    @contextlib.contextmanager
    def span(self, name: str):
        sp = self.push(name)
        try:
            yield
        finally:
            while self.stack and self.stack[-1] is not sp:
                self.pop()  # an ingest segment left open by a failed episode
            self.pop()

    def _close_segment(self) -> None:
        top = self.top()
        if top is not None and top.name == "ingest":
            self.pop()

    # -- accumulators --------------------------------------------------------

    def current(self) -> Optional[Span]:
        sp = self.phase_span
        return sp if sp is not None else self.top()

    def add(self, name: str, count: int, seconds: float = 0.0) -> None:
        acc = getattr(self._local, "acc", None)
        if acc is None:
            acc = self._local.acc = {}
            self._accs.append(acc)
        sp = self.current()
        key = (sp.sid if sp is not None else None, name)
        cell = acc.get(key)
        if cell is None:
            acc[key] = [count, seconds]
        else:
            cell[0] += count
            cell[1] += seconds

    def totals(self) -> Dict[tuple, List[float]]:
        """Accumulators merged over threads, keyed by (span id, name)."""
        out: Dict[tuple, List[float]] = {}
        for acc in self._accs:
            for key, (c, s) in list(acc.items()):
                cell = out.setdefault(key, [0, 0.0])
                cell[0] += c
                cell[1] += s
        return out

    # -- wrappers --------------------------------------------------------------

    @contextlib.contextmanager
    def installed(self):
        """Wrap the layers' entry points for the duration of the block."""
        Engine, SimEngine, ThreadedEngine = (
            lf_runtime.Engine, lf_runtime.SimEngine, lf_runtime.ThreadedEngine)
        Worker, GrState = lf_runtime.Worker, lf_relabel.GrState
        tr = self
        saved = []

        def patch(owner, name, make):
            orig = owner.__dict__[name]
            saved.append((owner, name, orig))
            setattr(owner, name, make(orig))

        def backlog(engine) -> int:
            n = 0
            for w in engine.workers:
                n += len(w.topo)
                for c in w.chans:
                    n += len(c)
            return n

        def w_ingest(orig):
            def ingest(self, ev):
                top = tr.top()
                if top is None or top.name != "ingest":
                    tr.push("ingest")
                t0 = _perf()
                orig(self, ev)
                tr.add("ingest", 1, _perf() - t0)
                b = backlog(self)
                if b > tr.queue_peak:
                    tr.queue_peak = b
            return ingest

        def w_query(orig):
            def query(self, trigger_ts=None):
                tr._close_segment()
                tr.qids += 1
                sp = tr.push("query", tr.qids)
                b = backlog(self)
                sp.attrs["backlog"] = b
                if b > tr.queue_peak:
                    tr.queue_peak = b
                try:
                    return orig(self, trigger_ts)
                finally:
                    tr.pop()
            return query

        def w_pump(orig):
            def pump(self, max_steps=None):
                sp = tr.push("pump")
                try:
                    steps = orig(self, max_steps)
                    sp.attrs["steps"] = steps
                    return steps
                finally:
                    tr.pop()
            return pump

        def w_extract(orig):
            def involved_vertices(self):
                tr.push("extract")
                try:
                    return orig(self)
                finally:
                    tr.pop()
            return involved_vertices

        def w_topo_run(orig):
            def topo_run(self):
                t0 = _perf()
                orig(self)
                tr.add("topo_run", 1, _perf() - t0)
            return topo_run

        def w_message_run(orig):
            def message_run(self, ci):
                relabel = self.engine.gr.phase != lf_relabel.PHASE_NORMAL
                before = self.msg_received
                t0 = _perf()
                orig(self, ci)
                dt = _perf() - t0
                handled = self.msg_received - before
                tr.add("message_run", 1, dt)
                tr.add("msgs_handled", handled)
                if relabel:
                    tr.add("msgs_relabel", handled)
            return message_run

        def w_route(orig):
            cap_kind = lf_vertex.CAP_OFFSET

            def route(self, out):
                flow = cap = height = 0
                for _, m in out:
                    if m.kind == cap_kind:
                        cap += 1
                    elif m.amount:
                        flow += 1
                    else:
                        height += 1
                if flow:
                    tr.add("msgs_flow", flow)
                if cap:
                    tr.add("msgs_cap", cap)
                if height:
                    tr.add("msgs_height_only", height)
                orig(self, out)
            return route

        def w_handler(orig):
            def handler(*args, **kwargs):
                t0 = _perf()
                try:
                    return orig(*args, **kwargs)
                finally:
                    tr.add("handler", 1, _perf() - t0)
            return handler

        def w_check_trigger(orig):
            def check_trigger(gr, now_ms, lifts_total, n_max):
                fired = orig(gr, now_ms, lifts_total, n_max)
                if fired:
                    threshold = gr.tunables.lift_threshold or max(n_max, 1)
                    tr.trigger = ("lift" if lifts_total - gr.lift_baseline >= threshold
                                  else "time")
                return fired
            return check_trigger

        phase_names = {
            lf_relabel.PHASE_DRAIN: "relabel.drain",
            lf_relabel.PHASE_RELABEL_UP: "relabel.up",
            lf_relabel.PHASE_RELABEL_DOWN: "relabel.down",
        }

        def w_advance(orig):
            def advance(self, phase):
                orig(self, phase)
                now = _perf()
                if tr.phase_span is not None:
                    tr.phase_span.end = now
                    tr.phase_span = None
                if phase == lf_relabel.PHASE_DRAIN:
                    tr.gr_span = tr.begin("relabel")
                    tr.gr_span.attrs["trigger"] = tr.trigger or "forced"
                    tr.trigger = None
                if phase in phase_names and tr.gr_span is not None:
                    tr.phase_span = tr.begin(phase_names[phase], parent=tr.gr_span)
            return advance

        def w_finish(orig):
            def finish(self, now_ms, started_ms, lifts_total):
                orig(self, now_ms, started_ms, lifts_total)
                if tr.gr_span is not None:
                    tr.gr_span.end = _perf()
                    tr.gr_span = None
            return finish

        patch(Engine, "ingest", w_ingest)
        patch(SimEngine, "query", w_query)
        patch(ThreadedEngine, "query", w_query)
        patch(SimEngine, "pump", w_pump)
        patch(Engine, "involved_vertices", w_extract)
        patch(Worker, "topo_run", w_topo_run)
        patch(Worker, "message_run", w_message_run)
        patch(Worker, "route", w_route)
        for name in ("on_edge_changed", "on_message_received", "finish_vertex"):
            patch(lf_vertex, name, w_handler)
        patch(lf_runtime, "check_trigger", w_check_trigger)
        patch(GrState, "advance", w_advance)
        patch(GrState, "finish", w_finish)
        try:
            yield self
        finally:
            for owner, name, orig in reversed(saved):
                setattr(owner, name, orig)

    # -- output ----------------------------------------------------------------

    def self_times(self) -> Dict[int, float]:
        """Span duration minus the durations of its child spans."""
        child: Dict[int, float] = {}
        for sp in self.spans:
            if sp.parent is not None and sp.end is not None:
                child[sp.parent] = child.get(sp.parent, 0.0) + sp.end - sp.start
        return {sp.sid: (sp.end - sp.start) - child.get(sp.sid, 0.0)
                for sp in self.spans if sp.end is not None}

    def dump(self, path: str) -> None:
        selfs = self.self_times()
        totals = self.totals()
        per_span: Dict[int, Dict[str, List[float]]] = {}
        for (sid, name), cell in totals.items():
            per_span.setdefault(sid, {})[name] = cell
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({
                "spans": [
                    {"id": sp.sid, "name": sp.name, "start": sp.start, "end": sp.end,
                     "parent": sp.parent, "query": sp.qid,
                     "self": selfs.get(sp.sid), "attrs": sp.attrs,
                     "counts": per_span.get(sp.sid, {})}
                    for sp in self.spans
                ],
                "unattributed": per_span.get(None, {}),
            }, fh)
