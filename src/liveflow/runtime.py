"""Emulated-distributed execution of the vertex program.

Vertices are partitioned over workers by id modulo worker count. Each worker
owns a topology FIFO plus one message FIFO per sending worker, and never
touches another worker's vertices. Topology events are prioritized over
algorithmic messages. The workers are logical: one seeded scheduler
(``SimEngine._run_steps``) interleaves them, and ``SimEngine._run_gr`` is the
only global-relabel driver. One thread appends to and pops from every
message channel, so per ordered worker pair messages arrive in send order:
the order of the channel's deque.

Two execution modes run that same code:

* deterministic (seeded): the caller's thread runs the scheduler whenever it
  pumps or queries.
* threaded (default): one background thread pumps while the caller keeps
  ingesting; its scheduler is seeded from OS entropy. A query waits until
  the thread is idle with every queue empty, which is quiescence.

A global relabel is one call, ``SimEngine._run_gr``, made between scheduler
batches: drain, relabel-up, relabel-down, then normal execution resumes.

Replay contract of the deterministic mode: the same seed and the same
configuration, fed the same events and queries, give the same schedule,
the same work counts (messages sent and received, topology events, lifts,
relabel runs, scheduler steps) and the same flow value at every query. The
relabel's self-checks (no flow moves, heights only descend) observe the run
without changing it. The scheduler's random draws are therefore part of the
contract: with two or more workers it draws a worker and then a channel from
the seeded generator once per quantum; with one worker it never draws.
"""

from __future__ import annotations

import math
import random
import threading
import time
import warnings
from collections import deque
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Set, Tuple

from . import vertex as vx
from .events import TopologyEvent
from .oracle import StaticGraph
from .relabel import (
    PHASE_DRAIN,
    PHASE_NORMAL,
    PHASE_RELABEL_DOWN,
    PHASE_RELABEL_UP,
    GrState,
    check_trigger,
)

__all__ = [
    "EngineConfig",
    "QueryResult",
    "GrSnapshot",
    "StreamValidityError",
    "GraphStore",
    "Engine",
    "SimEngine",
    "ThreadedEngine",
    "create_engine",
]

TOPO_EDGE = 0
TOPO_NEWMAX = 1

RUN_CAP = 32              # max handler invocations fused into one run
QUANTUM = 8               # seeded handler runs per draw on one worker and channel
PROBE_EVERY = 32          # scheduler steps between relabel-trigger probes
PROJECTION_FACTOR = 1.1   # source/sink height: ceil(PROJECTION_FACTOR * n_max)


class StreamValidityError(ValueError):
    """The stream violated delete-validity or basic event preconditions."""


@dataclass
class EngineConfig:
    source: int
    sink: int
    workers: int = 1
    deterministic_seed: Optional[int] = None

    def validate(self) -> None:
        if self.source == self.sink:
            raise ValueError("source and sink must differ")
        if self.workers < 1:
            raise ValueError("need at least one worker")


@dataclass
class QueryResult:
    trigger_ts: int
    flow_value: int
    involved: frozenset
    latency_s: float


@dataclass
class GrSnapshot:
    """Frozen state right after a global relabel's descent converged,
    before normal execution resumes."""

    height_pos: Dict[int, int]
    height_neg: Dict[int, int]
    residual: Dict[Tuple[int, int], int]   # arcs with positive residual
    deficits: Set[int]
    n_projected: int


class GraphStore:
    """Aggregate ordered-pair capacities, vertex census, and the projected
    vertex count used for source/sink heights. ``caps`` holds only pairs
    with positive capacity: a pair deleted back to 0 is forgotten."""

    __slots__ = ("caps", "vertices", "n_max", "n_projected")

    def __init__(self):
        self.caps: Dict[Tuple[int, int], int] = {}
        self.vertices: Set[int] = set()
        self.n_max = 0
        self.n_projected = 0

    def apply_edge(self, ev: TopologyEvent) -> None:
        key = (ev.src, ev.dst)
        cap = self.caps.get(key, 0) + ev.delta
        if cap < 0:
            raise StreamValidityError(
                f"edge {key}: cumulative capacity would become {cap}"
            )
        if cap:
            self.caps[key] = cap
        else:
            self.caps.pop(key, None)

    def note_vertices(self, *vids: int) -> int:
        """Track vertex ids; returns the new projected count when it grew,
        else 0."""
        seen = self.vertices
        added = False
        for vid in vids:
            if vid not in seen:
                seen.add(vid)
                added = True
        if added:
            self.n_max = len(seen)
            if self.n_max > self.n_projected:
                self.n_projected = math.ceil(PROJECTION_FACTOR * self.n_max)
                return self.n_projected
        return 0

    def snapshot(self) -> StaticGraph:
        return StaticGraph(dict(self.caps), set(self.vertices))


class Worker:
    """One shared-nothing partition: owned vertices, a topology FIFO, and a
    message FIFO per sending worker.

    ``outboxes[k]`` is worker k's channel from this worker, cached here
    because every handler run reads it."""

    __slots__ = (
        "wid",
        "engine",
        "vertices",
        "ctx",
        "topo",
        "chans",
        "outboxes",
        "nworkers",
        "msg_sent",
        "msg_received",
        "topo_received",
    )

    def __init__(self, wid: int, nworkers: int, engine: "SimEngine"):
        self.wid = wid
        self.engine = engine
        self.vertices: Dict[int, vx.VertexState] = {}
        self.ctx = vx.OpContext()
        self.topo = deque()
        self.chans = [deque() for _ in range(nworkers)]
        self.outboxes: List[deque] = []   # filled by the engine
        self.nworkers = nworkers
        self.msg_sent = 0
        self.msg_received = 0
        self.topo_received = 0

    # -- vertex and message plumbing -------------------------------------

    def get_vertex(self, vid: int) -> vx.VertexState:
        v = self.vertices.get(vid)
        if v is None:
            eng = self.engine
            if vid == eng.source:
                vt = vx.SOURCE
            elif vid == eng.sink:
                vt = vx.SINK
            else:
                vt = vx.NORMAL
            v = vx.VertexState(vid, vt)
            self.vertices[vid] = v
        return v

    def route(self, out: list) -> None:
        if not out:
            return
        n = self.nworkers
        outboxes = self.outboxes
        for item in out:
            outboxes[item[0] % n].append(item)
        self.msg_sent += len(out)

    # -- handler runs ------------------------------------------------------

    def topo_run(self) -> None:
        topo = self.topo
        item = topo.popleft()
        v = self.get_vertex(item[1])
        out: list = []
        count = 1
        if item[0] == TOPO_NEWMAX:
            vx.on_new_max_vertex_count(v, item[2], self.ctx, out)
        else:
            src = item[1]
            ctx = self.ctx
            source = self.engine.source
            handle = vx.on_edge_changed
            while True:
                handle(v, item[2], item[3], ctx, out, source)
                if count >= RUN_CAP or not topo:
                    break
                nxt = topo[0]
                if nxt[0] != TOPO_EDGE or nxt[1] != src:
                    break
                item = topo.popleft()
                count += 1
            vx.finish_vertex(v, ctx, out)
        self.route(out)
        self.topo_received += count

    def message_run(self, ci: int) -> None:
        """Consume the channel's next message plus up to RUN_CAP - 1 directly
        following messages for the same vertex, as one handler run."""
        chan = self.chans[ci]
        dst, m = chan.popleft()
        v = self.vertices.get(dst)
        if v is None:
            v = self.get_vertex(dst)
        ctx = self.ctx
        out: list = []
        handle = vx.on_message_received
        handle(v, m, ctx, out)
        count = 1
        while count < RUN_CAP and chan and chan[0][0] == dst:
            handle(v, chan.popleft()[1], ctx, out)
            count += 1
        vx.finish_vertex(v, ctx, out)
        self.route(out)
        self.msg_received += count


class SimEngine:
    """The engine: ingestion, seeded scheduling over logical workers,
    global relabels, quiescence and extraction, all on the caller's thread.
    With ``deterministic_seed`` set it replays exactly."""

    def __init__(self, config: EngineConfig):
        config.validate()
        self.source = config.source
        self.sink = config.sink
        self.nworkers = config.workers
        self.store = GraphStore()
        self.gr = GrState()
        self.workers = [Worker(i, config.workers, self) for i in range(config.workers)]
        for w in self.workers:
            w.outboxes = [peer.chans[w.wid] for peer in self.workers]
        self.last_event_ts = 0
        self.rng = random.Random(config.deterministic_seed)
        self._steps = 0          # scheduler steps run so far
        self._cut_baseline = 0   # flow cuts counted when the last relabel finished
        np0 = self.store.note_vertices(self.source, self.sink)
        if np0:
            self._schedule_newmax(np0)
        self.pump()  # settle the startup source/sink height events

    # -- ingestion ----------------------------------------------------------

    def ingest(self, ev: TopologyEvent) -> None:
        if ev.delta == 0:
            raise StreamValidityError("events must carry a nonzero capacity delta")
        self.store.apply_edge(ev)
        new_np = self.store.note_vertices(ev.src, ev.dst)
        if new_np:
            self._schedule_newmax(new_np)
        self.workers[ev.src % self.nworkers].topo.append(
            (TOPO_EDGE, ev.src, ev.dst, ev.delta)
        )
        self.last_event_ts = ev.ts

    def _schedule_newmax(self, n_projected: int) -> None:
        for vid in (self.source, self.sink):
            self.workers[vid % self.nworkers].topo.append(
                (TOPO_NEWMAX, vid, n_projected)
            )

    # -- quiescence ----------------------------------------------------------

    def _queues_empty(self) -> bool:
        for w in self.workers:
            if w.topo:
                return False
            for c in w.chans:
                if c:
                    return False
        return True

    def detect_quiescence(self) -> bool:
        """True when every queue is empty. Handler runs and relabels are plain
        calls on the caller's thread, so none is in flight when it asks."""
        return self._queues_empty()

    # -- extraction ----------------------------------------------------------

    # Both totals run at every trigger probe; a plain loop costs about a
    # third of sum() over a generator.

    def _total_lifts(self) -> int:
        n = 0
        for w in self.workers:
            n += w.ctx.lift_count
        return n

    def _total_cuts(self) -> int:
        n = 0
        for w in self.workers:
            n += w.ctx.cut_count
        return n

    def vertices_items(self) -> Iterable[Tuple[int, vx.VertexState]]:
        for w in self.workers:
            yield from w.vertices.items()

    def _sink_excess(self) -> int:
        w = self.workers[self.sink % self.nworkers]
        v = w.vertices.get(self.sink)
        return v.excess if v is not None else 0

    def involved_vertices(self) -> Set[int]:
        """Vertices touching a pair that carries positive flow. The flow on
        the edge to slot i is ``cap_out[i] - res_out[i]``, read from the
        vertex alone. Pairs the algorithm ignores carry none: their
        ``cap_out`` stays 0, and the sink's slots are skipped. Only the
        ``live`` slots are read: at quiescence an unlisted slot has both
        residuals 0, so its pair has no capacity either way."""
        sink = self.sink
        involved: Set[int] = set()
        add = involved.add
        for vid, v in self.vertices_items():
            if vid == sink:
                continue
            ids = v.nbr_ids
            caps = v.cap_out
            res = v.res_out
            for i in v.live:
                cap = caps[i]
                if cap > res[i] and cap > 0:
                    add(vid)
                    add(ids[i])
        return involved

    def _extract(self, trigger_ts: Optional[int], started: float) -> QueryResult:
        value = self._sink_excess()
        involved = frozenset(self.involved_vertices())
        return QueryResult(
            trigger_ts=trigger_ts if trigger_ts is not None else self.last_event_ts,
            flow_value=value,
            involved=involved,
            latency_s=time.perf_counter() - started,
        )

    def scan_invariants(self) -> List[str]:
        from .invariants import scan

        return scan(self)

    # -- lifecycle ------------------------------------------------------------

    def close(self) -> None:
        """Stop the engine's execution; the seeded engine has nothing to stop."""

    # -- scheduling ------------------------------------------------------------

    def _run_steps(self, budget: Optional[int], topo: bool = True) -> int:
        """The seeded scheduler: run up to ``budget`` handler runs (all
        pending work when None) and return how many ran. With ``topo`` False
        (the relabel's drains) topology events stay queued.

        The loop works in quanta. With two or more workers each quantum
        draws a worker with work, then one of its non-empty message
        channels; each draw starts at a random index and scans circularly.
        The quantum then runs up to QUANTUM consecutive handler runs on that
        worker: its topology FIFO first, checked before every run, else the
        drawn channel. It ends early when both are empty. With one worker
        there is nothing to choose and nothing is drawn, so the schedule is
        one handler run at a time, topology first."""
        workers = self.workers
        n = len(workers)
        random = self.rng.random
        topo_run = Worker.topo_run
        message_run = Worker.message_run
        w = workers[0]
        ci = 0
        done = 0
        while budget is None or done < budget:
            if n > 1:
                k = int(random() * n)
                for _ in range(n):
                    w = workers[k]
                    if (topo and w.topo) or any(w.chans):
                        break
                    k = k + 1 if k + 1 < n else 0
                else:
                    break  # no worker has work
                chans = w.chans
                ci = int(random() * n)
                for _ in range(n):
                    if chans[ci]:
                        break
                    ci = ci + 1 if ci + 1 < n else 0
            chan = w.chans[ci]
            quantum = QUANTUM if budget is None else min(QUANTUM, budget - done)
            ran = 0
            while ran < quantum:
                if topo and w.topo:
                    topo_run(w)
                elif chan:
                    message_run(w, ci)
                else:
                    break
                ran += 1
            if not ran:
                break  # the only worker is idle
            done += ran
        self._steps += done
        return done

    def pump(self, max_steps: Optional[int] = None) -> int:
        """Process up to max_steps handler runs (all pending work when None),
        honoring relabel triggers. Returns the number of steps executed.

        The relabel trigger is probed before every batch of PROBE_EVERY
        steps, after marking whether a flow cut happened since the last
        relabel."""
        gr = self.gr
        done = 0
        while max_steps is None or done < max_steps:
            gr.cut_pending = self._total_cuts() > self._cut_baseline
            if check_trigger(
                gr, self._steps, self._total_lifts(), self.store.n_max
            ) and not self._queues_empty():
                self._run_gr(capture=False)
            budget = PROBE_EVERY if max_steps is None else min(PROBE_EVERY, max_steps - done)
            ran = self._run_steps(budget)
            done += ran
            if ran < budget:
                break
        return done

    def query(self, trigger_ts: Optional[int] = None) -> QueryResult:
        started = time.perf_counter()
        self.pump()
        return self._extract(trigger_ts, started)

    def force_global_relabel(self, capture: bool = False) -> Optional[GrSnapshot]:
        """Run a full global relabel now. With ``capture=True`` returns the
        frozen post-descent state (heights are exact residual distances at
        that instant, before normal execution resumes)."""
        return self._run_gr(capture=capture)

    # -- global relabel (synchronous) -----------------------------------------

    def _run_gr(self, capture: bool = False) -> Optional[GrSnapshot]:
        """One global relabel, start to finish, with topology events held
        (``_run_steps(topo=False)``). Workers and vertices go in stored order,
        so the schedule replays; ``gr.advance`` marks each step for observers.
        Two self-checks ride on its walks and raise ``RuntimeError``: no
        excess moves (``held``), and no height ends above where relabel-up
        put it (``fixed`` for the fixed points, INF for every other vertex)."""
        gr = self.gr
        np_ = self.store.n_projected

        # Drain: park lifts and run every in-flight message.
        gr.advance(PHASE_DRAIN)
        for w in self.workers:
            w.ctx.lift_enabled = False
        self._run_steps(None, topo=False)

        # Relabel-up: every vertex but the fixed points jumps to INF.
        gr.advance(PHASE_RELABEL_UP)
        held: Dict[int, int] = {}
        for vid, v in self.vertices_items():
            vx.relabel_up(v, np_)
            if v.excess:
                held[vid] = v.excess

        # Relabel-down: park pushes, broadcast, descend by clamping alone.
        # Only the fixed points (source, sink, deficits) left relabel-up with
        # a finite height. Every other vertex is at (INF, INF), which
        # relabel-up also set as its last broadcast, and has no dirty slot,
        # so its broadcast would send nothing.
        gr.advance(PHASE_RELABEL_DOWN)
        fixed: List[Tuple[vx.VertexState, int, int]] = []
        for w in self.workers:
            w.ctx.push_enabled = False
            out: list = []
            for v in w.vertices.values():
                if v.vtype != vx.NORMAL or v.excess < 0:
                    fixed.append((v, v.height_pos, v.height_neg))
                    vx.broadcast_height_if_needed(v, out)
            w.route(out)
        self._run_steps(None, topo=False)
        for v, hp, hn in fixed:
            if v.height_pos > hp or v.height_neg > hn:
                raise RuntimeError(f"non-monotone descent at vertex {v.vid}")

        snap = self._capture_snapshot(np_) if capture else None

        # Normal: resume pushes and lifts and discharge parked excess. A
        # discharge changes only its own vertex's excess until the routed
        # messages run, so each check below still sees the descent's result.
        gr.advance(PHASE_NORMAL)
        gr.finish(self._steps, self._steps, self._total_lifts())
        self._cut_baseline = self._total_cuts()
        for w in self.workers:
            ctx = w.ctx
            ctx.push_enabled = ctx.lift_enabled = True
            out = []
            for vid, v in w.vertices.items():
                if v.height_pos > vx.INF or v.height_neg > vx.INF:
                    raise RuntimeError(f"non-monotone descent at vertex {vid}")
                if v.excess != 0:
                    if held.pop(vid, 0) != v.excess:
                        raise RuntimeError(f"flow moved during relabel at vertex {vid}")
                    vx.discharge(v, ctx, out)
                    vx.broadcast_height_if_needed(v, out)
            w.route(out)
        if held:  # a vertex that held excess after the drain holds none now
            raise RuntimeError(f"flow moved during relabel at vertex {next(iter(held))}")
        return snap

    def _capture_snapshot(self, n_projected: int) -> GrSnapshot:
        hpos: Dict[int, int] = {}
        hneg: Dict[int, int] = {}
        residual: Dict[Tuple[int, int], int] = {}
        deficits: Set[int] = set()
        for vid, v in self.vertices_items():
            hpos[vid] = v.height_pos
            hneg[vid] = v.height_neg
            if v.excess < 0:
                deficits.add(vid)
            ids = v.nbr_ids
            res_out = v.res_out
            for i in v.live:
                if res_out[i] > 0:
                    residual[(vid, ids[i])] = res_out[i]
        return GrSnapshot(hpos, hneg, residual, deficits, n_projected)


class ThreadedEngine(SimEngine):
    """The seeded engine's loop on one background thread, beside ingestion.

    The thread pumps in batches of PROBE_EVERY steps and runs forced
    relabels between batches. With every queue empty it marks itself idle
    and waits on ``_cond``; ``ingest`` (when the thread is idle), ``query``,
    ``force_global_relabel`` and ``close`` wake it. The scheduler's generator
    is seeded from OS entropy."""

    def __init__(self, config: EngineConfig):
        super().__init__(config)
        self._cond = threading.Condition()
        self._idle = False
        self._stop = False
        self._force: Optional[bool] = None   # capture flag of a requested relabel
        self._snap: Optional[GrSnapshot] = None
        self._thread = threading.Thread(target=self._serve, daemon=True, name="liveflow")
        self._thread.start()

    def _serve(self) -> None:
        cond = self._cond
        while not self._stop:
            capture = self._force
            if capture is not None:
                snap = self._run_gr(capture)
                with cond:
                    self._snap, self._force = snap, None
                    cond.notify_all()
            elif self.pump(PROBE_EVERY) < PROBE_EVERY:
                with cond:
                    # Idle is set before the queues are read and ingest
                    # appends before it reads idle, so an event appended
                    # after this check always finds the thread idle.
                    self._idle = True
                    while self._force is None and not self._stop and self._queues_empty():
                        cond.notify_all()
                        cond.wait()
                    self._idle = False

    def ingest(self, ev: TopologyEvent) -> None:
        super().ingest(ev)
        if self._idle:
            with self._cond:
                self._cond.notify_all()

    def detect_quiescence(self) -> bool:
        """True when the thread waits idle and every queue is empty."""
        with self._cond:
            return self._idle and self._queues_empty()

    def force_global_relabel(self, capture: bool = False) -> Optional[GrSnapshot]:
        """Run a full global relabel on the background thread between two
        scheduler batches, even with work queued, and wait for it."""
        with self._cond:
            self._force = capture
            self._cond.notify_all()
            while self._force is not None:
                self._cond.wait()
            return self._snap

    def query(self, trigger_ts: Optional[int] = None) -> QueryResult:
        started = time.perf_counter()
        with self._cond:
            self._cond.notify_all()
            while not self.detect_quiescence():
                self._cond.wait()
            return self._extract(trigger_ts, started)

    def close(self) -> None:
        """Stop the background thread, waiting up to 2 s for it; one still
        running then (a handler run that never returns) is left with a warning."""
        with self._cond:
            self._stop = True
            self._cond.notify_all()
        self._thread.join(timeout=2.0)
        if self._thread.is_alive():
            msg = f"thread {self._thread.name!r} still running 2 s after close()"
            warnings.warn(msg, RuntimeWarning, stacklevel=2)


Engine = SimEngine  # the engine class's public name, exported as liveflow.Engine


def create_engine(config: EngineConfig) -> SimEngine:
    """Deterministic seeded engine when a seed is configured, else the same
    engine pumped by one background thread."""
    if config.deterministic_seed is not None:
        return SimEngine(config)
    return ThreadedEngine(config)
