"""Emulated-distributed execution of the vertex program.

Vertices are partitioned over workers by id modulo worker count. Each worker
owns a topology FIFO plus one message FIFO per sending worker, and never
touches another worker's vertices. Topology events are prioritized over
algorithmic messages. The workers are logical: one seeded scheduler
(``SimEngine._run_steps``) interleaves them, and ``SimEngine._run_gr`` is the
only global-relabel driver. A handler run applies one item, a topology
event or a message, and then closes with ``vertex.finish_vertex``. One
thread appends to and pops from every message channel, so per ordered
worker pair messages arrive in send order: the order of the channel's deque.

Two execution modes run that same code:

* deterministic (seeded): the caller's thread runs the scheduler whenever it
  pumps or queries.
* threaded (default): one background thread pumps while the caller keeps
  ingesting; its scheduler is seeded from OS entropy. A query waits until
  the thread is idle with every queue empty, which is quiescence, and then
  extracts on the caller's thread while the thread stays parked.

A global relabel is one call, ``SimEngine._run_gr``, which ``pump`` makes
between scheduler batches once the lift budget is spent: drain, relabel-up,
relabel-down, then normal execution resumes.

Replay contract of the deterministic mode: the same seed and the same
configuration, fed the same events and queries, give the same schedule,
the same work counts (messages sent and received, topology events, lifts,
relabel runs, scheduler steps) and the same flow value at every query. The
relabel's self-checks (no deficit survives the drain, no flow moves, heights
only descend) observe the run without changing it. The scheduler's random
draws are therefore part of the contract: with two or more workers it draws
a worker and then a channel from the seeded generator once per quantum; with
one worker it never draws.
"""

from __future__ import annotations

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
    "StreamValidityError",
    "GraphStore",
    "Engine",
    "SimEngine",
    "ThreadedEngine",
    "create_engine",
]

QUANTUM = 8               # seeded handler runs per draw on one worker and channel
PROBE_EVERY = 32          # scheduler steps between relabel-trigger probes


class StreamValidityError(ValueError):
    """The stream violated delete-validity or basic event preconditions."""


@dataclass
class EngineConfig:
    source: int
    sink: int
    workers: int = 1
    deterministic_seed: Optional[int] = None

    def validate(self) -> None:
        if self.source < 0 or self.sink < 0:
            raise ValueError("source and sink must be non-negative")
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


class GraphStore:
    """Aggregate ordered-pair capacities and the vertex census, whose size
    ``n_max`` sets the relabel's lift budget. ``caps`` holds only pairs
    with positive capacity: a pair deleted back to 0 is forgotten."""

    __slots__ = ("caps", "vertices", "n_max")

    def __init__(self):
        self.caps: Dict[Tuple[int, int], int] = {}
        self.vertices: Set[int] = set()
        self.n_max = 0

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

    def note_vertices(self, *vids: int) -> None:
        """Track vertex ids."""
        self.vertices.update(vids)
        self.n_max = len(self.vertices)

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
        """Apply the topology FIFO's next item as one handler run."""
        src, dst, delta = self.topo.popleft()
        v = self.get_vertex(src)
        ctx = self.ctx
        out: list = []
        dirty = vx.on_edge_changed(v, dst, delta, out, self.engine.source)
        vx.finish_vertex(v, ctx, out, dirty)
        self.route(out)
        self.topo_received += 1

    def message_run(self, ci: int) -> None:
        """Apply the channel's next message as one handler run."""
        dst, m = self.chans[ci].popleft()
        v = self.vertices.get(dst)
        if v is None:
            v = self.get_vertex(dst)
        ctx = self.ctx
        out: list = []
        i = vx.on_message_received(v, m, ctx, out)
        vx.finish_vertex(v, ctx, out, i)
        self.route(out)
        self.msg_received += 1


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
        self.store.note_vertices(self.source, self.sink)
        for vid in (self.source, self.sink):
            self.workers[vid % self.nworkers].get_vertex(vid)

    # -- ingestion ----------------------------------------------------------

    def ingest(self, ev: TopologyEvent) -> None:
        if ev.delta == 0:
            raise StreamValidityError("events must carry a nonzero capacity delta")
        self.store.apply_edge(ev)
        self.store.note_vertices(ev.src, ev.dst)
        self.workers[ev.src % self.nworkers].topo.append((ev.src, ev.dst, ev.delta))
        self.last_event_ts = ev.ts

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
        relabel (a cut spends a budget of 1 lift, see ``relabel``). A
        deficit needs no relabel: ``vertex.shed`` cancels it along its own
        flow in the handler run that made it, or in the one that receives
        the flow a cut sends back."""
        gr = self.gr
        done = 0
        while max_steps is None or done < max_steps:
            gr.cut_pending = self._total_cuts() > self._cut_baseline
            if (check_trigger(gr, self._steps, self._total_lifts(), self.store.n_max)
                    and not self._queues_empty()):
                self._run_gr()
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

    # -- global relabel (synchronous) -----------------------------------------

    def _run_gr(self) -> None:
        """One global relabel, start to finish. Only its drain runs the
        scheduler, with topology events held (``_run_steps(topo=False)``).
        Workers and vertices go in stored order, so the schedule replays;
        ``gr.advance`` marks each step for observers. Three self-checks
        raise ``RuntimeError``: no deficit survives the drain (every handler
        run sheds its own, once the flow a cut returns has arrived), no
        excess moves (``held``), and no height ends above where relabel-up
        put it (the source and the sink keep their fixed points, INF bounds
        every other vertex; a search that reached the source breaks INF)."""
        gr = self.gr

        # Drain: park lifts and run every in-flight message.
        gr.advance(PHASE_DRAIN)
        for w in self.workers:
            w.ctx.lift_enabled = False
        self._run_steps(None, topo=False)

        # Relabel-up: every normal vertex jumps to INF.
        gr.advance(PHASE_RELABEL_UP)
        held: Dict[int, int] = {}
        for vid, v in self.vertices_items():
            if v.excess:
                if v.excess < 0:
                    raise RuntimeError(f"deficit {v.excess} left after the drain at vertex {vid}")
                held[vid] = v.excess
            vx.relabel_up(v)

        # Relabel-down: a tiered breadth-first search from the sink gives
        # every vertex that reaches it its residual distance; the rest stay
        # at INF, where their excess waits. The heights are then written
        # where a broadcast would.
        gr.advance(PHASE_RELABEL_DOWN)
        source, sink = (self.workers[x % self.nworkers].vertices[x]
                        for x in (self.source, self.sink))
        self._levels([sink], 0)
        self._write_heights()
        for v, fixed in ((source, vx.INF), (sink, 0)):
            if v.height_pos != fixed:
                raise RuntimeError(f"non-monotone descent at vertex {v.vid}")

        # Normal: resume lifts and discharge parked excess. A discharge
        # changes only its own vertex's excess until the routed messages
        # run, so each check below still sees relabel-down's result.
        gr.advance(PHASE_NORMAL)
        gr.finish(self._steps, self._steps, self._total_lifts())
        self._cut_baseline = self._total_cuts()
        for w in self.workers:
            ctx = w.ctx
            ctx.lift_enabled = True
            out = []
            for vid, v in w.vertices.items():
                if v.height_pos > vx.INF:
                    raise RuntimeError(f"non-monotone descent at vertex {vid}")
                if v.excess != 0:
                    if held.pop(vid, 0) != v.excess:
                        raise RuntimeError(f"flow moved during relabel at vertex {vid}")
                    vx.discharge(v, ctx, out)
                    vx.broadcast_height_if_needed(v, out)
            w.route(out)
        if held:  # a vertex that held excess after the drain holds none now
            raise RuntimeError(f"flow moved during relabel at vertex {next(iter(held))}")

    def _levels(self, frontier: list, level: int) -> None:
        """Breadth-first search, one level per superstep: each vertex still
        at INF that the frontier reaches takes the next level as its height
        and joins the next frontier. A vertex x reaches the neighbour on
        slot i when ``x.res_in[i] > 0``; x's slots are read only while x is
        expanded, and the neighbour is found in its owner's table."""
        workers, n, INF = self.workers, self.nworkers, vx.INF
        while frontier:
            level += 1
            reached = []
            for x in frontier:
                r, ids = x.res_in, x.nbr_ids
                for i in x.live:
                    if r[i] > 0:
                        w = workers[ids[i] % n].vertices[ids[i]]
                        if w.height_pos == INF:
                            w.height_pos = level
                            reached.append(w)
            frontier = reached

    def _write_heights(self) -> None:
        """Leave what a broadcast of every vertex's new height would: per
        ``live`` slot i toward w, the height where ``res_in[i] > 0``, else
        INF, becomes the slot's sent value and w's mirror of it. Unlisted
        slots keep theirs, which already match."""
        workers, n, INF = self.workers, self.nworkers, vx.INF
        for vid, v in self.vertices_items():
            hp = v.last_bcast_pos = v.height_pos
            ids, res_in = v.nbr_ids, v.res_in
            for i in v.live:
                w = workers[ids[i] % n].vertices[ids[i]]
                v.sent_hpos[i] = w.mirror_hpos[w.nbr_index[vid]] = hp if res_in[i] > 0 else INF


class ThreadedEngine(SimEngine):
    """The seeded engine's loop on one background thread, beside ingestion.

    The thread pumps in batches of PROBE_EVERY steps. With every queue empty
    it marks itself idle and waits on ``_cond``; ``ingest`` (when the thread
    is idle), ``query`` and ``close`` wake it. ``query`` waits for that idle
    state and extracts on the caller's thread while the background thread
    stays parked. The scheduler's generator is seeded from OS entropy."""

    def __init__(self, config: EngineConfig):
        super().__init__(config)
        self._cond = threading.Condition()
        self._idle = False
        self._stop = False
        self._thread = threading.Thread(target=self._serve, daemon=True, name="liveflow")
        self._thread.start()

    def _serve(self) -> None:
        cond = self._cond
        while not self._stop:
            if self.pump(PROBE_EVERY) < PROBE_EVERY:
                with cond:
                    # Idle is set before the queues are read and ingest
                    # appends before it reads idle, so an event appended
                    # after this check always finds the thread idle.
                    self._idle = True
                    while not self._stop and self._queues_empty():
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

    def query(self, trigger_ts: Optional[int] = None) -> QueryResult:
        """Wait for quiescence, then extract while holding ``_cond``.
        ``_serve`` sets idle and waits without releasing the lock in
        between, so while this holds the lock and sees idle the thread is
        inside ``cond.wait()``. A closed engine never gets there again, so
        the wait raises once ``close`` has run."""
        started = time.perf_counter()
        with self._cond:
            self._cond.notify_all()
            while not self.detect_quiescence():
                if self._stop:
                    raise RuntimeError("query on a closed engine")
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
